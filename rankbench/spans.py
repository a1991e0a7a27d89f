"""Span tracing of rankmk from outside the package.

`Tracer.rebound(targets)` replaces each traced public function or method
with a wrapper that records a span, in every `rankmk` module namespace that
holds it (a module that did `from .matrix import rref` has its own name to
rebind), and restores the originals on exit.  Spans live in flat arrays and
are written out by `dump` at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager


def _rankmk_modules():
    return [mod for name, mod in list(sys.modules.items()) if name == "rankmk" or name.startswith("rankmk.")]


@contextmanager
def rebind(replacements):
    """Temporarily swap objects by identity across every rankmk namespace.

    `replacements` maps (owner, attribute) to the new object.  Owners that are
    classes are patched in place; for module-level functions every rankmk
    module attribute bound to the original object is swapped.
    """
    undo = []
    try:
        for (owner, attr), new in replacements.items():
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                setattr(owner, attr, new)
                undo.append((owner, attr, original))
                continue
            for mod in _rankmk_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, new)
                        undo.append((mod, name, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store: name id, parent index, start and end (ns)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter_ns()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, classify=None):
        """Wrapper recording one span per call; `classify(args)` may pick a
        name suffix per call."""
        base = self._id(name)
        ids = {}
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            nid = base
            if classify is not None:
                sub = classify(args)
                nid = ids.get(sub)
                if nid is None:
                    nid = ids[sub] = self._id(f"{name}.{sub}")
            idx = self._open(nid)
            self.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def rebound(self, targets):
        """`rebind` with span wrappers; targets are (owner, attr, name[, classify])."""
        return rebind({(t[0], t[1]): self.wrap(t[0].__dict__[t[1]], *t[2:]) for t in targets})

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> array:
        """Duration of each span minus the time its child spans cover."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans under `root` (excluded); parents precede children."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.start)):
            if self.parent[i] in inside:
                inside.add(i)
                out.append(i)
        return out

    def dump(self, path) -> None:
        """Write the span names, then one `[name, parent, start_ns, end_ns]`
        line per span; a span's id is its line number minus two."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name_id, self.parent, self.start, self.end):
                fh.write(json.dumps(row) + "\n")


class CallCounter:
    """Exact call counts of selected methods, without spans."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def wrap(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def rebound(self, targets):
        return rebind({(owner, attr): self.wrap(owner.__dict__[attr], name) for owner, attr, name in targets})
