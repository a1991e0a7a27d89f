"""rankmk benchmark: trials/s and decode latency, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 rankbench/run.py --workload gf81-l2t2 --seed 1 --seconds 40 --trace 0

The package is imported from ./src; nothing is installed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it carries the run context (Python version,
nproc, calibration-loop time), and rankbench/out/ receives the full result
and, for a traced run, every span.  `--write-reference` regenerates
reference.json from the current program instead of measuring.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: host speed context, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true", help="regenerate reference.json and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rankmk" / "__init__.py").is_file():
        print(f"rankmk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import layers
    from workloads import WORKLOADS

    if args.write_reference:
        ref = {}
        for wl in WORKLOADS.values():
            spec, _ = harness.build_code(wl)
            ref[wl.name] = harness.reference_tallies(wl, spec, wl.fixed_trials)
        harness.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
        return 0
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calibration_ms_before": calibration_ms(),
    }
    if args.trace:
        res = layers.run_traced(wl, args.seed, args.seconds, OUT / f"{stem}.spans.jsonl")
    else:
        res = harness.run_untraced(wl, args.seed, args.seconds)
    context["calibration_ms_after"] = calibration_ms()
    context["samples"] = res["samples"]
    context["errors"] = res["errors"]

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"context": context, "result": result}, indent=2) + "\n")
    for msg in res["errors"]:
        print(f"error: {msg}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
