"""Command-line front end.

Subcommands: demo, encode, corrupt, decode, simulate, bound.
Stdout carries data (matrices, CSV, status lines); stderr carries
diagnostics.  Exit codes: 0 success, 2 decode failure, 3 format error,
4 parameter error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import demo as demo_mod
from .codes import GabidulinSpec, LinearCodeSpec, code_spec_from_text, resolve_code
from .decoder import decode
from .errors import FormatError, ParameterError
from .fields import ExtField, _check_q_m, _check_rabin_size
from .matrix import mat_from_text
from .simulate import MODES, SimConfig, run_trials, sample_error, success_lower_bound, trial_rng

EXIT_OK = 0
EXIT_DECODE_FAILURE = 2
EXIT_FORMAT = 3
EXIT_PARAMETER = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parameter errors (exit 4)
        raise ParameterError(message)


def _parse_inline_code(text: str, ctx: ExtField | None) -> GabidulinSpec:
    if not text.startswith("gabidulin:"):
        raise ParameterError(f"inline --code must look like gabidulin:g=...,k=... (got {text!r})")
    if ctx is None:
        raise ParameterError("inline --code requires --field")
    body = text[len("gabidulin:") :]
    head, sep, ktext = body.rpartition(",k=")
    if not sep or not head.startswith("g="):
        raise ParameterError(f"malformed inline code {text!r}")
    try:
        g = tuple(int(a) for a in head[2:].split(","))
        k = int(ktext)
    except ValueError as exc:
        raise ParameterError(f"malformed inline code {text!r}") from exc
    return GabidulinSpec(ctx, g, k)


def _load_code(args) -> LinearCodeSpec:
    ctx = ExtField.from_spec(args.field) if args.field else None
    if args.code_file:
        spec = code_spec_from_text(Path(args.code_file).read_text())
        if ctx is not None and spec.ctx != ctx:
            raise ParameterError("--field disagrees with the field in --code-file")
    elif args.code:
        spec = _parse_inline_code(args.code, ctx)
    else:
        raise ParameterError("one of --code or --code-file is required")
    return resolve_code(spec)


# -- subcommands -----------------------------------------------------------------


def cmd_demo(args) -> int:
    tamper = None
    if args.tamper:
        try:
            i, j, delta = (int(x) for x in args.tamper.split(","))
        except ValueError as exc:
            raise ParameterError("--tamper wants i,j,delta") from exc
        tamper = (i, j, delta)
    return demo_mod.run_demo(quiet=args.quiet, tamper=tamper)


def cmd_encode(args) -> int:
    code = _load_code(args)
    msg = mat_from_text(Path(args.message).read_text(), ctx=code.ctx)
    if msg.cols != code.k:
        raise ParameterError(f"message has {msg.cols} columns, code dimension is {code.k}")
    Path(args.out).write_text((msg @ code.gen).to_text())
    return EXIT_OK


def cmd_corrupt(args) -> int:
    ctx = ExtField.from_spec(args.field) if args.field else None
    word = mat_from_text(Path(args.infile).read_text(), ctx=ctx)
    rng = trial_rng(args.seed, 0)
    err, _, _ = sample_error(rng, word.ctx, word.rows, word.cols, args.t, args.mode)
    Path(args.out).write_text(word.add(err).to_text())
    Path(args.error_out).write_text(err.to_text())
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _load_code(args)
    received = mat_from_text(Path(args.infile).read_text(), ctx=code.ctx)
    outcome = decode(code.h, received, code.d)
    if not outcome.success:
        print(
            f"decode failure: {outcome.reason.value} (t_hat={outcome.t_hat}): {outcome.detail}",
            file=sys.stderr,
        )
        return EXIT_DECODE_FAILURE
    Path(args.out).write_text(outcome.c_hat.to_text())
    if args.out_coeff:
        Path(args.out_coeff).write_text(outcome.a_hat.to_text())
    if args.out_support:
        Path(args.out_support).write_text(outcome.b_hat.to_text())
    print(f"status,success t,{outcome.t_hat} beyond,{int(outcome.beyond_guarantee)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    code = _load_code(args)
    cfg = SimConfig(code=code, ell=args.ell, t=args.t, trials=args.trials, seed=args.seed, mode=args.mode)
    report = run_trials(cfg)
    if args.out:
        Path(args.out).write_text(report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    print(report.summary_line())
    return EXIT_OK


def cmd_bound(args) -> int:
    q, m, t, ell = args.q, args.m, args.t, args.ell
    _check_q_m(q, m)
    _check_rabin_size(q, m)
    # Refuse, before building it, an exact bound that str() would refuse: its
    # longest number is the product's denominator q^(m * sum_{i<t} (ell - i)),
    # as each factor q^(m*j) - 1 is coprime to q, and q^e > 10^limit once
    # e >= 4 * limit.  Pythons without the int-to-str limit have no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    e = m * (t * ell - t * (t - 1) // 2)
    if limit and 0 <= t <= ell and (e >= 4 * limit or q**e >= 10**limit):
        raise ParameterError(f"the exact bound's denominator q^{e} has more than {limit} digits")
    product, simple = success_lower_bound(t, ell, m, q)
    print(
        f"product,{float(product)!r} product_exact,{product.numerator}/{product.denominator} "
        f"simple,{float(simple)!r} simple_exact,{simple.numerator}/{simple.denominator}"
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankmk", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run the built-in worked example end to end")
    p.add_argument("--quiet", action="store_true", help="print only PASS/FAIL")
    p.add_argument("--tamper", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_demo)

    def add_code_args(p):
        p.add_argument("--field", help="field spec, e.g. 'q=2 m=5 f=1,0,1,0,0,1'")
        p.add_argument("--code", help="inline code, e.g. 'gabidulin:g=1,2,4,8,16,k=2'")
        p.add_argument("--code-file", help="path to a code spec file")

    def add_draw_args(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--mode", choices=MODES, default=MODES[0])

    p = sub.add_parser("encode", help="message matrix -> interleaved codeword matrix")
    add_code_args(p)
    p.add_argument("--message", required=True, help="message matrix file (ell x k)")
    p.add_argument("--out", required=True, help="codeword output file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("corrupt", help="add a random rank-t error to a codeword file")
    p.add_argument("--field", help="field spec override (default polynomial otherwise)")
    p.add_argument("--in", dest="infile", required=True, help="codeword matrix file")
    p.add_argument("--t", type=int, required=True, help="rank weight of the planted error")
    add_draw_args(p)
    p.add_argument("--out", required=True, help="received-word output file")
    p.add_argument("--error-out", required=True, help="planted-error output file")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="received word -> codeword (+ error factors)")
    add_code_args(p)
    p.add_argument("--in", dest="infile", required=True, help="received-word matrix file")
    p.add_argument("--out", required=True, help="decoded codeword output file")
    p.add_argument("--out-coeff", help="coefficient matrix (A) output file")
    p.add_argument("--out-support", help="support basis (B) output file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo success-rate measurement")
    add_code_args(p)
    p.add_argument("--ell", type=int, required=True, help="interleaving order")
    p.add_argument("--t", type=int, required=True, help="rank weight per trial")
    p.add_argument("--trials", type=int, required=True)
    add_draw_args(p)
    p.add_argument("--out", help="CSV report file (stdout otherwise)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="success-probability lower bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
