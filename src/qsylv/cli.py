"""Command-line front end: qsylv check | solve | gen | verify.

Exit codes: 0 consistent / verified, 2 inconsistent / verification
failure, 1 usage, I/O, parse or shape errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import documents as docs
from . import harness
from .qcore import ETAS
from .qmatrix import DimensionError
from .solvers.families import (DEFAULT_TOL, Inconsistent, check, require_tol,
                               solve)


def _print_solvability(report):
    print(f"{'condition':32s} {'value':>24s}  verdict")
    for cond in report.compat_conditions + report.mp_conditions:
        verdict = "pass" if cond.passed else "FAIL"
        print(f"{cond.name:32s} {cond.residual:24.6e}  {verdict}")
    for cond in report.rank_conditions:
        verdict = "pass" if cond.passed else "FAIL"
        value = f"{cond.lhs} / {cond.rhs}"
        print(f"{cond.name:32s} {value:>24s}  {verdict}")
    print(f"consistent: {report.consistent}   forms_agree: {report.forms_agree}")


def _print_residuals(report):
    print(f"{'equation':24s} {'absolute':>14s} {'relative':>14s}  verdict")
    for e in report.entries:
        verdict = "pass" if e.passed else "FAIL"
        print(f"{e.name:24s} {e.absolute:14.6e} {e.relative:14.6e}  {verdict}")
    print(f"overall: {'pass' if report.passed else 'FAIL'} (tol {report.tol:g})")


def _load_instance(args):
    inst = docs.instance_from_doc(docs.load_json(args.instance), args.variant,
                                  eta_default=args.eta)
    return inst, docs.variant_of(inst)


def cmd_check(args) -> int:
    inst, variant = _load_instance(args)
    report = check(inst, args.tol)
    _print_solvability(report)
    if args.out:
        docs.dump_json(args.out, {"format": "qsylv-solvability-report",
                                  "variant": variant, **report.to_dict()})
    return 0 if report.consistent else 2


def cmd_solve(args) -> int:
    inst, variant = _load_instance(args)
    result = solve(inst, args.tol)
    if isinstance(result, Inconsistent):
        print("inconsistent; failing conditions:")
        for name in result.failing_conditions:
            print(f"  {name}")
        return 2
    if args.free == "zero":
        params = None
    elif args.free == "random":
        rng = np.random.default_rng(np.random.PCG64(args.seed))
        params = result.random_params(rng)
    else:
        params = docs.params_from_doc(docs.load_json(args.free), result)
    sol = result.assemble(params)
    report = harness.verify_solution(inst, sol, args.tol)
    _print_residuals(report)
    if args.out:
        docs.dump_json(args.out, docs.solution_to_doc(variant, sol))
    if args.report_out:
        docs.dump_json(args.report_out, {"format": "qsylv-residual-report",
                                         "variant": variant,
                                         **report.to_dict()})
    return 0 if report.passed else 2


def cmd_gen(args) -> int:
    # only --inconsistent reads the tolerance, but a bad value is an error
    require_tol(args.tol)
    if args.kind == "consistent":
        inst, witness = harness.gen_planted(args.variant, args.size,
                                            args.seed, args.eta)
    else:
        inst = harness.gen_unsolvable(args.variant, args.size, args.seed,
                                      args.eta, tol=args.tol)
        witness = None
    notes = [f"generated: variant={args.variant} size={args.size} "
             f"seed={args.seed} kind={args.kind}"]
    docs.dump_json(args.out, docs.instance_to_doc(inst, notes=notes))
    print(f"wrote {args.out}")
    if args.witness_out:
        docs.dump_json(args.witness_out,
                       docs.solution_to_doc(args.variant, witness))
        print(f"wrote {args.witness_out}")
    return 0


def cmd_verify(args) -> int:
    inst, variant = _load_instance(args)
    sol = docs.solution_from_doc(docs.load_json(args.solution), variant)
    report = harness.verify_solution(inst, sol, args.tol)
    _print_residuals(report)
    if args.out:
        docs.dump_json(args.out, {"format": "qsylv-residual-report",
                                  "variant": variant, **report.to_dict()})
    return 0 if report.passed else 2


def _non_negative(text: str) -> int:
    """A seed of numpy's generators or a size: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as every other bad input
    does: argparse's own code, 2, means "inconsistent" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsylv",
        description="Solvability checks and general solutions for "
                    "Sylvester-type quaternion matrix systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--variant", choices=docs.VARIANTS, default=None,
                       help="system type (default: from the document)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="residual tolerance (default 1e-9)")
        p.add_argument("--eta", choices=ETAS, default="i",
                       help="eta for eta variants when the document has none")

    p = sub.add_parser("check", help="decide solvability, print certificates")
    p.add_argument("instance")
    common(p)
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="construct a solution and verify it")
    p.add_argument("instance")
    common(p)
    p.add_argument("--free", default="zero",
                   help="'zero', 'random', or a JSON file of parameters")
    p.add_argument("--seed", type=_non_negative, default=0,
                   help="seed for --free random")
    p.add_argument("--out", default=None, help="write the solution as JSON")
    p.add_argument("--report-out", default=None,
                   help="write the residual report as JSON")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gen", help="generate planted or fuzzed instances")
    p.add_argument("--variant", choices=docs.VARIANTS, default="master")
    p.add_argument("--size", type=_non_negative, default=2)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--eta", choices=ETAS, default="i")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    # a twin has no witness
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--inconsistent", dest="kind", action="store_const",
                      const="inconsistent", default="consistent")
    kind.add_argument("--witness-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="check a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    common(p)
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (docs.ParseError, DimensionError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
