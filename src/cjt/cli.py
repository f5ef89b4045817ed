"""Command-line front end: the parser, one function per command, and main.

Exit codes: 0 on success; 1 on a falsified constancy check, a failed
suite case or an ``errors.Failure`` (one ``failure:`` line); 2 on an
``errors.InputError``, bad input or usage (one ``error:`` line).
Each command takes only the flags it reads (see build_parser).  File
formats and module references are in ``formats``, the verification
suites in ``suites``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import polyd
from .chowring import chern_from_hilbert
from .errors import Failure, InputError
from .formats import parse_point, parse_spec, print_module, resolve_module
from .kemod import (
    DEFAULT_MAX_DIM,
    DEFAULT_SEED,
    EXTRA_CAP,
    EXTRA_DEGREES,
    ConstantSoFar,
    SamplingPlan,
    cap,
    check_constant,
    direct_sum,
    dual,
    jordan_type_at,
    omega,
    reference_jordan_type,
    strip_free,
    tensor,
)
from .realize import realize_bundle
from .suites import (
    DEFAULT_PAIRS,
    MODULE_SUITES,
    N_SUITES,
    SUITES,
    run_verify,
    sampling_plan,
    verify_pairs,
)
from .thetasheaf import MAX_DEGREE, fiber, hilbert


def _module(ref, args):
    """The module ref names, over the algebra of --p/--r, within --max-dim."""
    return resolve_module(ref, args.p, args.r, args.max_dim)


def _functor_module(args):
    """The module for hilbert/chern, once --functor is known to be in 1..p."""
    M = _module(args.module, args)
    if not 1 <= args.functor <= M.p:
        raise UsageError(f"--functor must be in 1..{M.p}, got {args.functor}")
    return M


def _env_seed() -> int:
    env = os.environ.get("CJT_SEED")
    try:
        return int(env, 0) if env else DEFAULT_SEED
    except ValueError:
        raise UsageError(f"CJT_SEED must be an integer, got {env!r}") from None


def _cmd_jordan_type(args, out):
    if args.point is None and args.field_ext_point is not None:
        raise UsageError("cjt jordan-type: --field-ext-point needs --point")
    M = _module(args.module, args)
    if args.point is None:
        print(str(reference_jordan_type(M)), file=out)
    else:
        pt = parse_point(M, args.point, args.field_ext_point or 1)
        print(str(jordan_type_at(M, pt)), file=out)
    return 0


def _cmd_check_constant(args, out):
    M = _module(args.module, args)
    verdict = check_constant(M, sampling_plan(args))
    if isinstance(verdict, ConstantSoFar):
        print(
            f"constant so far: {verdict.type} "
            f"({verdict.points_checked} points over {', '.join(verdict.fields_used)})",
            file=out,
        )
        return 0
    print(
        f"FALSIFIED at {verdict.witness}: {verdict.type_at_witness} "
        f"differs from {verdict.reference_type}",
        file=out,
    )
    return 1


def _cmd_fiber(args, out):
    M = _module(args.module, args)
    pt = parse_point(M, args.point, args.field_ext_point)
    rep = fiber(M, pt)
    for i, d in enumerate(rep.dims, start=1):
        print(f"F_{i}: {d}", file=out)
    return 0


def _cmd_hilbert(args, out):
    M = _functor_module(args)
    hd = hilbert(M, args.functor, d_max=args.degree_cap)
    samples = " ".join(f"{d}:{hd.samples[d]}" for d in sorted(hd.samples))
    print(f"samples: {samples}", file=out)
    print(f"fitted: {polyd.as_str(hd.fitted)}", file=out)
    print(f"stable from degree {hd.stable_from}", file=out)
    return 0


def _cmd_chern(args, out):
    M = _functor_module(args)
    rk, c = chern_from_hilbert(hilbert(M, args.functor))
    print(f"rank {rk}, c = {c}", file=out)
    return 0


def _cmd_module_op(args, out):
    if args.op == "omega":
        result = omega(_module(args.module, args), args.n, args.max_dim)
    elif args.op == "dual":
        result = dual(_module(args.module, args))
    elif args.op in ("sum", "tensor"):
        M, N = _module(args.module, args), _module(args.other, args)
        result = (direct_sum if args.op == "sum" else tensor)(M, N, args.max_dim)
    else:  # strip-free
        M = _module(args.module, args)
        cap(M.p**M.r, "group algebra", args.max_dim)
        result, count = strip_free(M)
        print(f"# stripped {count} free summands", file=out)
    out.write(print_module(result))
    return 0


def _cmd_realize(args, out):
    spec = parse_spec(args.specfile)
    M, report = realize_bundle(spec, max_dim=args.max_dim, plan=sampling_plan(args))
    for line in str(report).splitlines():
        print(f"# {line}", file=sys.stderr)
    out.write(print_module(M))
    return 0 if isinstance(report.verdict, ConstantSoFar) else 1


def _cmd_verify(args, out):
    for flag, value, readers in (
        ("--module", args.module, MODULE_SUITES),
        ("--n", args.n, N_SUITES),
    ):
        if value is not None and args.suite not in ("all",) + readers:
            raise UsageError(
                f"cjt verify: {flag} applies only to all, {', '.join(readers)}"
            )
    if not verify_pairs(args.p, args.r):
        flag, value = ("--p", args.p) if args.p is not None else ("--r", args.r)
        pairs = ", ".join(map(str, DEFAULT_PAIRS))
        raise UsageError(
            f"cjt verify: {flag} {value} matches no default pair {pairs}; "
            "give both --p and --r"
        )
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return run_verify(names, args, out)


class UsageError(InputError):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags, and raises UsageError instead of exiting."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed(text):
    """An argparse type: an integer with an optional base prefix, as CJT_SEED."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _at_least(low, high=None):
    """An argparse type: a decimal integer >= low, and <= high if given."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return convert


def build_parser():
    """The cjt parser; each command takes only the flags it reads.

    --p, --r and --max-dim: every command but realize, which keeps --max-dim
    (its spec header gives p and r).  --seed, --samples and --field-ext:
    check-constant, realize and verify.  --degree-cap: hilbert.
    """
    parser = _Parser(
        prog="cjt",
        description=(
            "Exact computations with modules over elementary abelian groups "
            "in characteristic p and the vector bundles they define."
        ),
    )
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--p", type=int, help="characteristic")
    algebra.add_argument("--r", type=int, help="rank of the group")
    max_dim = argparse.ArgumentParser(add_help=False)
    max_dim.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--seed", type=_seed, help=f"default: CJT_SEED or 0x{DEFAULT_SEED:X}"
    )
    sampling.add_argument(
        "--samples", type=_at_least(0, EXTRA_CAP), default=SamplingPlan.extra
    )
    sampling.add_argument(
        "--field-ext",
        type=_at_least(1, max(EXTRA_DEGREES)),
        default=SamplingPlan.max_ext_degree,
        help="largest e",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, about, parents=(algebra, max_dim)):
        sp = sub.add_parser(name, parents=parents, help=about)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("jordan-type", _cmd_jordan_type, "Jordan type at a point")
    sp.add_argument("module")
    sp.add_argument("--point", help="comma-separated coordinates")
    sp.add_argument("--field-ext-point", type=_at_least(1), help="default 1")

    sampled = (algebra, max_dim, sampling)
    sp = add("check-constant", _cmd_check_constant, "constancy check (exact on Z^r-graded modules)", sampled)
    sp.add_argument("module")

    sp = add("fiber", _cmd_fiber, "fiber dimensions at a point")
    sp.add_argument("module")
    sp.add_argument("--point", required=True)
    sp.add_argument("--field-ext-point", type=_at_least(1), default=1)

    sp = add("hilbert", _cmd_hilbert, "graded dimensions and fitted polynomial")
    sp.add_argument("module")
    sp.add_argument("--functor", type=int, required=True, help="index i of F_i")
    sp.add_argument(
        "--degree-cap", type=_at_least(0, MAX_DEGREE), help="last degree reported"
    )

    sp = add("chern", _cmd_chern, "rank and Chern class of F_i")
    sp.add_argument("module")
    sp.add_argument("--functor", type=int, required=True)

    sp = add("omega", _cmd_module_op, "Heller shift")
    sp.add_argument("n", type=int)
    sp.add_argument("module")
    sp.set_defaults(op="omega")

    for name in ("dual", "strip-free"):
        sp = add(name, _cmd_module_op, f"{name} of a module")
        sp.add_argument("module")
        sp.set_defaults(op=name)

    for name in ("sum", "tensor"):
        sp = add(name, _cmd_module_op, f"{name} of two modules")
        sp.add_argument("module")
        sp.add_argument("other")
        sp.set_defaults(op=name)

    sp = add("realize", _cmd_realize, "module realizing a resolution", (max_dim, sampling))
    sp.add_argument("specfile")

    sp = add("verify", _cmd_verify, "run a verification suite", sampled)
    sp.add_argument("suite", choices=("all",) + SUITES)
    sp.add_argument("--module", help="restrict battery suites to one module")
    sp.add_argument("--n", type=int, help="restrict the omegank suite to one n")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "seed" in args and args.seed is None:
            args.seed = _env_seed()
        return args.fn(args, sys.stdout)
    except SystemExit as exc:  # --help; the parser raises UsageError otherwise
        return exc.code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Failure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
