"""Command-line front end: file formats, dispatch, and verification suites.

Exit codes: 0 on success, 1 on mathematical failure (a falsified
constancy check, a failed suite case, a Hilbert certificate over the
memory budget), 2 on usage or input errors, each on one ``error:`` line.
Each command takes only the flags it reads (see build_parser).

Each verification suite is a runner ``suite(pairs, args)`` yielding
``Case`` records for the (p, r) pairs selected by --p/--r.  Suites that
realize bundles share one cache keyed by (spec, --max-dim, sampling
plan), so a spec that several suites check is realized once per process.

Module files are line-oriented ASCII: a header line ``p r n`` followed
by r blocks of n lines of n integers (the actions).  ``#`` starts a
comment.  Resolution-spec files start with ``p r L``, then one line per
level ``level i: a_1 ... a_m`` (i = 0..L), then blocks ``map i``
(i = 1..L, sending level i to level i-1) whose lines read
``row col : coef e_1 ... e_r [+ coef e_1 ... e_r ...]`` with 1-based
row/col into the twist lists.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from typing import NamedTuple

import numpy as np

from . import polyd
from .chowring import (
    binom_int,
    chern_from_hilbert,
    chern_from_resolution,
    divisibility_check,
    dual_class,
    fermat_product_identity_holds,
    frobenius_pullback,
    product_twists,
    twist as chow_twist,
    ChowClass,
    NonIntegralChernError,
)
from .gfalg import SUPPORTED_PRIMES, build_field, kernel_p, matmul_p, rank_p
from .kemod import (
    DEFAULT_SEED,
    ConstantSoFar,
    Falsified,
    KEModule,
    ModuleError,
    Point,
    SamplingPlan,
    builtin,
    check_constant,
    direct_sum,
    dual,
    jordan_type_at,
    new_module,
    omega,
    reference_jordan_type,
    strip_free,
    tensor,
)
from .realize import (
    DEFAULT_MAX_DIM,
    ResolutionSpec,
    ResourceCapError,
    SpecInvalidError,
    euler_spec,
    koszul_tail_spec,
    line_bundle_spec,
    realize_bundle,
    stable_models,
)
from .thetasheaf import (
    NotConstantError,
    StabilizationFailedError,
    ThetaOp,
    fiber,
    filtration_check,
    hilbert,
    monomial_index,
    monomials,
    s_dim,
    twist_shift_check,
)

DEFAULT_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))


class ParseError(ValueError):
    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


# ---------------------------------------------------------------------------
# file formats


def _content_lines(path):
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                out.append((lineno, text))
    return out


def parse_module(path) -> KEModule:
    """Read and validate a module file."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty module file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(path, lineno, "header must be: p r n")
    try:
        p, r, n = (int(x) for x in parts)
    except ValueError:
        raise ParseError(path, lineno, "header entries must be integers") from None
    rows = lines[1:]
    if len(rows) != r * n:
        raise ParseError(
            path,
            lineno,
            f"expected {r * n} matrix rows ({r} blocks of {n}), got {len(rows)}",
        )
    X = []
    for b in range(r):
        mat = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            lineno, text = rows[b * n + i]
            entries = text.split()
            if len(entries) != n:
                raise ParseError(path, lineno, f"expected {n} integers")
            try:
                mat[i] = [int(x) for x in entries]
            except ValueError:
                raise ParseError(path, lineno, "entries must be integers") from None
        X.append(mat)
    return new_module(p, r, X)


def print_module(M: KEModule) -> str:
    lines = [f"{M.p} {M.r} {M.n}"]
    for i, A in enumerate(M.X):
        lines.append(f"# action of X_{i + 1}")
        for row in A:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_spec(path) -> ResolutionSpec:
    """Read a resolution-spec file."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty spec file")
    lineno, header = lines[0]
    try:
        p, r, L = (int(x) for x in header.split())
    except ValueError:
        raise ParseError(path, lineno, "header must be: p r L") from None
    if p not in SUPPORTED_PRIMES or r < 1:
        raise ParseError(
            path, lineno, f"header needs p in {SUPPORTED_PRIMES} and r >= 1"
        )
    # each of the L + 1 levels needs its own line: refuse before allocating
    if L < 0:
        raise ParseError(path, lineno, f"header needs L >= 0, got {L}")
    if L + 1 > len(lines) - 1:
        raise ParseError(
            path, lineno, f"L = {L} needs {L + 1} level lines; {len(lines) - 1} follow"
        )
    levels = [None] * (L + 1)
    maps = [dict() for _ in range(L)]
    mode = None  # ("map", i) while reading a map block
    for lineno, text in lines[1:]:
        if text.startswith("level"):
            body = text[len("level") :].strip()
            if ":" not in body:
                raise ParseError(path, lineno, "level line needs a colon")
            idx_s, twists_s = body.split(":", 1)
            try:
                idx = int(idx_s)
                twists = tuple(int(x) for x in twists_s.split())
            except ValueError:
                raise ParseError(path, lineno, "bad level line") from None
            if not 0 <= idx <= L:
                raise ParseError(path, lineno, f"level index must be 0..{L}")
            levels[idx] = twists
            mode = None
        elif text.startswith("map"):
            try:
                idx = int(text[len("map") :].strip())
            except ValueError:
                raise ParseError(path, lineno, "bad map line") from None
            if not 1 <= idx <= L:
                raise ParseError(path, lineno, f"map index must be 1..{L}")
            mode = idx
        else:
            if mode is None:
                raise ParseError(path, lineno, "matrix entry outside a map block")
            if ":" not in text:
                raise ParseError(path, lineno, "entry line needs a colon")
            pos, poly_s = text.split(":", 1)
            try:
                row, col = (int(x) for x in pos.split())
            except ValueError:
                raise ParseError(path, lineno, "entry must start with: row col") from None
            monos = []
            for term in poly_s.split("+"):
                nums = term.split()
                if len(nums) != 1 + r:
                    raise ParseError(
                        path, lineno, f"monomial needs a coefficient and {r} exponents"
                    )
                try:
                    coef = int(nums[0])
                    exps = tuple(int(x) for x in nums[1:])
                except ValueError:
                    raise ParseError(path, lineno, "bad monomial") from None
                monos.append((coef % p, exps))
            if (row, col) in maps[mode - 1]:
                raise ParseError(path, lineno, f"entry {row} {col} twice in map {mode}")
            maps[mode - 1][(row, col)] = (lineno, tuple(m for m in monos if m[0]))
            # mode stays: more entries may follow
    for i, tw in enumerate(levels):
        if tw is None:
            raise ParseError(path, 1, f"missing 'level {i}' line")
    built_maps = []
    for i in range(L):
        rows, cols = len(levels[i]), len(levels[i + 1])
        mat = [[()] * cols for _ in range(rows)]
        for (row, col), (lineno, poly) in maps[i].items():
            if not (1 <= row <= rows and 1 <= col <= cols):
                where = f"the {rows} x {cols} map {i + 1}"
                raise ParseError(path, lineno, f"entry {row} {col} outside {where}")
            mat[row - 1][col - 1] = poly
        built_maps.append(tuple(map(tuple, mat)))
    spec = ResolutionSpec(p, r, tuple(levels), tuple(built_maps))
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# module references


def resolve_module(ref: str, args) -> KEModule:
    """A path, or builtin:<name> with --p/--r supplying the algebra."""
    if not ref.startswith("builtin:"):
        return parse_module(ref)
    name = ref[len("builtin:") :]
    p, r = args.p, args.r
    if p is None or r is None:
        raise ModuleError("builtin modules need --p and --r")
    k = builtin("trivial", p, r)  # refuses an unsupported (p, r) before any cap
    if name == "trivial":
        return k
    if name == "regular":
        _cap(p**r, "group algebra", args)
        return builtin("regular", p, r)
    if name.startswith("radq"):
        m = _builtin_index(name, "radq")
        _cap(p**r, "group algebra", args)
        return builtin("rad_quotient", p, r, m=m)
    if name.startswith("perm"):
        return builtin("perm", p, r, i=_builtin_index(name, "perm"))
    if name.startswith("zigzag"):
        return builtin("zigzag", p, r, n=_builtin_index(name, "zigzag"))
    if name.startswith("omega"):
        n = _builtin_index(name, "omega")
        return _capped_omega(k, n, args)
    raise ModuleError(f"unknown builtin module {name!r}")


def _cap(dim, what, args):
    """Refuse a module of dimension dim above --max-dim (kE has p^r)."""
    if dim > args.max_dim:
        raise ResourceCapError(
            f"{what} of dimension {dim} above --max-dim {args.max_dim}"
        )


def _capped_omega(M, n, args):
    """omega(M, n) one Heller shift at a time, each result within --max-dim."""
    _cap(M.p**M.r, "group algebra", args)
    for _ in range(abs(n)):
        M = omega(M, 1 if n > 0 else -1)
        _cap(M.n, "Heller shift", args)
    return M


def _builtin_index(name: str, prefix: str) -> int:
    try:
        return int(name[len(prefix) :])
    except ValueError:
        raise ModuleError(f"builtin:{prefix}<N> needs an integer N, got {name!r}") from None


def _functor_module(args) -> KEModule:
    """The module for hilbert/chern, once --functor is known to be in 1..p."""
    M = resolve_module(args.module, args)
    if not 1 <= args.functor <= M.p:
        raise ModuleError(f"--functor must be in 1..{M.p}, got {args.functor}")
    return M


def _env_seed() -> int:
    env = os.environ.get("CJT_SEED")
    try:
        return int(env, 0) if env else DEFAULT_SEED
    except ValueError:
        raise ModuleError(f"CJT_SEED must be an integer, got {env!r}") from None


def parse_point(M: KEModule, text: str, ext: int) -> Point:
    try:
        ctx = build_field(M.p, ext)
        coords = tuple(int(x) % ctx.q for x in text.replace(",", " ").split())
        point = Point(ctx, coords)
    except ValueError as exc:
        raise ModuleError(f"bad point {text!r} over GF({M.p}^{ext}): {exc}") from None
    if len(coords) != M.r:
        raise ModuleError(f"point needs {M.r} coordinates")
    return point


def sampling_plan(args) -> SamplingPlan:
    return SamplingPlan(args.samples, max_ext_degree=args.field_ext, seed=args.seed)


# ---------------------------------------------------------------------------
# verification suites


class Case(NamedTuple):
    case_id: str
    ok: bool
    detail: str = ""


def _module_override(p, r, args):
    """[(ref, module)] for verify's --module resolved at (p, r), or []."""
    override = getattr(args, "module", None)
    if not override:
        return []
    shim = argparse.Namespace(p=p, r=r, max_dim=args.max_dim)
    return [(override, resolve_module(override, shim))]


def _battery(p, r, args=None):
    override = _module_override(p, r, args)
    if override:
        return override
    mods = [
        ("trivial", builtin("trivial", p, r)),
        ("regular", builtin("regular", p, r)),
        ("radq2", builtin("rad_quotient", p, r, m=2)),
    ]
    if r * (p - 1) + 1 >= 3:
        mods.append(("radq3", builtin("rad_quotient", p, r, m=3)))
    mods.append(("perm1", builtin("perm", p, r, i=1)))
    if r >= 2:
        mods.append((f"perm{r}", builtin("perm", p, r, i=r)))
    if r == 2:
        mods.append(("zigzag2", builtin("zigzag", p, r, n=2)))
        mods.append(("zigzag3", builtin("zigzag", p, r, n=3)))
    k = builtin("trivial", p, r)
    for n in (1, -1, 2, -2):
        mods.append((f"omega{n}", omega(k, n)))
    return mods


def suite_fij_shift(pairs, args):
    for p, r in pairs:
        for name, M in _battery(p, r, args):
            ok = all(
                twist_shift_check(M, i, j) for i in range(1, p + 1) for j in range(i)
            )
            yield Case(f"fij-shift p={p} r={r} {name}", ok)


def suite_filtration(pairs, args):
    for p, r in pairs:
        for name, M in _battery(p, r, args):
            yield Case(f"filtration p={p} r={r} {name}", filtration_check(M))


def suite_prop_bundles(pairs, args):
    plan = sampling_plan(args)
    for p, r in pairs:
        for name, M in _battery(p, r, args):
            verdict = check_constant(M, plan)
            if isinstance(verdict, Falsified):
                yield Case(
                    f"prop-bundles p={p} r={r} {name}",
                    True,
                    "vacuous: not of constant Jordan type "
                    f"(witness {verdict.witness.coords})",
                )
                continue
            t = verdict.type
            ok = True
            detail = []
            for i in range(1, p + 1):
                if hilbert(M, i).rank() != t.a[i - 1]:
                    ok = False
                    detail.append(f"F_{i} rank mismatch")
            yield Case(
                f"prop-bundles p={p} r={r} {name}",
                ok,
                "; ".join(detail) or f"ranks {t.a}",
            )


def _omega_members(p, r, args=None):
    override = _module_override(p, r, args)
    if override:
        return override
    mods = [
        ("trivial", builtin("trivial", p, r)),
        ("radq2", builtin("rad_quotient", p, r, m=2)),
    ]
    if r == 2:
        mods.append(("zigzag3", builtin("zigzag", p, r, n=3)))
    return mods


def suite_omega_shift(pairs, args):
    for p, r in pairs:
        for name, M in _omega_members(p, r, args):
            OM = omega(M, 1)
            ok = True
            detail = []
            for i in range(1, p):
                hd_m = hilbert(M, i)
                hd_o = hilbert(OM, p - i)
                if hd_o.fitted != polyd.shift_var(hd_m.fitted, i - p):
                    ok = False
                    detail.append(f"i={i}: mismatch")
            yield Case(f"omega-shift p={p} r={r} {name}", ok, "; ".join(detail))


def suite_omega2(pairs, args):
    for p, r in pairs:
        for name, M in _omega_members(p, r, args):
            O2 = omega(M, 2)
            ok = True
            for i in range(1, p):
                hd_m = hilbert(M, i)
                hd_2 = hilbert(O2, i)
                if hd_2.fitted != polyd.shift_var(hd_m.fitted, -p):
                    ok = False
            yield Case(f"omega2 p={p} r={r} {name}", ok)


def suite_omegank(pairs, args):
    for p, r in pairs:
        k = builtin("trivial", p, r)
        wanted = getattr(args, "n", None)
        if p == 2:
            for n in (1, 2, 3) if wanted is None else (wanted,):
                hd = hilbert(omega(k, n), 1)
                ok = hd.fitted == polyd.binomial_poly(-n, r)
                yield Case(f"omegank p={p} r={r} Omega^{n}", ok, f"expect O({-n})")
        else:
            for n in (1, 2) if wanted is None else (wanted,):
                hd = hilbert(omega(k, 2 * n), 1)
                ok = hd.fitted == polyd.binomial_poly(-n * p, r)
                yield Case(
                    f"omegank p={p} r={r} Omega^{2 * n}", ok, f"expect O({-n * p})"
                )
            hd = hilbert(omega(k, 1), p - 1)
            ok = hd.fitted == polyd.binomial_poly(1 - p, r)
            yield Case(f"omegank p={p} r={r} Omega^1 top", ok, f"expect O({1 - p})")


def suite_duality(pairs, args):
    plan = sampling_plan(args)
    for p, r in pairs:
        members = [("radq2", builtin("rad_quotient", p, r, m=2))]
        if r == 2:
            members.append(("zigzag2", builtin("zigzag", p, r, n=2)))
        for name, M in members:
            verdict = check_constant(M, plan)
            if isinstance(verdict, Falsified):
                yield Case(f"duality p={p} r={r} {name}", False, "not constant")
                continue
            D = dual(M)
            ok = True
            detail = []
            for i in range(1, max(p, 2)):
                a_i = verdict.type.a[i - 1]
                if a_i == 0:
                    continue
                hd = hilbert(M, i)
                hdd = hilbert(D, i)
                try:
                    rk, c = chern_from_hilbert(hd)
                    rkd, cd = chern_from_hilbert(hdd)
                except NonIntegralChernError:
                    ok = False
                    continue
                if rk != rkd:
                    ok = False
                    detail.append(f"i={i} rank")
                want = chow_twist(dual_class(c), rk, -i + 1)
                if cd != want:
                    ok = False
                    detail.append(f"i={i} chern")
            yield Case(f"duality p={p} r={r} {name}", ok, "; ".join(detail))


def suite_exactness(pairs, args):
    for p, r in pairs:
        if r >= 3:
            name, spec = "euler", euler_spec(p, r)
        else:
            name, spec = "koszul", koszul_tail_spec(p, r)
        _, report = _realized(spec, args.max_dim, sampling_plan(args))
        detail = []
        for t, (A, B, C) in enumerate(report.triangles):
            for i in range(1, p):
                a, b, c = (hilbert(mod, i).fitted for mod in (A, B, C))
                if polyd.add(a, c) != b:
                    detail.append(f"triangle {t} i={i}")
        yield Case(f"exactness p={p} r={r} {name}", not detail, "; ".join(detail))


def _monomial_image_ok(p, r, exps):
    sm = stable_models(p, r)
    cm = sm.monomial_cocycle(exps)
    src = cm.hom.source
    n_deg = sum(exps) * (1 if p == 2 else p)
    theta = ThetaOp(src)
    for d in range(n_deg, n_deg + 2):
        ker = kernel_p(theta.degree_matrix(d), p)
        big = np.kron(np.eye(s_dim(r, d), dtype=np.uint8), cm.hom.matrix)
        img = matmul_p(big, ker, p)
        if rank_p(img, p) != s_dim(r, d - n_deg):
            return False
        idx = monomial_index(r, d)
        mono = tuple(e * (1 if p == 2 else p) for e in exps)
        allowed = {
            idx[tuple(m + x for m, x in zip(mono, extra))]
            for extra in monomials(r, d - n_deg)
        }
        if not set(np.flatnonzero(np.any(img, axis=1))) <= allowed:
            return False
    return True


def suite_rho_even(pairs, args):
    for p, r in sorted({(p, r) for p, r in pairs if p == 2}):
        for i in range(r):
            exps = tuple(1 if t == i else 0 for t in range(r))
            yield Case(
                f"rho-even r={r} y_{i + 1}",
                _monomial_image_ok(2, r, exps),
                "graded image is the variable times the polynomial ring",
            )
        if r >= 2:
            exps = tuple(1 if t < 2 else 0 for t in range(r))
            yield Case(f"rho-even r={r} y_1y_2", _monomial_image_ok(2, r, exps))


def suite_rho_odd(pairs, args):
    for p, r in sorted({(p, r) for p, r in pairs if p > 2}):
        for i in range(r):
            exps = tuple(1 if t == i else 0 for t in range(r))
            yield Case(
                f"rho-odd p={p} r={r} x_{i + 1}",
                _monomial_image_ok(p, r, exps),
                "graded image is the p-th power of the variable times the ring",
            )


@functools.cache
def _realized(spec, max_dim, plan):
    """realize_bundle, once per process for each spec, cap and sampling plan."""
    return realize_bundle(spec, max_dim=max_dim, plan=plan)


def suite_main_theorem(pairs, args):
    for p, r in pairs:
        eps_note = "F" if p == 2 else "F*(F)"
        cases = []
        if r == 2:
            for a in (-2, -1, 0, 1):
                cases.append((f"O({a})", line_bundle_spec(p, r, a)))
            cases.append(("koszul-tail", koszul_tail_spec(p, r)))
        else:
            cases.append(("euler", euler_spec(p, r)))
            if p == 2:
                cols = tuple(
                    ((1, tuple(2 if t == i else 0 for t in range(r))),)
                    for i in range(r)
                )
                cases.append(
                    (
                        "frobenius-euler",
                        ResolutionSpec(
                            2, r, ((0,) * r, (-2,)), (tuple((m,) for m in cols),)
                        ),
                    )
                )
        for cname, spec in cases:
            M, report = _realized(spec, args.max_dim, sampling_plan(args))
            ok = isinstance(report.verdict, ConstantSoFar)
            detail = []
            stable = report.verdict.type.stable() if ok else ()
            s = spec.rank()
            if ok and (stable[0] if stable else 0) != s:
                ok = False
                detail.append(f"stable type {stable} is not [1]^{s}")
            if ok and any(stable[1:]):
                ok = False
                detail.append("intermediate block lengths present")
            rk0, c0 = chern_from_resolution(r, [list(t) for t in spec.levels])
            expected = c0 if p == 2 else frobenius_pullback(c0, p)
            if M.n == 0:
                if s != 0:
                    ok = False
                    detail.append("collapsed to zero with nonzero expected rank")
            elif ok:
                rk, c = chern_from_hilbert(hilbert(M, 1))
                if rk != s or c != expected:
                    ok = False
                    detail.append(f"got rank {rk}, c = {c}; want {expected}")
            yield Case(
                f"main-theorem p={p} r={r} {cname}",
                ok,
                "; ".join(detail) or f"F_1(M) = {eps_note}",
            )


def suite_chern_twist(pairs, args):
    rng = random.Random(args.seed)
    ok_formula = True
    for _ in range(60):
        r = rng.randint(2, 8)
        s = rng.randint(1, 10)
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(r - 1)]
        c = ChowClass(r, tuple(coeffs), s)
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        if chow_twist(chow_twist(c, s, i), s, j) != chow_twist(c, s, i + j):
            ok_formula = False
        if s >= r:
            direct = [0] * r
            for n2 in range(r):
                for k2 in range(r - n2):
                    direct[n2 + k2] += c.c(n2) * i**k2 * binom_int(s - n2, k2)
            if chow_twist(c, s, i).coeffs != tuple(direct):
                ok_formula = False
    yield Case("chern-twist composition+restatement (60 random classes)", ok_formula)
    for p in (2, 3, 5, 7):
        yield Case(
            f"chern-twist fermat identity p={p}", fermat_product_identity_holds(p)
        )


def suite_product_twists(pairs, args):
    rng = random.Random(args.seed)
    count, bad = 0, 0
    for p in (2, 3, 5, 7):
        for _ in range(30):
            r = rng.randint(2, 8)
            s = rng.randint(1, 10)
            coeffs = [1] + [rng.randint(-9, 9) for _ in range(r - 1)]
            c = ChowClass(r, tuple(coeffs), s)
            _, report = product_twists(c, s, p)
            count += 1
            bad += 0 if report.ok else 1
    yield Case(
        f"product-twists congruence over {count} random classes",
        bad == 0,
        f"{bad} failures",
    )


def suite_divisibility(pairs, args):
    specs = [
        (f"O({a}) p=3 r=2", line_bundle_spec(3, 2, a)) for a in (-2, -1, 0, 1)
    ]
    specs.append(("euler p=3 r=3", euler_spec(3, 3)))
    for cname, spec in specs:
        M, _ = _realized(spec, args.max_dim, sampling_plan(args))
        if M.n == 0:
            yield Case(f"divisibility {cname}", True, "stably zero module")
            continue
        _, c = chern_from_hilbert(hilbert(M, 1))
        rep = divisibility_check(c, 3)
        yield Case(f"divisibility {cname}", rep.ok, str(rep))


def suite_hm_obstruction(pairs, args):
    hits = [
        i
        for i in range(7)
        if (2 * i + 5) % 7 == 0 and (i * i + 5 * i + 10) % 7 == 0
    ]
    yield Case(
        "hm-obstruction twist scan mod 7",
        hits == [],
        "no twist makes both c_1 = 2i+5 and c_2 = i^2+5i+10 divisible by 7",
    )


SUITE_RUNNERS = {
    "fij-shift": suite_fij_shift,
    "filtration": suite_filtration,
    "prop-bundles": suite_prop_bundles,
    "omega-shift": suite_omega_shift,
    "omega2": suite_omega2,
    "omegank": suite_omegank,
    "duality": suite_duality,
    "exactness": suite_exactness,
    "rho-even": suite_rho_even,
    "rho-odd": suite_rho_odd,
    "main-theorem": suite_main_theorem,
    "chern-twist": suite_chern_twist,
    "product-twists": suite_product_twists,
    "divisibility": suite_divisibility,
    "hm-obstruction": suite_hm_obstruction,
}

SUITES = tuple(SUITE_RUNNERS)


def run_verify(names, args, out=sys.stdout):
    pairs = [
        (p, r)
        for (p, r) in DEFAULT_PAIRS
        if (args.p is None or args.p == p) and (args.r is None or args.r == r)
    ]
    if args.p is not None and args.r is not None:
        pairs = [(args.p, args.r)]
    for p, r in pairs:
        _cap(p**r, "group algebra", args)
    cases = [case for name in names for case in SUITE_RUNNERS[name](pairs, args)]
    cases.sort(key=lambda c: c.case_id)
    width = max((len(c.case_id) for c in cases), default=10)
    failures = 0
    for c in cases:
        status = "pass" if c.ok else "FAIL"
        failures += 0 if c.ok else 1
        detail = f"  {c.detail}" if c.detail else ""
        print(f"{c.case_id:<{width}}  {status}{detail}", file=out)
    print(
        f"{len(cases) - failures}/{len(cases)} cases passed",
        file=out,
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# commands


def _cmd_jordan_type(args, out):
    if args.point is None and args.field_ext_point is not None:
        raise UsageError("cjt jordan-type: --field-ext-point needs --point")
    M = resolve_module(args.module, args)
    if args.point is None:
        print(str(reference_jordan_type(M)), file=out)
    else:
        pt = parse_point(M, args.point, args.field_ext_point or 1)
        print(str(jordan_type_at(M, pt)), file=out)
    return 0


def _cmd_check_constant(args, out):
    M = resolve_module(args.module, args)
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
    M = resolve_module(args.module, args)
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
        result = _capped_omega(resolve_module(args.module, args), args.n, args)
    elif args.op == "dual":
        result = dual(resolve_module(args.module, args))
    elif args.op == "sum":
        result = direct_sum(
            resolve_module(args.module, args), resolve_module(args.other, args)
        )
    elif args.op == "tensor":
        M, N = resolve_module(args.module, args), resolve_module(args.other, args)
        _cap(M.n * N.n, "tensor product", args)
        result = tensor(M, N)
    else:  # strip-free
        M = resolve_module(args.module, args)
        _cap(M.p**M.r, "group algebra", args)
        result, count = strip_free(M)
        print(f"# stripped {count} free summands", file=out)
    out.write(print_module(result))
    return 0


def _cmd_realize(args, out):
    spec = parse_spec(args.specfile)
    _cap(spec.p**spec.r, "group algebra", args)
    M, report = realize_bundle(spec, max_dim=args.max_dim, plan=sampling_plan(args))
    for line in str(report).splitlines():
        print(f"# {line}", file=sys.stderr)
    out.write(print_module(M))
    return 0 if isinstance(report.verdict, ConstantSoFar) else 1


# the suites that read verify's --module and --n, besides all
MODULE_SUITES = ("fij-shift", "filtration", "prop-bundles", "omega-shift", "omega2")
N_SUITES = ("omegank",)


def _cmd_verify(args, out):
    for flag, value, readers in (
        ("--module", args.module, MODULE_SUITES),
        ("--n", args.n, N_SUITES),
    ):
        if value is not None and args.suite not in ("all",) + readers:
            raise UsageError(
                f"cjt verify: {flag} applies only to all, {', '.join(readers)}"
            )
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return run_verify(names, args, out)


class UsageError(ValueError):
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


def _at_least(low):
    """An argparse type: a decimal integer >= low."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
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
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--seed", type=_seed, help=f"default: CJT_SEED or 0x{DEFAULT_SEED:X}"
    )
    sampling.add_argument("--samples", type=_at_least(0), default=SamplingPlan.extra)
    sampling.add_argument(
        "--field-ext",
        type=_at_least(1),
        default=SamplingPlan.max_ext_degree,
        help="largest e",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, about, parents=(algebra, cap)):
        sp = sub.add_parser(name, parents=parents, help=about)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("jordan-type", _cmd_jordan_type, "Jordan type at a point")
    sp.add_argument("module")
    sp.add_argument("--point", help="comma-separated coordinates")
    sp.add_argument("--field-ext-point", type=_at_least(1), help="default 1")

    sampled = (algebra, cap, sampling)
    sp = add("check-constant", _cmd_check_constant, "sampling constancy check", sampled)
    sp.add_argument("module")

    sp = add("fiber", _cmd_fiber, "fiber dimensions at a point")
    sp.add_argument("module")
    sp.add_argument("--point", required=True)
    sp.add_argument("--field-ext-point", type=_at_least(1), default=1)

    sp = add("hilbert", _cmd_hilbert, "graded dimensions and fitted polynomial")
    sp.add_argument("module")
    sp.add_argument("--functor", type=int, required=True, help="index i of F_i")
    sp.add_argument("--degree-cap", type=_at_least(0), help="last degree reported")

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

    sp = add("realize", _cmd_realize, "module realizing a resolution", (cap, sampling))
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
    except (
        UsageError, ParseError, ModuleError, SpecInvalidError, FileNotFoundError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StabilizationFailedError, NotConstantError, ResourceCapError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
