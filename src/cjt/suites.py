"""The ``cjt verify`` suites: numerical checks of the paper's statements.

Each suite is a runner ``suite(pairs, args)`` yielding ``Case`` records
for the (p, r) pairs selected by --p/--r.  Suites that realize bundles
share one cache keyed by (spec, --max-dim, sampling plan), so a spec that
several suites check is realized once per process.
"""

from __future__ import annotations

import functools
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
from .formats import resolve_module
from .gfalg import kernel_p, matmul_p, rank_p
from .kemod import (
    ConstantSoFar,
    Falsified,
    SamplingPlan,
    builtin,
    cap,
    check_algebra,
    check_constant,
    dual,
    omega,
)
from .realize import (
    ResolutionSpec,
    euler_spec,
    koszul_tail_spec,
    line_bundle_spec,
    realize_bundle,
    stable_models,
)
from .thetasheaf import (
    ThetaOp,
    filtration_check,
    hilbert,
    monomial_index,
    monomials,
    s_dim,
    twist_shift_check,
)

DEFAULT_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3))


def sampling_plan(args) -> SamplingPlan:
    return SamplingPlan(args.samples, max_ext_degree=args.field_ext, seed=args.seed)


class Case(NamedTuple):
    case_id: str
    ok: bool
    detail: str = ""


def _members(default, p, r, args):
    """[(ref, module)] for verify's --module resolved at (p, r), else default(p, r)."""
    ref = getattr(args, "module", None)
    if not ref:
        return default(p, r)
    return [(ref, resolve_module(ref, p, r, args.max_dim))]


def _battery(p, r):
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
        for name, M in _members(_battery, p, r, args):
            ok = all(
                twist_shift_check(M, i, j) for i in range(1, p + 1) for j in range(i)
            )
            yield Case(f"fij-shift p={p} r={r} {name}", ok)


def suite_filtration(pairs, args):
    for p, r in pairs:
        for name, M in _members(_battery, p, r, args):
            yield Case(f"filtration p={p} r={r} {name}", filtration_check(M))


def suite_prop_bundles(pairs, args):
    plan = sampling_plan(args)
    for p, r in pairs:
        for name, M in _members(_battery, p, r, args):
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
            detail = [
                f"F_{i} rank mismatch"
                for i in range(1, p + 1)
                if hilbert(M, i).rank() != t.a[i - 1]
            ]
            yield Case(
                f"prop-bundles p={p} r={r} {name}",
                not detail,
                "; ".join(detail) or f"ranks {t.a}",
            )


def _omega_members(p, r):
    mods = [
        ("trivial", builtin("trivial", p, r)),
        ("radq2", builtin("rad_quotient", p, r, m=2)),
    ]
    if r == 2:
        mods.append(("zigzag3", builtin("zigzag", p, r, n=3)))
    return mods


def _omega_suite(pairs, args, label, n, law):
    """Compare F_j(Omega^n M) with F_i(M)(shift), where law(p, i) = (j, shift)."""
    for p, r in pairs:
        for name, M in _members(_omega_members, p, r, args):
            OM = omega(M, n, args.max_dim)
            detail = []
            for i in range(1, p):
                j, shift = law(p, i)
                hd_m = hilbert(M, i)
                if hilbert(OM, j).fitted != polyd.shift_var(hd_m.fitted, shift):
                    detail.append(f"i={i}: mismatch")
            yield Case(f"{label} p={p} r={r} {name}", not detail, "; ".join(detail))


def suite_omega_shift(pairs, args):
    return _omega_suite(pairs, args, "omega-shift", 1, lambda p, i: (p - i, i - p))


def suite_omega2(pairs, args):
    return _omega_suite(pairs, args, "omega2", 2, lambda p, i: (i, -p))


def suite_omegank(pairs, args):
    for p, r in pairs:
        k = builtin("trivial", p, r)
        wanted = getattr(args, "n", None)
        if p == 2:
            for n in (1, 2, 3) if wanted is None else (wanted,):
                hd = hilbert(omega(k, n, args.max_dim), 1)
                ok = hd.fitted == polyd.binomial_poly(-n, r)
                yield Case(f"omegank p={p} r={r} Omega^{n}", ok, f"expect O({-n})")
        else:
            for n in (1, 2) if wanted is None else (wanted,):
                hd = hilbert(omega(k, 2 * n, args.max_dim), 1)
                ok = hd.fitted == polyd.binomial_poly(-n * p, r)
                yield Case(
                    f"omegank p={p} r={r} Omega^{2 * n}", ok, f"expect O({-n * p})"
                )
            hd = hilbert(omega(k, 1, args.max_dim), p - 1)
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
                    detail.append(f"i={i} non-integral Chern class")
                    continue
                if rk != rkd:
                    detail.append(f"i={i} rank")
                want = chow_twist(dual_class(c), rk, -i + 1)
                if cd != want:
                    detail.append(f"i={i} chern")
            yield Case(f"duality p={p} r={r} {name}", not detail, "; ".join(detail))


def suite_exactness(pairs, args):
    for p, r in pairs:
        if r == 2:
            name, spec = "koszul", koszul_tail_spec(p, r)
        else:
            name, spec = "euler", euler_spec(p, r)
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
    hom = sm.monomial_cocycle(exps)
    src = hom.source
    n_deg = sum(exps) * (1 if p == 2 else p)
    theta = ThetaOp(src)
    for d in range(n_deg, n_deg + 2):
        ker = kernel_p(theta.degree_matrix(d), p)
        big = np.kron(np.eye(s_dim(r, d), dtype=np.uint8), hom.matrix)
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


def _rho_suite(pairs, even, label, note):
    """The graded image of each variable's cocycle (y_i at p = 2, x_i at odd p)."""
    for p, r in sorted({(p, r) for p, r in pairs if (p == 2) == even}):
        head = label.format(p=p, r=r)
        var = "y" if even else "x"
        for i in range(r):
            exps = tuple(1 if t == i else 0 for t in range(r))
            yield Case(f"{head} {var}_{i + 1}", _monomial_image_ok(p, r, exps), note)
        if even and r >= 2:
            exps = tuple(1 if t < 2 else 0 for t in range(r))
            yield Case(f"{head} y_1y_2", _monomial_image_ok(p, r, exps))


def suite_rho_even(pairs, args):
    note = "graded image is the variable times the polynomial ring"
    return _rho_suite(pairs, True, "rho-even r={r}", note)


def suite_rho_odd(pairs, args):
    note = "graded image is the p-th power of the variable times the ring"
    return _rho_suite(pairs, False, "rho-odd p={p} r={r}", note)


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


def _random_class(rng):
    """A random ChowClass: r in 2..8, rank in 1..10, c_1..c_{r-1} in -9..9."""
    r = rng.randint(2, 8)
    s = rng.randint(1, 10)
    coeffs = [1] + [rng.randint(-9, 9) for _ in range(r - 1)]
    return ChowClass(r, tuple(coeffs), s)


def suite_chern_twist(pairs, args):
    rng = random.Random(args.seed)
    ok_formula = True
    for _ in range(60):
        c = _random_class(rng)
        r, s = c.r, c.rank
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
            c = _random_class(rng)
            _, report = product_twists(c, c.rank, p)
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

# the suites that read verify's --module and --n, besides all
MODULE_SUITES = ("fij-shift", "filtration", "prop-bundles", "omega-shift", "omega2")
N_SUITES = ("omegank",)


def verify_pairs(p, r):
    """The (p, r) pairs that --p and --r select: the pair itself when both
    are given, else the DEFAULT_PAIRS that match the one given, or all."""
    if p is not None and r is not None:
        return [(p, r)]
    return [(q, s) for q, s in DEFAULT_PAIRS if p in (None, q) and r in (None, s)]


def run_verify(names, args, out=sys.stdout):
    pairs = verify_pairs(args.p, args.r)
    for p, r in pairs:
        check_algebra(p, r)
    for p, r in pairs:
        cap(p**r, "group algebra", args.max_dim)
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
