"""Bit-stability: sha256 digests of exact outputs, and the trace-pairing
homs against their defining formulas.

Each digest pins an exact output: a change to any construction below
that alters a single entry, or a dimension, changes a digest.  Print
the current digests with ``python tests/test_golden.py``.
"""

import functools
import hashlib
import random

import numpy as np
import pytest

from cjt.gfalg import build_field, matmul_p, matpow_p, solve_p
from cjt.kemod import (
    KEModule,
    Point,
    SamplingPlan,
    builtin,
    check_constant,
    free_module,
    group_algebra,
    hom_from_free,
    hom_to_free,
    jordan_type_at,
    omega,
    strip_free,
    tensor,
)
from cjt.realize import (
    euler_spec,
    koszul_tail_spec,
    line_bundle_spec,
    realize_bundle,
    stable_models,
)
from cjt.suites import DEFAULT_PAIRS, _battery
from cjt.thetasheaf import fiber

from test_kemod import DIFFERENTIAL_MODULES
from test_thetasheaf import battery

# the realize workload's specs
REALIZE_SPECS = {
    **{f"euler-{p}-{r}": (euler_spec, p, r) for p, r in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))},
    **{f"koszul-tail-{p}-2": (koszul_tail_spec, p, 2) for p in (2, 3)},
    **{
        f"O({a})-{p}-{r}": (line_bundle_spec, p, r, a)
        for p, r, a in ((2, 3, -2), (3, 2, -1), (3, 3, -1), (5, 2, -1))
    },
}
COCYCLE_PAIRS = DEFAULT_PAIRS + ((2, 4),)
# strip_free(M (x) Omega^n k) for a builtin M = builtin(kind, p, r, **params)
STRIPPED_TENSORS = {
    "radq2-2-3*omega1": (2, 3, "rad_quotient", {"m": 2}, 1),
    "zigzag3-3-2*omega1": (3, 2, "zigzag", {"n": 3}, 1),
}


def digest(*arrays, header=()):
    h = hashlib.sha256(repr(tuple(header)).encode())
    for A in arrays:
        A = np.ascontiguousarray(A, dtype=np.uint8)
        h.update(repr(A.shape).encode())
        h.update(A.tobytes())
    return h.hexdigest()[:16]


def module_digest(M: KEModule):
    return digest(*M.X, header=(M.p, M.r, M.n))


def realized(name):
    make, *args = REALIZE_SPECS[name]
    M, _ = realize_bundle(make(*args), plan=SamplingPlan(extra=0))
    return module_digest(M)


def shifted_cocycles(p, r):
    """Every generator cocycle moved 1, -1, 2 and -2 steps along the chain."""
    sm = stable_models(p, r)
    homs = [
        sm.shift(sm.generator_cocycle(i), sm.eps, 0, s)
        for i in range(1, r + 1)
        for s in (1, -1, 2, -2)
    ]
    return digest(*(f.matrix for f in homs), header=[(f.source.n, f.target.n) for f in homs])


def omega_k(p, r, n):
    return module_digest(omega(builtin("trivial", p, r), n))


def stripped_tensor(name):
    p, r, kind, params, n = STRIPPED_TENSORS[name]
    M = builtin(kind, p, r, **params)
    S, a = strip_free(tensor(M, omega(builtin("trivial", p, r), n)))
    return digest(*S.X, header=(S.p, S.r, S.n, a))


# the default plan and one with another seed and extension degrees <= 3
VERDICT_PLANS = (SamplingPlan(), SamplingPlan(extra=25, max_ext_degree=3, seed=7))


def constancy_verdicts():
    """check_constant's verdicts, witnesses included, on verify's battery
    and the sampler's differential modules, under both plans."""
    modules = [
        (f"{name}-{p}-{r}", M) for p, r in DEFAULT_PAIRS for name, M in _battery(p, r)
    ]
    modules += [(name, make()) for name, (make, _) in DIFFERENTIAL_MODULES.items()]
    lines = [
        f"{name} {plan}: {check_constant(M, plan)!r}"
        for name, M in modules
        for plan in VERDICT_PLANS
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def pointwise_types():
    """jordan_type_at and fiber on the test battery, at the first axis point
    and three seeded points of every field GF(p^e), e = 1..4."""
    lines = []
    for name, M in battery():
        rng = random.Random(name)
        for e in range(1, 5):
            ctx = build_field(M.p, e)
            points = [Point(ctx, (1,) + (0,) * (M.r - 1))]
            while len(points) < 4:
                coords = tuple(rng.randrange(ctx.q) for _ in range(M.r))
                if any(coords):
                    points.append(Point(ctx, coords))
            for pt in points:
                lines.append(f"{name} {pt}: {jordan_type_at(M, pt)} {fiber(M, pt).dims}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def all_digests():
    out = {f"realize {name}": realized(name) for name in REALIZE_SPECS}
    out.update({f"cocycles {p} {r}": shifted_cocycles(p, r) for p, r in COCYCLE_PAIRS})
    out.update(
        {f"omega {p} {r} {n}": omega_k(p, r, n) for p, r in DEFAULT_PAIRS for n in (3, -3)}
    )
    out.update({f"strip {name}": stripped_tensor(name) for name in STRIPPED_TENSORS})
    out["constancy verdicts"] = constancy_verdicts()
    out["pointwise types"] = pointwise_types()
    return out


GOLDEN = {
    'realize euler-2-2': '2b26de575bc47275',
    'realize euler-2-3': '083a5d23c99e392d',
    'realize euler-2-4': '40b1dffeab9239b9',
    'realize euler-3-2': 'f4651bb1b367b8a7',
    'realize euler-3-3': '920abf95f2969b69',
    'realize koszul-tail-2-2': 'b89b2077082361e0',
    'realize koszul-tail-3-2': 'f32b41bde2102708',
    'realize O(-2)-2-3': '8f6cd63b5a881d0d',
    'realize O(-1)-3-2': '1047315529711692',
    'realize O(-1)-3-3': 'e213fea95a06c614',
    'realize O(-1)-5-2': '26cf2998a16bfd56',
    'cocycles 2 2': '212c982f224134a3',
    'cocycles 2 3': 'af0ac34a682f69f7',
    'cocycles 3 2': '3791912cb2cd5bd6',
    'cocycles 3 3': '0b67647e3bc158cc',
    'cocycles 2 4': '4eb803a67da68fc9',
    'omega 2 2 3': 'e015c85857093a95',
    'omega 2 2 -3': '68eb5c27fb295f46',
    'omega 2 3 3': '2d329d714f52a8ec',
    'omega 2 3 -3': '5996b1973b7d128f',
    'omega 3 2 3': 'c4c4439b21faeb8a',
    'omega 3 2 -3': '29063710cef65e92',
    'omega 3 3 3': '2bd5e2689454672a',
    'omega 3 3 -3': '32f971ef3e5f5d1e',
    'strip radq2-2-3*omega1': 'e023b37a24fc1690',
    'strip zigzag3-3-2*omega1': '18d610538b8366a2',
    'constancy verdicts': '545f622a86bbc5bd',
    'pointwise types': '77d940ece9362a56',
}


@pytest.mark.parametrize("name", sorted(REALIZE_SPECS))
def test_realized_modules(name):
    assert realized(name) == GOLDEN[f"realize {name}"]


@pytest.mark.parametrize("p,r", COCYCLE_PAIRS)
def test_shifted_generator_cocycles(p, r):
    assert shifted_cocycles(p, r) == GOLDEN[f"cocycles {p} {r}"]


@pytest.mark.parametrize("n", [3, -3])
@pytest.mark.parametrize("p,r", DEFAULT_PAIRS)
def test_omega_k(p, r, n):
    assert omega_k(p, r, n) == GOLDEN[f"omega {p} {r} {n}"]


@pytest.mark.parametrize("name", sorted(STRIPPED_TENSORS))
def test_stripped_tensors(name):
    assert stripped_tensor(name) == GOLDEN[f"strip {name}"]


def test_constancy_verdicts():
    assert constancy_verdicts() == GOLDEN["constancy verdicts"]


def test_pointwise_types():
    assert pointwise_types() == GOLDEN["pointwise types"]


# ---------------------------------------------------------------------------
# hom_to_free and hom_from_free against their defining formulas


def monomial_matrix(M, mon):
    """X^mon as a product of powers of the actions, built from scratch."""
    return functools.reduce(
        lambda A, B: matmul_p(A, B, M.p),
        (matpow_p(A, a, M.p) for A, a in zip(M.X, mon)),
        np.eye(M.n, dtype=np.uint8),
    )


def conjugated(M, rng):
    """M in a seeded random basis P = L U: X_i -> P X_i P^-1."""
    p, n = M.p, M.n
    eye = np.eye(n, dtype=np.int64)
    L = np.tril(rng.integers(0, p, (n, n)), -1) + eye
    U = np.triu(rng.integers(0, p, (n, n)), 1) + eye
    P = L @ U % p
    Pinv = solve_p(P, eye, p).astype(np.int64)
    assert np.array_equal(P @ Pinv % p, eye)
    return KEModule(p, M.r, [P @ A.astype(np.int64) @ Pinv % p for A in M.X])


def differential_modules():
    rng = np.random.default_rng(2010)
    for p, r in DEFAULT_PAIRS:
        battery = dict(_battery(p, r))
        for name in ("radq2", "perm1", "omega1", "omega-2"):
            yield pytest.param(battery[name], id=f"{name}-{p}-{r}")
        yield pytest.param(conjugated(battery["omega-1"], rng), id=f"dense-omega-1-{p}-{r}")
        for b in (1, 2):
            yield pytest.param(free_module(p, r, b), id=f"free{b}-{p}-{r}")
        yield pytest.param(conjugated(free_module(p, r, 1), rng), id=f"dense-free1-{p}-{r}")


@pytest.mark.parametrize("M", differential_modules())
def test_trace_pairing_homs_match_their_formulas(M):
    p, n = M.p, M.n
    kE = group_algebra(p, M.r)
    rng = np.random.default_rng(n)
    F = rng.integers(0, p, (3, n)).astype(np.uint8)
    G = rng.integers(0, p, (n, 2)).astype(np.uint8)
    power = {mon: monomial_matrix(M, mon) for mon in kE.monomials}
    # row (j, v) gives the coefficient of X^v in copy j: f_j(X^(z - v) m)
    to_free = np.zeros((3, kE.q, n), dtype=np.uint8)
    # column (t, v), X^v times generator t, goes to X^v G[:, t]
    from_free = np.zeros((n, 2, kE.q), dtype=np.uint8)
    for v, mon in enumerate(kE.monomials):
        to_free[:, v] = matmul_p(F, power[tuple(p - 1 - a for a in mon)], p)
        from_free[:, :, v] = matmul_p(power[mon], G, p)
    assert np.array_equal(hom_to_free(M, F), to_free.reshape(3 * kE.q, n))
    assert np.array_equal(hom_from_free(M, G), from_free.reshape(n, 2 * kE.q))


if __name__ == "__main__":
    for key, value in all_digests().items():
        print(f"    {key!r}: {value!r},")
