"""The perfbench workloads: seeded inputs, the cases, and their oracle table.

Each workload is a list of cases run one after another by a single
client (a closed loop).  ``WORKLOADS[name](seed)`` builds the inputs
from the seed and returns the cases; a case returns ``(answer, problems)``,
where ``problems`` lists every mismatch against the oracle table.

The expected answers below are literals.  Their sources are independent
of the code under test:

- closed forms from the paper: F_1(Omega^n k) = O(-n) at p = 2,
  F_1(Omega^{2n} k) = O(-np) at odd p, F_1 / F_2 of rad-quotient 2 at
  r = 3 equal T(-1) / O(-1), F_1 of zigzag n equals O(-n), F_i of a sum is
  the Whitney product, F_1(Omega M) = F_1(M)(-1) at p = 2 and
  F_i(Omega^2 M) = F_i(M)(-p) at odd p (the omega-shift and omega2 suites);
- ranks of F_i equal to the Jordan multiplicities a_i;
- Chern classes of realized bundles from their resolutions (``resolved``);
- fibers at a point against the Jordan type there;
- entries marked "recorded" have no closed form; they were recorded in
  the sparse builtin basis, and every dense copy and every seed must
  reproduce them, so they check that answers do not depend on the basis.

Dense copies: about half the modules of ``hilbert-chern`` and
``pointwise`` are conjugated by a seeded invertible P (X_i -> P X_i P^-1).
Answers cannot change under it, but the matrices lose the sparsity of
the builtin bases.  Realized modules are dense already.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from cjt import chowring, gfalg, kemod, realize, thetasheaf

# -- closed-form Chern data: (rank, (c_0, ..., c_{r-1})) on P^{r-1}


def line(r, a):
    """O(a): c = 1 + a h."""
    return (1, (1, a) + (0,) * (r - 2))


def t_minus_1(r):
    """T(-1), from 0 -> O(-1) -> O^r -> T(-1) -> 0: c = 1 / (1 - h)."""
    return (r - 1, (1,) * r)


def whitney(x, y):
    """Class of a direct sum: ranks add, total Chern classes multiply."""
    r = len(x[1])
    c = tuple(sum(x[1][j] * y[1][m - j] for j in range(m + 1)) for m in range(r))
    return (x[0] + y[0], c)


def pullback(x, p):
    """Frobenius pullback: c_m -> p^m c_m."""
    return (x[0], tuple(p**m * c for m, c in enumerate(x[1])))


# -- seeded inputs


def stream(seed, workload, name):
    """Random stream of one case; independent of the order of the cases."""
    return random.Random(f"{seed}:{workload}:{name}")


def plan_seed(seed):
    return random.Random(f"{seed}:plan").getrandbits(32)


def _unit_triangular_inverse(T, p):
    """(I + N)^-1 = (I - N)(I + N^2)(I + N^4)... for N nilpotent."""
    n = T.shape[0]
    eye = np.eye(n, dtype=np.int64)
    N = (T - eye) % p
    inv = (eye - N) % p
    N = (N @ N) % p
    while N.any():
        inv = (inv @ (eye + N)) % p
        N = (N @ N) % p
    return inv


def change_of_basis(rng, n, p):
    """Seeded dense P and P^-1 over GF(p); P = L U is invertible by construction."""
    L = np.tril([[rng.randrange(p) for _ in range(n)] for _ in range(n)], -1)
    U = np.triu([[rng.randrange(p) for _ in range(n)] for _ in range(n)], 1)
    eye = np.eye(n, dtype=np.int64)
    L, U = L.astype(np.int64) + eye, U.astype(np.int64) + eye
    P = (L @ U) % p
    Pinv = (_unit_triangular_inverse(U, p) @ _unit_triangular_inverse(L, p)) % p
    if not np.array_equal((P @ Pinv) % p, eye):
        raise RuntimeError("change of basis is not invertible")
    return P, Pinv


def conjugate(M, basis):
    """The same module written in the basis P: X_i -> P X_i P^-1."""
    P, Pinv = basis
    if P.shape[0] != M.n:
        raise ValueError(f"basis of size {P.shape[0]} for a module of dim {M.n}")
    X = [(P @ A.astype(np.int64) @ Pinv) % M.p for A in M.X]
    return kemod.KEModule(
        M.p,
        M.r,
        X,
        validate=False,
        constant_by_construction=M.constant_by_construction,
    )


def point_coords(rng, p, r, e):
    """Coordinates of a point over GF(p^e), all nonzero, so it is generic."""
    q = p**e
    return tuple(rng.randrange(1, q) for _ in range(r))


@dataclasses.dataclass
class Case:
    name: str
    run: object  # () -> (answer, problems)


# -- module recipes (looked up at call time so traced passes see them)


def k(p, r):
    return kemod.builtin("trivial", p, r)


def omega_k(p, r, n):
    return lambda: kemod.omega(k(p, r), n)


def radq(p, r, m):
    return lambda: kemod.builtin("rad_quotient", p, r, m=m)


def zigzag(p, n):
    return lambda: kemod.builtin("zigzag", p, 2, n=n)


def stripped_tensor(a, b):
    return lambda: kemod.strip_free(kemod.tensor(a(), b()))[0]


def direct_sum(a, b):
    return lambda: kemod.direct_sum(a(), b())


def dual_of(a):
    return lambda: kemod.dual(a())


# -- hilbert-chern: check_constant, hilbert(M, i) for a_i != 0, chern_from_hilbert

# (name, p, r, recipe, dense, Jordan type a, {i: (rank, Chern class)})
HILBERT_CHERN = [
    # default window stops at the tracker's 512 MB budget (n = 15)
    ("omega1-k", 2, 4, omega_k(2, 4, 1), False, (1, 7),
     {1: line(4, -1), 2: (7, (1, -3, 5, -5))}),  # F_2 recorded
    ("omega4-k", 2, 2, omega_k(2, 2, 4), True, (1, 4),
     {1: line(2, -4), 2: (4, (1, 0))}),  # F_2 recorded
    ("zigzag3", 2, 2, zigzag(2, 3), False, (1, 3),
     {1: line(2, -3), 2: (3, (1, 0))}),  # F_2 recorded
    # Omega(zigzag2) plus free: F_1 = O(-2)(-1)
    ("zigzag2*omega1-k", 2, 2, stripped_tensor(zigzag(2, 2), omega_k(2, 2, 1)),
     True, (1, 3), {1: line(2, -3), 2: (3, (1, 0))}),  # F_2 recorded
    ("radq2", 2, 3, radq(2, 3, 2), True, (2, 1),
     {1: t_minus_1(3), 2: line(3, -1)}),
    ("omega-2-k", 2, 3, omega_k(2, 3, -2), False, (1, 8),
     {1: line(3, 2), 2: (8, (1, -5, 13))}),  # F_2 recorded
    ("omega1-k+omega-1-k", 2, 3, direct_sum(omega_k(2, 3, 1), omega_k(2, 3, -1)),
     True, (2, 6),
     {1: whitney(line(3, -1), line(3, 1)), 2: (6, (1, -3, 5))}),  # F_2 recorded
    ("omega2-k", 3, 2, omega_k(3, 2, 2), True, (1, 0, 3),
     {1: line(2, -3), 3: (3, (1, -2))}),  # F_3 recorded
    # Omega^2(radq2) plus free: F_i(radq2) twisted by -p
    ("radq2*omega2-k", 3, 2, stripped_tensor(radq(3, 2, 2), omega_k(3, 2, 2)),
     False, (1, 1, 6),
     {1: line(2, 1 - 3), 2: line(2, -1 - 3), 3: (6, (1, -3))}),  # F_3 recorded
    # odd p, r = 3, n = 14
    ("radq2+radq3", 3, 3, direct_sum(radq(3, 3, 2), radq(3, 3, 3)), True, (5, 3, 1),
     {1: whitney(t_minus_1(3), (3, (1, 3, 6))),  # F_i(radq3) recorded
      2: whitney(line(3, -1), (2, (1, -1, 1))),
      3: (1, (1, -2, 0))}),
    ("radq2", 3, 3, radq(3, 3, 2), False, (2, 1, 0),
     {1: t_minus_1(3), 2: line(3, -1)}),
    ("omega-2-k", 5, 2, omega_k(5, 2, -2), True, (1, 0, 0, 0, 5),
     {1: line(2, 5), 5: (5, (1, -11))}),  # F_5 recorded
]


def _hilbert_chern_case(M, plan, a, expected):
    problems = []
    verdict = kemod.check_constant(M, plan)
    got_type = tuple(verdict.type.a) if isinstance(verdict, kemod.ConstantSoFar) else None
    if got_type != a:
        problems.append(f"constancy verdict {verdict!r}, want Jordan type {a}")
    answer = {"type": got_type, "chern": {}}
    for i, want in expected.items():
        hd = thetasheaf.hilbert(M, i)
        rank, cls = chowring.chern_from_hilbert(hd)
        got = (rank, tuple(cls.coeffs))
        answer["chern"][i] = got
        if hd.rank() != a[i - 1] or rank != a[i - 1]:
            problems.append(f"F_{i} rank {hd.rank()}/{rank}, want a_{i} = {a[i - 1]}")
        if got != want:
            problems.append(f"F_{i} = {got}, want {want}")
    return answer, problems


def hilbert_chern(seed):
    plan = kemod.SamplingPlan(extra=40, seed=plan_seed(seed))
    cases = []
    for name, p, r, recipe, dense, a, expected in HILBERT_CHERN:
        cname = f"{name} p={p} r={r}" + (" dense" if dense else "")
        M = recipe()
        if dense:
            M = conjugate(M, change_of_basis(stream(seed, "hilbert-chern", cname), M.n, p))
        cases.append(Case(cname, lambda M=M, a=a, e=expected: _hilbert_chern_case(M, plan, a, e)))
    return cases


# -- realize: realize_bundle, stable type [1]^s, Chern class of F_1(M)

# (name, spec, expected stable rank s, class of the resolved bundle)
REALIZE = [
    (f"euler p={p} r={r}", lambda p=p, r=r: realize.euler_spec(p, r), r - 1, t_minus_1(r))
    for p, r in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
] + [
    (f"koszul-tail p={p} r=2", lambda p=p: realize.koszul_tail_spec(p, 2), 0, (0, (1, 0)))
    for p in (2, 3)
] + [
    (f"O({a}) p={p} r={r}", lambda p=p, r=r, a=a: realize.line_bundle_spec(p, r, a), 1, line(r, a))
    for p, r, a in ((2, 3, -2), (3, 2, -1), (3, 3, -1), (5, 2, -1))
]

# chern_from_hilbert on the realized module where it stays cheap
REALIZE_HILBERT_MAX_DIM = 20


def _realize_case(spec, plan, s, want):
    problems = []
    p, r = spec.p, spec.r
    if p != 2:
        want = pullback(want, p)
    M, report = realize.realize_bundle(spec, plan=plan)
    verdict = report.verdict
    got_type = tuple(verdict.type.a) if isinstance(verdict, kemod.ConstantSoFar) else None
    stable_ok = got_type is not None and got_type[:-1] == (s,) + (0,) * (p - 2)
    if not stable_ok:
        problems.append(f"verdict {verdict!r}, want stable type [1]^{s}")
    rank0, c0 = chowring.chern_from_resolution(r, [list(t) for t in spec.levels])
    if p != 2:
        c0 = chowring.frobenius_pullback(c0, p)
    resolved = (rank0, tuple(c0.coeffs))
    if resolved != want:
        problems.append(f"resolution gives {resolved}, want {want}")
    answer = {"type": got_type, "dim": M.n, "chern": None}
    if M.n == 0:
        if s != 0:
            problems.append(f"stably zero module for stable rank {s}")
    elif M.n <= REALIZE_HILBERT_MAX_DIM:
        rank, cls = chowring.chern_from_hilbert(thetasheaf.hilbert(M, 1))
        answer["chern"] = (rank, tuple(cls.coeffs))
        if answer["chern"] != want:
            problems.append(f"F_1 = {answer['chern']}, want {want}")
    return answer, problems


def realize_specs(seed):
    plan = kemod.SamplingPlan(seed=plan_seed(seed))
    cases = []
    for name, make_spec, s, want in REALIZE:
        spec = make_spec()
        cases.append(Case(name, lambda spec=spec, s=s, w=want: _realize_case(spec, plan, s, w)))
    return cases


# -- pointwise: build modules, then Jordan type and fiber at seeded points

# (name, p, r, recipe, dense, extension degrees of the points, dim, Jordan type)
POINTWISE = [
    ("omega-4-k", 2, 2, omega_k(2, 2, -4), False, (1, 2, 3, 4), 9, (1, 4)),
    ("omega4-k", 2, 3, omega_k(2, 3, 4), True, (1, 2), 49, (1, 24)),
    ("omega-3-k", 2, 3, omega_k(2, 3, -3), False, (1, 3), 31, (1, 15)),
    ("omega4-k", 3, 2, omega_k(3, 2, 4), True, (1, 2, 4), 19, (1, 0, 6)),
    ("omega-3-k", 3, 2, omega_k(3, 2, -3), False, (1, 3), 17, (0, 1, 5)),
    ("omega2-k", 3, 3, omega_k(3, 3, 2), False, (1, 2), 55, (1, 0, 18)),
    ("omega1-k", 3, 3, omega_k(3, 3, 1), True, (1, 4), 26, (0, 1, 8)),
    ("omega-2-k", 5, 2, omega_k(5, 2, -2), False, (1, 3), 26, (1, 0, 0, 0, 5)),
    ("radq2*omega1-k", 2, 3, stripped_tensor(radq(2, 3, 2), omega_k(2, 3, 1)), True,
     (1, 2, 3, 4), 4, (2, 1)),
    ("radq2*omega2-k", 3, 2, stripped_tensor(radq(3, 2, 2), omega_k(3, 2, 2)), False,
     (1, 4), 21, (1, 1, 6)),
    ("dual-omega2-k", 2, 3, dual_of(omega_k(2, 3, 2)), True, (2, 3), 17, (1, 8)),
    ("dual-zigzag3*omega1-k", 3, 2,
     dual_of(stripped_tensor(zigzag(3, 3), omega_k(3, 2, 1))), True, (1, 3), 29, (3, 1, 8)),
]


def _pointwise_case(recipe, basis, coords, dim, a):
    problems = []
    M = recipe()
    if M.n != dim:
        return {"dim": M.n, "types": []}, [f"dim {M.n}, want {dim}"]
    if basis is not None:
        M = conjugate(M, basis)
    types = []
    for e, c in coords:
        pt = kemod.Point(gfalg.build_field(M.p, e), c)
        jt = tuple(kemod.jordan_type_at(M, pt).a)
        fb = tuple(thetasheaf.fiber(M, pt).dims)
        types.append(jt)
        if jt != a or fb != jt:
            problems.append(f"GF({M.p}^{e}) point {c}: type {jt}, fiber {fb}, want {a}")
    return {"dim": M.n, "types": types}, problems


def pointwise(seed):
    cases = []
    for name, p, r, recipe, dense, degrees, dim, a in POINTWISE:
        cname = f"{name} p={p} r={r}" + (" dense" if dense else "")
        rng = stream(seed, "pointwise", cname)
        basis = change_of_basis(rng, dim, p) if dense else None
        coords = [(e, point_coords(rng, p, r, e)) for e in degrees]
        cases.append(Case(
            cname,
            lambda f=recipe, b=basis, c=coords, d=dim, a=a: _pointwise_case(f, b, c, d, a),
        ))
    return cases


WORKLOADS = {
    "hilbert-chern": hilbert_chern,
    "realize": realize_specs,
    "pointwise": pointwise,
}
