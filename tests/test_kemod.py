import functools
import random
import tracemalloc

import numpy as np
import pytest

from cjt import kemod, realize
from cjt.errors import InputError
from cjt.gfalg import (
    MAX_FIELD_ORDER,
    SUPPORTED_PRIMES,
    FieldCtx,
    _unblock,
    blocked_over_prime,
    build_field,
    kernel_p,
    matmul_p,
    matpow_p,
    rank_p,
    rref_p,
    solve_p,
)
from cjt.kemod import (
    EXTRA_CAP,
    EXTRA_DEGREES,
    QUADRATIC_CAP,
    RATIONAL_CAP,
    ConstantSoFar,
    Falsified,
    HellerStep,
    JordanType,
    KEModule,
    ModuleError,
    ModuleHom,
    ResourceCapError,
    NonCommutingError,
    NotPNilpotentError,
    Point,
    SamplingPlan,
    _column_complement,
    _digit_stack,
    _orbit_keys,
    _power_stack,
    _power_terms,
    _radical_layers,
    _rank_mismatches,
    _sampling_schedule,
    _support_is_acyclic,
    builtin,
    check_constant,
    direct_sum,
    dual,
    injective_hull,
    jordan_type_at,
    layered_actions,
    minimal_generators,
    new_module,
    omega,
    projective_cover,
    projective_points,
    reference_jordan_type,
    strip_free,
    submodule,
    tensor,
    x_alpha,
)
from cjt.suites import DEFAULT_PAIRS, _battery

from test_gfalg import oracle_mul
from test_random_modules import conjugate, random_closed_span, random_invertible, zoo
from test_thetasheaf import battery


def axis_point(p, r, i, e=1):
    coords = [0] * r
    coords[i] = 1
    return Point(build_field(p, e), tuple(coords))


class TestNewModule:
    def test_trivial(self):
        M = new_module(2, 2, [np.zeros((1, 1))] * 2)
        assert M.n == 1

    def test_regular_rep_explicit(self):
        # multiplication matrices of X_1, X_2 on the basis 1, X_1, X_2, X_1X_2
        X1 = np.zeros((4, 4))
        X2 = np.zeros((4, 4))
        X1[1, 0] = X1[3, 2] = 1
        X2[2, 0] = X2[3, 1] = 1
        M = new_module(2, 2, [X1, X2])
        assert M.n == 4
        R = builtin("regular", 2, 2)
        # same module up to basis ordering: compare Jordan data everywhere
        for pt in projective_points(2, 2):
            assert jordan_type_at(M, pt) == jordan_type_at(R, pt)

    def test_non_commuting_rejected(self):
        A = np.array([[0, 1], [0, 0]])
        B = np.array([[0, 0], [1, 0]])
        with pytest.raises(NonCommutingError):
            new_module(2, 2, [A, B])

    def test_not_p_nilpotent_rejected(self):
        J3 = np.zeros((3, 3))
        J3[0, 1] = J3[1, 2] = 1
        with pytest.raises(NotPNilpotentError):
            new_module(2, 2, [J3, np.zeros((3, 3))])


class TestBuiltins:
    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_rad_quotient_2(self, p, r):
        M = builtin("rad_quotient", p, r, m=2)
        assert M.n == r + 1
        expected = JordanType(p, (r - 1,) + (0,) * (p - 2) + (0,)) if p == 2 else None
        t = reference_jordan_type(M)
        # constant Jordan type [2][1]^{r-1}
        want = [0] * p
        want[0] = r - 1
        want[1] = 1
        assert t == JordanType(p, tuple(want))

    @pytest.mark.parametrize("p,r,i", [(3, 2, 1), (2, 3, 2), (5, 2, 2)])
    def test_perm_module(self, p, r, i):
        M = builtin("perm", p, r, i=i)
        assert M.n == p
        # X_i is one length-p Jordan block, the rest are zero
        for j, A in enumerate(M.X):
            if j == i - 1:
                assert np.sum(A) == p - 1
            else:
                assert not np.any(A)
        t = jordan_type_at(M, axis_point(p, r, i - 1))
        want = [0] * p
        want[p - 1] = 1
        assert t == JordanType(p, tuple(want))

    def test_zigzag_type(self):
        # dim 2n+1, constant type [2]^n [1]
        for n in (1, 2, 3):
            M = builtin("zigzag", 3, 2, n=n)
            assert M.n == 2 * n + 1
            v = check_constant(M, SamplingPlan(extra=30))
            assert isinstance(v, ConstantSoFar)
            assert v.type == JordanType(3, (1, n, 0))

    def test_regular_is_free_of_rank_one(self):
        M = builtin("regular", 3, 2)
        assert M.n == 9
        t = reference_jordan_type(M)
        assert t == JordanType(3, (0, 0, 3))

    @pytest.mark.parametrize("kind,params", [("regular", {}), ("rad_quotient", {"m": 2})])
    def test_group_algebra_above_max_dim_refused(self, kind, params):
        # kE at (2, 40) has 2^40 monomials: refused under the default cap
        # before any of them is listed
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="dimension 8 above the cap 7"):
                builtin(kind, 2, 3, max_dim=7, **params)
            with pytest.raises(ResourceCapError, match=f"dimension {2**40} above the cap"):
                builtin(kind, 2, 40, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert builtin(kind, 2, 3, max_dim=8, **params).n == (8 if kind == "regular" else 4)

    def test_unsupported_algebra_refused_before_the_cap(self):
        with pytest.raises(ModuleError, match="unsupported characteristic"):
            builtin("regular", 4, 2, max_dim=1)


class TestXAlpha:
    def test_axis_point_regular(self):
        M = builtin("regular", 2, 2)
        pt = axis_point(2, 2, 0)
        assert np.array_equal(x_alpha(M, pt).array, M.X[0].astype(np.int64))

    def test_rad_quotient_rank_one(self):
        for pt in projective_points(3, 3):
            M = builtin("rad_quotient", 3, 3, m=2)
            from cjt.gfalg import rank_ext

            assert rank_ext(pt.ctx, x_alpha(M, pt).array) == 1

    def test_perm_ignores_other_coordinates(self):
        M = builtin("perm", 3, 2, i=1)
        pt = Point(build_field(3), (1, 1))
        A = x_alpha(M, pt).array
        assert np.array_equal(A, M.X[0].astype(np.int64))

    @pytest.mark.parametrize(
        "p,r,e",
        [(p, 3 if p == 2 else 2, e) for p in SUPPORTED_PRIMES for e in range(1, 5)
         if p**e <= MAX_FIELD_ORDER],
    )
    def test_matches_polynomial_oracle(self, p, r, e):
        # sum lambda_i X_i entry by entry in digit-polynomial arithmetic, for
        # both builders: x_alpha and the digit stack (one stack of all points)
        M = dual(builtin("rad_quotient", p, r, m=3))  # entries 0, 1 and p - 1
        F = build_field(p, e)
        rng = np.random.default_rng(p * e)
        points = [Point(F, (F.q - 1,) * r)]
        points += [Point(F, tuple(int(c) for c in rng.integers(1, F.q, size=r)))
                   for _ in range(5)]
        stack = _digit_stack(np.array(M.X, dtype=np.float32), points)
        for pt, digits in zip(points, stack):
            want = np.zeros((M.n, M.n), dtype=np.int64)
            for lam, A in zip(pt.coords, M.X):
                for (a, b), x in np.ndenumerate(A):
                    want[a, b] = F.add(int(want[a, b]), oracle_mul(F, lam, int(x)))
            assert np.array_equal(x_alpha(M, pt).array, want)
            assert np.array_equal(digits @ F.weights, want)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            Point(build_field(2), (0, 0))

    @pytest.mark.parametrize(
        "e,coords", [(1, (2, 1)), (1, (1, -1)), (2, (1, 4)), (2, (-1, 1)), (3, (0, 9))]
    )
    def test_coordinates_outside_the_field_rejected(self, e, coords):
        with pytest.raises(InputError, match=r"encoded in \[0, "):
            Point(build_field(2, e), coords)

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 0, 1)])
    def test_point_of_another_rank_rejected(self, coords):
        M = builtin("rad_quotient", 2, 2, m=2)
        pt = Point(build_field(2, 2), coords)
        for f in (x_alpha, jordan_type_at):
            with pytest.raises(ModuleError):
                f(M, pt)


class TestJordanType:
    def test_regular_kE_p2r2(self):
        # kE free of rank p^{r-1} = 2 over k[X_a]/(X_a^2)
        M = builtin("regular", 2, 2)
        for pt in projective_points(2, 2):
            assert jordan_type_at(M, pt) == JordanType(2, (0, 2))

    def test_trivial(self):
        M = builtin("trivial", 5, 2)
        assert reference_jordan_type(M) == JordanType(5, (1, 0, 0, 0, 0))

    def test_dim_identity_at_extension_points(self):
        M = builtin("rad_quotient", 3, 2, m=3)
        for e in (1, 2, 3):
            ctx = build_field(3, e)
            pt = Point(ctx, (1, ctx.q - 1))
            t = jordan_type_at(M, pt)
            assert t.dim == M.n

    def test_scaling_invariance(self):
        M = builtin("zigzag", 3, 2, n=2)
        ctx = build_field(3, 2)
        base = Point(ctx, (2, 7))
        t0 = jordan_type_at(M, base)
        for s in range(1, ctx.q):
            scaled = Point(ctx, tuple(ctx.mul(s, c) for c in base.coords))
            assert jordan_type_at(M, scaled) == t0

    def test_formatting(self):
        assert str(JordanType(2, (2, 1))) == "[2][1]^2"
        assert str(JordanType(3, (1, 0, 2))) == "[3]^2[1]"


class TestCheckConstant:
    def test_rad_quotient_constant(self):
        M = builtin("rad_quotient", 2, 3, m=2)
        v = check_constant(M, SamplingPlan(extra=50))
        assert isinstance(v, ConstantSoFar)
        assert v.type == JordanType(2, (2, 1))
        assert v.points_checked > 7

    def test_falsified_with_witness(self):
        # X_1 = J_2 + J_1 (3x3), X_2 = 0: constant fails at alpha = (0, 1)
        X1 = np.zeros((3, 3))
        X1[0, 1] = 1
        M = new_module(2, 2, [X1, np.zeros((3, 3))])
        v = check_constant(M)
        assert isinstance(v, Falsified)
        assert v.witness.normalized().coords == (0, 1)
        assert v.type_at_witness == JordanType(2, (3, 0))
        assert v.reference_type == JordanType(2, (1, 1))

    @pytest.mark.parametrize(
        "fields",
        [{"extra": 10**8}, {"extra": EXTRA_CAP + 1}, {"extra": -1},
         {"max_ext_degree": 5}, {"max_ext_degree": 0}],
    )
    def test_plan_refuses_out_of_range_before_any_point(self, fields):
        tracemalloc.start()
        try:
            with pytest.raises(ModuleError):
                SamplingPlan(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert SamplingPlan(extra=EXTRA_CAP, max_ext_degree=max(EXTRA_DEGREES))

    @pytest.mark.parametrize("p,r", [(2, 14), (2, 40), (13, 5), (13, 30)])
    def test_rational_points_refused_before_any_is_built(self, p, r):
        # (p^r - 1)/(p - 1) GF(p)-points above RATIONAL_CAP (r = 14 and 5
        # are the least such r); a point costs about 1.5 KB, so a refusal
        # that built them would show
        assert (p**r - 1) // (p - 1) > RATIONAL_CAP
        M = builtin("trivial", p, r)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="GF.*-points, above the cap"):
                check_constant(M, SamplingPlan(extra=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_trivial_constant(self):
        v = check_constant(builtin("trivial", 3, 2), SamplingPlan(extra=10))
        assert isinstance(v, ConstantSoFar)
        assert v.type == JordanType(3, (1, 0, 0))


def full_jordan_type(M, pt):
    """Jordan type from the ranks of all p powers of X_alpha, built through x_alpha."""
    p, e = M.p, pt.ctx.e
    B = blocked_over_prime(pt.ctx, x_alpha(M, pt).array)
    ranks = [M.n] + [rank_p(matpow_p(B, j, p), p) // e for j in range(1, p + 1)] + [0]
    return JordanType(p, tuple(ranks[i - 1] - 2 * ranks[i] + ranks[i + 1]
                               for i in range(1, p + 1)))


def image_chain_modules(p):
    """battery() and zoo(7) at p = 2, 3; builtins at p = 5, 7, 13.  Trivial
    and perm modules reach rank 0 early; regular summands are free."""
    if p in (2, 3):
        mods = [M for _, M in battery()] + zoo(7)
        return [M for M in mods if M.p == p]
    mods = [
        builtin("trivial", p, 2),
        builtin("perm", p, 2, i=1),
        builtin("rad_quotient", p, 2, m=2),
        builtin("zigzag", p, 2, n=2),
    ]
    if p < 13:
        mods.append(omega(builtin("trivial", p, 2), -1))
        mods.append(direct_sum(builtin("regular", p, 2), builtin("perm", p, 2, i=2)))
    return mods


class TestImageChain:
    """jordan_type_at ranks each power on the image of the one before; the
    oracle ranks all p powers of X_alpha built through x_alpha."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_all_powers_oracle(self, p):
        rng = random.Random(p)
        for M in image_chain_modules(p):
            for e in range(1, 5):
                if p**e > MAX_FIELD_ORDER:
                    continue
                ctx = build_field(p, e)
                pts = [axis_point(p, M.r, 0, e)]
                while len(pts) < 3:
                    coords = tuple(rng.randrange(ctx.q) for _ in range(M.r))
                    if any(coords):
                        pts.append(Point(ctx, coords))
                for pt in pts:
                    blocked = blocked_over_prime(ctx, x_alpha(M, pt).array)
                    digits = _digit_stack(np.array(M.X, dtype=np.float32), [pt])[0]
                    got = blocked_over_prime(ctx, digits @ ctx.weights)
                    assert got.dtype == blocked.dtype == np.uint8
                    assert np.array_equal(got, blocked)
                    assert jordan_type_at(M, pt) == full_jordan_type(M, pt)

    def test_battery_in_the_largest_field(self):
        # verify's battery at (13, 2) at GF(13^4) points (an axis point, one
        # point with a zero coordinate, generic ones): jordan_type_at and
        # fiber agree, and match the blocked full-power oracle on every
        # member small enough for it (n <= 13, blocked 52 x 52)
        from cjt.thetasheaf import fiber

        ctx = build_field(13, 4)
        assert ctx.q == MAX_FIELD_ORDER
        rng = random.Random(134)
        coords = [(1, 0), (0, rng.randrange(1, ctx.q))]
        coords += [(rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)) for _ in range(2)]
        for name, M in _battery(13, 2):
            for pt in (Point(ctx, c) for c in coords):
                want = jordan_type_at(M, pt)
                assert fiber(M, pt).dims == want.a, name
                if M.n <= 13:
                    assert want == full_jordan_type(M, pt), name


def visit_order(M, plan):
    """check_constant's points in visit order, and the fields it reports."""
    p, r = M.p, M.r
    points = projective_points(p, r)
    fields = [f"GF({p})"]
    if (p ** (2 * r) - 1) // (p**2 - 1) <= QUADRATIC_CAP:
        points += projective_points(p, r, 2)
        fields.append(f"GF({p}^2)")
    rng = random.Random(plan.seed)
    degrees = sorted({min(e, plan.max_ext_degree) for e in (2, 3, 4)})
    extra_fields = set()
    for k in range(plan.extra):
        ctx = build_field(p, degrees[k % len(degrees)])
        coords = tuple(rng.randrange(ctx.q) for _ in range(r))
        points.append(Point(ctx, coords if any(coords) else (1,) + coords[1:]))
        extra_fields.add(f"GF({p}^{ctx.e})" if ctx.e > 1 else f"GF({p})")
    return points, fields + sorted(extra_fields - set(fields))


def brute_force_check_constant(M, plan):
    """check_constant without orbit memo or early stop: every point, all p ranks."""
    points, fields = visit_order(M, plan)
    reference = full_jordan_type(M, points[0])
    for pt in points:
        t = full_jordan_type(M, pt)
        if t != reference:
            return Falsified(pt, t, reference)
    return ConstantSoFar(reference, len(points), tuple(fields))


def orbit_key(alpha):
    """kemod._orbit_keys for one point, one coordinate at a time: (1,
    normalized coordinates) if GF(p)-rational, else (e, least Frobenius
    conjugate of the normalized coordinates), as Python tuples."""
    ctx = alpha.ctx
    coords = alpha.normalized().coords
    p = ctx.p
    if all(c < p for c in coords):
        return 1, coords
    weights = p ** np.arange(ctx.e)
    digits = (np.array(coords)[:, None] // weights) % p
    key = coords
    for _ in range(ctx.e - 1):
        digits = digits @ ctx.frobenius_matrix.T % p
        key = min(key, tuple((digits @ weights).tolist()))
    return ctx.e, key


def orbit_representatives(points):
    """The first point of each Galois orbit but points[0]'s, in visit order."""
    seen = {orbit_key(points[0])}
    out = []
    for pt in points:
        key = orbit_key(pt)
        if key not in seen:
            seen.add(key)
            out.append(pt)
    return out


def one_orbit_at_a_time(M, plan):
    """check_constant with one jordan_type_at per orbit, stopping at the first
    failing representative."""
    points, fields = visit_order(M, plan)
    reference = reference_jordan_type(M)
    for pt in orbit_representatives(points):
        t = jordan_type_at(M, pt)
        if t != reference:
            return Falsified(pt, t, reference)
    return ConstantSoFar(reference, len(points), tuple(fields))


def conic_module(p, r, d):
    """X_alpha maps V to W (dim d each) by l_1 I + l_2 C, C the companion of
    an irreducible of degree d: not constant exactly at the GF(p^d)-points
    where det(l_1 I + l_2 C) = 0."""
    C = build_field(p, d).companion
    X = [np.zeros((2 * d, 2 * d), dtype=np.uint8) for _ in range(r)]
    X[0][d:, :d] = np.eye(d, dtype=np.uint8)
    X[1][d:, :d] = C
    return new_module(p, r, X)


def squares_module(p=3):
    """X_1: a -> b -> c and X_2: a -> d -> c, so X_alpha^2 a = (l_1^2 +
    l_2^2) c: rank X_alpha is 2 everywhere, and the type is [3][1] but
    where l_1^2 = -l_2^2, where X_alpha^2 = 0 and it is [2][2]: at the
    GF(9)-points (1, +-i) at p = 3, at (1, 2) and (1, 3) at p = 5."""
    X1 = np.zeros((4, 4), dtype=np.uint8)
    X2 = np.zeros((4, 4), dtype=np.uint8)
    X1[1, 0] = X1[2, 1] = 1
    X2[3, 0] = X2[2, 3] = 1
    return new_module(p, 2, [X1, X2])


@functools.cache
def realized(spec):
    return realize.realize_bundle(spec, plan=SamplingPlan(extra=0))[0]


DIFFERENTIAL_PLANS = (
    SamplingPlan(extra=40, seed=1),
    SamplingPlan(extra=25, max_ext_degree=3, seed=7),
)

# name: (module, extension degree of the witness under each plan, or None
# where the sampler finds none)
DIFFERENTIAL_MODULES = {
    "perm1 p=2 r=3": (lambda: builtin("perm", 2, 3, i=1), (1, 1)),
    "perm2 p=5 r=2": (lambda: builtin("perm", 5, 2, i=2), (1, 1)),
    "omega2 p=2 r=2": (lambda: omega(builtin("trivial", 2, 2), 2), (None, None)),
    "omega-1 p=3 r=2": (lambda: omega(builtin("trivial", 3, 2), -1), (None, None)),
    "omega1 p=5 r=2": (lambda: omega(builtin("trivial", 5, 2), 1), (None, None)),
    "radq2 p=3 r=3": (lambda: builtin("rad_quotient", 3, 3, m=2), (None, None)),
    "radq3 p=5 r=2": (lambda: builtin("rad_quotient", 5, 2, m=3), (None, None)),
    "conic2 p=3 r=2": (lambda: conic_module(3, 2, 2), (2, 2)),
    "conic2 p=2 r=2": (lambda: conic_module(2, 2, 2), (2, 2)),
    "conic3 p=2 r=2": (lambda: conic_module(2, 2, 3), (3, 3)),
    # degenerate only at GF(p^3)-points, or at GF(16)-points for conic4: the
    # second plan's random GF(p^3)-points miss them at p = 3 and 5, and it
    # visits no GF(16)-point
    "conic3 p=3 r=2": (lambda: conic_module(3, 2, 3), (3, None)),
    "conic3 p=5 r=2": (lambda: conic_module(5, 2, 3), (3, None)),
    "conic4 p=2 r=2": (lambda: conic_module(2, 2, 4), (4, None)),
    # off the reference at the second power only
    "squares p=3 r=2": (squares_module, (2, 2)),
    "euler p=2 r=3": (lambda: realized(realize.euler_spec(2, 3)), (None, None)),
    "O(-1) p=3 r=2": (lambda: realized(realize.line_bundle_spec(3, 2, -1)), (None, None)),
    "O(-1) p=5 r=2": (lambda: realized(realize.line_bundle_spec(5, 2, -1)), (None, None)),
}

FALSIFIED = [
    (name, k)
    for name, (_, degrees) in DIFFERENTIAL_MODULES.items()
    for k, degree in enumerate(degrees)
    if degree is not None
]


class TestOrbitMemo:
    """check_constant skips repeated Galois orbits; the answers must not move."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_MODULES)
    @pytest.mark.parametrize("k", range(len(DIFFERENTIAL_PLANS)))
    def test_matches_brute_force(self, name, k):
        make, witness_degrees = DIFFERENTIAL_MODULES[name]
        M, plan = make(), DIFFERENTIAL_PLANS[k]
        M._cache.pop(("constancy", plan), None)
        got, want = check_constant(M, plan), brute_force_check_constant(M, plan)
        if witness_degrees[k] is None:
            assert isinstance(want, ConstantSoFar)
            assert got == want
        else:
            assert isinstance(want, Falsified)
            assert want.witness.ctx.e == witness_degrees[k]
            assert isinstance(got, Falsified)
            assert got.witness.coords == want.witness.coords
            assert got.witness.ctx is want.witness.ctx
            assert got.type_at_witness == want.type_at_witness
            assert got.reference_type == want.reference_type

    @pytest.mark.parametrize("name,k", FALSIFIED)
    def test_at_most_twice_the_orbits_of_one_at_a_time(self, name, k, monkeypatch):
        # orbits evaluated = points whose X_alpha is built, all through
        # _digit_stack: the sampler's stacks, and the stacks of one point
        # jordan_type_at builds for the reference and the witness
        built = []
        original = kemod._digit_stack
        monkeypatch.setattr(
            kemod, "_digit_stack", lambda X, pts: built.extend(pts) or original(X, pts)
        )
        M, plan = DIFFERENTIAL_MODULES[name][0](), DIFFERENTIAL_PLANS[k]
        M._cache.pop(("constancy", plan), None)
        want = one_orbit_at_a_time(M, plan)
        one_at_a_time = len(built)
        built.clear()
        assert check_constant(M, plan) == want
        assert len(built) <= 2 * one_at_a_time

    @pytest.mark.parametrize(
        "name,k",
        [("conic2 p=2 r=2", 0), ("conic2 p=2 r=2", 1), ("conic3 p=3 r=2", 0),
         ("conic3 p=5 r=2", 0), ("conic4 p=2 r=2", 0)],
    )
    def test_witness_behind_another_field_past_the_first_chunk(self, name, k):
        # check_constant takes the representatives in chunks of 1, 2, 4, ...;
        # chunk j holds indices 2^j - 1 .. 2^(j+1) - 2
        M, plan = DIFFERENTIAL_MODULES[name][0](), DIFFERENTIAL_PLANS[k]
        witness = brute_force_check_constant(M, plan).witness
        reps = orbit_representatives(visit_order(M, plan)[0])
        w = reps.index(witness)
        start = 2 ** ((w + 1).bit_length() - 1) - 1
        assert start > 0
        assert any(pt.ctx is not witness.ctx for pt in reps[start:w])

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 2), (2, 3)])
    @pytest.mark.parametrize("k", range(len(DIFFERENTIAL_PLANS)))
    def test_schedule_is_the_visit_order_built_once(self, p, r, k):
        # the cached schedule holds the orbit representatives of the visit
        # order in chunks of 1, 2, 4, ..., each grouped by field with its
        # indices in the chunk; modules of one (p, r) share it
        plan = DIFFERENTIAL_PLANS[k]
        points, fields = visit_order(builtin("trivial", p, r), plan)
        count, fields_used, chunks = _sampling_schedule(p, r, plan)
        assert (count, fields_used) == (len(points), tuple(fields))
        flat = []
        for j, groups in enumerate(chunks):
            chunk = sorted(pair for group in groups for pair in group)
            assert [i for i, _ in chunk] == list(range(len(chunk)))
            assert len(chunk) == 2**j or j == len(chunks) - 1
            for group in groups:
                assert len({pt.ctx for _, pt in group}) == 1
            assert len({group[0][1].ctx for group in groups}) == len(groups)
            flat += [pt for _, pt in chunk]
        assert flat == orbit_representatives(points)
        hits = _sampling_schedule.cache_info().hits
        for M in (builtin("trivial", p, r), builtin("rad_quotient", p, r, m=2)):
            M._cache.pop(("constancy", plan), None)
            check_constant(M, plan)
        assert _sampling_schedule.cache_info().hits == hits + 2

    @pytest.mark.parametrize("name", ["omega1 p=5 r=2", "conic3 p=2 r=2", "euler p=2 r=3"])
    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_frobenius_conjugates_share_a_type(self, name, e):
        M = DIFFERENTIAL_MODULES[name][0]()
        ctx = build_field(M.p, e)
        rng = random.Random(e)
        for _ in range(6):
            pt = Point(ctx, tuple(rng.randrange(1, ctx.q) for _ in range(M.r)))
            frob = Point(ctx, tuple(ctx.frobenius(c) for c in pt.coords))
            assert jordan_type_at(M, pt) == jordan_type_at(M, frob)
            assert jordan_type_at(M, pt) == full_jordan_type(M, pt)

    @pytest.mark.parametrize("p,e", [(2, 4), (3, 3), (5, 2), (13, 2)])
    def test_frobenius_matrix_matches_frobenius(self, p, e):
        F = build_field(p, e)
        for a in F.elements():
            image = F.frobenius_matrix @ np.array(F.digits(a)) % p
            assert F.encode(image) == F.frobenius(a)

    def test_orbit_key(self):
        F9, F81 = build_field(3, 2), build_field(3, 4)
        rational = Point(build_field(3), (1, 2, 0))
        # the same GF(3)-point, scaled, over GF(9) and GF(81)
        for ctx in (F9, F81):
            c = ctx.q - 2
            scaled = Point(ctx, tuple(ctx.mul(c, x) for x in rational.coords))
            assert orbit_key(scaled) == orbit_key(rational) == (1, (1, 2, 0))
        pt = Point(F81, (5, 17, 40))
        conj = pt
        for _ in range(3):
            conj = Point(F81, tuple(F81.frobenius(x) for x in conj.coords))
            assert orbit_key(conj) == orbit_key(pt)
        assert orbit_key(pt)[0] == 4
        assert orbit_key(pt) != orbit_key(Point(F81, (5, 17, 41)))

    @pytest.mark.parametrize("p", SUPPORTED_PRIMES)
    @pytest.mark.parametrize("r", [2, 3])
    def test_orbit_keys_match_scalar_keys(self, p, r):
        # the visit order depends on (p, r) and the plan only, so these are
        # the points check_constant visits for every module of the
        # suites' battery at (p, r); trivial is the one cheap to build
        rng = random.Random(p * r)
        M = builtin("trivial", p, r)
        points = visit_order(M, SamplingPlan(extra=200, seed=p))[0]
        for e in (2, 3, 4):
            if p**e > MAX_FIELD_ORDER:
                continue
            ctx = build_field(p, e)
            for _ in range(20):
                # a scaled point with leading zeros, and a GF(p)-rational
                # point scaled by an element of GF(p^e)
                c = rng.randrange(1, ctx.q)
                lead = rng.randrange(r)
                tail = [rng.randrange(ctx.q) for _ in range(r - lead - 1)]
                points.append(Point(ctx, (0,) * lead + (c,) + tuple(tail)))
                rational = [rng.randrange(p) for _ in range(r - 1)] + [1]
                scaled = ctx.mul_array(c, rng.sample(rational, r)).tolist()
                points.append(Point(ctx, tuple(scaled)))
        assert _orbit_keys(points) == [orbit_key(pt) for pt in points]

    def test_orbit_keys_in_the_largest_field_at_r5(self):
        ctx = build_field(13, 4)
        rng = random.Random(5)
        points = [
            Point(ctx, tuple(rng.randrange(ctx.q) for _ in range(5)))
            for _ in range(300)
        ]
        points += [Point(ctx, (0, 0) + pt.coords[2:]) for pt in points[:50]]
        keys = _orbit_keys(points)
        assert keys == [orbit_key(pt) for pt in points]
        assert {k[0] for k in keys} == {4}

    def test_no_scalar_field_arithmetic_per_point(self, monkeypatch):
        plan = SamplingPlan(extra=200)
        # fields and their Frobenius matrices are built once per process
        for r in (2, 3):
            check_constant(builtin("trivial", 3, r), plan)
        calls = []
        for name in ("mul", "inv"):
            scalar = getattr(FieldCtx, name)
            monkeypatch.setattr(
                FieldCtx,
                name,
                lambda self, *args, name=name, scalar=scalar: calls.append(name)
                or scalar(self, *args),
            )
        constant = check_constant(builtin("rad_quotient", 3, 3, m=2), plan)
        assert isinstance(constant, ConstantSoFar) and constant.points_checked > 200
        assert isinstance(check_constant(conic_module(3, 2, 2), plan), Falsified)
        assert calls == []


@functools.cache
def sampler_modules():
    """verify's battery at the default pairs and dense copies of it, the
    test battery, zoo(3), zoo(11), zoo(29) and DIFFERENTIAL_MODULES, as
    (name, module) pairs."""
    rng = np.random.default_rng(23)
    mods = [
        (f"{name} p={p} r={r}", M) for p, r in DEFAULT_PAIRS for name, M in _battery(p, r)
    ]
    mods += [(f"dense {name}", conjugate(M, rng)) for name, M in mods]
    mods += battery()
    mods += [(f"zoo({s}) {i}", M) for s in (3, 11, 29) for i, M in enumerate(zoo(s))]
    mods += [(name, make()) for name, (make, _) in DIFFERENTIAL_MODULES.items()]
    return mods


def ranks_of(t: JordanType):
    """rank X^j, j = 0 .. p-1, on a module of Jordan type t."""
    return [sum((i - j) * m for i, m in enumerate(t.a, 1) if i > j) for j in range(t.p)]


def mismatches(M, points, ranks):
    """_rank_mismatches on every power X_alpha^1 .. X_alpha^(p-1), built
    from M's layered actions in float32."""
    X = np.array(layered_actions(M), dtype=np.float32)
    return _rank_mismatches(_power_terms(X, M.p - 1, M.p), points, ranks)


class TestDigitSampler:
    """The sampler's digit stacks against jordan_type_at, which ranks the
    companion-blocked X_alpha point by point.  Both build X_alpha through
    _digit_stack, but they share no elimination and no power of it."""

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_mismatches_are_the_points_off_the_reference(self, e, monkeypatch):
        rng = random.Random(e)
        off = 0
        for name, M in sampler_modules():
            if M.p**e > MAX_FIELD_ORDER:
                continue
            ctx = build_field(M.p, e)
            points = [axis_point(M.p, M.r, i, e) for i in range(M.r)]
            while len(points) < M.r + 4:
                coords = tuple(rng.randrange(ctx.q) for _ in range(M.r))
                if any(coords):
                    points.append(Point(ctx, coords))
            reference = reference_jordan_type(M)
            want = [i for i, pt in enumerate(points) if jordan_type_at(M, pt) != reference]
            off += len(want)
            # the default stacks, and one point per stack
            for cells in (kemod.STACK_CELLS, 1):
                monkeypatch.setattr(kemod, "STACK_CELLS", cells)
                got = mismatches(M, points, ranks_of(reference))
                assert sorted(got) == want, name
        assert off > 0

    def test_oracle_shares_no_kernel_with_the_sampler(self, monkeypatch):
        # jordan_type_at and reference_jordan_type are the sampler's oracle:
        # with stacked_pivots and the power builders _power_terms and
        # _power_stack broken they still give the battery's types, at the
        # reference point and at a GF(p^2) point off every coordinate plane
        want = {
            "k(2,2)": (1, 0),
            "radq2(2,2)": (1, 1),
            "regular(2,2)": (0, 2),
            "zigzag2(3,2)": (1, 2, 0),
            "radq2(3,2)": (1, 1, 0),
            "radq2(2,3)": (2, 1),
            "perm1(3,2)": (0, 0, 1),
            "Omega k(2,2)": (1, 1),
        }

        def broken(*args):
            raise AssertionError("the oracle called stacked_pivots or a power builder")

        monkeypatch.setattr(kemod.gfalg, "stacked_pivots", broken)
        monkeypatch.setattr(kemod, "_power_terms", broken)
        monkeypatch.setattr(kemod, "_power_stack", broken)
        for name, M in battery():
            t = JordanType(M.p, want[name])
            ctx = build_field(M.p, 2)
            pt = Point(ctx, tuple(range(ctx.q - M.r, ctx.q)))
            assert reference_jordan_type(M) == t, name
            assert jordan_type_at(M, pt) == t, name
        with pytest.raises(AssertionError, match="stacked_pivots"):
            check_constant(builtin("zigzag", 3, 2, n=4))

    def test_sampler_shares_no_kernel_with_the_oracle(self, monkeypatch):
        # _rank_mismatches ranks with stacked_pivots and forms the powers
        # from the products X^m: with echelon_p and matmul_p, jordan_type_at's
        # two steps, broken it still finds the points off the reference type.
        # Its change of basis uses both, once per module: it is built first
        cases = []
        rng = random.Random(5)
        for name, M in sampler_modules():
            kemod.layered_actions(M)
            for e in (1, 2):
                ctx = build_field(M.p, e)
                points = [axis_point(M.p, M.r, i, e) for i in range(M.r)]
                points += [
                    Point(ctx, tuple(rng.randrange(1, ctx.q) for _ in range(M.r)))
                    for _ in range(3)
                ]
                reference = reference_jordan_type(M)
                want = [i for i, pt in enumerate(points) if jordan_type_at(M, pt) != reference]
                cases.append((name, M, points, ranks_of(reference), want))
        assert any(want for *_, want in cases)

        def broken(*args, **kwargs):
            raise AssertionError("the sampler called echelon_p or matmul_p")

        monkeypatch.setattr(kemod.gfalg, "echelon_p", broken)
        monkeypatch.setattr(kemod, "matmul_p", broken)
        for name, M, points, ranks, want in cases:
            assert sorted(mismatches(M, points, ranks)) == want, name
        with pytest.raises(AssertionError, match="echelon_p"):
            jordan_type_at(M, points[0])

    def test_second_power_behind_a_drop_out(self, monkeypatch):
        # perm1 drops out at (0, 1) at the first power; the points after it
        # must still be ranked with their own coordinates at the second
        M = direct_sum(squares_module(), builtin("perm", 3, 2, i=1))
        ctx = build_field(3, 2)
        points = [Point(ctx, (0, 1))] + [Point(ctx, (1, c)) for c in range(ctx.q)]
        reference = reference_jordan_type(M)
        types = [jordan_type_at(M, pt) for pt in points]
        want = [i for i, t in enumerate(types) if t != reference]
        assert len(want) == 3 and {ranks_of(types[i])[1] for i in want[1:]} == {4}
        for cells in (kemod.STACK_CELLS, 1):
            monkeypatch.setattr(kemod, "STACK_CELLS", cells)
            assert sorted(mismatches(M, points, ranks_of(reference))) == want

    @pytest.mark.parametrize("k", range(len(DIFFERENTIAL_PLANS)))
    def test_one_point_per_stack_keeps_every_verdict(self, k, monkeypatch):
        plan = DIFFERENTIAL_PLANS[k]
        modules = sampler_modules()
        for _, M in modules:
            M._cache.pop(("constancy", plan), None)
        want = [check_constant(M, plan) for _, M in modules]
        assert any(isinstance(v, Falsified) for v in want)
        monkeypatch.setattr(kemod, "STACK_CELLS", 1)
        for (name, M), verdict in zip(modules, want):
            M._cache.pop(("constancy", plan), None)
            assert check_constant(M, plan) == verdict, name

    @pytest.mark.parametrize(
        "p,e",
        [(p, e) for p in SUPPORTED_PRIMES for e in range(1, 15) if p**e <= MAX_FIELD_ORDER],
    )
    def test_power_stacks_against_the_blocked_oracle(self, p, e):
        # _power_stack, in float32 and in float64, holds the digits of the
        # j-th powers of the companion-blocked X_alpha, j = 1 .. p - 1, power
        # by power: on verify's battery at (p, 2) (n <= 24), a conjugated copy
        # of it and a stripped tensor, at an axis point and random ones
        ctx = build_field(p, e)
        rng = random.Random(p * 100 + e)
        nprng = np.random.default_rng(p * 100 + e)
        mods = [M for _, M in _battery(p, 2) if M.n <= 24]
        mods += [conjugate(M, nprng) for M in mods if M.n > 1]
        T, _ = strip_free(tensor(builtin("rad_quotient", p, 2, m=2), builtin("perm", p, 2, i=1)))
        mods.append(T)
        points = [axis_point(p, 2, 1, e)]
        points += [Point(ctx, (rng.randrange(1, ctx.q), rng.randrange(ctx.q))) for _ in range(2)]
        for M in mods:
            blocked = [blocked_over_prime(ctx, x_alpha(M, pt).array) for pt in points]
            want = [_unblock(ctx, matpow_p(B, j, p)) for j in range(1, p) for B in blocked]
            want = ctx.digit_array(np.array(want))
            for dtype in (np.float32, np.float64):
                terms = _power_terms(np.array(M.X, dtype=dtype), p - 1, p)
                assert [P.dtype for P, *_ in terms] == [dtype] * (p - 1)
                got = _power_stack(terms, points)
                assert got.dtype == np.uint8 and got.shape == want.shape
                assert np.array_equal(got, want)


def lopsided_module(p):
    """k[x, y]/(x^2, y^2 - xy) on a, b = xa, d = ya, c = xya: rank X_alpha
    is 2 everywhere, and X_alpha^2 = l_2 (2 l_1 + l_2) (a -> c), so the
    reference point (1, 0) has rank 0 at the second power and every point
    with l_2 (2 l_1 + l_2) != 0 has rank 1 there."""
    X1 = np.zeros((4, 4), dtype=np.uint8)
    X2 = np.zeros((4, 4), dtype=np.uint8)
    X1[1, 0] = X1[3, 2] = 1
    X2[2, 0] = X2[3, 1] = X2[3, 2] = 1
    return new_module(p, 2, [X1, X2])


class TestPowerDepth:
    """check_constant ranks X_alpha^1 .. X_alpha^J, J the first power of
    reference rank 0, or p - 1; at the edges of J it must match the brute
    force, which ranks all p powers at every point."""

    # name: (module, the powers j whose ranks differ between the reference
    # and the witness, or None where the module is constant)
    EDGES = {
        # J = p - 1 = 2, and the types differ at j = 2 only
        "squares p=3": (squares_module, [2]),
        # J = 3 < p - 1, the types differ at j = 2 only, at GF(5)-points
        "squares p=5": (lambda: squares_module(5), [2]),
        # reference rank 0 at j = J = 2: J = p - 1 at p = 3, J < p - 1 at p = 5
        "lopsided p=3": (lambda: lopsided_module(3), [2]),
        "lopsided p=5": (lambda: lopsided_module(5), [2]),
        # every rank is 0, so J = 1
        "zero p=3": (lambda: new_module(3, 2, [np.zeros((0, 0))] * 2), None),
        "zero p=5 r=3": (lambda: new_module(5, 3, [np.zeros((0, 0))] * 3), None),
    }

    @pytest.mark.parametrize("name", EDGES)
    @pytest.mark.parametrize("k", range(len(DIFFERENTIAL_PLANS)))
    def test_matches_brute_force(self, name, k):
        make, differ = self.EDGES[name]
        M, plan = make(), DIFFERENTIAL_PLANS[k]
        got, want = check_constant(M, plan), brute_force_check_constant(M, plan)
        assert got == want
        if differ is None:
            assert isinstance(want, ConstantSoFar)
            return
        reference, other = ranks_of(want.reference_type), ranks_of(want.type_at_witness)
        assert [j for j in range(M.p) if reference[j] != other[j]] == differ
        if name.startswith("lopsided"):
            assert reference[2] == 0 and other[2] == 1

    def test_power_terms_refused_before_they_are_allocated(self, monkeypatch):
        # the products X^m of degrees 2..4 of r = 2 actions, n = 300, are
        # 12 n^2 float32 cells; one byte above the budget they are refused
        # with next to nothing allocated, and at the budget the traced peak
        # is the terms and one degree's transient
        X = np.zeros((2, 300, 300), dtype=np.float32)
        nbytes = (3 + 4 + 5) * 300 * 300 * 4
        monkeypatch.setattr(kemod, "DEFAULT_MEMORY_BUDGET", nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="memory budget"):
                _power_terms(X, 4, 5)
            refused_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            monkeypatch.setattr(kemod, "DEFAULT_MEMORY_BUDGET", nbytes)
            terms = _power_terms(X, 4, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused_peak < 2**16
        assert [P.shape[0] for P, *_ in terms] == [2, 3, 4, 5]
        assert nbytes <= peak < nbytes + 5 * 300 * 300 * 4 + 2**16
        monkeypatch.setattr(kemod, "DEFAULT_MEMORY_BUDGET", 16)
        with pytest.raises(ResourceCapError, match="memory budget"):
            check_constant(builtin("rad_quotient", 3, 2, m=3))


def radical_dims(M):
    """dim J^k M for k = 0, 1, ... while nonzero, each the rank of all
    products of k actions."""
    span, dims = np.eye(M.n, dtype=np.uint8), []
    while (d := rank_p(span, M.p)) > 0:
        dims.append(d)
        span = np.hstack([matmul_p(A, span, M.p) for A in M.X])
    return dims


def layered_modules():
    """Modules whose support is no DAG, from the test battery, zoo(5), the
    falsified DIFFERENTIAL_MODULES and Omega^4 k at (2,2) in a random basis."""
    rng = np.random.default_rng(41)
    mods = [(f"dense {name}", conjugate(M, rng)) for name, M in battery() if M.n > 1]
    mods += [(f"zoo(5) {i}", M) for i, M in enumerate(zoo(5))]
    mods += [
        (f"dense {name}", conjugate(DIFFERENTIAL_MODULES[name][0](), rng))
        for name in dict(FALSIFIED)
    ]
    mods.append(("dense Omega^4 k(2,2)", conjugate(omega(builtin("trivial", 2, 2), 4), rng)))
    cyclic = [(name, M) for name, M in mods if not _support_is_acyclic(M.X, M.n)]
    assert len(cyclic) > 20
    return cyclic


class TestLayeredActions:
    """The sampler ranks X_alpha in a basis adapted to the radical series;
    no verdict may depend on the basis a module comes in."""

    @pytest.mark.parametrize("k", range(len(DIFFERENTIAL_PLANS)))
    def test_conjugate_keeps_every_verdict(self, k):
        # the battery, zoo modules, the perm modules and the falsified
        # modules, each against two seeded changes of basis
        plan = DIFFERENTIAL_PLANS[k]
        mods = [M for _, M in battery()] + zoo(13)
        mods += [builtin("perm", p, r, i=r) for p, r in ((2, 3), (3, 2), (5, 2))]
        names = [name for name, j in FALSIFIED if j == k]
        mods += [DIFFERENTIAL_MODULES[name][0]() for name in names]
        falsified = 0
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            for M in mods:
                want = check_constant(M, plan)
                got = check_constant(conjugate(M, rng), plan)
                assert got == want
                falsified += isinstance(want, Falsified)
        assert falsified >= 2 * (len(names) + 3)

    def test_is_a_conjugation(self):
        # P, the layers' vectors deepest first, is invertible and P Y_i = X_i P
        for name, M in layered_modules():
            Y = layered_actions(M)
            assert Y is not M.X, name
            P = np.vstack(_radical_layers(M)[::-1]).T
            assert rank_p(P, M.p) == M.n, name
            for A, B in zip(M.X, Y):
                assert np.array_equal(matmul_p(P, B, M.p), matmul_p(A, P, M.p)), name

    def test_each_layer_maps_deeper(self):
        # with dims d_k = dim J^k M, layer k has d_k - d_(k+1) vectors and
        # comes before every layer above it, so each Y_i is zero on and
        # below the diagonal of layer blocks
        for name, M in layered_modules():
            dims = radical_dims(M) + [0]
            sizes = [dims[k] - dims[k + 1] for k in range(len(dims) - 1)]
            assert [len(layer) for layer in _radical_layers(M)] == sizes, name
            block = np.repeat(np.arange(len(sizes)), sizes[::-1])
            low = block[:, None] >= block[None, :]
            for B in layered_actions(M):
                assert not B[low].any(), name

    def test_dag_support_keeps_the_actions(self):
        # the sparse builtins, realized modules and the zero module take the
        # shortcut; the result is cached
        Z = omega(builtin("regular", 2, 2), 1)
        assert Z.n == 0
        mods = [M for _, M in battery()] + [Z, realized(realize.euler_spec(2, 3))]
        mods += [omega(builtin("trivial", 3, 2), n) for n in (-2, 2)]
        for M in mods:
            assert layered_actions(M) is M.X
            assert layered_actions(M) is M._cache["layered"]
        verdict = check_constant(Z)
        assert isinstance(verdict, ConstantSoFar) and verdict.type == JordanType(2, (0, 0))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_acyclic_is_a_nilpotent_support(self, n):
        # a support is a DAG exactly when its boolean adjacency matrix is
        # nilpotent: A^n = 0
        rng = np.random.default_rng(n)
        for density in (0.05, 0.2, 0.5):
            for _ in range(20):
                X = [(rng.random((n, n)) < density).astype(np.uint8) for _ in range(2)]
                A = np.any(np.array(X, dtype=bool), axis=0).astype(np.int64)
                power = np.linalg.matrix_power(A, n) if n else A
                assert _support_is_acyclic(X, n) == (not power.any())


class TestSumTensorDual:
    def test_sum_types_add(self):
        A = builtin("rad_quotient", 3, 2, m=2)
        B = builtin("zigzag", 3, 2, n=2)
        S = direct_sum(A, B)
        for pt in projective_points(3, 2) + projective_points(3, 2, 2):
            assert (
                jordan_type_at(S, pt)
                == jordan_type_at(A, pt) + jordan_type_at(B, pt)
            )

    def test_tensor_with_trivial_is_identity_on_jordan_data(self):
        M = builtin("perm", 3, 2, i=1)
        T = tensor(M, builtin("trivial", 3, 2))
        assert T.n == M.n
        for pt in projective_points(3, 2):
            assert jordan_type_at(T, pt) == jordan_type_at(M, pt)

    def test_tensor_refuses_above_max_dim(self):
        # radq2 (x) radq2 has dimension 9 at p = r = 2
        M = builtin("rad_quotient", 2, 2, m=2)
        with pytest.raises(ResourceCapError, match="tensor product of dimension 9"):
            tensor(M, M, max_dim=8)
        assert tensor(M, M, max_dim=9).n == 9
        # the default cap refuses before the kron products are built
        big = builtin("regular", 2, 7)  # 128 * 128 > DEFAULT_MAX_DIM
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                tensor(big, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tensor_dim_bookkeeping_at_axis(self):
        M = tensor(builtin("trivial", 3, 2), builtin("perm", 3, 2, i=1))
        t = jordan_type_at(M, axis_point(3, 2, 0))
        assert t == JordanType(3, (0, 0, 1))

    def test_dual_of_trivial(self):
        D = dual(builtin("trivial", 2, 2))
        assert D.n == 1 and not any(np.any(A) for A in D.X)

    def test_double_dual_jordan_data(self):
        for M in (
            builtin("zigzag", 3, 2, n=2),
            builtin("rad_quotient", 2, 3, m=2),
            builtin("regular", 2, 2),
        ):
            DD = dual(dual(M))
            assert DD.n == M.n
            for pt in projective_points(M.p, M.r):
                assert jordan_type_at(DD, pt) == jordan_type_at(M, pt)

    def test_dual_is_module(self):
        M = builtin("rad_quotient", 5, 2, m=3)
        D = dual(M)
        new_module(5, 2, D.X)  # revalidates commuting + nilpotency

    def test_mismatched_rejected(self):
        with pytest.raises(Exception):
            direct_sum(builtin("trivial", 2, 2), builtin("trivial", 3, 2))


class TestOmega:
    def test_omega_k_p2r2_dim3(self):
        Om = omega(builtin("trivial", 2, 2), 1)
        assert Om.n == 3  # dim kE - dim k

    def test_omega_inverse_roundtrip(self):
        k = builtin("trivial", 2, 2)
        M = omega(omega(k, 1), -1)
        assert M.n == 1
        assert reference_jordan_type(M) == JordanType(2, (1, 0))

    def test_omega_of_free_is_zero(self):
        M = omega(builtin("regular", 2, 2), 1)
        assert M.n == 0

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 3)])
    def test_ends_of_the_zero_module_are_zero(self, p, r):
        Z = new_module(p, r, [np.zeros((0, 0))] * r)
        Z.constant_by_construction = True
        cover, hull = projective_cover(Z), injective_hull(Z)
        assert cover.free.n == hull.free.n == 0
        for end in (cover.sub, hull.quotient):
            assert end.n == 0 and end.constant_by_construction
        for mat in (cover.incl, cover.proj, hull.incl, hull.proj):
            assert mat.shape == (0, 0)

    def test_no_step_of_the_chain_keeps_a_free_module(self):
        k = builtin("trivial", 2, 2)
        chain = [omega(k, j) for j in range(-4, 5)]
        for M in chain:
            for step in M._cache.values():
                if isinstance(step, HellerStep):
                    kept = [v for v in vars(step).values() if isinstance(v, KEModule)]
                    assert all(any(v is N for N in chain) for v in kept)
                    assert step.free is not step.free  # rebuilt on each request

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3)])
    def test_omega_negative_then_positive(self, p, r):
        k = builtin("trivial", p, r)
        M = omega(omega(k, -1), 1)
        assert M.n == 1

    def test_omega_dims_p3r2(self):
        k = builtin("trivial", 3, 2)
        assert omega(k, 1).n == 8
        assert omega(k, 2).n == 10

    @pytest.mark.parametrize(
        "p,r,n,max_dim",
        [
            (2, 3, 1, 7),  # kE has dimension 2^3 = 8
            (2, 3, 0, 7),
            (2, 2, 2, 4),  # Omega^2 k has dimension 5 at p = r = 2
            (2, 2, -2, 4),
        ],
    )
    def test_max_dim_refused(self, p, r, n, max_dim):
        k = builtin("trivial", p, r)
        with pytest.raises(ResourceCapError):
            omega(k, n, max_dim)
        # a chain cached under a larger cap is refused all the same
        omega(k, n, max_dim=100)
        with pytest.raises(ResourceCapError):
            omega(k, n, max_dim)

    def test_steps_within_max_dim_pass(self):
        assert omega(builtin("trivial", 2, 2), 1, max_dim=4).n == 3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_chain_longer_than_max_dim_refused(self, sign):
        # perm1's shifts keep their dimension, so only the step count is capped
        M = builtin("perm", 2, 2, i=1)
        assert {omega(M, sign * n, max_dim=8).n for n in range(9)} == {2}
        with pytest.raises(ResourceCapError, match="Heller shift of 9 steps"):
            omega(M, sign * 9, max_dim=8)
        with pytest.raises(ResourceCapError, match="100000000 steps"):
            omega(M, sign * 10**8)

    def test_default_cap_refuses_before_any_cover(self):
        k = builtin("trivial", 2, 13)  # kE has dimension 8192 > DEFAULT_MAX_DIM
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                omega(k, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_roundtrip_equals_strip(self):
        # omega then omega^{-1} agrees with strip_free in dimension and type
        M = direct_sum(builtin("regular", 2, 2), builtin("rad_quotient", 2, 2, m=2))
        R = omega(omega(M, 1), -1)
        S, a = strip_free(M)
        assert a == 1
        assert R.n == S.n
        for pt in projective_points(2, 2):
            assert jordan_type_at(R, pt) == jordan_type_at(S, pt)


class TestStripFree:
    def test_regular_strips_to_zero(self):
        Z, a = strip_free(builtin("regular", 2, 2))
        assert (Z.n, a) == (0, 1)

    def test_trivial_untouched(self):
        M, a = strip_free(builtin("trivial", 3, 2))
        assert (M.n, a) == (1, 0)

    def test_mixed_sum(self):
        M = direct_sum(builtin("regular", 2, 2), builtin("rad_quotient", 2, 2, m=2))
        S, a = strip_free(M)
        assert a == 1
        assert S.n == 3
        assert reference_jordan_type(S) == JordanType(2, (1, 1))
        # z = X_1 X_2 kills the stripped module
        assert not np.any(matmul_p(S.X[0], S.X[1], 2))

    def test_dim_bookkeeping(self):
        M = direct_sum(builtin("regular", 3, 2), builtin("zigzag", 3, 2, n=1))
        S, a = strip_free(M)
        assert a * 9 + S.n == M.n


class TestCoverHull:
    def test_cover_is_surjective_hom(self):
        M = builtin("rad_quotient", 3, 2, m=2)
        data = projective_cover(M)
        from cjt.gfalg import rank_p

        assert rank_p(data.proj, 3) == M.n
        assert minimal_generators(M) == [0]  # the class of 1
        assert data.free.n == 9

    def test_hull_is_injective_hom(self):
        M = builtin("zigzag", 2, 2, n=2)
        data = injective_hull(M)
        from cjt.gfalg import rank_p

        assert rank_p(data.incl, 2) == M.n
        # socle of zigzag(2) is spanned by w_1, w_2
        assert data.free.n == 2 * 4

    def test_hull_commutes(self):
        M = builtin("rad_quotient", 3, 2, m=3)
        data = injective_hull(M)
        ModuleHom(M, data.free, data.incl)  # validates


def per_action_coefficients(M, K):
    """The submodule's actions from one solve per action, K X_i' = X_i K."""
    out = []
    for A in M.X:
        coeff = solve_p(K, matmul_p(A, K, M.p), M.p)
        assert coeff is not None, "columns do not span a submodule"
        out.append(coeff)
    return out


def radical_complement(M):
    """Minimal generators as the coordinate complement of an explicit basis
    of JM, the transposed RREF rows of [X_1 | ... | X_r]^T."""
    R, pivots = rref_p(np.hstack(M.X).T, M.p)
    _, gens, _ = _column_complement(R[: len(pivots)].T.copy(), M.n, M.p)
    return gens


def subspace_modules():
    """The test battery, zoo(7) and zoo(2024), and Omega^{+-2} k at (2,2), (3,2)."""
    mods = [M for _, M in battery()] + zoo(7) + zoo(2024)
    for p in (2, 3):
        mods += [omega(builtin("trivial", p, 2), n) for n in (-2, 2)]
    return mods


class TestSubmodule:
    """submodule solves for every action at once; one solve per action is
    the oracle, bit for bit, on every kind of basis its callers pass."""

    def assert_matches(self, M, K):
        S, incl = submodule(M, K)
        want = per_action_coefficients(M, K)
        assert all(np.array_equal(A, B) for A, B in zip(S.X, want))
        assert np.array_equal(incl.matrix, K)

    def test_kernel_bases(self):
        # Omega M = Ker(kE^b -> M), as projective_cover builds it
        for M in subspace_modules():
            step = projective_cover(M)
            self.assert_matches(step.free, kernel_p(step.proj, M.p))

    def test_closed_spans(self):
        rng = np.random.default_rng(31)
        for M in subspace_modules():
            for count in (1, 2, 3):
                self.assert_matches(M, random_closed_span(M, rng, count))

    def test_non_echelon_bases(self):
        # K G with G invertible spans the same submodule, with no identity rows
        rng = np.random.default_rng(32)
        for M in subspace_modules():
            step = projective_cover(M)
            K = kernel_p(step.proj, M.p)
            if K.shape[1] == 0:
                continue
            G = random_invertible(rng, K.shape[1], M.p)
            self.assert_matches(step.free, matmul_p(K, G, M.p))

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3)])
    def test_span_not_closed_refused(self, p, r):
        # the span of 1 in kE, and of 1 plus a random column, are not submodules
        M = builtin("regular", p, r)
        rng = np.random.default_rng(p * 10 + r)
        for K in (np.eye(M.n, dtype=np.uint8)[:, :1],
                  np.hstack([np.eye(M.n, dtype=np.uint8)[:, :1],
                             rng.integers(0, p, size=(M.n, 1)).astype(np.uint8)])):
            with pytest.raises(AssertionError, match="do not span a submodule"):
                submodule(M, K)
            with pytest.raises(AssertionError, match="do not span a submodule"):
                per_action_coefficients(M, K)


class TestMinimalGenerators:
    def test_matches_radical_complement(self):
        mods = subspace_modules()
        rng = np.random.default_rng(33)
        mods += [conjugate(M, rng) for M in mods if M.n]
        for M in mods:
            assert minimal_generators(M) == radical_complement(M)

    def test_zero_module(self):
        Z = new_module(2, 2, [np.zeros((0, 0))] * 2)
        assert minimal_generators(Z) == radical_complement(Z) == []


class TestModuleHom:
    def test_rejects_non_equivariant(self):
        M = builtin("perm", 2, 2, i=1)
        N = builtin("trivial", 2, 2)
        bad = np.ones((1, 2))
        with pytest.raises(Exception):
            ModuleHom(M, N, bad)

    def test_composition(self):
        M = builtin("rad_quotient", 2, 2, m=2)
        data = projective_cover(M)
        P = data.free
        cover = ModuleHom(P, M, data.proj, validate=False)
        comp = cover @ ModuleHom(data.sub, P, data.incl, validate=False)
        assert comp.is_zero()
