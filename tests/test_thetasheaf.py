import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from math import comb
from operator import le

from cjt.gfalg import (
    SUPPORTED_PRIMES,
    build_field,
    echelon_p,
    kernel_p,
    matmul_p,
    rank_p,
)
from cjt.kemod import (
    DEFAULT_MAX_DIM,
    Point,
    builtin,
    direct_sum,
    dual,
    jordan_type_at,
    new_module,
    omega,
    projective_points,
    x_alpha,
)
from cjt.polyd import binomial_poly, evaluate, fit_integer_samples
from cjt import kemod, thetasheaf
from cjt.thetasheaf import (
    MAX_DEGREE,
    NotConstantError,
    StabilizationFailedError,
    ThetaOp,
    _certified_image,
    _hilbert_numerator,
    _ImageTracker,
    _rank_theta,
    fiber,
    filtration_check,
    graded_dim,
    graded_dim_subspace,
    hilbert,
    monomials,
    mult_map,
    prefetch_image_dims,
    s_dim,
    twist_shift_check,
)
from cjt.suites import _battery
from blocked import blocked_over_prime
from test_random_modules import conjugate, zoo


def battery():
    return [
        ("k(2,2)", builtin("trivial", 2, 2)),
        ("radq2(2,2)", builtin("rad_quotient", 2, 2, m=2)),
        ("regular(2,2)", builtin("regular", 2, 2)),
        ("zigzag2(3,2)", builtin("zigzag", 3, 2, n=2)),
        ("radq2(3,2)", builtin("rad_quotient", 3, 2, m=2)),
        ("radq2(2,3)", builtin("rad_quotient", 2, 3, m=2)),
        ("perm1(3,2)", builtin("perm", 3, 2, i=1)),
        ("Omega k(2,2)", omega(builtin("trivial", 2, 2), 1)),
    ]


def past_certificate_battery():
    """verify's battery at (2, 2), (3, 2) and (2, 3), and Omega^2 k at (3, 2)
    in a random basis."""
    mods = [
        (f"{name}({p},{r})", M)
        for p, r in ((2, 2), (3, 2), (2, 3))
        for name, M in _battery(p, r)
    ]
    omega2 = omega(builtin("trivial", 3, 2), 2)
    mods.append(("conjugated omega2(3,2)", conjugate(omega2, np.random.default_rng(2))))
    return mods


def counted(leading, r, d):
    """Brute-force oracle: degree-d monomials, per component, divisible
    by one of that component's leading terms."""
    return sum(
        sum(any(all(map(le, g, m)) for g in terms) for m in monomials(r, d))
        for terms in leading.values()
    )


def certified_leading(M, a):
    """Leading terms of Im theta^a, from a tracker stepped to its certificate."""
    tracker = _ImageTracker(M, a)
    tracker.certify()
    return tracker.leading


class TestMonomialMachinery:
    def test_counts(self):
        for r in (1, 2, 3, 4):
            for d in (0, 1, 2, 5):
                assert len(monomials(r, d)) == comb(d + r - 1, r - 1)
                assert s_dim(r, d) == comb(d + r - 1, r - 1)

    def test_mult_map_monotone(self):
        for r in (2, 3):
            for d in (0, 1, 3):
                for j in range(r):
                    mm = mult_map(r, d, j)
                    assert np.all(np.diff(mm) > 0)


class TestThetaOp:
    @pytest.mark.parametrize("name,M", battery())
    def test_theta_p_is_zero(self, name, M):
        th = ThetaOp(M)
        for d in (0, 1, 2):
            assert not np.any(th.power_matrix(M.p, d)), name

    def test_degree_matrix_shape(self):
        M = builtin("rad_quotient", 3, 2, m=2)
        A = ThetaOp(M).degree_matrix(2)
        assert A.shape == (M.n * s_dim(2, 3), M.n * s_dim(2, 2))
        assert A.dtype == np.uint8


class TestGradedDimAgainstSubspaceOracle:
    @pytest.mark.parametrize("name,M", battery())
    def test_engine_matches_subspace_route(self, name, M):
        for i in range(1, M.p + 1):
            for j in range(i):
                for d in range(0, 5):
                    assert graded_dim(M, i, j, d) == graded_dim_subspace(
                        M, i, j, d
                    ), (name, i, j, d)

    def test_index_validation(self):
        M = builtin("trivial", 2, 2)
        with pytest.raises(ValueError):
            graded_dim(M, 1, 1, 0)
        with pytest.raises(ValueError):
            graded_dim(M, 3, 0, 0)


class TestGradedDimValues:
    def test_trivial_module_is_polynomial_ring(self):
        for r in (2, 3):
            M = builtin("trivial", 2, r)
            for d in range(6):
                assert graded_dim(M, 1, 0, d) == comb(d + r - 1, r - 1)

    def test_radq2_r3_f21_is_structure_sheaf(self):
        for p in (2, 3):
            M = builtin("rad_quotient", p, 3, m=2)
            for d in range(5):
                assert graded_dim(M, 2, 1, d) == comb(d + 2, 2)

    def test_free_module_has_no_f1_in_positive_degrees(self):
        # degree 0 carries the socle (module-vs-sheaf discrepancy); the
        # sheaf statement a_1 = 0 shows up from degree 1 on
        M = builtin("regular", 2, 2)
        assert graded_dim(M, 1, 0, 0) == 1
        for d in range(1, 8):
            assert graded_dim(M, 1, 0, d) == 0


class TestFiber:
    def test_radq2_fibers(self):
        for r in (2, 3):
            M = builtin("rad_quotient", 2, r, m=2)
            for pt in projective_points(2, r):
                rep = fiber(M, pt)
                assert rep.dim(1) == r - 1
                assert rep.dim(2) == 1

    def test_trivial_fiber(self):
        M = builtin("trivial", 3, 2)
        rep = fiber(M, projective_points(3, 2)[0])
        assert rep.dims == (1, 0, 0)

    def test_regular_p2r2_fiber(self):
        M = builtin("regular", 2, 2)
        rep = fiber(M, projective_points(2, 2)[1])
        assert rep.dims == (0, 2)

    @pytest.mark.parametrize("name,M", battery())
    def test_fiber_matches_jordan_type(self, name, M):
        pts = projective_points(M.p, M.r) + projective_points(M.p, M.r, 2)[:3]
        # generic points: every coordinate nonzero, over GF(p^3) and GF(p^4)
        rng = random.Random(20240)
        for e in (3, 4):
            ctx = build_field(M.p, e)
            for _ in range(3):
                coords = tuple(rng.randrange(1, ctx.q) for _ in range(M.r))
                pts.append(Point(ctx, coords))
        for pt in pts:
            assert fiber(M, pt).dims == jordan_type_at(M, pt).a, name

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_fiber_matches_full_powers(self, p, r):
        # the meets from every power B^i formed in full, 0 <= i <= p, with
        # fiber's intersection formula
        def full_power_dims(M, alpha):
            B = blocked_over_prime(alpha.ctx, x_alpha(M, alpha))
            K = kernel_p(B, p)
            Bi = np.eye(B.shape[0], dtype=np.uint8)
            meets = []
            for i in range(p + 1):
                if i:
                    Bi = matmul_p(B, Bi, p)
                meet = K.shape[1] + rank_p(Bi, p) - rank_p(np.hstack([K, Bi]), p)
                assert meet % alpha.ctx.e == 0
                meets.append(meet // alpha.ctx.e)
            return tuple(meets[i - 1] - meets[i] for i in range(1, p + 1))

        rng = random.Random(p * 10 + r)
        nprng = np.random.default_rng(p * 10 + r)
        points = projective_points(p, r)
        for e in (2, 3, 4):
            ctx = build_field(p, e)
            points += [
                Point(ctx, tuple(rng.randrange(1, ctx.q) for _ in range(r)))
                for _ in range(2)
            ]
        battery = dict(_battery(p, r))
        for name in ("radq2", "omega-2"):
            battery[f"conjugated {name}"] = conjugate(battery[name], nprng)
        for name, M in battery.items():
            for pt in points:
                assert fiber(M, pt).dims == full_power_dims(M, pt), (name, str(pt))

    def test_fiber_matches_two_eliminations(self):
        # fiber reads K and W_1 off one RREF of B; the oracle takes K from
        # kernel_p and W_1 from a separate echelon_p, as fiber once did
        def two_elimination_dims(M, alpha):
            p, e = M.p, alpha.ctx.e
            B = blocked_over_prime(alpha.ctx, x_alpha(M, alpha))
            K = kernel_p(B, p)
            meets = [K.shape[1] // e] + [0] * p
            W = B
            for i in range(1, p):
                if i > 1:
                    W = matmul_p(B, W, p)
                _, pivots = echelon_p(W, p)
                if not pivots:
                    break
                W = W[:, pivots]
                meet = K.shape[1] + len(pivots) - rank_p(np.hstack([K, W]), p)
                assert meet % e == 0
                meets[i] = meet // e
            return tuple(meets[i - 1] - meets[i] for i in range(1, p + 1))

        rng = random.Random(26)
        mods = battery() + [(f"zoo(7)[{k}]", M) for k, M in enumerate(zoo(7))]
        for name, M in mods:
            for e in range(1, 5):
                ctx = build_field(M.p, e)
                coords = [tuple(rng.randrange(ctx.q) for _ in range(M.r)) for _ in range(2)]
                coords.append((1,) + (0,) * (M.r - 1))
                for pt in (Point(ctx, c) for c in coords if any(c)):
                    assert fiber(M, pt).dims == two_elimination_dims(M, pt), name

    def test_fiber_never_builds_the_digit_stack(self, monkeypatch):
        # fiber builds X_alpha through x_alpha, jordan_type_at through
        # kemod._digit_stack: with the digit stack broken, fiber still gives
        # the Jordan types, over every field of the battery, e = 1..4
        rng = random.Random(4)
        cases = []
        for name, M in battery():
            for e in range(1, 5):
                ctx = build_field(M.p, e)
                pt = Point(ctx, tuple(rng.randrange(1, ctx.q) for _ in range(M.r)))
                cases.append((name, M, pt, jordan_type_at(M, pt).a))

        def broken(X, points):
            raise AssertionError("fiber called _digit_stack")

        monkeypatch.setattr(kemod, "_digit_stack", broken)
        for name, M, pt, want in cases:
            assert fiber(M, pt).dims == want, name
        with pytest.raises(AssertionError, match="_digit_stack"):
            jordan_type_at(M, pt)

    def test_fiber_dims_bounded_by_dim(self):
        M = builtin("zigzag", 3, 2, n=3)
        for pt in projective_points(3, 2):
            assert sum(fiber(M, pt).dims) <= M.n


class TestHilbert:
    def test_trivial(self):
        for r in (2, 3):
            hd = hilbert(builtin("trivial", 3, r), 1)
            assert hd.fitted == binomial_poly(0, r)
            assert hd.stable_from == 0
            assert hd.rank() == 1

    def test_omega2_k_p3r2_is_twist_minus_three(self):
        M = omega(builtin("trivial", 3, 2), 2)
        hd = hilbert(M, 1)
        # Hilbert polynomial of O(-3) on P^1: d - 2
        assert hd.fitted == binomial_poly(-3, 2)
        assert hd.rank() == 1

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_zigzag_gives_o_minus_n(self, n):
        M = builtin("zigzag", 3, 2, n=n)
        hd = hilbert(M, 1)
        assert hd.fitted == binomial_poly(-n, 2)

    def test_dual_zigzag_gives_o_plus_n(self):
        M = dual(builtin("zigzag", 3, 2, n=2))
        hd = hilbert(M, 1)
        assert hd.fitted == binomial_poly(2, 2)

    def test_rank_law_on_battery(self):
        for name, M in battery():
            if name.startswith("perm"):
                continue
            t = jordan_type_at(M, projective_points(M.p, M.r)[0])
            for i in range(1, M.p + 1):
                hd = hilbert(M, i)
                assert hd.rank() == t.a[i - 1], (name, i)

    def test_free_module_f2(self):
        hd = hilbert(builtin("regular", 2, 2), 2)
        # rank p^{r-1} = 2 bundle
        assert hd.rank() == 2

    def test_non_constant_module_rejected(self):
        X1 = np.zeros((3, 3))
        X1[0, 1] = 1
        M = new_module(2, 2, [X1, np.zeros((3, 3))])
        with pytest.raises(NotConstantError):
            hilbert(M, 1)

    def test_samples_and_metadata(self):
        M = builtin("rad_quotient", 2, 2, m=2)
        hd = hilbert(M, 1)
        assert hd.d_max == M.n + M.p + 5
        # Im theta has one generator, so its single leading term is a
        # Groebner basis at once; theta^2 = 0
        assert hd.certified_degree == 1
        assert set(hd.samples) == set(range(hd.d_max + 1))
        for d in range(hd.stable_from, hd.d_max + 1):
            assert evaluate(hd.fitted, d) == hd.samples[d]

    def test_hilbert_imports_no_numpy_module(self):
        # a lazily imported numpy submodule (numpy.ma, say) is paid inside
        # the first call of every process
        code = textwrap.dedent(
            """\
            import sys
            from cjt.kemod import builtin, omega
            from cjt.thetasheaf import hilbert
            M = omega(builtin("trivial", 2, 2), 2)
            before = set(sys.modules)
            hilbert(M, 1)
            print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
            """
        )
        src = str(Path(thetasheaf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestHilbertNumerator:
    @pytest.mark.parametrize(
        "r,gens,expected",
        [
            (2, [], {}),
            (3, [(0, 0, 0)], {0: 1}),  # the unit ideal: all of S
            (2, [(3, 0)], {3: 1}),
            (3, [(4, 0, 0)], {4: 1}),
            (2, [(1, 0), (0, 1)], {1: 2, 2: -1}),
            # repeated and non-minimal generators change nothing
            (2, [(1, 0), (0, 1), (1, 0), (2, 3)], {1: 2, 2: -1}),
        ],
    )
    def test_hand_computed(self, r, gens, expected):
        assert _hilbert_numerator(gens) == expected

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_count_on_random_ideals(self, r):
        rng = random.Random(6100 + r)
        for _ in range(40):
            gens = [
                tuple(rng.randrange(4) for _ in range(r))
                for _ in range(rng.randrange(1, 7))
            ]
            gens += rng.sample(gens, rng.randrange(len(gens) + 1))  # repeats
            gens.append(tuple(x + rng.randrange(2) for x in gens[0]))  # a multiple
            num = _hilbert_numerator(gens)
            for d in range(12):
                closed = sum(c * s_dim(r, d - k) for k, c in num.items())
                assert closed == counted({0: gens}, r, d), (gens, d)


class TestCertificate:
    @pytest.mark.parametrize(
        "name,M",
        battery() + [(f"zoo(7)[{k}]", M) for k, M in enumerate(zoo(7))],
    )
    def test_counted_ranks_match_tracker_past_certificate(self, name, M):
        # the closed form against a monomial count of the certified leading
        # terms and against a raw tracker stepped five degrees past T, which
        # eliminates and records no further leading term
        for a in range(1, M.p):
            if M.n == 0:
                continue
            T = _certified_image(M, a)[0]
            tracker = _ImageTracker(M, a)
            dims = [0] * a + [tracker.rows]  # Im theta^a is zero below a
            while tracker.t < T + 5:
                if tracker.t == T:
                    at_T = {c: list(g) for c, g in tracker.leading.items()}
                tracker.step()
                dims.append(tracker.rows)
            assert tracker.leading == at_T, (name, a)
            for t in range(T + 6):
                closed = _rank_theta(M, a, t - a)
                assert closed == counted(at_T, M.r, t) == dims[t], (name, a, t)

    @pytest.mark.parametrize("name,M", battery())
    def test_fitted_matches_interpolated_count(self, name, M, monkeypatch):
        # the closed-form polynomial against one interpolated from counted
        # Hilbert values on r + 3 degrees from stable_from; the battery's perm
        # modules are not of constant Jordan type, so the check is switched off
        monkeypatch.setattr(thetasheaf, "_require_constant", lambda M: None)
        leading = {a: certified_leading(M, a) for a in range(1, M.p)}

        def rank(a, e):
            if e < 0 or a >= M.p:
                return 0
            return M.n * s_dim(M.r, e) if a == 0 else counted(leading[a], M.r, e + a)

        for i in range(1, M.p + 1):
            hd = hilbert(M, i)

            def dim(d):
                e = d - i
                return rank(i - 1, e + 1) + rank(i + 1, e) - rank(i, e + 1) - rank(i, e)

            assert hd.samples == {d: dim(d) for d in range(hd.d_max + 1)}, (name, i)
            window = range(hd.stable_from, hd.stable_from + M.r + 3)
            fit = fit_integer_samples([(d, dim(d)) for d in window], M.r - 1)
            assert hd.fitted == fit, (name, i)

    @pytest.mark.parametrize("name,M", battery())
    def test_tracker_pivots_match_explicit_power_matrix(self, name, M):
        # the tracker's pivots at degree t against an elimination of the
        # image of theta^a from degree t-a, built explicitly (no Y_j-shifts)
        theta = ThetaOp(M)
        for a in range(1, M.p):
            T = _certified_image(M, a)[0]
            tracker = _ImageTracker(M, a)
            while True:
                A = theta.power_matrix(a, tracker.t - a)
                _, pivots = echelon_p(A.T, M.p)
                assert tracker.pivots.tolist() == pivots, (name, a, tracker.t)
                if tracker.t >= T + 2:
                    break
                tracker.step()

    def test_memory_budget_refuses_certificate(self, monkeypatch):
        # Omega^1 k at p = r = 2 certifies Im theta at degree 2, one step
        # past its generators; a budget of a few bytes refuses that step
        monkeypatch.setattr(thetasheaf, "DEFAULT_MEMORY_BUDGET", 16)
        with pytest.raises(StabilizationFailedError):
            hilbert(omega(builtin("trivial", 2, 2), 1), 1)

    def test_memory_guard_covers_step_peak(self):
        # every array step() holds at its peak is in step_bytes(): the
        # traced peak of a step never exceeds the figure the guard checks
        M = omega(builtin("trivial", 3, 3), 2)
        large = 0
        for a in (1, 2):
            tracker = _ImageTracker(M, a)
            while tracker.t < tracker.certify_at:
                guard = tracker.step_bytes()
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracker.step()
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                if guard >= 4 << 20:
                    large += 1
                    assert peak <= guard, (a, tracker.t, peak, guard)
        assert large >= 1

    def test_negative_d_max_refused(self):
        with pytest.raises(ValueError):
            hilbert(builtin("trivial", 2, 2), 1, d_max=-3)

    def test_d_max_above_max_degree_refused(self):
        # the default d_max = dim M + p + 5, passed explicitly, is never
        # refused for a module inside the default cap
        assert DEFAULT_MAX_DIM + max(SUPPORTED_PRIMES) + 5 <= MAX_DEGREE
        M = builtin("trivial", 2, 2)
        assert max(hilbert(M, 1, d_max=MAX_DEGREE).samples) == MAX_DEGREE
        with pytest.raises(ValueError, match=f"0..{MAX_DEGREE}"):
            hilbert(M, 1, d_max=MAX_DEGREE + 1)

    def test_omega1_k_p2r4_reaches_requested_degree(self):
        # the 512 MB sampling window used to stop at degree 18 of 22 here
        M = omega(builtin("trivial", 2, 4), 1)
        hd = hilbert(M, 1)
        assert hd.d_max == M.n + M.p + 5 == 22
        assert set(hd.samples) == set(range(23))
        assert hd.fitted == binomial_poly(-1, 4)
        for d in range(hd.stable_from, 23):
            assert evaluate(hd.fitted, d) == hd.samples[d]


class TestChecks:
    @pytest.mark.parametrize("name,M", battery())
    def test_twist_shift(self, name, M):
        for i in range(1, M.p + 1):
            for j in range(i):
                assert twist_shift_check(M, i, j, range(0, 6)), (name, i, j)

    @pytest.mark.parametrize("name,M", battery())
    def test_filtration(self, name, M):
        assert filtration_check(M, range(0, 6)), name

    @pytest.mark.parametrize("name,M", past_certificate_battery())
    def test_twist_shift_past_the_certificate(self, name, M):
        # the closed form against the explicit kernels and images in the two
        # degrees from T on, T the largest degree any image of theta^a certifies
        T = max(T for T, _ in prefetch_image_dims(M, range(M.p + 1)))
        for i in range(1, M.p + 1):
            for j in range(i):
                assert twist_shift_check(M, i, j, range(T, T + 2)), (name, T, i, j)

    def test_twist_shift_catches_a_corrupted_rank(self, monkeypatch):
        # graded_dim(M, i, j, d) depends on j only through d - i + j, so a
        # wrong R(1, 0) shows only against the explicit kernels and images
        M = builtin("trivial", 2, 2)
        assert twist_shift_check(M, 2, 1)
        rank_theta = thetasheaf._rank_theta
        monkeypatch.setattr(
            thetasheaf,
            "_rank_theta",
            lambda M, a, e: rank_theta(M, a, e) + ((a, e) == (1, 0)),
        )
        assert not twist_shift_check(M, 2, 1)

    def test_filtration_sum_is_exact_identity(self):
        # the identity holds degreewise in every degree, including 0
        M = builtin("regular", 2, 2)
        for d in range(4):
            total = sum(
                graded_dim(M, i, 0, d + j)
                for i in range(1, 3)
                for j in range(i)
            )
            assert total == M.n * s_dim(M.r, d)


class TestSumAdditivity:
    def test_hilbert_additive_on_direct_sums(self):
        A = builtin("rad_quotient", 3, 2, m=2)
        B = builtin("zigzag", 3, 2, n=1)
        S = direct_sum(A, B)
        for i in (1, 2, 3):
            hs = hilbert(S, i, 12)
            ha = hilbert(A, i, 12)
            hb = hilbert(B, i, 12)
            for d in range(8, 13):
                assert hs.samples[d] == ha.samples[d] + hb.samples[d]
