import random

import numpy as np
import pytest
from math import comb

from cjt.gfalg import build_field
from cjt.kemod import (
    Point,
    builtin,
    direct_sum,
    dual,
    jordan_type_at,
    new_module,
    omega,
    projective_points,
)
from cjt.polyd import binomial_poly, evaluate
from cjt.thetasheaf import (
    NotConstantError,
    ThetaOp,
    fiber,
    filtration_check,
    graded_dim,
    graded_dim_subspace,
    hilbert,
    monomials,
    mult_map,
    s_dim,
    twist_shift_check,
)


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
            assert not np.any(th.power_matrix(M.p, d).array), name

    def test_degree_matrix_shape(self):
        M = builtin("rad_quotient", 3, 2, m=2)
        A = ThetaOp(M).degree_matrix(2)
        assert (A.rows, A.cols) == (M.n * s_dim(2, 3), M.n * s_dim(2, 2))


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
        assert not hd.capped
        assert set(hd.samples) == set(range(hd.d_max + 1))
        for d in range(hd.stable_from, hd.d_max + 1):
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
