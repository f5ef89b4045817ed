import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjt import gfalg
from cjt.gfalg import (
    FFMatrix,
    build_field,
    ff_identity,
    kernel_basis,
    rank,
    rank_ext,
    solve,
)


def brute_irreducible(p, e):
    """Exhaustive irreducibility scan, coefficient tuples low-first."""
    import itertools

    def has_factor(f):
        for d in range(1, (len(f) - 1) // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                if not gfalg._poly_mod(f, tuple(tail) + (1,), p):
                    return True
        return False

    for enc in range(p**e):
        tail = []
        v = enc
        for _ in range(e):
            tail.append(v % p)
            v //= p
        f = tuple(tail) + (1,)
        if not has_factor(f):
            return f
    raise AssertionError


class TestBuildField:
    def test_prime_field(self):
        F = build_field(2, 1)
        assert F.p == 2 and F.e == 1 and F.q == 2
        assert F.modulus == (0, 1)

    def test_gf4_modulus(self):
        # only monic irreducible quadratic over GF(2): t^2 + t + 1
        assert build_field(2, 2).modulus == (1, 1, 1)

    def test_gf9_modulus(self):
        # lexicographic scan t^2, t^2+1, ... with brute-force check
        assert build_field(3, 2).modulus == (1, 0, 1)

    @pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
    def test_matches_exhaustive_scan(self, p, e):
        assert build_field(p, e).modulus == brute_irreducible(p, e)

    def test_rejects_fields_above_the_order_cap(self):
        start = time.perf_counter()
        for p, e in ((13, 10), (2, 15)):
            assert p**e > gfalg.MAX_FIELD_ORDER
            with pytest.raises(ValueError):
                build_field(p, e)
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_field(4, 1)
        with pytest.raises(ValueError):
            build_field(3, 0)
        with pytest.raises(ValueError):
            build_field(17, 1)

    def test_deterministic_and_cached(self):
        assert build_field(3, 2) is build_field(3, 2)


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 4)])
    def test_field_axioms_sampled(self, p, e):
        F = build_field(p, e)
        els = list(F.elements())
        rng = np.random.default_rng(0)
        sample = rng.choice(els, size=min(12, len(els)), replace=False)
        for a in sample:
            a = int(a)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in sample:
                b = int(b)
                assert F.mul(a, b) == F.mul(b, a)
                assert F.add(a, b) == F.add(b, a)

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (5, 2)])
    def test_frobenius_is_additive_and_multiplicative(self, p, e):
        F = build_field(p, e)
        rng = np.random.default_rng(1)
        for _ in range(40):
            a, b = int(rng.integers(F.q)), int(rng.integers(F.q))
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))

    def test_element_matrix_embedding(self):
        F = build_field(3, 2)
        for a in F.elements():
            for b in F.elements():
                Ma = F.element_matrix(a).astype(np.int64)
                Mb = F.element_matrix(b).astype(np.int64)
                assert np.array_equal(
                    (Ma @ Mb) % 3, F.element_matrix(F.mul(a, b)).astype(np.int64)
                )


def jordan_block(n):
    J = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        J[i, i + 1] = 1
    return J


class TestRank:
    def test_zero_and_identity(self):
        F = build_field(3)
        assert rank(FFMatrix(F, np.zeros((3, 3)))) == 0
        assert rank(ff_identity(F, 5)) == 5

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_nilpotent_jordan_block_powers(self, p):
        # rank(J_p^j) = p - j, counted directly on the explicit block
        F = build_field(p)
        J = jordan_block(p)
        Jk = np.eye(p, dtype=np.int64)
        for j in range(p + 1):
            assert rank(FFMatrix(F, Jk % p)) == p - j
            Jk = Jk @ J

    def test_rank_over_extension_field(self):
        F = build_field(2, 2)
        # [[t, 1], [t^2 = t+1, t]] has det t^2 - (t+1) = 0 over GF(4)
        t = 2
        tp1 = 3
        m = FFMatrix(F, [[t, 1], [tp1, t]])
        assert rank(m) == 1
        assert rank_ext(F, m.array) == 1

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 3), (5, 2), (13, 2)])
    def test_blocked_rank_against_encoded_kernel(self, p, e):
        # rank() goes through companion blocks, kernel_basis() through
        # elimination on encoded entries; rank-nullity ties them together
        F = build_field(p, e)
        rng = np.random.default_rng(7 * p + e)
        for _ in range(20):
            rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
            A = rng.integers(0, F.q, size=(rows, cols))
            A[rng.random((rows, cols)) < 0.4] = 0
            if rows >= 3:  # a dependent row: c * row 0 + row 1
                A[2] = F.arr_add(F.arr_scale(int(rng.integers(F.q)), A[0]), A[1])
            m = FFMatrix(F, A)
            assert rank(m) + kernel_basis(m).cols == cols

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 10**6),
    )
    def test_rank_nullity_and_permutation_invariance(self, r, c, p, seed):
        rng = np.random.default_rng(seed)
        A = rng.integers(0, p, size=(r, c))
        F = build_field(p)
        m = FFMatrix(F, A)
        rk = rank(m)
        K = kernel_basis(m)
        assert rk + K.cols == c
        # kernel columns actually lie in the kernel
        assert np.all((A @ K.array) % p == 0)
        perm_r = rng.permutation(r)
        perm_c = rng.permutation(c)
        assert rank(FFMatrix(F, A[perm_r][:, perm_c])) == rk


class TestKernel:
    def test_identity_has_empty_kernel(self):
        F = build_field(5)
        assert kernel_basis(ff_identity(F, 4)).cols == 0

    def test_zero_matrix_kernel_is_standard_basis(self):
        F = build_field(3)
        K = kernel_basis(FFMatrix(F, np.zeros((4, 4))))
        assert np.array_equal(K.array, np.eye(4, dtype=np.int64))

    def test_upper_jordan_block_gf2(self):
        # J_2 = [[0,1],[0,0]]: kernel spanned by e_1 (hand elimination)
        F = build_field(2)
        K = kernel_basis(FFMatrix(F, [[0, 1], [0, 0]]))
        assert np.array_equal(K.array, [[1], [0]])


class TestSolve:
    def test_identity_system(self):
        F = build_field(7)
        B = FFMatrix(F, [[1, 2], [3, 4], [5, 6]])
        X = solve(ff_identity(F, 3), B)
        assert X == B

    def test_zero_zero(self):
        F = build_field(3)
        Z = FFMatrix(F, np.zeros((2, 2)))
        assert solve(Z, Z) == Z

    def test_jordan_block_system_gf3(self):
        # J_2 x = e_1 over GF(3): x = e_2
        F = build_field(3)
        A = FFMatrix(F, [[0, 1], [0, 0]])
        b = FFMatrix(F, [[1], [0]])
        X = solve(A, b)
        assert np.array_equal(X.array, [[0], [1]])

    def test_inconsistent_returns_none(self):
        F = build_field(2)
        A = FFMatrix(F, [[0, 0], [0, 0]])
        b = FFMatrix(F, [[1], [0]])
        assert solve(A, b) is None

    def test_shape_mismatch_raises(self):
        F = build_field(2)
        with pytest.raises(ValueError):
            solve(FFMatrix(F, [[1]]), FFMatrix(F, [[1], [0]]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 3),
        st.sampled_from([2, 3, 5, 13]),
        st.integers(0, 10**6),
    )
    def test_solution_is_exact_whenever_found(self, r, c, k, p, seed):
        rng = np.random.default_rng(seed)
        A = rng.integers(0, p, size=(r, c))
        B = rng.integers(0, p, size=(r, k))
        F = build_field(p)
        X = solve(FFMatrix(F, A), FFMatrix(F, B))
        if X is not None:
            assert np.all((A @ X.array) % p == B % p)

    def test_solve_over_extension(self):
        F = build_field(2, 2)
        t = 2
        A = FFMatrix(F, [[t, 0], [0, 1]])
        B = FFMatrix(F, [[1], [t]])
        X = solve(A, B)
        assert X is not None
        # t * x0 = 1 => x0 = t^-1 = t+1 = 3
        assert X.array[0, 0] == 3 and X.array[1, 0] == t
