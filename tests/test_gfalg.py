import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjt import gfalg
from cjt.gfalg import (
    FFMatrix,
    _unblock,
    blocked_over_prime,
    build_field,
    kernel_basis,
    rank_ext,
    solve_p,
)
from cjt.kemod import Point, _digit_stack, builtin, direct_sum, x_alpha


def rank(m):
    """Rank of an FFMatrix over its field, through the blocked embedding."""
    return rank_ext(m.ctx, m.array)


def solve(a, b):
    """One solution X of aX = b over a's field, or None when inconsistent."""
    if a.ctx is not b.ctx:
        raise ValueError("matrices live over different fields")
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: {a.rows} rows vs {b.rows}")
    ctx = a.ctx
    A, B = (blocked_over_prime(ctx, m.array) for m in (a, b))
    X = solve_p(A, B, ctx.p)
    return None if X is None else FFMatrix(ctx, _unblock(ctx, X))


def identity(ctx, n):
    return FFMatrix(ctx, np.eye(n, dtype=np.int64))


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


def oracle_mul(F, a, b):
    """a * b as a product of digit polynomials reduced by the modulus.

    Shares nothing with the companion matrices behind FieldCtx.
    """
    prod = [0] * (2 * F.e - 1)
    for i, x in enumerate(F.digits(a)):
        for j, y in enumerate(F.digits(b)):
            prod[i + j] += x * y
    return F.encode(gfalg._poly_mod([c % F.p for c in prod], F.modulus, F.p))


def oracle_matmul(F, A, B):
    """Encoded matrix product in oracle_mul arithmetic."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = F.add(acc, oracle_mul(F, int(A[i, k]), int(B[k, j])))
            out[i, j] = acc
    return out


SMALL_FIELDS = [
    (p, e) for p in gfalg.SUPPORTED_PRIMES for e in range(1, 5) if p**e <= 125
]
TABLE_FIELDS = [
    (p, e) for p in gfalg.SUPPORTED_PRIMES for e in range(1, 5) if p**e <= 625
]


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

    def test_largest_field_builds_fast(self):
        # building a field is its modulus scan alone, so even GF(13^4) is cheap
        start = time.perf_counter()
        F = build_field.__wrapped__(13, 4)
        assert time.perf_counter() - start < 0.1
        assert F.modulus == build_field(13, 4).modulus


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

    @pytest.mark.parametrize("p,e", SMALL_FIELDS)
    def test_against_polynomial_oracle(self, p, e):
        # every pair: mul, inv and frobenius against digit-polynomial products
        F = build_field(p, e)
        table = [[oracle_mul(F, a, b) for b in F.elements()] for a in F.elements()]
        for a in F.elements():
            assert [F.mul(a, b) for b in F.elements()] == table[a]
            if a:
                assert table[a][F.inv(a)] == 1
            power = 1
            for _ in range(p):
                power = table[power][a]
            assert F.frobenius(a) == power
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_array_forms_against_polynomial_oracle(self, p, e):
        # mul_array on every pair a <= b (and its symmetry on all pairs),
        # inv_array on every nonzero element, each in one call
        F = build_field(p, e)
        a, b = np.triu_indices(F.q)
        want = [oracle_mul(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert F.mul_array(a, b).tolist() == want
        grid = F.mul_array(np.arange(F.q)[:, None], np.arange(F.q))
        assert np.array_equal(grid, grid.T)
        nonzero = np.arange(1, F.q)
        inverses = F.inv_array(nonzero)
        assert all(oracle_mul(F, x, y) == 1 for x, y in zip(nonzero, inverses.tolist()))
        assert F.mul(a[-1], b[-1]) == want[-1] and F.inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv_array(np.array([1, 0, 2]))

    def test_array_forms_in_the_largest_field(self):
        F = build_field(13, 4)
        rng = np.random.default_rng(13)
        a = rng.integers(0, F.q, size=2000)
        b = rng.integers(1, F.q, size=2000)
        got = F.mul_array(a, b).tolist()
        assert got == [oracle_mul(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
        inverses = F.inv_array(b.reshape(40, 50))
        assert inverses.shape == (40, 50)
        assert all(
            oracle_mul(F, x, y) == 1 for x, y in zip(b.tolist(), inverses.ravel().tolist())
        )
        assert [F.inv(x) for x in b[:20].tolist()] == inverses.ravel()[:20].tolist()

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (5, 3), (13, 4)])
    def test_matrix_table(self, p, e):
        # matrix_table[a] is the transpose of a's e x e matrix, read-only
        # float32, so digits(b) @ matrix_table[a] = digits(a * b); GF(13^4)
        # is the largest field
        F = build_field(p, e)
        mats = F.matrix_table
        assert mats.shape == (F.q, e, e) and mats.dtype == np.float32
        assert not mats.flags.writeable
        assert np.array_equal(mats, F.element_matrix(np.arange(F.q)).transpose(0, 2, 1))
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, F.q, size=(2, min(F.q, 300)))
        got = (F.digit_array(b)[:, None, :] @ mats[a])[:, 0] % p @ F.weights
        want = [oracle_mul(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert got.tolist() == want

    def test_element_matrix_embedding(self):
        F = build_field(3, 2)
        for a in F.elements():
            for b in F.elements():
                Ma = F.element_matrix(a).astype(np.int64)
                Mb = F.element_matrix(b).astype(np.int64)
                assert np.array_equal(
                    (Ma @ Mb) % 3, F.element_matrix(F.mul(a, b)).astype(np.int64)
                )


ALL_FIELDS = [
    (p, e) for p in gfalg.SUPPORTED_PRIMES for e in range(1, 5) if p**e <= gfalg.MAX_FIELD_ORDER
]


def seeded_encoded(F, rng):
    """Encoded matrices over F: empty and zero shapes, all zero, all q - 1
    (every digit p - 1, the largest sums) and seeded random ones."""
    out = [np.zeros(s, dtype=np.int64) for s in [(0, 0), (0, 5), (4, 0), (3, 3)]]
    out.append(np.full((2, 3), F.q - 1))
    out += [rng.integers(0, F.q, size=s) for s in [(1, 1), (6, 7), (20, 30)]]
    return out


def einsum_blocked(F, M):
    """blocked_over_prime's einsum formula, with the powers of the companion
    matrix formed here in int64."""
    e, p = F.e, F.p
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    powers = np.zeros((e, e, e), dtype=np.int64)
    powers[0] = np.eye(e, dtype=np.int64)
    for k in range(1, e):
        powers[k] = powers[k - 1] @ F.companion % p
    digits = (M[..., None] // p ** np.arange(e)) % p
    blocks = np.einsum("ijk,kab->iajb", digits, powers) % p
    return blocks.reshape(rows * e, cols * e).astype(np.uint8)


class TestExactProducts:
    """element_matrix, blocked_over_prime and matmul_p, all float BLAS
    products reduced by reduce_p, against formulas that share no code with
    them, on every field."""

    @pytest.mark.parametrize("p,e", ALL_FIELDS)
    def test_element_matrix_against_polynomial_oracle(self, p, e):
        # column k of a's matrix holds the digits of a * t^k
        F = build_field(p, e)
        rng = np.random.default_rng((p, e))
        for a in seeded_encoded(F, rng) + [rng.integers(0, F.q, size=(2, 3, 4))]:
            got = F.element_matrix(a)
            assert got.dtype == np.uint8 and got.shape == a.shape + (e, e)
            for x, mat in zip(a.ravel().tolist(), got.reshape(-1, e, e)):
                cols = [F.digits(oracle_mul(F, x, p**k)) for k in range(e)]
                assert mat.T.tolist() == [list(c) for c in cols]
        assert F.element_matrix(F.q - 1).shape == (e, e)

    @pytest.mark.parametrize("p,e", ALL_FIELDS)
    def test_blocked_over_prime_equals_einsum_formula(self, p, e):
        F = build_field(p, e)
        for M in seeded_encoded(F, np.random.default_rng((p, e, 1))):
            got = blocked_over_prime(F, M)
            assert got.dtype == np.uint8
            assert np.array_equal(got, einsum_blocked(F, M))

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_matmul_p_equals_integer_product(self, p):
        # sizes below and above 48, empty shapes, all-(p-1) factors, and the
        # blocked matrices of every field of characteristic p
        rng = np.random.default_rng(p)
        pairs = [
            (rng.integers(0, p, size=(m, k)), rng.integers(0, p, size=(k, n)))
            for m, k, n in [(0, 0, 0), (0, 3, 4), (3, 0, 4), (3, 4, 0), (5, 6, 7),
                            (47, 47, 47), (48, 2, 3), (2, 60, 3), (100, 120, 90)]
        ]
        pairs.append((np.full((30, 500), p - 1), np.full((500, 20), p - 1)))
        for p_, e in ALL_FIELDS:
            if p_ == p:
                F = build_field(p, e)
                A, B = (blocked_over_prime(F, M) for M in seeded_encoded(F, rng)[-2:])
                pairs.append((A, B[: A.shape[1]]))
        for A, B in pairs:
            got = gfalg.matmul_p(A.astype(np.uint8), B.astype(np.uint8), p)
            assert got.dtype == np.uint8
            assert np.array_equal(got, A.astype(np.int64) @ B.astype(np.int64) % p)


def jordan_block(n):
    J = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        J[i, i + 1] = 1
    return J


class TestRank:
    def test_zero_and_identity(self):
        F = build_field(3)
        assert rank(FFMatrix(F, np.zeros((3, 3)))) == 0
        assert rank(identity(F, 5)) == 5

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
        # rank, kernel_basis and solve all eliminate on companion blocks, so
        # their outputs are checked in digit-polynomial arithmetic
        # (oracle_mul), which shares nothing with the blocks
        F = build_field(p, e)
        rng = np.random.default_rng(7 * p + e)
        for _ in range(20):
            rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
            A = rng.integers(0, F.q, size=(rows, cols))
            A[rng.random((rows, cols)) < 0.4] = 0
            if rows >= 3:  # a dependent row: c * row 0 + row 1
                coef = np.array([[int(rng.integers(F.q)), 1]])
                A[2] = oracle_matmul(F, coef, A[:2])[0]
            m = FFMatrix(F, A)
            assert np.array_equal(_unblock(F, blocked_over_prime(F, A)), A)
            rk = rank(m)
            K = kernel_basis(m).array
            assert rk + K.shape[1] == cols
            assert not np.any(oracle_matmul(F, A, K))
            # K's rows at the free columns (those in the span of the earlier
            # columns) form the identity
            free = [
                c
                for c in range(cols)
                if rank(FFMatrix(F, A[:, : c + 1])) == rank(FFMatrix(F, A[:, :c]))
            ]
            assert np.array_equal(K[free], np.eye(len(free), dtype=np.int64))
            # one consistent and one random right-hand side
            X0 = rng.integers(0, F.q, size=(cols, 2))
            for B in (oracle_matmul(F, A, X0), rng.integers(0, F.q, size=(rows, 2))):
                X = solve(m, FFMatrix(F, B))
                if X is None:
                    assert rank(FFMatrix(F, np.hstack([A, B]))) > rk
                else:
                    assert np.array_equal(oracle_matmul(F, A, X.array), B)

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


class TestEchelon:
    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_echelon_and_reduced_forms(self, p):
        rng = np.random.default_rng(100 + p)
        shapes = [(0, 0), (0, 5), (4, 0)]
        shapes += [tuple(map(int, rng.integers(0, 12, size=2))) for _ in range(45)]
        for k, (rows, cols) in enumerate(shapes):
            A = rng.integers(0, p, size=(rows, cols)).astype(np.uint8)
            if k % 3 == 1:  # sparse
                A[rng.random((rows, cols)) < 0.7] = 0
            elif k % 3 == 2:  # rank at most inner, through a thinner space
                inner = int(rng.integers(0, min(rows, cols) + 1))
                A = (
                    rng.integers(0, p, size=(rows, inner))
                    @ rng.integers(0, p, size=(inner, cols))
                    % p
                ).astype(np.uint8)
            before = A.copy()
            E, pivots = gfalg.echelon_p(A, p)
            R, reduced_pivots = gfalg.rref_p(A, p)
            assert np.array_equal(A, before)  # input untouched
            rk = len(pivots)
            assert reduced_pivots == pivots and gfalg.rank_p(A, p) == rk
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for row, c in enumerate(pivots):
                assert E[row, c] == 1
                assert not E[row, :c].any() and not E[row + 1 :, c].any()
                assert np.array_equal(R[:, c], np.eye(rows, dtype=np.uint8)[row])
            assert not E[rk:].any() and not R[rk:].any()
            # both forms keep the row space
            for F in (E, R):
                assert F.shape == A.shape and F.dtype == np.uint8
                assert gfalg.rank_p(np.vstack([A, F]), p) == rk


def reference_echelon(A, p, reduced=False):
    """The plain echelon_p loop: whole-row swaps, scaling and updates."""
    R = np.array(A, dtype=np.uint8, copy=True)
    rows, cols = R.shape
    inv = gfalg._inverses(p)
    pivots = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(R[rank:, c])
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        pv = int(R[rank, c])
        if pv != 1:
            R[rank] = (R[rank].astype(np.int64) * inv[pv]) % p
        if reduced:
            other = np.flatnonzero(R[:, c])
            other = other[other != rank]
        else:
            other = rank + 1 + np.flatnonzero(R[rank + 1 :, c])
        if other.size:
            upd = np.outer(p - R[other, c], R[rank])
            upd += R[other]
            upd %= p
            R[other] = upd
        pivots.append(c)
        rank += 1
    return R, pivots


def kernel_inputs(p):
    """Seeded matrices: empty, sparse, dense rank-deficient up to 150 x 150,
    and blocked nilpotent X_alpha (and a power of it) at e = 1..4."""
    rng = np.random.default_rng(500 + p)
    out = [np.zeros(s, dtype=np.uint8) for s in [(0, 0), (0, 7), (6, 0), (5, 5)]]
    for _ in range(12):
        rows, cols = map(int, rng.integers(1, 40, size=2))
        A = rng.integers(0, p, size=(rows, cols)).astype(np.uint8)
        A[rng.random((rows, cols)) < 0.85] = 0
        out.append(A)
    for rows, cols in [(20, 30), (64, 48), (90, 120), (150, 150)]:
        inner = int(rng.integers(1, min(rows, cols)))
        out.append(
            (
                rng.integers(0, p, size=(rows, inner))
                @ rng.integers(0, p, size=(inner, cols))
                % p
            ).astype(np.uint8)
        )
    M = direct_sum(builtin("rad_quotient", p, 2, m=2), builtin("perm", p, 2, i=1))
    for e in (1, 2, 3, 4):
        ctx = build_field(p, e)
        coords = (int(rng.integers(0, ctx.q)), int(rng.integers(1, ctx.q)))
        B = blocked_over_prime(ctx, x_alpha(M, Point(ctx, coords)).array)
        out += [B, gfalg.matmul_p(B, B, p)]
    return out


def blocked_stacks(p):
    """(module, points, blocked X_alpha stack) at e = 1..4: per field a mixed
    stack of axis points, a point with a leading zero, a GF(p)-rational point
    and seeded random points."""
    rng = np.random.default_rng(900 + p)
    M = direct_sum(builtin("rad_quotient", p, 2, m=2), builtin("perm", p, 2, i=1))
    out = []
    for e in (1, 2, 3, 4):
        ctx = build_field(p, e)
        points = [Point(ctx, c) for c in [(1, 0), (0, 1), (0, ctx.q - 1), (p - 1, 1)]]
        points += [
            Point(ctx, (int(rng.integers(0, ctx.q)), int(rng.integers(1, ctx.q))))
            for _ in range(6)
        ]
        blocked = [blocked_over_prime(ctx, x_alpha(M, pt).array) for pt in points]
        out.append((M, points, np.array(blocked)))
    return out


def stacked_inputs(p, e):
    """Seeded (b, rows, cols) stacks of encoded GF(p^e) matrices: mixed ranks
    (with an all-zero member), all zero, 0-row, 0-column and 0-matrix shapes,
    and the X_alpha of blocked_stacks' points at e with their squares."""
    ctx = build_field(p, e)
    rng = np.random.default_rng((900 + p, e))

    def product(L, R):  # L @ R over GF(p^e), through the blocked embedding
        A = gfalg.matmul_p(blocked_over_prime(ctx, L), blocked_over_prime(ctx, R), p)
        return _unblock(ctx, A)

    mixed = []
    for inner in range(9):
        L = rng.integers(0, ctx.q, size=(20, inner))
        mixed.append(product(L, rng.integers(0, ctx.q, size=(inner, 30))))
    for density in (0.05, 0.2):
        sparse = rng.random((20, 30)) < density
        mixed.append(rng.integers(1, ctx.q, size=(20, 30)) * sparse)
    mixed.insert(4, np.zeros((20, 30), dtype=np.int64))
    out = [np.array(mixed)]
    for shape in [(5, 6, 6), (3, 0, 5), (3, 5, 0), (0, 4, 4)]:
        out.append(np.zeros(shape, dtype=np.int64))
    M, points, B = blocked_stacks(p)[e - 1]
    out.append(np.array([x_alpha(M, pt).array for pt in points]))
    out.append(np.array([_unblock(ctx, gfalg.matmul_p(A, A, p)) for A in B]))
    return out


def assert_stacked_pivots_match(D, ctx):
    """stacked_pivots on the digit stack D gives, for each matrix, the
    GF(p^e) columns of the blocked echelon_p pivots, and leaves D alone."""
    e = ctx.e
    before = D.copy()
    got = gfalg.stacked_pivots(D, ctx)
    want = [gfalg.echelon_p(blocked_over_prime(ctx, A @ ctx.weights), ctx.p)[1] for A in D]
    assert [[j * e + k for j in cols for k in range(e)] for cols in got] == want
    assert np.array_equal(D, before)
    return got


def clash_stack(ctx, rng):
    """Encoded (5, 12, 9) GF(p^e) matrices whose rows clash over many rounds.

    Rows 0..5 are heads H_i leading at column i.  Rows 6..11 are chains
    sum_i lambda_i H_i with every lambda_i nonzero: cleared at column j,
    each lands on the key of head j + 1 and clashes again, round after
    round.  Rows 6 and 7 vanish in round 6.  Rows 8 and 9 get the same
    kind of tail at column 7, so they survive round 6, clash with each
    other and one vanishes in round 7; row 10's tail at column 8 survives.
    Row 11 starts at column 2 and vanishes in round 4 while the others
    go on.  Matrix 1 is matrix 0 with its rows shuffled, so chains also
    head keys; matrix 2 has rank one (every row but its head vanishes in
    round 1); matrix 3 is zero; matrix 4 repeats matrix 0, so the same
    columns lead in several matrices.
    """
    q, p = ctx.q, ctx.p
    heads = np.triu(rng.integers(1, q, size=(6, 9)))
    lam = rng.integers(1, q, size=(6, 6))
    lam[5, :2] = 0
    # lambda @ heads over GF(p^e), through the blocked embedding
    blocked = [blocked_over_prime(ctx, A) for A in (lam, heads)]
    chains = ctx.digit_array(_unblock(ctx, gfalg.matmul_p(*blocked, p)))
    chains[2:4, 7] += ctx.digit_array(rng.integers(1, q))
    chains[4, 8] += ctx.digit_array(rng.integers(1, q))
    M = np.vstack([heads, chains % p @ ctx.weights])
    rank_one = _unblock(
        ctx,
        gfalg.matmul_p(
            blocked_over_prime(ctx, rng.integers(1, q, size=(12, 1))),
            blocked_over_prime(ctx, rng.integers(1, q, size=(1, 9))),
            p,
        ),
    )
    zero = np.zeros((12, 9), dtype=np.int64)
    return np.array([M, M[rng.permutation(12)], rank_one, zero, M])


class TestEchelonKernel:
    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_bit_identical_to_reference_loop(self, p):
        for A in kernel_inputs(p):
            for got, want in [
                (gfalg.echelon_p(A, p), reference_echelon(A, p)),
                (gfalg.rref_p(A, p), reference_echelon(A, p, reduced=True)),
            ]:
                assert got[0].dtype == want[0].dtype == np.uint8
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_stacked_pivots_equal_echelon_p(self, p):
        # GF(p^e) pivot j stands for the blocked pivots j*e .. j*e + e - 1
        for e in (1, 2, 3, 4):
            ctx = build_field(p, e)
            for i, S in enumerate(stacked_inputs(p, e)):
                D = ctx.digit_array(S).astype(np.uint8)
                before = D.copy()
                got = gfalg.stacked_pivots(D, ctx)
                want = [gfalg.echelon_p(blocked_over_prime(ctx, A), p)[1] for A in S]
                blocked = [[j * e + k for j in cols for k in range(e)] for cols in got]
                assert blocked == want
                assert np.array_equal(D, before)
                if i == 0:
                    ranks = {len(cols) for cols in got}
                    assert len(ranks) >= 5 and 0 in ranks

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_stacked_pivots_at_the_float32_bound(self, p):
        # every digit p - 1, so every lead a and every f is the all-(p-1)
        # element and the row update's sums are as large as they get; also
        # duplicate rows, and zero matrices beside all-(p-1) ones.  Every
        # field up to the largest, GF(13^4)
        rng = np.random.default_rng(p)
        e = 1
        while p**e <= gfalg.MAX_FIELD_ORDER:
            ctx = build_field(p, e)
            top = np.full((3, 5, 4, e), p - 1, dtype=np.uint8)
            rows = rng.integers(0, p, size=(3, 2, 4, e), dtype=np.uint8)
            rows[0, 1] = p - 1
            zero = np.zeros((5, 4, e), dtype=np.uint8)
            stacks = [top, rows[:, [0, 1, 0, 1, 1, 0]], np.stack([zero, top[0], zero])]
            for D in stacks:
                before = D.copy()
                got = gfalg.stacked_pivots(D, ctx)
                want = [
                    gfalg.echelon_p(blocked_over_prime(ctx, A @ ctx.weights), p)[1]
                    for A in D
                ]
                assert [[j * e + k for j in cols for k in range(e)] for cols in got] == want
                assert D.dtype == np.uint8 and np.array_equal(D, before)
            e += 1

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_stacked_pivots_through_clash_chains(self, p):
        # every field up to GF(13^4): chains of clashes over several rounds,
        # rows vanishing while others of their round survive, a matrix whose
        # rows all vanish but one, a zero matrix, repeated keys across
        # matrices
        rng = np.random.default_rng(40 + p)
        e = 1
        while p**e <= gfalg.MAX_FIELD_ORDER:
            ctx = build_field(p, e)
            S = clash_stack(ctx, rng)
            got = assert_stacked_pivots_match(ctx.digit_array(S).astype(np.uint8), ctx)
            assert got[0] == got[1] == got[4] == [0, 1, 2, 3, 4, 5, 7, 8]
            assert got[2] == [0] and got[3] == []
            e += 1

    @pytest.mark.parametrize(
        "name", ["realized O(-1) p=3 r=3", "conjugated Omega^2 k p=5 r=2"]
    )
    def test_stacked_pivots_on_the_samplers_stacks(self, name, monkeypatch):
        # every stack the constancy sampler eliminates (X_alpha and its
        # images over GF(p^e), e = 1..4) for a realized module with sparse
        # actions and for a dense conjugated Heller shift
        from cjt import kemod
        from cjt.realize import line_bundle_spec, realize_bundle
        from test_random_modules import conjugate

        if name.startswith("realized"):
            M = realize_bundle(line_bundle_spec(3, 3, -1))[0]
        else:
            M = conjugate(kemod.omega(builtin("trivial", 5, 2), 2), np.random.default_rng(7))
        stacks = []

        def recording(D, ctx):
            stacks.append((D.copy(), ctx))
            return kernel(D, ctx)

        kernel = gfalg.stacked_pivots
        monkeypatch.setattr(gfalg, "stacked_pivots", recording)
        plan = kemod.SamplingPlan(extra=24)
        M._cache.pop(("constancy", plan), None)
        assert isinstance(kemod.check_constant(M, plan), kemod.ConstantSoFar)
        monkeypatch.undo()
        assert {ctx.e for _, ctx in stacks} == {1, 2, 3, 4}
        for D, ctx in stacks:
            assert_stacked_pivots_match(D, ctx)

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_stack_builder_matches_x_alpha(self, p):
        # each matrix of the digit stack is that point's X_alpha, built
        # entrywise over GF(p^e); a stack of one (jordan_type_at's) gives the
        # same digits, and blocked they are the blocked X_alpha
        for M, points, B in blocked_stacks(p):
            ctx = points[0].ctx
            size = M.n * ctx.e
            assert B.dtype == np.uint8 and B.shape == (len(points), size, size)
            X = np.array(M.X, dtype=np.float32)
            D = _digit_stack(X, points)
            assert D.dtype == np.uint8 and D.shape == (len(points), M.n, M.n, ctx.e)
            for pt, got, want in zip(points, D, B):
                assert np.array_equal(got @ ctx.weights, x_alpha(M, pt).array)
                assert np.array_equal(_digit_stack(X, [pt])[0], got)
                assert np.array_equal(blocked_over_prime(ctx, got @ ctx.weights), want)

    @pytest.mark.parametrize("p", gfalg.SUPPORTED_PRIMES)
    def test_reduce_p_exact_below_its_bounds(self, p):
        # every float32 integer of absolute value below 2^22; in float64 the
        # values near 0 and near +-2^51, and random ones
        rng = np.random.default_rng(p)
        top = 2**51
        near = top - 1 - np.arange(2000)
        wide = [np.arange(-2000, 2000), near, -near, rng.integers(-top + 1, top, 4000)]
        short = np.arange(-(2**22) + 1, 2**22)
        for dtype, x in ((np.float32, short), (np.float64, np.concatenate(wide))):
            got = gfalg.reduce_p(x.astype(dtype), p)
            assert got.dtype == dtype
            assert np.array_equal(got, x % p)


class TestKernel:
    def test_identity_has_empty_kernel(self):
        F = build_field(5)
        assert kernel_basis(identity(F, 4)).cols == 0

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
        X = solve(identity(F, 3), B)
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
