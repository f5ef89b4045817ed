"""Property checks over a randomized module zoo.

Random valid modules are built from the named ones by basis conjugation
(which scrambles the matrices without touching the structure), random
submodule closures, duals, sums and small tensors.  Every module in the
zoo exercises the rank-identity engine against the explicit-subspace
oracle, the fiber/Jordan agreement, and the degreewise filtration
identity.
"""

import numpy as np
import pytest

from cjt.gfalg import matmul_p, rank_p
from cjt.kemod import (
    KEModule,
    builtin,
    direct_sum,
    dual,
    jordan_type_at,
    new_module,
    omega,
    projective_points,
    submodule,
    tensor,
)
from cjt.thetasheaf import (
    fiber,
    graded_dim,
    graded_dim_subspace,
    s_dim,
)


def random_invertible(rng, n, p):
    while True:
        P = rng.integers(0, p, size=(n, n)).astype(np.uint8)
        if rank_p(P, p) == n:
            return P


def invert_mod(P, p):
    n = P.shape[0]
    from cjt.gfalg import solve_p

    inv = solve_p(P, np.eye(n, dtype=np.uint8), p)
    assert inv is not None
    return inv


def conjugate(M, rng):
    P = random_invertible(rng, M.n, M.p)
    Pinv = invert_mod(P, M.p)
    X = [matmul_p(matmul_p(P, A, M.p), Pinv, M.p) for A in M.X]
    return new_module(M.p, M.r, X)


def random_submodule(M, rng, count=2):
    """The module generated by a few random vectors (closure under the X_i)."""
    span = random_closed_span(M, rng, count)
    if span.shape[1] == 0:
        return None
    S, _ = submodule(M, span)
    return S


def random_closed_span(M, rng, count=2):
    """A column basis of the closure of a few random vectors under the X_i:
    the vectors themselves if closed, else transposed RREF rows."""
    vecs = rng.integers(0, M.p, size=(M.n, count)).astype(np.uint8)
    span = vecs
    while True:
        grown = np.hstack([span] + [matmul_p(A, span, M.p) for A in M.X])
        from cjt.gfalg import rref_p

        R, pivots = rref_p(grown.T, M.p)
        basis = R[: len(pivots)].T.copy()
        if basis.shape[1] == span.shape[1] and rank_p(span, M.p) == len(pivots):
            break
        span = basis
    return span


def zoo(seed):
    rng = np.random.default_rng(seed)
    base = [
        builtin("regular", 2, 2),
        builtin("rad_quotient", 3, 2, m=3),
        builtin("rad_quotient", 2, 3, m=2),
        builtin("zigzag", 3, 2, n=2),
        omega(builtin("trivial", 2, 2), 1),
        omega(builtin("trivial", 3, 2), -1),
        tensor(builtin("rad_quotient", 2, 2, m=2), builtin("rad_quotient", 2, 2, m=2)),
    ]
    out = []
    for M in base:
        out.append(conjugate(M, rng))
        S = random_submodule(M, rng)
        if S is not None and S.n > 0:
            out.append(S)
        out.append(dual(conjugate(M, rng)))
    out.append(conjugate(direct_sum(base[0], base[4]), rng))
    return out


@pytest.mark.parametrize("seed", [7, 2024])
def test_engine_matches_oracle_on_random_modules(seed):
    for M in zoo(seed):
        if M.n > 12:
            continue
        for i in range(1, M.p + 1):
            for j in range(i):
                for d in range(4):
                    assert graded_dim(M, i, j, d) == graded_dim_subspace(M, i, j, d)


@pytest.mark.parametrize("seed", [11])
def test_fiber_jordan_and_dimension_identities(seed):
    for M in zoo(seed):
        pts = projective_points(M.p, M.r)[:4] + projective_points(M.p, M.r, 2)[:2]
        for pt in pts:
            t = jordan_type_at(M, pt)
            assert t.dim == M.n
            assert fiber(M, pt).dims == t.a


@pytest.mark.parametrize("seed", [5])
def test_filtration_identity_degreewise(seed):
    # the refined-filtration count is exact in every degree, for every
    # module, constant Jordan type or not
    for M in zoo(seed):
        if M.n > 14:
            continue
        for d in range(4):
            total = sum(
                graded_dim(M, i, 0, d + j)
                for i in range(1, M.p + 1)
                for j in range(i)
            )
            assert total == M.n * s_dim(M.r, d)
