"""Modules over k[E] for an elementary abelian p-group E of rank r.

A module is r commuting p-nilpotent square matrices over GF(p): the
actions of X_i = g_i - 1.  The group algebra itself is the truncated
polynomial algebra k[X_1..X_r]/(X_i^p); it is local and self-injective,
with one-dimensional socle spanned by z = prod X_i^(p-1).

Heller shifts use minimal projective covers (kernels) and minimal
injective hulls (cokernels), each a HellerStep cached on the module it
starts from, with no free module kept.  A map out of kE^b is fixed by
the images of its b generators (hom_from_free).  A map into kE^s is
fixed by s linear functionals through the nondegenerate trace pairing
<u, v> = coefficient of z in u*v, which identifies Hom(M, kE) with the
linear dual of M (hom_to_free).  Choosing the functionals is one solve:
a left inverse on the socle for a hull, and an n x n system for the
free-summand retraction in strip_free_with_inclusion.  apply_monomials
gives both maps, applying every monomial X^v to the n x b matrix at hand.

The constancy sampler (check_constant) ranks the X_alpha of many points
at once, in a basis adapted to the radical series M, JM, J^2 M, ..., J
spanned by the X_i (layered_actions), where X_alpha maps each layer into
deeper ones; the change of basis is over GF(p), so it keeps every rank
and every answer.  Jordan types at single points (jordan_type_at, the
sampler's oracle) stay on the actions as given.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random

import numpy as np

from . import gfalg
from .errors import Failure, InputError
from .gfalg import FFMatrix, FieldCtx, build_field, matmul_p, matpow_p

DEFAULT_SEED = 0xC0FFEE
# check_constant visits every GF(p)-point of P^{r-1}, and refuses more than this many
RATIONAL_CAP = 10_000
# check_constant visits every GF(p^2)-point of P^{r-1} when there are at most this many
QUADRATIC_CAP = 10_000
# most seeded-random points a SamplingPlan may ask for; all are built up front
EXTRA_CAP = 10_000
# extension degrees of the seeded-random points, before max_ext_degree caps them
EXTRA_DEGREES = (2, 3, 4)
# most float cells (1 MB in float32) one stack of check_constant's sampler
# holds at once: e n max(2 n, 4 rank X_alpha) per point over GF(p^e)
STACK_CELLS = 2**18
# largest module dimension omega and realize_bundle build by default
DEFAULT_MAX_DIM = 5000


class ModuleError(InputError):
    pass


class ResourceCapError(Failure):
    pass


def cap(dim, what, max_dim):
    """Refuse a module of dimension dim above max_dim (kE has dimension p^r)."""
    if dim > max_dim:
        raise ResourceCapError(f"{what} of dimension {dim} above the cap {max_dim}")


class NonCommutingError(ModuleError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"actions X_{i + 1} and X_{j + 1} do not commute")


class NotPNilpotentError(ModuleError):
    def __init__(self, i):
        self.index = i
        super().__init__(f"action X_{i + 1} does not satisfy X^p = 0")


# ---------------------------------------------------------------------------
# the group algebra kE, cached per (p, r)


class GroupAlgebra:
    """Monomial data for kE = k[X_1..X_r]/(X_i^p).

    Basis monomials are exponent tuples in lexicographic order; the
    socle generator z = (p-1, ..., p-1) is the last one.
    """

    def __init__(self, p, r):
        self.p = p
        self.r = r
        self.q = p**r
        self.monomials = sorted(itertools.product(range(p), repeat=r))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.z = (p - 1,) * r
        X = []
        for i in range(r):
            A = np.zeros((self.q, self.q), dtype=np.uint8)
            for m, col in self.index.items():
                if m[i] + 1 < p:
                    tgt = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    A[self.index[tgt], col] = 1
            X.append(A)
        self.X = tuple(X)


@functools.lru_cache(maxsize=None)
def group_algebra(p, r) -> GroupAlgebra:
    return GroupAlgebra(p, r)


# ---------------------------------------------------------------------------
# domain types


@dataclasses.dataclass(frozen=True)
class JordanType:
    """Multiplicities a_1..a_p: blocks of length i occur a[i-1] times."""

    p: int
    a: tuple

    def __post_init__(self):
        assert len(self.a) == self.p and all(m >= 0 for m in self.a)

    @property
    def dim(self) -> int:
        return sum((i + 1) * m for i, m in enumerate(self.a))

    def stable(self) -> tuple:
        """a_1..a_{p-1}; blocks of length p dropped."""
        return self.a[:-1]

    def __add__(self, other):
        assert self.p == other.p
        return JordanType(self.p, tuple(x + y for x, y in zip(self.a, other.a)))

    def __str__(self):
        parts = [
            f"[{i + 1}]" + (f"^{m}" if m > 1 else "")
            for i, m in reversed(list(enumerate(self.a)))
            if m
        ]
        return "".join(parts) if parts else "[]"


class KEModule:
    """r commuting p-nilpotent n x n matrices over GF(p)."""

    def __init__(self, p, r, X, *, validate=True, constant_by_construction=False):
        X = tuple(np.ascontiguousarray(np.asarray(A) % p, dtype=np.uint8) for A in X)
        if len(X) != r:
            raise ModuleError(f"expected {r} action matrices, got {len(X)}")
        n = X[0].shape[0] if X else 0
        for A in X:
            if A.ndim != 2 or A.shape != (n, n):
                raise ModuleError("action matrices must be square and equal-sized")
        if validate:
            for i in range(r):
                for j in range(i + 1, r):
                    if not np.array_equal(
                        matmul_p(X[i], X[j], p), matmul_p(X[j], X[i], p)
                    ):
                        raise NonCommutingError(i, j)
            for i in range(r):
                if np.any(matpow_p(X[i], p, p)):
                    raise NotPNilpotentError(i)
        for A in X:
            A.setflags(write=False)
        self.p = p
        self.r = r
        self.n = n
        self.X = X
        self.constant_by_construction = constant_by_construction
        self._cache = {}

    def __repr__(self):
        return f"<KEModule p={self.p} r={self.r} dim={self.n}>"


def check_algebra(p, r):
    """Refuse (p, r) unless p is a supported prime and r >= 1."""
    if p not in gfalg.SUPPORTED_PRIMES:
        raise ModuleError(
            f"unsupported characteristic p = {p}; choose from {gfalg.SUPPORTED_PRIMES}"
        )
    if r < 1:
        raise ModuleError(f"rank r must be >= 1, got {r}")


def new_module(p, r, X) -> KEModule:
    """Validated module from explicit action matrices."""
    check_algebra(p, r)
    return KEModule(p, r, X)


@dataclasses.dataclass(frozen=True)
class Point:
    """Nonzero point of A^r over GF(p^e), coordinates encoded in [0, q)."""

    ctx: FieldCtx
    coords: tuple

    def __post_init__(self):
        if not any(self.coords):
            raise InputError("point must be nonzero")
        if min(self.coords) < 0 or max(self.coords) >= self.ctx.q:
            raise InputError(f"coordinates must be encoded in [0, {self.ctx.q})")

    @property
    def r(self):
        return len(self.coords)

    def normalized(self) -> "Point":
        """First nonzero coordinate scaled to 1 (projective representative)."""
        lead = next(c for c in self.coords if c)
        if lead == 1:
            return self
        scaled = self.ctx.mul_array(self.ctx.inv(lead), self.coords)
        return Point(self.ctx, tuple(scaled.tolist()))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + f") over {self.ctx}"


@dataclasses.dataclass(frozen=True)
class ConstantSoFar:
    type: JordanType
    points_checked: int
    fields_used: tuple


@dataclasses.dataclass(frozen=True)
class Falsified:
    witness: Point
    type_at_witness: JordanType
    reference_type: JordanType

    def __post_init__(self):
        assert self.type_at_witness != self.reference_type


ConstancyVerdict = ConstantSoFar | Falsified


@dataclasses.dataclass(frozen=True)
class SamplingPlan:
    """extra seeded-random points (at most EXTRA_CAP) over GF(p^e), with e
    drawn from EXTRA_DEGREES and capped at max_ext_degree (1..4)."""

    extra: int = 200
    max_ext_degree: int = 4
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0 <= self.extra <= EXTRA_CAP:
            raise ModuleError(f"extra points must be in 0..{EXTRA_CAP}, got {self.extra}")
        if not 1 <= self.max_ext_degree <= max(EXTRA_DEGREES):
            raise ModuleError(
                f"max_ext_degree must be in 1..{max(EXTRA_DEGREES)}, "
                f"got {self.max_ext_degree}"
            )


class ModuleHom:
    """Map of kE-modules: a matrix commuting with every X_i action."""

    def __init__(self, source: KEModule, target: KEModule, matrix, *, validate=True):
        if source.p != target.p or source.r != target.r:
            raise ModuleError("source and target live over different algebras")
        M = np.ascontiguousarray(np.asarray(matrix) % source.p, dtype=np.uint8)
        if M.shape != (target.n, source.n):
            raise ModuleError(
                f"hom matrix must be {target.n} x {source.n}, got {M.shape}"
            )
        if validate and not hom_commutes(source, target, M):
            raise ModuleError("matrix does not commute with the actions")
        M.setflags(write=False)
        self.source = source
        self.target = target
        self.matrix = M

    def __matmul__(self, other: "ModuleHom") -> "ModuleHom":
        assert other.target is self.source or other.target.n == self.source.n
        return ModuleHom(
            other.source,
            self.target,
            matmul_p(self.matrix, other.matrix, self.source.p),
            validate=False,
        )

    def is_zero(self):
        return not np.any(self.matrix)

    def __repr__(self):
        return f"<ModuleHom {self.source.n} -> {self.target.n}>"


def hom_commutes(source, target, M) -> bool:
    p = source.p
    for Xs, Xt in zip(source.X, target.X):
        if not np.array_equal(matmul_p(M, Xs, p), matmul_p(Xt, M, p)):
            return False
    return True


# ---------------------------------------------------------------------------
# constructors


def builtin(kind: str, p: int, r: int, *, max_dim=DEFAULT_MAX_DIM, **params) -> KEModule:
    """Named module: trivial, regular, rad_quotient(m), perm(i), zigzag(n).

    regular and rad_quotient refuse kE above max_dim before building it."""
    check_algebra(p, r)
    if kind in ("regular", "rad_quotient"):
        cap(p**r, "group algebra", max_dim)
    if kind == "trivial":
        return KEModule(
            p, r, [np.zeros((1, 1))] * r, validate=False, constant_by_construction=True
        )
    if kind == "regular":
        kE = group_algebra(p, r)
        return KEModule(p, r, kE.X, validate=False, constant_by_construction=True)
    if kind == "rad_quotient":
        m = params["m"]
        if not 1 <= m <= r * (p - 1) + 1:
            raise ModuleError(f"rad_quotient needs 1 <= m <= r(p-1)+1, got {m}")
        kE = group_algebra(p, r)
        basis = [mon for mon in kE.monomials if sum(mon) < m]
        index = {mon: i for i, mon in enumerate(basis)}
        X = []
        for i in range(r):
            A = np.zeros((len(basis), len(basis)), dtype=np.uint8)
            for mon, col in index.items():
                if mon[i] + 1 < p and sum(mon) + 1 < m:
                    A[index[mon[:i] + (mon[i] + 1,) + mon[i + 1 :]], col] = 1
            X.append(A)
        return KEModule(p, r, X, validate=False, constant_by_construction=True)
    if kind == "perm":
        i = params["i"]
        if not 1 <= i <= r:
            raise ModuleError(f"perm needs 1 <= i <= r, got {i}")
        X = [np.zeros((p, p), dtype=np.uint8) for _ in range(r)]
        J = np.zeros((p, p), dtype=np.uint8)
        for l in range(p - 1):
            J[l + 1, l] = 1
        X[i - 1] = J
        return KEModule(p, r, X, validate=False)
    if kind == "zigzag":
        n = params["n"]
        if r != 2:
            raise ModuleError("zigzag modules need r = 2")
        if n < 0:
            raise ModuleError("zigzag needs n >= 0")
        # basis v_0..v_n, w_1..w_n; X_1 v_j = w_{j+1}, X_2 v_j = w_j.
        # the generators are the v's; the opposite orientation (w's
        # generating) is the dual module and twists the other way
        dim = 2 * n + 1
        X1 = np.zeros((dim, dim), dtype=np.uint8)
        X2 = np.zeros((dim, dim), dtype=np.uint8)
        for j in range(n):
            X1[n + j + 1, j] = 1
        for j in range(1, n + 1):
            X2[n + j, j] = 1
        return KEModule(p, 2, [X1, X2], validate=False, constant_by_construction=True)
    raise ModuleError(f"unknown builtin kind {kind!r}")


def direct_sum(M: KEModule, N: KEModule) -> KEModule:
    if (M.p, M.r) != (N.p, N.r):
        raise ModuleError("direct_sum needs matching p and r")
    X = []
    for A, B in zip(M.X, N.X):
        C = np.zeros((M.n + N.n, M.n + N.n), dtype=np.uint8)
        C[: M.n, : M.n] = A
        C[M.n :, M.n :] = B
        X.append(C)
    return KEModule(
        M.p,
        M.r,
        X,
        validate=False,
        constant_by_construction=M.constant_by_construction
        and N.constant_by_construction,
    )


def tensor(M: KEModule, N: KEModule, max_dim: int = DEFAULT_MAX_DIM) -> KEModule:
    """Tensor product with the diagonal action: X acts as X(x)1 + 1(x)X + X(x)X.

    Refuses a product of dimension M.n * N.n above max_dim before building it.
    """
    if (M.p, M.r) != (N.p, N.r):
        raise ModuleError("tensor needs matching p and r")
    cap(M.n * N.n, "tensor product", max_dim)
    p = M.p
    X = []
    for A, B in zip(M.X, N.X):
        A64 = A.astype(np.int64)
        B64 = B.astype(np.int64)
        C = (
            np.kron(A64, np.eye(N.n, dtype=np.int64))
            + np.kron(np.eye(M.n, dtype=np.int64), B64)
            + np.kron(A64, B64)
        ) % p
        X.append(C)
    return KEModule(p, M.r, X, validate=False)


def dual(M: KEModule) -> KEModule:
    """k-linear dual: g acts as the transpose of the inverse of g's matrix.

    Concretely X acts on M^* by ((1+X)^{-1} - 1)^T = (-X + X^2 - ...)^T.
    """
    p = M.p
    X = []
    for A in M.X:
        acc = np.zeros((M.n, M.n), dtype=np.int64)
        term = np.eye(M.n, dtype=np.uint8)
        for j in range(1, p):
            term = matmul_p(term, A, p)
            acc = (acc - term) % p if j % 2 else (acc + term) % p
        X.append(acc.T)
    return KEModule(
        p,
        M.r,
        X,
        validate=False,
        constant_by_construction=M.constant_by_construction,
    )


# ---------------------------------------------------------------------------
# points and Jordan types


def x_alpha(M: KEModule, alpha: Point) -> FFMatrix:
    """Matrix of X_alpha = sum lambda_i X_i over the point's field.

    The X_i have entries in GF(p), so digit k of X_alpha is
    sum_i digit_k(lambda_i) X_i mod p; no field product is needed.
    """
    if alpha.r != M.r:
        raise ModuleError("point rank does not match the module")
    ctx = alpha.ctx
    lam_digits = np.array([ctx.digits(lam) for lam in alpha.coords], dtype=np.int64)
    planes = np.tensordot(lam_digits.T, np.array(M.X, dtype=np.int64), axes=1) % ctx.p
    return FFMatrix(ctx, np.tensordot(ctx.p ** np.arange(ctx.e), planes, axes=1))


def jordan_type_at(M: KEModule, alpha: Point) -> JordanType:
    """Jordan type of X_alpha acting on M (x) K.

    Only the ranks of X_alpha^1 .. X_alpha^(p-1) are computed, and none past
    the first power of rank 0: X_alpha^p = sum lambda_i^p X_i^p is zero for
    commuting p-nilpotent X_i.  X_alpha is built in digit form by
    _digit_stack, as a stack of one point, and each power is ranked over
    GF(p^e) on its (n, cols, e) digit vectors by gfalg.echelon_p, one step
    per GF(p^e) column.  Each power is ranked on the image of the one
    before: C_1 = X_alpha and C_j = X_alpha C_{j-1}[:, P], P the pivot
    columns of C_{j-1}.  Those columns are a basis of Im X_alpha^(j-1), so
    C_j spans Im X_alpha^j and has its rank, with r_{j-1} columns instead
    of n.  The image is one matmul_p of the companion-blocked X_alpha
    (gfalg.blocked_over_prime), which maps the stacked digits of a column
    to those of its image.  So this shares neither step with the sampler,
    which ranks with gfalg.stacked_pivots and forms images with _next_image.
    """
    if alpha.r != M.r:
        raise ModuleError("point rank does not match the module")
    p, n = M.p, M.n
    ctx = alpha.ctx
    e = ctx.e
    C = _digit_stack(np.array(M.X, dtype=np.float32), [alpha])[0]
    ranks = [n]  # rank of X^0
    for j in range(1, p):
        if j == 2:
            B = gfalg.blocked_over_prime(ctx, C @ ctx.weights)
        if j > 1:
            V = C[:, pivots].transpose(0, 2, 1).reshape(n * e, -1)
            C = matmul_p(B, V, p).reshape(n, e, -1).transpose(0, 2, 1)
        _, pivots = gfalg.echelon_p(C, p, ctx=ctx)
        ranks.append(len(pivots))
        if not pivots:
            break
    ranks += [0] * (p + 2 - len(ranks))  # up to X^{p+1}
    a = tuple(ranks[i - 1] - 2 * ranks[i] + ranks[i + 1] for i in range(1, p + 1))
    return JordanType(p, a)


def _orbit_keys(points):
    """Keys shared by the points of each Galois orbit on P^{r-1}, one per
    point; the points all have r coordinates.

    The X_i have entries in GF(p), so c * alpha and Frob(alpha) have the
    Jordan type of alpha.  A GF(p)-rational point keys as (1, its normalized
    coordinates) over every field, since GF(p) elements encode to the same
    integer in each (digit 0 is the constant term); any other point keys as
    (e, least Frobenius conjugate of its normalized coordinates), least in
    lexicographic order.  The points of one field go through one array pass:
    the inverses of the first nonzero coordinates, the normalized
    coordinates, and each conjugate, kept where its first coordinate off
    the least so far is smaller.
    """
    keys = [None] * len(points)
    by_field = {}
    for i, pt in enumerate(points):
        by_field.setdefault(pt.ctx, []).append(i)
    for ctx, where in by_field.items():
        coords = np.array([points[i].coords for i in where], dtype=np.int64)
        rows = np.arange(len(where))
        lead = coords[rows, (coords != 0).argmax(axis=1)]
        normal = ctx.mul_array(ctx.inv_array(lead)[:, None], coords)
        least = normal
        digits = ctx.digit_array(normal)
        for _ in range(ctx.e - 1):
            digits = digits @ ctx.frobenius_matrix.T % ctx.p
            conj = digits @ ctx.weights
            differ = conj != least
            col = differ.argmax(axis=1)
            smaller = differ[rows, col] & (conj[rows, col] < least[rows, col])
            least = np.where(smaller[:, None], conj, least)
        # Frobenius fixes a GF(p)-rational point, so its least conjugate is itself
        rational = (normal < ctx.p).all(axis=1)
        for i, is_rational, row in zip(where, rational.tolist(), least.tolist()):
            keys[i] = (1 if is_rational else ctx.e, tuple(row))
    return keys


def projective_points(p, r, e=1):
    """Normalized points of P^{r-1}(GF(p^e)).

    Deterministic order: affine charts by leading coordinate, tails in
    lexicographic order, so the first point is always (1, 0, ..., 0).
    """
    ctx = build_field(p, e)
    pts = []
    for lead in range(r):
        for tail in itertools.product(range(ctx.q), repeat=r - lead - 1):
            coords = (0,) * lead + (1,) + tail
            pts.append(Point(ctx, coords))
    return pts


def _orbit_representatives(points):
    """The first point of each Galois orbit, in visit order, but points[0]'s."""
    keys = _orbit_keys(points)
    seen = {keys[0]}
    for pt, key in zip(points, keys):
        if key not in seen:
            seen.add(key)
            yield pt


def _digit_stack(X, points):
    """X_alpha of each point, all over one field, as a (b, n, n, e) uint8
    stack of digit vectors: [t, i, j] holds the digits of X_alpha[i, j] at
    points[t].  X is the module's (r, n, n) actions as floats.

    The X_s have entries in GF(p), so digit k of X_alpha is
    sum_s digit_k(lambda_s) X_s mod p: one product of the (n^2, r) actions
    with the points' (b, r, e) coordinate digits, e n^2 cells per point.
    """
    ctx = points[0].ctx
    r, n, _ = X.shape
    digits = ctx.digit_array([pt.coords for pt in points]).astype(X.dtype)
    stack = gfalg.reduce_p(X.reshape(r, n * n).T @ digits, ctx.p)
    return stack.astype(np.uint8).reshape(len(points), n, n, ctx.e)


def _next_image(X, C, keep, cols, lam, p):
    """Digits of X_alpha V at the points keep of a (b, n, n', e) digit
    stack C, V holding the GF(p^e) columns cols[t] of C[keep[t]].

    X_alpha V = sum_s X_s (lambda_s V).  lam[t, s] is the e x e matrix
    taking digits(v) to digits(lambda_s v) at the point of C[t]
    (FieldCtx.matrix_table), so lambda_s V is a product on the digits, and
    X_s (lambda_s V) one BLAS product per action for the whole stack.
    Returns a (len(keep), n, cols.shape[1], e) uint8 stack.
    """
    b, (n, e) = len(keep), C.shape[1::2]
    V = C[keep[:, None], :, cols].transpose(0, 2, 1, 3)  # (b, n, cols, e)
    V = V.astype(X.dtype, order="C").reshape(b, -1, e)
    image = 0
    for A, L in zip(X, lam[keep].transpose(1, 0, 2, 3)):
        scaled = gfalg.reduce_p(V @ L, p).reshape(b, n, -1)
        image += A @ scaled
    return gfalg.reduce_p(image, p).astype(np.uint8).reshape(b, n, -1, e)


def _support_is_acyclic(X, n):
    """Whether the nonzeros of the n x n matrices X, as edges j -> i for
    each entry [i, j], form a DAG: then some permutation makes every matrix
    strictly triangular.  One topological sort, O(n + nonzeros) steps."""
    # the transposed support lists the edges by source
    sources, targets = np.any(np.array(X, dtype=bool), axis=0).T.nonzero()
    starts = np.searchsorted(sources, np.arange(n + 1)).tolist()
    indegree = np.bincount(targets, minlength=n).tolist()
    targets = targets.tolist()
    ready = [v for v in range(n) if indegree[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in targets[starts[v] : starts[v + 1]]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return done == n


def _radical_layers(M: KEModule):
    """Row bases of the layers of M's radical series, top layer first.

    V_0 = M and V_{k+1} = sum_i X_i V_k, each held as the rows of its
    reduced echelon basis.  Layer k is the rows of V_k's basis whose pivot
    is not a pivot of V_{k+1} (V_{k+1} lies in V_k, so its pivots are some
    of V_k's).  The layers from k on have distinct pivots, dim V_k of them
    in all, so they are a basis of V_k, and each X_i maps layer k into the
    span of the layers below it.
    """
    p = M.p
    basis, pivots = np.eye(M.n, dtype=np.uint8), list(range(M.n))
    layers = []
    while pivots:
        image = np.vstack([matmul_p(basis, A.T, p) for A in M.X])
        below, below_pivots = gfalg.rref_p(image, p)
        keep = np.isin(pivots, below_pivots, invert=True)
        layers.append(basis[keep])
        basis, pivots = below[: len(below_pivots)], below_pivots
    return layers


def layered_actions(M: KEModule):
    """M's actions in a basis adapted to its radical series: P^-1 X_i P, P
    the vectors of _radical_layers(M) as columns, deepest layer first.

    Every X_i, and so every X_alpha, then maps each layer into the layers
    before it: X_alpha is strictly upper triangular by layer blocks, and a
    row of layer k has its nonzeros in the columns of the layers above k.
    The rows of a stack so lead in many columns, not all near column 0,
    and gfalg.stacked_pivots clears them in fewer rounds.  When the support
    of the X_i is already a DAG (_support_is_acyclic), a change of basis
    gains nothing on it, and M.X itself is returned.  Cached on M.
    """
    if "layered" not in M._cache:
        if _support_is_acyclic(M.X, M.n):
            actions = M.X
        else:
            P = np.vstack(_radical_layers(M)[::-1]).T
            actions = submodule(M, P)[0].X
        M._cache["layered"] = actions
    return M._cache["layered"]


def _rank_mismatches(M: KEModule, points, ranks):
    """Indices of the points, all over one field, whose Jordan type differs
    from the one with ranks[j] = rank X_alpha^j over GF(p^e).

    The stacks are built from layered_actions(M), not M.X.  Conjugation
    by an invertible P over GF(p) commutes with extension of scalars, so
    P^-1 X_alpha^j P has the rank of X_alpha^j at every point and power,
    and the failing points are the same in either basis; the layered basis
    only makes gfalg.stacked_pivots take fewer rounds.  The points'
    X_alpha are built in digit form (_digit_stack), with no
    companion blocks, in stacks whose widest transient fits STACK_CELLS,
    and ranked by their GF(p^e) columns with gfalg.stacked_pivots, each
    power on the image of the one before, as in jordan_type_at.  The next
    image C_j = X_alpha C_{j-1}[:, P], P the GF(p^e) pivot columns of
    C_{j-1}, holds the digits of X_alpha applied to a basis of
    Im X_alpha^(j-1), r_{j-1} columns; _next_image forms it for every point
    left in the stack at once.  A point drops out at its first rank off the
    reference, so the points left share their pivot counts, and the loop
    stops at the first power of reference rank 0: equal ranks up to there
    give equal types.

    The products run in float32 and gfalg.reduce_p reduces their sums, at
    most r n (p-1)^2 (e (p-1)^2 on the digits), exactly below 2^22; a
    module above that bound takes float64.
    """
    ctx = points[0].ctx
    p, e, n, r = M.p, ctx.e, M.n, M.r
    dtype = np.float32 if r * n * (p - 1) ** 2 < 2**22 else np.float64
    X = np.array(layered_actions(M), dtype=dtype)
    # float cells alive at once per point: the first stack and its quotient,
    # or four arrays of e n ranks[1] cells while the next image is formed.
    # stacked_pivots adds its float32 copy of the stack, e n^2, and a round's
    # row update up to three times the rows it clears
    per_point = e * n * max(2 * n, 4 * ranks[1])
    per_stack = max(1, STACK_CELLS // max(1, per_point))
    out = []
    for start in range(0, len(points), per_stack):
        stack = points[start : start + per_stack]
        coords = np.array([pt.coords for pt in stack], dtype=np.int64)
        lam = ctx.matrix_table[coords].astype(dtype, copy=False)  # (b, r, e, e)
        C = _digit_stack(X, stack)
        live = np.arange(len(stack))  # C[t] spans Im X_alpha^j at point start + live[t]
        for j in range(1, p):
            if j > 1:
                cols = np.array([pivots[t] for t in keep])
                C = _next_image(X, C, keep, cols, lam[live], p)
                live = live[keep]
            pivots = gfalg.stacked_pivots(C, ctx)
            ok = np.array([len(found) == ranks[j] for found in pivots], dtype=bool)
            out += (start + live[~ok]).tolist()
            keep = ok.nonzero()[0]
            if ranks[j] == 0 or keep.size == 0:
                break
    return out


@functools.lru_cache(maxsize=16)
def _sampling_schedule(p, r, plan: SamplingPlan):
    """The points check_constant visits at (p, r) under plan, as
    (points_checked, fields_used, chunks).

    The points are every GF(p)-point of P^{r-1} (more than RATIONAL_CAP
    are refused before any is built), every GF(p^2)-point when
    there are at most QUADRATIC_CAP of them, and plan.extra seeded-random
    points over GF(p^e) with e <= plan.max_ext_degree.  The earliest point
    of each Galois orbit stands for the orbit, and these representatives
    are taken in chunks of 1, 2, 4, ... points.  Each chunk is a tuple of
    groups, one per field in first-visit order, and a group is a tuple of
    (index in the chunk, point) pairs in visit order.  The schedule
    depends on no module, so it is built once per (p, r, plan).
    """
    count_rational = (p**r - 1) // (p - 1)
    if count_rational > RATIONAL_CAP:
        raise ResourceCapError(
            f"P^{r - 1} has {count_rational} GF({p})-points, above the cap "
            f"{RATIONAL_CAP} on the points a constancy check visits"
        )
    fields_used = [f"GF({p})"]
    points = projective_points(p, r, 1)
    count_quadratic = (p ** (2 * r) - 1) // (p**2 - 1)
    if count_quadratic <= QUADRATIC_CAP:
        points += projective_points(p, r, 2)
        fields_used.append(f"GF({p}^2)")

    rng = random.Random(plan.seed)
    ext_degrees = sorted({min(e, plan.max_ext_degree) for e in EXTRA_DEGREES})
    extra_fields = set()
    for k in range(plan.extra):
        e = ext_degrees[k % len(ext_degrees)]
        ctx = build_field(p, e)
        coords = tuple(rng.randrange(ctx.q) for _ in range(r))
        if all(c == 0 for c in coords):
            coords = (1,) + coords[1:]
        points.append(Point(ctx, coords))
        extra_fields.add(f"GF({p}^{e})" if e > 1 else f"GF({p})")
    fields_used += sorted(extra_fields - set(fields_used))

    # the earliest point of each Galois orbit stands for the orbit: a later
    # one was preceded by a point of the same type, the reference type, or
    # the check would have stopped there, so the first failing point is kept
    representatives = _orbit_representatives(points)
    chunks = []
    size = 1
    while chunk := list(itertools.islice(representatives, size)):
        by_field = {}
        for i, pt in enumerate(chunk):
            by_field.setdefault(pt.ctx, []).append((i, pt))
        chunks.append(tuple(tuple(group) for group in by_field.values()))
        size *= 2
    return len(points), tuple(fields_used), tuple(chunks)


def check_constant(M: KEModule, plan: SamplingPlan | None = None) -> ConstancyVerdict:
    """Sampling-based constancy check; a falsifier, never a certificate.

    Evaluates the Jordan type at the points of _sampling_schedule(p, r,
    plan): only the first point of each Galois orbit, since the points of
    one orbit share a Jordan type; points_checked counts every point
    covered.  Each chunk's points of one field are checked against the
    reference ranks as digit stacks (_rank_mismatches), and the first
    failing point in visit order is the witness.  The reference and the
    witness take their types from jordan_type_at.  It builds X_alpha
    through _digit_stack too, but ranks it with gfalg.echelon_p on digit
    vectors and forms its images with matmul_p on the companion-blocked
    matrix, so it shares no elimination and no image step with the stacks.
    It also stays on M.X, while the stacks use layered_actions(M), a basis
    adapted to M's radical series, so the two check each other across two
    bases.  A change of basis over GF(p) keeps every rank of every power
    of X_alpha, so the verdict, the witness, points_checked and
    fields_used do not depend on the basis M comes in.
    """
    plan = plan or SamplingPlan()
    cached = M._cache.get(("constancy", plan))
    if cached is not None:
        return cached
    points_checked, fields_used, chunks = _sampling_schedule(M.p, M.r, plan)
    reference = reference_jordan_type(M)
    # rank of X_alpha^j on the reference type: each block of length i > j gives i - j
    ranks = [
        sum((i - j) * m for i, m in enumerate(reference.a, 1) if i > j) for j in range(M.p)
    ]
    for groups in chunks:
        failing = [
            group[k]
            for group in groups
            for k in _rank_mismatches(M, [pt for _, pt in group], ranks)
        ]
        if failing:
            witness = min(failing)[1]  # the indices differ, so no points are compared
            verdict = Falsified(witness, jordan_type_at(M, witness), reference)
            M._cache[("constancy", plan)] = verdict
            return verdict
    verdict = ConstantSoFar(reference, points_checked, fields_used)
    M._cache[("constancy", plan)] = verdict
    return verdict


def reference_jordan_type(M: KEModule) -> JordanType:
    """Jordan type at the first enumerated GF(p)-point, (1, 0, ..., 0)."""
    return jordan_type_at(M, Point(build_field(M.p), (1,) + (0,) * (M.r - 1)))


# ---------------------------------------------------------------------------
# socle, monomial actions


def apply_monomials(X, G, p):
    """X^v G for every monomial v of kE, indexed like kE.monomials: a (q, n, b) stack.

    X is a tuple of r commuting actions and G an n x b matrix; each
    X^v G = X_i X^(v - e_i) G, i the first nonzero exponent of v, is one
    n x b product, and nothing is kept once the stack is returned.
    """
    kE = group_algebra(p, len(X))
    out = np.empty((kE.q,) + G.shape, dtype=np.uint8)
    out[0] = G  # the monomial 1 comes first
    for col, mon in enumerate(kE.monomials[1:], 1):
        i = next(i for i, a in enumerate(mon) if a > 0)
        prev = mon[:i] + (mon[i] - 1,) + mon[i + 1 :]
        out[col] = matmul_p(X[i], out[kE.index[prev]], p)
    return out


def socle_basis(M: KEModule):
    """Columns spanning soc(M) = intersection of ker X_i."""
    if M.n == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    stacked = np.vstack(M.X) if M.r else np.zeros((0, M.n), dtype=np.uint8)
    return gfalg.kernel_p(stacked, M.p)


def _column_complement(U, n, p):
    """Pivot rows and a projection onto the coordinate complement of col span U.

    Returns (pivot_rows, complement_rows, proj) with proj a |C| x n matrix
    such that proj restricted to span(U) is zero and proj[e_C] = identity.
    """
    if U.size == 0:
        C = list(range(n))
        return [], C, np.eye(n, dtype=np.uint8)
    R, pivots = gfalg.rref_p(U.T, p)  # rows of R span the same row space
    pivot_set = set(pivots)
    C = [c for c in range(n) if c not in pivot_set]
    # rows of proj: the kernel basis of U^T, which vanishes on span(U)
    proj = gfalg.kernel_from_rref(R, pivots, n, p).T
    return pivots, C, proj


# ---------------------------------------------------------------------------
# trace-pairing homs into free modules


def hom_to_free(M: KEModule, functionals):
    """The kE-map M -> kE^s attached to s linear functionals via the trace pairing.

    Row block j of the result, evaluated at m, is the element of kE whose
    coefficient at the monomial v equals f_j(X^(z-v) m).  F X^w is taken
    as the transpose of (X^T)^w F^T; z - v runs through the monomials in
    reverse order as v runs forward.
    """
    F = np.asarray(functionals, dtype=np.uint8)
    if F.ndim == 1:
        F = F[None, :]
    stack = apply_monomials(tuple(A.T for A in M.X), F.T, M.p)  # (q, n, s)
    # coordinate (copy j, monomial v) sits at j*q + v
    return stack[::-1].transpose(2, 0, 1).reshape(F.shape[0] * len(stack), M.n)


def hom_from_free(M: KEModule, G):
    """Matrix of the kE-map kE^b -> M sending generator t to column t of G.

    Coordinate (t, v) of kE^b is X^v times generator t, so it goes to X^v G[:, t].
    """
    stack = apply_monomials(M.X, np.asarray(G, dtype=np.uint8), M.p)  # (q, n, b)
    return stack.transpose(1, 2, 0).reshape(M.n, G.shape[1] * len(stack))


def free_module(p, r, copies) -> KEModule:
    """kE^copies with coordinate layout (copy, monomial)."""
    kE = group_algebra(p, r)
    eye = np.eye(copies, dtype=np.uint8)
    X = [np.kron(eye, A).astype(np.uint8) for A in kE.X]
    return KEModule(p, r, X, validate=False)


# ---------------------------------------------------------------------------
# covers, hulls, Heller shifts


@dataclasses.dataclass(frozen=True)
class HellerStep:
    """0 -> sub -> kE^b -> quotient -> 0: at once the projective cover of
    quotient and the injective hull of sub, its maps as uint8 matrices.
    The free middle is rebuilt on request, never kept."""

    sub: KEModule
    quotient: KEModule
    incl: np.ndarray  # sub -> kE^b, injective
    proj: np.ndarray  # kE^b -> quotient, surjective

    def __post_init__(self):
        self.incl.setflags(write=False)
        self.proj.setflags(write=False)

    @property
    def free(self) -> KEModule:
        p, r = self.sub.p, self.sub.r
        return free_module(p, r, self.incl.shape[0] // p**r)


def submodule(M: KEModule, columns) -> tuple[KEModule, ModuleHom]:
    """The submodule spanned by the column basis K, with its inclusion: one
    solve gives the coefficients of [X_1 K | ... | X_r K] in K."""
    K = np.asarray(columns, dtype=np.uint8)
    p = M.p
    coeff = gfalg.solve_p(K, np.hstack([matmul_p(A, K, p) for A in M.X]), p)
    assert coeff is not None, "columns do not span a submodule"
    sub_X = np.hsplit(coeff, M.r)
    S = KEModule(p, M.r, sub_X, validate=False)
    return S, ModuleHom(S, M, K, validate=False)


def quotient_module(M: KEModule, columns) -> tuple[KEModule, ModuleHom, np.ndarray]:
    """The quotient of M by the column span, its projection, and the
    coordinate section (a right inverse of the projection matrix, not a
    module map)."""
    U = np.asarray(columns, dtype=np.uint8)
    p = M.p
    _, C, proj = _column_complement(U, M.n, p)
    sec = np.zeros((M.n, len(C)), dtype=np.uint8)
    for k, c in enumerate(C):
        sec[c, k] = 1
    Q_X = [matmul_p(proj, A[:, C], p) for A in M.X]  # A sec = A[:, C]
    Q = KEModule(p, M.r, Q_X, validate=False)
    return Q, ModuleHom(M, Q, proj, validate=False), sec


def minimal_generators(M: KEModule) -> list:
    """Coordinate indices of M whose classes form a basis of M/JM: the
    non-pivot columns of an echelon form of [X_1 | ... | X_r]^T (row space JM)."""
    _, pivots = gfalg.echelon_p(np.hstack(M.X).T, M.p)
    return sorted(set(range(M.n)) - set(pivots))


def projective_cover(M: KEModule) -> HellerStep:
    """0 -> Omega M -> kE^b -> M -> 0, b the number of minimal generators."""
    key = "cover"
    if key in M._cache:
        return M._cache[key]
    p = M.p
    gens = minimal_generators(M)
    cover = hom_from_free(M, np.eye(M.n, dtype=np.uint8)[:, gens])
    K = gfalg.kernel_p(cover, p)
    OmegaM, incl = submodule(free_module(p, M.r, len(gens)), K)
    OmegaM.constant_by_construction = M.constant_by_construction
    step = HellerStep(OmegaM, M, incl.matrix, cover)
    M._cache[key] = step
    return step


def injective_hull(M: KEModule) -> HellerStep:
    """0 -> M -> kE^s -> Omega^{-1} M -> 0, s the dimension of the socle."""
    key = "hull"
    if key in M._cache:
        return M._cache[key]
    p = M.p
    soc = socle_basis(M)
    s = soc.shape[1]
    # functionals f_j with f_j(t_l) = delta_jl, via a deterministic left inverse
    F = gfalg.solve_p(soc.T, np.eye(s, dtype=np.uint8), p)
    assert F is not None
    hull = hom_to_free(M, F.T)
    Q, proj, _ = quotient_module(free_module(p, M.r, s), hull)
    Q.constant_by_construction = M.constant_by_construction
    step = HellerStep(M, Q, hull, proj.matrix)
    M._cache[key] = step
    return step


def omega(M: KEModule, n: int, max_dim: int = DEFAULT_MAX_DIM) -> KEModule:
    """Heller shift: iterated minimal-cover kernels (n>0) or hull cokernels (n<0).

    Each step's cover or hull is cached on the module it starts from, so
    Omega^n M walks a chain built once.  kE, then every step, must stay
    within max_dim, and so must |n| before the first step: the dimensions
    of a periodic module's shifts stay bounded and never reach the cap.
    """
    cap(M.p**M.r, "group algebra", max_dim)
    if abs(n) > max_dim:
        raise ResourceCapError(f"Heller shift of {abs(n)} steps above the cap {max_dim}")
    for _ in range(abs(n)):
        M = projective_cover(M).sub if n > 0 else injective_hull(M).quotient
        cap(M.n, "Heller shift", max_dim)
    return M


# ---------------------------------------------------------------------------
# free summands


def strip_free(M: KEModule) -> tuple[KEModule, int]:
    """Split off all free direct summands: M = kE^a + M' with z M' = 0.

    a is the rank of the socle generator z acting on M.  The retraction
    M -> kE^a is built from functionals vanishing on a complement of the
    free part, again through the trace pairing.
    """
    Mprime, a, _ = strip_free_with_inclusion(M)
    return Mprime, a


def strip_free_with_inclusion(M: KEModule) -> tuple[KEModule, int, ModuleHom]:
    """strip_free plus the inclusion of the stripped summand back into M."""
    p, r = M.p, M.r
    kE = group_algebra(p, r)
    # the action of the socle generator z = X_1^(p-1) ... X_r^(p-1)
    Z = functools.reduce(
        lambda A, B: matmul_p(A, B, p), (matpow_p(A, p - 1, p) for A in M.X)
    )
    if not np.any(Z):
        return M, 0, ModuleHom(M, M, np.eye(M.n, dtype=np.uint8), validate=False)
    _, pivcols = gfalg.echelon_p(Z, p)
    # the pivot columns c of Z have independent images z*e_c, so the
    # submodule generated by those e_c is free of rank a
    a = len(pivcols)
    emb = hom_from_free(M, np.eye(M.n, dtype=np.uint8)[:, pivcols])
    # functionals: f_j(X^w u_t) = delta_jt [w == z], zero on a complement
    pivrows, comp, _ = _column_complement(emb, M.n, p)
    assert len(pivrows) == a * kE.q, "free embedding lost rank"
    basis = np.hstack([emb] + ([np.eye(M.n, dtype=np.uint8)[:, comp]] if comp else []))
    prescribed = np.zeros((a, basis.shape[1]), dtype=np.uint8)
    zpos = kE.index[kE.z]
    for j in range(a):
        prescribed[j, j * kE.q + zpos] = 1
    # f_j row satisfies f_j @ basis = prescribed[j]
    F = gfalg.solve_p(basis.T, prescribed.T, p)
    assert F is not None
    funcs = F.T  # a x n
    psi = hom_to_free(M, funcs)  # M -> kE^a
    K = gfalg.kernel_p(psi, p)
    Mprime, incl = submodule(M, K)
    Mprime.constant_by_construction = M.constant_by_construction
    assert a * kE.q + Mprime.n == M.n
    return Mprime, a, incl
