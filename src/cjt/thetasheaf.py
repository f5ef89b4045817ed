"""The degree-raising operator on M (x) k[Y_1..Y_r] and the bundle data it carries.

For a module M the operator theta(m (x) f) = sum X_i(m) (x) Y_i f raises
polynomial degree by one and satisfies theta^p = 0.  The graded
subquotients

    (Ker theta^{j+1} n Im theta^{i-j-1}) / (... + ...)

have degreewise dimensions expressible purely through the numbers
R(a, e) = rank of theta^a on the degree-e piece:

    dim_d F_{i,j} = R(i-1, e+1) + R(i+1, e) - R(i, e+1) - R(i, e),
    e = d - i + j,

which follows from rank-nullity applied to theta^u restricted to images
and from the modular law.  R(a, e) is in turn the dimension of the
degree-(e+a) piece of the image of theta^a, an S-submodule of M (x) S
generated by theta^a(M (x) 1).  The tracker below carries an echelonized
basis of that submodule one degree at a time: candidates at the next
degree are the Y_j-shifts of the current basis, whose pivots are known
without scanning, so only pivot collisions cost eliminations.  This is
what keeps desk-scale Hilbert functions affordable; assembling the full
degree-e matrix of theta^a from scratch per degree is kept (as
ThetaOp.degree_matrix) for audits and small cases.

Fibers at points are computed independently of jordan_type_at, from
explicit kernel and image bases of powers of X_alpha, over GF(p) on the
companion-blocked X_alpha.  fiber blocks the encoded matrix (x_alpha,
then gfalg.blocked_over_prime); jordan_type_at sums Kronecker products
of the actions with element matrices.  Sharing neither that construction
nor the dimension formula, each route checks the other.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import comb

import numpy as np

from . import gfalg, polyd
from .gfalg import FFMatrix, matmul_p
from .kemod import (
    Falsified,
    KEModule,
    Point,
    SamplingPlan,
    check_constant,
    x_alpha,
)

DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024  # bytes of basis storage per tracker


class StabilizationFailedError(RuntimeError):
    """The sampled window never settled on one polynomial of degree < r."""


class NotConstantError(ValueError):
    """hilbert() needs constant Jordan type and the checker falsified it."""


# ---------------------------------------------------------------------------
# monomial bases of S_d = k[Y_1..Y_r]_d


@functools.lru_cache(maxsize=None)
def monomials(r: int, d: int):
    """Exponent tuples of degree d in r variables, lexicographic order."""
    if d < 0:
        return ()
    return tuple(
        sorted(
            tuple(t)
            for t in _compositions(d, r)
        )
    )


def _compositions(d, r):
    if r == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, r - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def monomial_index(r: int, d: int):
    return {m: i for i, m in enumerate(monomials(r, d))}


def s_dim(r: int, d: int) -> int:
    """dim S_d = binom(d + r - 1, r - 1), zero for negative d."""
    return comb(d + r - 1, r - 1) if d >= 0 else 0


@functools.lru_cache(maxsize=None)
def mult_map(r: int, d: int, j: int):
    """Index map of multiplication by Y_{j+1}: S_d -> S_{d+1}.

    Strictly increasing, because adding e_j preserves lexicographic order.
    """
    idx = monomial_index(r, d + 1)
    out = np.empty(len(monomials(r, d)), dtype=np.int64)
    for k, m in enumerate(monomials(r, d)):
        out[k] = idx[m[:j] + (m[j] + 1,) + m[j + 1 :]]
    return out


# ---------------------------------------------------------------------------
# explicit theta matrices (audit route)


class ThetaOp:
    """Degree-graded matrices of theta acting on M (x) S.

    Coordinates of the degree-d piece are laid out monomial-major:
    (monomial index) * n + (module coordinate).
    """

    def __init__(self, module: KEModule):
        self.module = module

    def degree_matrix(self, d: int) -> FFMatrix:
        """theta_d : (M (x) S)_d -> (M (x) S)_{d+1} as an explicit matrix."""
        M = self.module
        n, r, p = M.n, M.r, M.p
        sd, sd1 = s_dim(r, d), s_dim(r, d + 1)
        A = np.zeros((n * sd1, n * sd), dtype=np.uint8)
        for j in range(r):
            mm = mult_map(r, d, j)
            Xj = M.X[j]
            for col_mon in range(sd):
                tgt = mm[col_mon]
                blk = A[tgt * n : (tgt + 1) * n, col_mon * n : (col_mon + 1) * n]
                blk += Xj
                blk %= p
        ctx = gfalg.build_field(p)
        return FFMatrix(ctx, A)

    def power_matrix(self, a: int, d: int) -> FFMatrix:
        """theta^a starting in degree d, as a product of degree matrices."""
        M = self.module
        out = np.eye(M.n * s_dim(M.r, d), dtype=np.uint8)
        for t in range(a):
            out = matmul_p(self.degree_matrix(d + t).array, out, M.p)
        ctx = gfalg.build_field(M.p)
        return FFMatrix(ctx, out)


def _apply_theta(M: KEModule, V, d):
    """theta applied to a batch of degree-d vectors (rows of V)."""
    n, r, p = M.n, M.r, M.p
    sd, sd1 = s_dim(r, d), s_dim(r, d + 1)
    k = V.shape[0]
    out = np.zeros((k, sd1, n), dtype=np.int64)
    blocks = V.reshape(k, sd, n)
    for j in range(r):
        mm = mult_map(r, d, j)
        contrib = matmul_p(blocks.reshape(k * sd, n), M.X[j].T, p).reshape(k, sd, n)
        # mm has no repeats for fixed j, so fancy += accumulates correctly
        out[:, mm] += contrib
    return (out % p).astype(np.uint8).reshape(k, n * sd1)


# ---------------------------------------------------------------------------
# incremental image tracker


class _ImageTracker:
    """Echelonized basis of (Im theta^a)_t, advanced one degree at a time."""

    def __init__(self, module: KEModule, a: int, budget=DEFAULT_MEMORY_BUDGET):
        assert a >= 1
        self.M = module
        self.a = a
        self.p = module.p
        self.r = module.r
        self.n = module.n
        self.budget = budget
        self.capped = False
        self._inv = [0] * self.p
        for v in range(1, self.p):
            self._inv[v] = pow(v, self.p - 2, self.p)
        self.dims = [0] * a  # degrees 0 .. a-1 carry no image
        # generators: theta^a applied to the module sitting in degree 0
        V = np.eye(self.n, dtype=np.uint8)
        for t in range(a):
            V = _apply_theta(self.M, V, t)
        self.t = a
        self._init_basis(V)
        self.dims.append(self.rows)

    # -- echelon bookkeeping: rows of self.B, pivot -> row index in self.piv

    def _init_basis(self, V):
        L = V.shape[1]
        self.B = np.zeros((max(4, V.shape[0]), L), dtype=np.uint8)
        self.rows = 0
        self.piv = {}
        self.row_piv = []
        self._scratch = np.zeros(L, dtype=np.uint8)
        for k in range(V.shape[0]):
            self._insert(V[k].copy(), 0)

    def _ensure_capacity(self, extra):
        need = self.rows + extra
        if need <= self.B.shape[0]:
            return
        cap = max(need, int(self.B.shape[0] * 1.5) + 8)
        NB = np.zeros((cap, self.B.shape[1]), dtype=np.uint8)
        NB[: self.rows] = self.B[: self.rows]
        self.B = NB

    def _insert(self, row, start):
        """Reduce row against the basis and insert the remainder if nonzero."""
        p = self.p
        pos = start
        L = row.shape[0]
        while True:
            if pos >= L:
                return
            if row[pos] == 0:
                nz = np.flatnonzero(row[pos:])
                if nz.size == 0:
                    return
                pos += int(nz[0])
            holder = self.piv.get(pos)
            if holder is None:
                v = int(row[pos])
                if v != 1:  # never happens for p = 2
                    np.multiply(row, self._inv[v], out=row)
                    np.mod(row, p, out=row)
                self._ensure_capacity(1)
                self.B[self.rows] = row
                self.piv[pos] = self.rows
                self.row_piv.append(pos)
                self.rows += 1
                return
            if p == 2:
                row ^= self.B[holder]
            else:
                # uint8-safe: factor*entry <= 12*12, plus entry <= 12, under 256
                f = p - int(row[pos])
                np.multiply(self.B[holder], f, out=self._scratch)
                np.add(row, self._scratch, out=row)
                np.mod(row, p, out=row)
            pos += 1

    def step(self):
        """Advance the image basis from degree t to t+1."""
        n, r, t = self.n, self.r, self.t
        sd, sd1 = s_dim(r, t), s_dim(r, t + 1)
        L1 = n * sd1
        old_B, old_rows = self.B, self.rows
        old_pivots = np.array(self.row_piv, dtype=np.int64)
        mono_maps = [mult_map(r, t, j) for j in range(r)]
        # seed with the Y_1-shift: echelon already, pivots strictly increase
        self.B = np.zeros((old_rows + max(16, old_rows // 2), L1), dtype=np.uint8)
        self.piv = {}
        self.row_piv = []
        self.rows = 0
        self._scratch = np.zeros(L1, dtype=np.uint8)
        if old_rows:
            # scatter whole n-blocks: fancy index on the monomial axis only
            self.B[:old_rows].reshape(old_rows, sd1, n)[:, mono_maps[0]] = old_B[
                :old_rows
            ].reshape(old_rows, sd, n)
            seeds = mono_maps[0][old_pivots // n] * n + old_pivots % n
            for k in range(old_rows):
                pv = int(seeds[k])
                self.piv[pv] = k
                self.row_piv.append(pv)
            self.rows = old_rows
            chunk = 128
            buf = np.zeros((chunk, L1), dtype=np.uint8)
            for j in range(1, r):
                mm = mono_maps[j]
                hints = mm[old_pivots // n] * n + old_pivots % n
                for k0 in range(0, old_rows, chunk):
                    k1 = min(k0 + chunk, old_rows)
                    m = k1 - k0
                    buf[:m] = 0
                    buf[:m].reshape(m, sd1, n)[:, mm] = old_B[k0:k1].reshape(
                        m, sd, n
                    )
                    for i in range(m):
                        self._insert(buf[i], int(hints[k0 + i]))
        del old_B
        self.t = t + 1
        self.dims.append(self.rows)

    def basis_bytes_next(self):
        L1 = self.n * s_dim(self.r, self.t + 1)
        return (2 * self.rows + max(16, self.rows // 2)) * L1

    def extend_to(self, t_target) -> bool:
        """Advance to degree t_target; False if the memory budget stops us."""
        while self.t < t_target:
            if self.basis_bytes_next() > self.budget:
                self.capped = True
                return False
            self.step()
        return True


def _image_dims(M: KEModule, a: int, t_target: int, budget=DEFAULT_MEMORY_BUDGET):
    """Cached dims of (Im theta^a)_t for t = 0..t_reached, t_reached <= t_target.

    Returns (dims list, reached flag).  a >= p gives zero image.  The
    cache records the budget a capped run used, so a bigger budget can
    retry while an equal one is served the truncated list.
    """
    if a == 0:
        return [M.n * s_dim(M.r, t) for t in range(t_target + 1)], True
    if a >= M.p or M.n == 0:
        return [0] * (t_target + 1), True
    cache = M._cache.setdefault("image_dims", {})
    entry = cache.get(a)
    if entry is not None:
        dims, capped_at = entry
        if len(dims) > t_target:
            return dims[: t_target + 1], True
        if capped_at is not None and budget <= capped_at:
            return list(dims), False
    tracker = _ImageTracker(M, a, budget)
    reached = tracker.extend_to(t_target)
    dims = list(tracker.dims)
    cache[a] = (dims, None if reached else budget)
    del tracker
    return dims, reached


def prefetch_image_dims(M: KEModule, max_power: int, t_target: int, budget=DEFAULT_MEMORY_BUDGET):
    """Warm the per-module cache so graded_dim calls never restart a tracker."""
    for a in range(1, min(max_power, M.p - 1) + 1):
        _image_dims(M, a, t_target, budget)


def _rank_theta(M: KEModule, a: int, e: int, budget=DEFAULT_MEMORY_BUDGET):
    """R(a, e): rank of theta^a on the degree-e piece; None past the budget."""
    if e < 0:
        return 0
    if a == 0:
        return M.n * s_dim(M.r, e)
    dims, reached = _image_dims(M, a, e + a, budget)
    if e + a < len(dims):
        return dims[e + a]
    return None


# ---------------------------------------------------------------------------
# fibers at points


@dataclasses.dataclass(frozen=True)
class FiberReport:
    point: Point
    dims: tuple  # dims[i-1] = dim F_{i,alpha}(M)

    def dim(self, i: int) -> int:
        return self.dims[i - 1]


def fiber(M: KEModule, alpha: Point) -> FiberReport:
    """Exact fiber dimensions at alpha, from explicit subspace bases.

    Computed from dim(Ker X n Im X^i) = dim Ker X + dim Im X^i - rank[K | W_i]
    rather than from the Jordan-type rank formula, so the two routes check
    each other.  K is a kernel basis of X = X_alpha, W_i the pivot columns
    of X^i, all over GF(p) with each GF(p^e) entry of X_alpha replaced by
    its e x e companion block.  Kernels, images and their intersections
    under a GF(p^e)-linear map are GF(p^e)-subspaces, so each dimension
    over GF(p) is exactly e times the one over GF(p^e).
    """
    ctx = alpha.ctx
    p, e = M.p, ctx.e
    Xa = x_alpha(M, alpha).array
    B = gfalg.blocked_over_prime(ctx, Xa) if e > 1 else Xa.astype(np.uint8)
    K = gfalg.kernel_p(B, p)
    kerdim = K.shape[1]
    meets = []
    Bi = np.eye(B.shape[0], dtype=np.uint8)
    for i in range(p + 1):
        if i:
            Bi = matmul_p(B, Bi, p)
        _, pivots = gfalg.rref_p(Bi, p)
        stacked = np.hstack([K, Bi[:, pivots]])
        meet = kerdim + len(pivots) - gfalg.rank_p(stacked, p)
        assert meet % e == 0
        meets.append(meet // e)
    dims = tuple(meets[i - 1] - meets[i] for i in range(1, p + 1))
    return FiberReport(alpha, dims)


# ---------------------------------------------------------------------------
# graded dimensions


def graded_dim(M: KEModule, i: int, j: int, d: int, budget=DEFAULT_MEMORY_BUDGET):
    """Dimension of the degree-d piece of the (i, j) graded subquotient."""
    if not (0 <= j < i <= M.p):
        raise ValueError(f"need 0 <= j < i <= p, got i={i} j={j}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    e = d - i + j
    parts = [
        _rank_theta(M, i - 1, e + 1, budget),
        _rank_theta(M, i + 1, e, budget),
        _rank_theta(M, i, e + 1, budget),
        _rank_theta(M, i, e, budget),
    ]
    if any(x is None for x in parts):
        raise StabilizationFailedError(
            f"memory budget exhausted computing graded dimension at degree {d}"
        )
    return parts[0] + parts[1] - parts[2] - parts[3]


def graded_dim_subspace(M: KEModule, i: int, j: int, d: int):
    """Audit route: the same dimension from explicit kernels and images.

    Builds bases for Ker theta^{j+1}, the images, and their sums and
    intersections degreewise.  Exponential-free but dense; small inputs only.
    """
    if not (0 <= j < i <= M.p):
        raise ValueError(f"need 0 <= j < i <= p, got i={i} j={j}")
    theta = ThetaOp(M)
    p = M.p
    n_d = M.n * s_dim(M.r, d)

    def im_basis(b):
        # basis of (Im theta^b)_d
        if b == 0:
            return np.eye(n_d, dtype=np.uint8)
        if d - b < 0:
            return np.zeros((n_d, 0), dtype=np.uint8)
        A = theta.power_matrix(b, d - b).array
        _, pivots = gfalg.rref_p(A, p)
        return A[:, pivots] if pivots else np.zeros((n_d, 0), dtype=np.uint8)

    def ker_basis(u):
        # basis of (Ker theta^u)_d
        if u == 0:
            return np.zeros((n_d, 0), dtype=np.uint8)
        A = theta.power_matrix(u, d).array
        return gfalg.kernel_p(A, p)

    def intersect(U, W):
        if U.shape[1] == 0 or W.shape[1] == 0:
            return np.zeros((n_d, 0), dtype=np.uint8)
        K = gfalg.kernel_p(np.hstack([U, (-W.astype(np.int64)) % p]), p)
        return matmul_p(U, K[: U.shape[1]], p) if K.shape[1] else np.zeros(
            (n_d, 0), dtype=np.uint8
        )

    def span_dim(*mats):
        cat = np.hstack(mats) if mats else np.zeros((n_d, 0), dtype=np.uint8)
        return gfalg.rank_p(cat, p) if cat.shape[1] else 0

    num = intersect(ker_basis(j + 1), im_basis(i - j - 1))
    den_a = intersect(ker_basis(j + 1), im_basis(i - j))
    den_b = intersect(ker_basis(j), im_basis(i - j - 1))
    return span_dim(num) - span_dim(den_a, den_b)


# ---------------------------------------------------------------------------
# Hilbert data


@dataclasses.dataclass(frozen=True)
class HilbertData:
    """Sampled graded dimensions and the fitted Hilbert polynomial."""

    i: int
    j: int
    r: int
    samples: dict  # degree -> dimension
    fitted: tuple  # Fraction coefficients, lowest first
    stable_from: int
    d_max: int
    d_max_requested: int
    extensions: int = 0

    @property
    def capped(self) -> bool:
        return self.d_max < self.d_max_requested

    def rank(self) -> int:
        """(r-1)! times the leading coefficient; the rank of the bundle."""
        from math import factorial

        if not self.fitted:
            return 0
        if len(self.fitted) - 1 != self.r - 1:
            # lower-degree polynomial: rank 0 unless constant nonzero on P^0
            return 0 if self.r > 1 else int(self.fitted[0])
        v = self.fitted[-1] * factorial(self.r - 1)
        assert v.denominator == 1
        return int(v)

    def describe(self) -> str:
        cap = " (degree window capped by memory budget)" if self.capped else ""
        return (
            f"F_{self.i}: fitted chi(d) = {polyd.as_str(self.fitted)}, "
            f"stable from degree {self.stable_from}, "
            f"samples up to degree {self.d_max}{cap}"
        )


def _require_constant(M: KEModule):
    if M.constant_by_construction:
        return
    verdict = check_constant(M, SamplingPlan(extra=40))
    if isinstance(verdict, Falsified):
        raise NotConstantError(
            f"module is not of constant Jordan type: witness {verdict.witness}"
        )


def hilbert(
    M: KEModule,
    i: int,
    d_max: int | None = None,
    *,
    budget: int = DEFAULT_MEMORY_BUDGET,
    skip_constancy_check: bool = False,
) -> HilbertData:
    """Sampled Hilbert function of the i-th graded subquotient, with exact fit.

    Samples run through d = 0..D with D defaulting to dim M + p + 5 (a
    regularity proxy; the memory budget may cap it lower, and the report
    says so).  The fit is accepted when one polynomial of degree <= r-1
    reproduces a tail window of length >= r+3; otherwise the window is
    extended twice by r+3 before StabilizationFailedError.
    """
    if not 1 <= i <= M.p:
        raise ValueError(f"functor index must be in 1..p, got {i}")
    if not skip_constancy_check:
        _require_constant(M)
    requested = d_max if d_max is not None else M.n + M.p + 5
    window = M.r + 3
    D = requested
    extensions = 0
    while True:
        prefetch_image_dims(M, i + 1, D + 1, budget)
        samples = {}
        reached = D
        for d in range(D + 1):
            try:
                samples[d] = graded_dim(M, i, 0, d, budget)
            except StabilizationFailedError:
                reached = d - 1
                break
        if reached < window:
            raise StabilizationFailedError(
                f"could not sample past degree {reached}; "
                "memory budget too small for this module"
            )
        top = [(d, samples[d]) for d in range(reached - window + 1, reached + 1)]
        fitted = polyd.fit_integer_samples(top, M.r - 1)
        if fitted is not None:
            stable_from = reached - window + 1
            while stable_from > 0 and polyd.evaluate(
                fitted, stable_from - 1
            ) == samples[stable_from - 1]:
                stable_from -= 1
            return HilbertData(
                i=i,
                j=0,
                r=M.r,
                samples={d: samples[d] for d in range(reached + 1)},
                fitted=fitted,
                stable_from=stable_from,
                d_max=reached,
                d_max_requested=requested,
                extensions=extensions,
            )
        if extensions >= 2 or reached < D:
            raise StabilizationFailedError(
                f"window of length {window} ending at degree {reached} is not "
                f"polynomial of degree <= {M.r - 1}"
            )
        extensions += 1
        D += window


def twist_shift_check(
    M: KEModule, i: int, j: int, d_range=None, budget=DEFAULT_MEMORY_BUDGET
) -> bool:
    """graded_dim(M, i, j, d) == graded_dim(M, i, 0, d + j) over the range."""
    if not (0 <= j < i <= M.p):
        raise ValueError(f"need 0 <= j < i <= p, got i={i} j={j}")
    if d_range is None:
        d_range = range(0, min(M.n + M.p + 5, 12) + 1)
    d_range = list(d_range)
    prefetch_image_dims(M, i + 1, max(d_range) + j + 2, budget)
    return all(
        graded_dim(M, i, j, d, budget) == graded_dim(M, i, 0, d + j, budget)
        for d in d_range
    )


def filtration_check(M: KEModule, d_range=None, budget=DEFAULT_MEMORY_BUDGET) -> bool:
    """dim M * dim S_d == sum over i, j of graded_dim(M, i, 0, d + j)."""
    if d_range is None:
        d_range = range(0, min(M.n + M.p + 5, 10) + 1)
    d_range = list(d_range)
    prefetch_image_dims(M, M.p + 1, max(d_range) + M.p + 1, budget)
    for d in d_range:
        total = 0
        for i in range(1, M.p + 1):
            for j in range(i):
                total += graded_dim(M, i, 0, d + j, budget)
        if total != M.n * s_dim(M.r, d):
            return False
    return True
