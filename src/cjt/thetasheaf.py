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
generated by theta^a(M (x) 1).  The tracker below carries an echelon
basis of that submodule one degree at a time: the Y_j-shifts of the
current basis span the next degree, and one gfalg.echelon_p call on them
all gives that degree's basis and pivots.  Assembling the matrix of
theta^a from scratch per degree is kept (as ThetaOp.power_matrix) for
audits and small cases.

As mult_map is strictly increasing, the pivots are leading terms in a
graded term-over-position order, and the stacked shifts are a Macaulay
matrix, as in F4.  The tracker stops once the new leading terms form a
certified Groebner basis.  The numerator N = sum c_k t^k of its Hilbert
series then follows from them by a colon recursion, so R(a, e) =
sum_k c_k dim S_{e+a-k} in every degree and Hilbert polynomials are exact.

Fibers at points are computed independently of jordan_type_at, from
explicit kernel and image bases of powers of X_alpha, held as digit
vectors over GF(p^e) and eliminated by gfalg.echelon_p with the point's
field; one reduced echelon form of X_alpha gives both the kernel and
Im X_alpha, and one elimination per power gives the next image and its
meet with the kernel.  Both routes form each next image with one
gfalg.matmul_p on digit vectors.  fiber builds the encoded matrix
entrywise (x_alpha); jordan_type_at builds its digits in
kemod._digit_stack, one float32 product of the actions with the
coordinates' digits, as the constancy sampler does.  Sharing neither
that construction nor the dimension formula, each route checks the
other.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from collections import Counter
from math import comb, factorial
from operator import le

import numpy as np

from . import gfalg, polyd
from .errors import Failure, InputError
from .gfalg import matmul_p
from .kemod import (
    DEFAULT_MEMORY_BUDGET,
    Falsified,
    KEModule,
    Point,
    ResourceCapError,
    SamplingPlan,
    check_constant,
    x_alpha,
)

MAX_DEGREE = 10_000  # largest d_max hilbert accepts; samples grow linearly in it


class StabilizationFailedError(ResourceCapError):
    """Certifying the image of theta^a would need more than the memory budget."""


class NotConstantError(Failure, ValueError):
    """hilbert() needs constant Jordan type and the checker falsified it."""


# ---------------------------------------------------------------------------
# monomial bases of S_d = k[Y_1..Y_r]_d


@functools.lru_cache(maxsize=None)
def monomials(r: int, d: int):
    """Exponent tuples of degree d in r variables, lexicographic order."""
    return tuple(_compositions(d, r)) if d >= 0 else ()


def _compositions(d, r):
    """Compositions of d into r parts, in lexicographic order."""
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

    def degree_matrix(self, d: int):
        """theta_d : (M (x) S)_d -> (M (x) S)_{d+1} as a uint8 matrix over GF(p)."""
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
        return A

    def power_matrix(self, a: int, d: int):
        """theta^a starting in degree d, as a product of degree matrices."""
        M = self.module
        out = np.eye(M.n * s_dim(M.r, d), dtype=np.uint8)
        for t in range(a):
            out = matmul_p(self.degree_matrix(d + t), out, M.p)
        return out


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
    """Echelon basis B of (Im theta^a)_t, advanced one degree at a time.

    A pivot is a new leading term when it is no Y_j-shift of a pivot one
    degree lower (every pivot of degree a is new).
    """

    def __init__(self, module: KEModule, a: int):
        assert a >= 1
        self.a = a
        self.p, self.r, self.n = module.p, module.r, module.n
        # generators: theta^a applied to the module sitting in degree 0
        V = np.eye(self.n, dtype=np.uint8)
        for t in range(a):
            V = _apply_theta(module, V, t)
        self.t = a
        self._echelonize(V)
        self.leading = {}  # component -> exponents of its new leading terms
        self.certify_at = a
        self._record_leading_terms(self.pivots)

    def _echelonize(self, V):
        R, pivots = gfalg.echelon_p(V, self.p)
        self.rows = len(pivots)
        self.B = R[: self.rows].copy()  # a copy, so R's zero rows are freed
        self.pivots = np.array(pivots, dtype=np.int64)

    def step(self):
        """Advance the image basis from degree t to t+1.

        The Y_j-shifts of a basis of degree t span degree t+1, and the
        shift of a row has the shifted pivot, as mult_map is increasing.
        """
        n, r, t, rows = self.n, self.r, self.t, self.rows
        sd, sd1 = s_dim(r, t), s_dim(r, t + 1)
        shifts = np.zeros((r, rows, sd1, n), dtype=np.uint8)
        shifted = []
        for j in range(r):
            mm = mult_map(r, t, j)
            # scatter whole n-blocks: fancy index on the monomial axis only
            shifts[j][:, mm] = self.B.reshape(rows, sd, n)
            shifted.append(mm[self.pivots // n] * n + self.pivots % n)
        self.t = t + 1
        self._echelonize(shifts.reshape(r * rows, n * sd1))
        # the new pivots that are no shifted old pivot, in increasing order
        fresh = np.ones(n * sd1, dtype=bool)
        fresh[np.concatenate(shifted)] = False
        self._record_leading_terms(self.pivots[fresh[self.pivots]])

    def step_bytes(self) -> int:
        """Bytes of the arrays the next step() holds at once, at its peak.

        B itself, its r stacked shifts, the copy echelon_p eliminates in,
        and the new basis copied out of that while the rest are still live.
        """
        L0, L1 = (self.n * s_dim(self.r, t) for t in (self.t, self.t + 1))
        stacked = self.r * self.rows
        return self.rows * L0 + (2 * stacked + min(stacked, L1)) * L1

    def _record_leading_terms(self, pivots):
        mons = monomials(self.r, self.t)
        for pv in pivots:
            mono, c = mons[int(pv) // self.n], int(pv) % self.n
            terms = self.leading.setdefault(c, [])
            for g in terms:  # degree of the lcm, where their S-pair lives
                self.certify_at = max(self.certify_at, sum(map(max, g, mono)))
            terms.append(mono)
            self.certify_at = max(self.certify_at, self.t)

    def certify(self):
        """Step until the new leading terms form a Groebner basis.

        At t >= certify_at every S-pair of two new terms in one component
        has passed; its leading term is a pivot of its degree, so lies in
        the module the new terms generate, and it reduces to zero
        (Buchberger's criterion).  So do the generators theta^a(M (x) 1).
        """
        while self.t < self.certify_at:
            if self.step_bytes() > DEFAULT_MEMORY_BUDGET:
                raise StabilizationFailedError(
                    f"certifying the image of theta^{self.a} past degree "
                    f"{self.t} needs more than "
                    f"{DEFAULT_MEMORY_BUDGET >> 20} MB of elimination storage"
                )
            self.step()


def _hilbert_numerator(gens):
    """{k: c_k} with Hilbert series of the ideal (gens) = sum c_k t^k / (1 - t)^r.

    gens are exponent tuples.  Colon recursion on the last minimal
    generator m: HS(I + (m)) = HS(I) + t^deg(m) HS(S / (I : m)), where
    I : m is generated by lcm(g, m) / m over the other generators g.
    """
    gens = [g for g in set(gens) if not any(h != g and all(map(le, h, g)) for h in gens)]
    if not gens:
        return {}
    *rest, m = sorted(gens)
    out, d = Counter(_hilbert_numerator(rest)), sum(m)
    out[d] += 1
    colon = [tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest]
    out.subtract({k + d: c for k, c in _hilbert_numerator(colon).items()})
    return {k: c for k, c in out.items() if c}


def _certified_image(M: KEModule, a: int):
    """(T, N) for Im theta^a, cached per power.

    T is the certificate degree and N = {k: c_k} the numerator of the
    Hilbert series of Im theta^a, summed over the ideals of the leading
    terms of each component.  Im theta^0 is M (x) S; Im theta^a = 0 for a >= p.
    """
    if a == 0 or a >= M.p or not M.n:
        return 0, ({0: M.n} if a == 0 else {})
    cache = M._cache.setdefault("image_gb", {})
    if a not in cache:
        tracker = _ImageTracker(M, a)
        tracker.certify()
        num = Counter()
        for terms in tracker.leading.values():
            num.update(_hilbert_numerator(terms))
        cache[a] = (tracker.t, num)
    return cache[a]


def prefetch_image_dims(M: KEModule, powers):
    """Certify the images of theta^a for a in powers; their (T, N)."""
    return [_certified_image(M, a) for a in powers]


def _rank_theta(M: KEModule, a: int, e: int) -> int:
    """R(a, e): rank of theta^a on the degree-e piece (k >= a in N_a, so 0 if e < 0)."""
    _, num = _certified_image(M, a)
    return sum(c * s_dim(M.r, e + a - k) for k, c in num.items())


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

    Computed from dim(Ker X n Im X^i) = dim Ker X + dim Im X^i - rank[W_i | K]
    rather than from the Jordan-type rank formula, so the two routes check
    each other.  X = X_alpha is built entrywise by x_alpha and eliminated
    over GF(p^e) on its digit vectors (gfalg.echelon_p).  Its reduced
    echelon form gives the kernel basis K, the identity at the free
    columns, and W_1, the pivot columns of X.  W_i is the pivot columns of
    U = X W_{i-1}, one matmul_p on digit vectors.  One elimination of
    [U | K] per power gives both: U's pivot columns are those of [U | K]
    left of U's width (the column rank profile is prefix-stable), and
    their total count is rank [U | K] = rank [W_i | K].  Only 0 < i < p is
    eliminated: the meet is Ker X at i = 0 and 0 at i = p.
    """
    ctx = alpha.ctx
    p, n = M.p, M.n
    D = ctx.digit_array(x_alpha(M, alpha)).astype(np.uint8)
    R, pivots = gfalg.echelon_p(D, p, reduced=True, ctx=ctx)
    K = gfalg.kernel_from_rref(R, pivots, n, p)
    kerdim = K.shape[1]
    meets = [kerdim] + [0] * p
    U = D[:, pivots]
    for i in range(1, p):
        if i > 1:
            U = matmul_p(D, W, p, ctx)
        _, found = gfalg.echelon_p(np.concatenate((U, K), axis=1), p, ctx=ctx)
        rank = bisect.bisect_left(found, U.shape[1])
        if not rank:
            break
        W = U[:, found[:rank]]
        meets[i] = kerdim + rank - len(found)
    dims = tuple(meets[i - 1] - meets[i] for i in range(1, p + 1))
    return FiberReport(alpha, dims)


# ---------------------------------------------------------------------------
# graded dimensions


def graded_dim(M: KEModule, i: int, j: int, d: int):
    """Dimension of the degree-d piece of the (i, j) graded subquotient."""
    if not (0 <= j < i <= M.p):
        raise InputError(f"need 0 <= j < i <= p, got i={i} j={j}")
    if d < 0:
        raise InputError("degree must be nonnegative")
    e = d - i + j
    return (
        _rank_theta(M, i - 1, e + 1)
        + _rank_theta(M, i + 1, e)
        - _rank_theta(M, i, e + 1)
        - _rank_theta(M, i, e)
    )


def graded_dim_subspace(M: KEModule, i: int, j: int, d: int):
    """Audit route: the same dimension from explicit kernels and images.

    Builds bases for Ker theta^{j+1}, the images, and their sums and
    intersections degreewise.  Exponential-free but dense; small inputs only.
    """
    if not (0 <= j < i <= M.p):
        raise InputError(f"need 0 <= j < i <= p, got i={i} j={j}")
    theta = ThetaOp(M)
    p = M.p
    n_d = M.n * s_dim(M.r, d)

    def im_basis(b):
        # basis of (Im theta^b)_d
        if b == 0:
            return np.eye(n_d, dtype=np.uint8)
        if d - b < 0:
            return np.zeros((n_d, 0), dtype=np.uint8)
        A = theta.power_matrix(b, d - b)
        _, pivots = gfalg.echelon_p(A, p)
        return A[:, pivots] if pivots else np.zeros((n_d, 0), dtype=np.uint8)

    def ker_basis(u):
        # basis of (Ker theta^u)_d
        if u == 0:
            return np.zeros((n_d, 0), dtype=np.uint8)
        A = theta.power_matrix(u, d)
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
    """Graded dimensions and the certified Hilbert polynomial."""

    i: int
    r: int
    samples: dict  # degree -> dimension
    fitted: tuple  # Fraction coefficients, lowest first
    stable_from: int
    d_max: int
    certified_degree: int  # largest Groebner-basis certificate degree used

    def rank(self) -> int:
        """(r-1)! times the leading coefficient; the rank of the bundle."""
        if not self.fitted:
            return 0
        if len(self.fitted) - 1 != self.r - 1:
            # lower-degree polynomial: rank 0 unless constant nonzero on P^0
            return 0 if self.r > 1 else int(self.fitted[0])
        v = self.fitted[-1] * factorial(self.r - 1)
        assert v.denominator == 1
        return int(v)


def _require_constant(M: KEModule):
    if M.constant_by_construction:
        return
    verdict = check_constant(M, SamplingPlan(extra=40))
    if isinstance(verdict, Falsified):
        raise NotConstantError(
            f"module is not of constant Jordan type: witness {verdict.witness}"
        )


def hilbert(M: KEModule, i: int, d_max: int | None = None) -> HilbertData:
    """Hilbert function of the i-th graded subquotient and its exact polynomial.

    graded_dim(M, i, 0, d) is a signed sum of c_k * dim S_{d+shift-k} over
    the Hilbert numerators of the images of theta^{i-1}, theta^i and
    theta^{i+1}.  dim S_x = binom(x + r - 1, r - 1) is polynomial in x > -r,
    so the same sum of binomial_poly is the Hilbert polynomial, exact from
    the first d where every x > -r; stable_from walks back from there.
    d_max (default dim M + p + 5; given, 0..MAX_DEGREE) sets the last
    reported sample.
    """
    if not 1 <= i <= M.p:
        raise InputError(f"functor index must be in 1..p, got {i}")
    if d_max is None:
        d_max = M.n + M.p + 5
    elif not 0 <= d_max <= MAX_DEGREE:
        raise InputError(f"d_max must be in 0..{MAX_DEGREE}, got {d_max}")
    _require_constant(M)
    images = prefetch_image_dims(M, (i - 1, i, i + 1))
    certified = max(T for T, _ in images)
    lower, mid, upper = (num for _, num in images)
    fitted, stable_from = polyd.ZERO, 0
    for sign, shift, num in ((1, 0, lower), (-1, 0, mid), (-1, 1, mid), (1, 1, upper)):
        for k, c in num.items():  # sign * c * dim S_{d+shift-k}
            term = polyd.binomial_poly(shift - k, M.r)
            fitted = polyd.add(fitted, polyd.scale(sign * c, term))
            stable_from = max(stable_from, k - shift - M.r + 1)
    values = [graded_dim(M, i, 0, d) for d in range(max(d_max, stable_from) + 1)]
    while stable_from > 0 and polyd.evaluate(fitted, stable_from - 1) == values[
        stable_from - 1
    ]:
        stable_from -= 1
    return HilbertData(
        i=i,
        r=M.r,
        samples={d: values[d] for d in range(d_max + 1)},
        fitted=fitted,
        stable_from=stable_from,
        d_max=d_max,
        certified_degree=certified,
    )


def twist_shift_check(M: KEModule, i: int, j: int, d_range=range(2)) -> bool:
    """graded_dim_subspace(M, i, j, d) == graded_dim(M, i, 0, d + j) over the range.

    graded_dim depends on j only through d - i + j, so the (i, j) side
    comes from the explicit kernels and images of graded_dim_subspace.
    """
    if not (0 <= j < i <= M.p):
        raise InputError(f"need 0 <= j < i <= p, got i={i} j={j}")
    return all(
        graded_dim_subspace(M, i, j, d) == graded_dim(M, i, 0, d + j)
        for d in d_range
    )


def filtration_check(M: KEModule, d_range=range(2)) -> bool:
    """dim M * dim S_d == sum over i, j of graded_dim_subspace(M, i, j, d).

    The same sum of closed-form graded_dim(M, i, 0, d + j) telescopes to
    dim M * dim S_d for any ranks R(a, e), so the explicit route is summed.
    """
    return all(
        sum(
            graded_dim_subspace(M, i, j, d)
            for i in range(1, M.p + 1)
            for j in range(i)
        )
        == M.n * s_dim(M.r, d)
        for d in d_range
    )
