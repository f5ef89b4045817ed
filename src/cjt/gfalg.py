"""Exact arithmetic over GF(p) and GF(p^e), with deterministic dense linear algebra.

Elements of GF(p^e) are encoded as integers in ``[0, p^e)``: the base-p
digits of the encoding are the coefficients of the residue polynomial,
least significant digit first.  The prime field is the case e = 1 with
modulus ``t`` (encoded as (0, 1)).

Extension moduli are never looked up in a table: ``build_field`` scans
monic polynomials in increasing encoding order and keeps the first
irreducible one, so the same (p, e) always yields the same field.

Ranks over GF(p^e) are ranks over GF(p) of the companion-blocked matrix,
divided by e.  Only ``kernel_basis`` and ``solve``, whose outputs are
encoded, eliminate on encoded entries.

All pivoting is first-nonzero-in-scan-order, so ranks, kernel bases and
solve outputs are bit-stable across runs.  Values are immutable after
construction; every function here is pure.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

# largest p^e build_field accepts (GF(13^4), the largest field a default
# SamplingPlan reaches): building scans p^e polynomials and fills p^e tables
MAX_FIELD_ORDER = 13**4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p): tuples of ints, lowest coefficient first


def _poly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_mod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    while len(f) - 1 >= dm and f:
        lead = f[-1] % p
        if lead:
            shift = len(f) - 1 - dm
            for j, c in enumerate(m):
                f[shift + j] = (f[shift + j] - lead * c) % p
        f.pop()
    return _poly_trim(f)


def _poly_is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)//2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            # long division remainder
            if not _poly_mod(f, g, p):
                return False
    return True


def _least_irreducible(p, e):
    """Lexicographically least monic irreducible of degree e over GF(p).

    The scan order is the integer encoding of the non-leading part
    (constant coefficient = least significant digit), i.e.
    t^e, t^e + 1, ..., t^e + (p-1), t^e + t, ...
    """
    if e == 1:
        return (0, 1)
    for enc in range(p**e):
        tail = []
        v = enc
        for _ in range(e):
            tail.append(v % p)
            v //= p
        f = tuple(tail) + (1,)
        if _poly_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def poly_str(f, var="t"):
    if not f:
        return "0"
    terms = []
    for j in range(len(f) - 1, -1, -1):
        c = f[j]
        if not c:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            v = var if j == 1 else f"{var}^{j}"
            terms.append(v if c == 1 else f"{c}{v}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# field contexts


class FieldCtx:
    """GF(p^e) with a fixed monic irreducible modulus.

    Encoded elements are plain Python ints (or numpy integer arrays for
    the vectorized helpers).  Do not construct directly; use
    :func:`build_field` so contexts are cached and shared.
    """

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._inv_p = [0] * p
        for v in range(1, p):
            self._inv_p[v] = pow(v, p - 2, p)
        if e > 1:
            self._build_tables()

    # -- encoding helpers

    def digits(self, x: int):
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, digits) -> int:
        x = 0
        for c in reversed(tuple(digits)):
            x = x * self.p + (c % self.p)
        return x

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        # multiplication by t in encoded form
        red = self.encode(c % p for c in self.modulus[:-1])

        def mul_t(x):
            lead = x // (q // p)
            x = (x % (q // p)) * p
            if lead:
                # subtract lead * modulus tail
                y = 0
                for j in range(e - 1, -1, -1):
                    dj = (x // p**j) % p
                    rj = (red // p**j) % p
                    y = y * p + (dj - lead * rj) % p
                x = y
            return x

        def raw_mul(a, b):
            acc = 0
            ta = a
            for j in range(e):
                db = (b // p**j) % p
                if db:
                    # acc += db * ta, digitwise
                    y = 0
                    for k in range(e - 1, -1, -1):
                        y = y * p + ((acc // p**k) % p + db * ((ta // p**k) % p)) % p
                    acc = y
                ta = mul_t(ta)
            return acc

        # find a generator of the multiplicative group
        for g in range(2, q):
            x = g
            order = 1
            while x != 1:
                x = raw_mul(x, g)
                order += 1
            if order == q - 1:
                break
        exp = np.zeros(2 * q, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = raw_mul(x, g)
        exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
        self._exp, self._log = exp, log

    # -- scalar operations on encoded elements

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.encode(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.encode(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.e == 1:
            return self._inv_p[a]
        return int(self._exp[(self.q - 1) - self._log[a]])

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def elements(self):
        return range(self.q)

    # -- vectorized operations on int64 arrays of encoded elements

    def arr_add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        out = np.zeros_like(a)
        pk = 1
        for _ in range(self.e):
            out += pk * ((a // pk + b // pk) % self.p)
            pk *= self.p
        return out

    def arr_mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        a = np.asarray(a)
        b = np.asarray(b)
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        la = self._log[np.where(a == 0, 1, a)]
        lb = self._log[np.where(b == 0, 1, b)]
        prod = self._exp[la + lb]
        out[nz] = np.broadcast_to(prod, out.shape)[nz]
        return out

    def arr_scale(self, c, a):
        return self.arr_mul(np.int64(c), a)

    # -- companion-matrix embedding into Mat_e(GF(p))

    @functools.cached_property
    def companion(self):
        """e x e companion matrix of the modulus over GF(p)."""
        e, p = self.e, self.p
        C = np.zeros((e, e), dtype=np.uint8)
        for j in range(e - 1):
            C[j + 1, j] = 1
        for j in range(e):
            C[j, e - 1] = (-self.modulus[j]) % p
        return C

    def element_matrix(self, a: int):
        """The e x e matrix of multiplication by the encoded element a."""
        e, p = self.e, self.p
        out = np.zeros((e, e), dtype=np.uint8)
        Ck = np.eye(e, dtype=np.uint8)
        for d in self.digits(a):
            if d:
                out = (out + d * Ck.astype(np.int64)) % p
            Ck = (Ck.astype(np.int64) @ self.companion) % p
            Ck = Ck.astype(np.uint8)
        return out.astype(np.uint8)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}; {poly_str(self.modulus)})"

    def __str__(self):
        return repr(self)


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int = 1) -> FieldCtx:
    """Field context for GF(p^e) with the least monic irreducible modulus."""
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p = {p} outside the supported range {SUPPORTED_PRIMES}")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if p**e > MAX_FIELD_ORDER:
        raise ValueError(f"GF({p}^{e}) exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
    return FieldCtx(p, e, _least_irreducible(p, e))


# ---------------------------------------------------------------------------
# matrices


class FFMatrix:
    """Dense matrix over a FieldCtx; entries are encoded field elements."""

    __slots__ = ("ctx", "array")

    def __init__(self, ctx: FieldCtx, array):
        arr = np.array(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("FFMatrix needs a 2-d array")
        if arr.size and (arr.min() < 0 or arr.max() >= ctx.q):
            if ctx.e == 1:
                arr %= ctx.p
            else:
                # encoded extension elements do not wrap arithmetically
                raise ValueError("entries must already be encoded in [0, q)")
        arr.setflags(write=False)
        self.ctx = ctx
        self.array = arr

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.ctx is other.ctx
            and self.array.shape == other.array.shape
            and bool(np.all(self.array == other.array))
        )

    def __repr__(self):
        return f"FFMatrix({self.ctx}, {self.array.tolist()})"


def ff_identity(ctx: FieldCtx, n: int) -> FFMatrix:
    return FFMatrix(ctx, np.eye(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# prime-field elimination core (uint8 arrays, p <= 13)


def rref_p(A, p):
    """Reduced row echelon form over GF(p).  Returns (R, pivot column list).

    A is a 2-d uint8 array; not modified.  Deterministic: pivots are the
    first nonzero entry in scan order.
    """
    R = np.array(A, dtype=np.uint8, copy=True)
    rows, cols = R.shape
    inv = [0] * p
    for v in range(1, p):
        inv[v] = pow(v, p - 2, p)
    pivots = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        col = R[rank:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            R[[rank, pr]] = R[[pr, rank]]
        pv = int(R[rank, c])
        if pv != 1:
            R[rank] = (R[rank].astype(np.int64) * inv[pv]) % p
        other = np.flatnonzero(R[:, c])
        other = other[other != rank]
        if other.size:
            # factors*pivot_row <= 12*12, +entry <= 12: fits in int16
            upd = (
                R[other].astype(np.int16)
                + np.outer((p - R[other, c]).astype(np.int16), R[rank])
            ) % p
            R[other] = upd.astype(np.uint8)
        pivots.append(c)
        rank += 1
    return R, pivots


def rank_p(A, p) -> int:
    """Rank over GF(p) by forward elimination (no back substitution)."""
    R = np.array(A, dtype=np.uint8, copy=True)
    rows, cols = R.shape
    if rows == 0 or cols == 0:
        return 0
    inv = [0] * p
    for v in range(1, p):
        inv[v] = pow(v, p - 2, p)
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
        below = rank + 1 + np.flatnonzero(R[rank + 1 :, c])
        if below.size:
            upd = (
                R[below].astype(np.int16)
                + np.outer((p - R[below, c]).astype(np.int16), R[rank])
            ) % p
            R[below] = upd.astype(np.uint8)
        rank += 1
    return rank


def kernel_p(A, p):
    """Columns form a basis of the right kernel over GF(p) (uint8)."""
    A = np.asarray(A, dtype=np.uint8)
    rows, cols = A.shape
    R, pivots = rref_p(A, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    K = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, f in enumerate(free):
        K[f, k] = 1
        for t, c in enumerate(pivots):
            K[c, k] = (-int(R[t, f])) % p
    return K


def solve_p(A, B, p):
    """One solution X of AX = B over GF(p), or None if inconsistent.

    Free variables are set to zero, so the output is deterministic.
    """
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if B.ndim == 1:
        B = B[:, None]
    rows, cols = A.shape
    aug = np.hstack([A, B])
    R, pivots = rref_p(aug, p)
    for t, c in enumerate(pivots):
        if c >= cols:
            return None
    X = np.zeros((cols, B.shape[1]), dtype=np.uint8)
    for t, c in enumerate(pivots):
        X[c] = R[t, cols:]
    return X


# ---------------------------------------------------------------------------
# generic elimination over GF(p^e) (encoded int64 arrays; small scale only)


def _rref_ext(ctx: FieldCtx, A):
    R = np.array(A, dtype=np.int64, copy=True)
    rows, cols = R.shape
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
            R[rank] = ctx.arr_scale(ctx.inv(pv), R[rank])
        other = np.flatnonzero(R[:, c])
        other = other[other != rank]
        for o in other:
            f = ctx.neg(int(R[o, c]))
            R[o] = ctx.arr_add(R[o], ctx.arr_scale(f, R[rank]))
        pivots.append(c)
        rank += 1
    return R, pivots


def rank(m: FFMatrix) -> int:
    """Rank of m over its field (over GF(p^e), via companion blocks)."""
    return rank_ext(m.ctx, m.array)


def kernel_basis(m: FFMatrix) -> FFMatrix:
    """Basis of the right kernel; columns echelon-normalized and deterministic."""
    ctx = m.ctx
    if ctx.e == 1:
        return FFMatrix(ctx, kernel_p(m.array.astype(np.uint8), ctx.p))
    R, pivots = _rref_ext(ctx, m.array)
    cols = m.cols
    free = [c for c in range(cols) if c not in set(pivots)]
    K = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        K[f, k] = 1
        for t, c in enumerate(pivots):
            K[c, k] = ctx.neg(int(R[t, f]))
    return FFMatrix(ctx, K)


def solve(a: FFMatrix, b: FFMatrix):
    """One solution X of aX = b, or None when the system is inconsistent."""
    if a.ctx is not b.ctx:
        raise ValueError("matrices live over different fields")
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: {a.rows} rows vs {b.rows}")
    ctx = a.ctx
    if ctx.e == 1:
        X = solve_p(a.array.astype(np.uint8), b.array.astype(np.uint8), ctx.p)
        return None if X is None else FFMatrix(ctx, X)
    aug = np.hstack([a.array, b.array])
    R, pivots = _rref_ext(ctx, aug)
    cols = a.cols
    for c in pivots:
        if c >= cols:
            return None
    X = np.zeros((cols, b.cols), dtype=np.int64)
    for t, c in enumerate(pivots):
        X[c] = R[t, cols:]
    return FFMatrix(ctx, X)


# ---------------------------------------------------------------------------
# helpers shared by the module layer (prime-field uint8 matrices)


def matmul_p(A, B, p):
    """Exact A @ B mod p.  Uses float64 BLAS for larger sizes.

    Inner products are exact in float64: entries < 13, so the dot of two
    rows of length up to ~5e10 stays below 2^53.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    if max(A.shape[0], A.shape[1], B.shape[1]) >= 48:
        C = np.rint(A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    else:
        C = A.astype(np.int64) @ B.astype(np.int64)
    return (C % p).astype(np.uint8)


def matpow_p(A, k, p):
    n = A.shape[0]
    out = np.eye(n, dtype=np.uint8)
    for _ in range(k):
        out = matmul_p(out, A, p)
    return out


def blocked_over_prime(ctx: FieldCtx, M):
    """Replace each encoded GF(p^e) entry of M by its e x e matrix over GF(p).

    rank over GF(p^e) equals rank of the blocked matrix over GF(p),
    divided by e.
    """
    M = np.asarray(M, dtype=np.int64)
    rows, cols = M.shape
    e = ctx.e
    out = np.zeros((rows * e, cols * e), dtype=np.uint8)
    cache = {}
    for i in range(rows):
        for j in range(cols):
            v = int(M[i, j])
            if v == 0:
                continue
            blk = cache.get(v)
            if blk is None:
                blk = cache[v] = ctx.element_matrix(v)
            out[i * e : (i + 1) * e, j * e : (j + 1) * e] = blk
    return out


def rank_ext(ctx: FieldCtx, M) -> int:
    """Rank over GF(p^e) of an encoded matrix, via the blocked embedding."""
    if ctx.e == 1:
        return rank_p(np.asarray(M, dtype=np.uint8), ctx.p)
    r = rank_p(blocked_over_prime(ctx, M), ctx.p)
    assert r % ctx.e == 0
    return r // ctx.e
