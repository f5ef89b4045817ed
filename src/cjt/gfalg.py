"""Exact arithmetic over GF(p) and GF(p^e), with deterministic dense linear algebra.

Elements of GF(p^e) are encoded as integers in ``[0, p^e)``: the base-p
digits of the encoding are the coefficients of the residue polynomial,
least significant digit first.  The prime field is the case e = 1 with
modulus ``t`` (encoded as (0, 1)).

Extension moduli are never looked up in a table: ``build_field`` scans
monic polynomials in increasing encoding order and keeps the first
irreducible one, so the same (p, e) always yields the same field.

Every elimination does its arithmetic over GF(p).  One matrix goes
through one loop: ``echelon_p`` clears below each pivot, or above it too
when ``reduced`` is set, and touches only the columns from the pivot on
(the pivot row is zero left of it).  ``rref_p`` is its reduced form and
``rank_p`` its pivot count; callers that only need pivot columns take
the cheaper unreduced form, since pivot columns do not depend on the
echelon form chosen.  Given a field context, the same loop eliminates a
GF(p^e) matrix held as digit vectors, one step per GF(p^e) column: the
step expands the pivot row into the digits of t^k * row, k < e, and
clears the other rows fraction-free with BLAS products, so no step
inverts an element.  ``jordan_type_at`` and ``fiber`` rank X_alpha and
its powers this way at points over GF(p^e).  The other route blocks a
GF(p^e) matrix, replacing each entry with its e x e companion matrix;
ranks are blocked ranks divided by e, at e column steps per GF(p^e)
pivot.  Blocking is a ring embedding that maps the reduced echelon form
of A to that of blocked(A) (both are unique), so kernels over GF(p^e)
are read back from the GF(p) ones by ``_unblock``; ``kernel_basis`` and
``rank_ext`` take this route, and the tests check the digit form
against it.  The same embedding is the scalar
arithmetic: ``FieldCtx`` multiplies by applying an element's e x e
matrix to digits, and Frobenius is one e x e matrix on digits, so
GF(p^e) has one representation.

Many matrices of one shape go through ``stacked_pivots``, which returns
each matrix's GF(p^e) pivot columns; the constancy sampler uses it, and
builds its stacks in digit form too, never blocked.  Its entries are
digit vectors, and a row operation applies e x e matrices over GF(p)
from the per-field table ``FieldCtx.matrix_table`` to them, so each
entry it updates is e digits, not e^2 blocked cells.  Its loop runs over
rounds, not columns: each round groups the nonzero rows of the whole
stack by (matrix, leading column), keeps the first row of each group and
clears the leading entry of every other one against it, all in one
batch.  When every group has one row, the leading columns are the pivot
columns, which do not depend on the elimination order.  The rounds a
stack takes depend on how many rows share a leading column: on a dense
matrix every row leads at column 0, and a round resolves about one
column.  The sampler therefore builds its stacks in a basis adapted to
the module's radical series (``kemod.layered_actions``), where the rows
of each layer lead in the columns of the layers above it, and a dense
module's stacks take fewer rounds.  At e = 1 it is plain elimination over GF(p).  Its rows and the table are float32, so
each round's row update is a batch of BLAS products whose sums
``reduce_p`` reduces.

Every exact matrix product of residues is a float BLAS product reduced
by ``reduce_p``: ``matmul_p`` in float64; ``FieldCtx.element_matrix``,
the one place e x e element matrices are made (``mul_array``,
``matrix_table`` and ``blocked_over_prime`` read it), and the row
updates of ``stacked_pivots`` and of ``echelon_p`` on digit vectors in
float32.  (``mul_array`` and
Frobenius apply an e x e matrix to single digit vectors, in int64.)  A
product is exact while every sum is an integer below 2^24 in float32
(2^53 in float64); ``reduce_p`` reduces a float array in place with
elementwise float operations, exact below 2^22 in absolute value in
float32 (2^51 in float64), several times faster than an integer
remainder.

All pivoting is first-nonzero-in-scan-order, so ranks, kernel bases and
solve outputs are bit-stable across runs.  Values are immutable after
construction; every function here but ``reduce_p`` is pure.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InputError

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

# largest p^e build_field accepts (GF(13^4), the largest field a default
# SamplingPlan reaches): building scans up to p^e candidate moduli
MAX_FIELD_ORDER = 13**4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _inverses(p):
    """Multiplicative inverses mod p, indexed by residue (0 maps to 0)."""
    return (0,) + tuple(pow(v, p - 2, p) for v in range(1, p))


@functools.lru_cache(maxsize=None)
def _products(p):
    """The p x p table of a * b mod p (uint8), indexed by residues."""
    v = np.arange(p)
    out = (np.outer(v, v) % p).astype(np.uint8)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# polynomials over GF(p): tuples of ints, lowest coefficient first


def _poly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


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
    """GF(p^e) = GF(p)[t]/(modulus), embedded in Mat_e(GF(p)).

    Encoded elements are plain Python ints.  The element with digits
    c_0..c_{e-1} acts on digit vectors as the matrix sum c_k C^k, C the
    companion matrix of the modulus: a product is that matrix applied to
    the other factor's digits, an inverse the product of the other
    Frobenius conjugates divided by the norm.  At e = 1 the matrix of a
    is [[a]].  ``mul_array`` and ``inv_array`` do this elementwise on
    arrays of encoded elements; ``mul`` and ``inv`` are their one-element
    case.  Do not construct directly; use :func:`build_field` so contexts
    are cached and shared.
    """

    def __init__(self, p: int, e: int, modulus):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus

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
            x = x * self.p + int(c) % self.p
        return x

    @functools.cached_property
    def weights(self):
        """p^0 .. p^(e-1): digit vectors encode as their dot with these."""
        return self.p ** np.arange(self.e, dtype=np.int64)

    def digit_array(self, x):
        """Digits of an array of encoded elements, as a new last axis of length e."""
        return np.asarray(x, dtype=np.int64)[..., None] // self.weights % self.p

    # -- operations on encoded elements

    def add(self, a: int, b: int) -> int:
        return self.encode(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        return self.encode(-x for x in self.digits(a))

    def mul_array(self, a, b):
        """Elementwise products of (broadcast) arrays of encoded elements."""
        digits = self.digit_array(b)[..., None]
        return (self.element_matrix(a) @ digits)[..., 0] % self.p @ self.weights

    def inv_array(self, a):
        """Elementwise inverses: a^-1 = b / N(a), b the product of the
        conjugates a^(p^k), 0 < k < e.

        The norm N(a) = a b is fixed by Frobenius, so it lies in GF(p).
        """
        conj = self.digit_array(a)
        if not conj.any(axis=-1).all():
            raise ZeroDivisionError("inverse of zero field element")
        b = 1
        for _ in range(self.e - 1):
            conj = conj @ self.frobenius_matrix.T % self.p
            b = self.mul_array(conj @ self.weights, b)
        norm = self.mul_array(a, b)
        return self.mul_array(b, np.array(_inverses(self.p))[norm])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_array(a))

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def elements(self):
        return range(self.q)

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

    @functools.cached_property
    def companion_powers(self):
        """C^0 .. C^(e-1) over GF(p), as an (e, e * e) float32 array whose
        row k is C^k flattened: element_matrix's right factor."""
        e = self.e
        out = np.zeros((e, e, e), dtype=np.float32)
        out[0] = np.eye(e)
        for k in range(1, e):
            out[k] = reduce_p(out[k - 1] @ self.companion, self.p)
        out = out.reshape(e, e * e)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def frobenius_matrix(self):
        """e x e matrix over GF(p) of a -> a^p on digit vectors (int64).

        Frobenius is GF(p)-linear; column k holds the digits of (t^k)^p.
        """
        cols = [self.digits(self.frobenius(self.p**k)) for k in range(self.e)]
        out = np.array(cols, dtype=np.int64).T
        out.setflags(write=False)
        return out

    def element_matrix(self, a):
        """The e x e matrices of multiplication by encoded elements (uint8),
        as two new last axes of the array a.

        Every element matrix is made here: sum_k digit_k(a) C^k is one
        float32 product of the digits with companion_powers, whose sums are
        at most e (p-1)^2 <= 576, so exact.
        """
        e = self.e
        digits = self.digit_array(a).astype(np.float32)
        mats = reduce_p(digits @ self.companion_powers, self.p).astype(np.uint8)
        return mats.reshape(np.shape(a) + (e, e))

    @functools.cached_property
    def matrix_table(self):
        """The transposed e x e matrices of all q elements, indexed by
        encoding: digits(b) @ matrix_table[a] = digits(a * b) mod p.

        float32, the dtype of stacked_pivots' rows, so its BLAS products
        need no cast; 4 q e^2 bytes, 1.8 MB at GF(13^4), 40 KB at GF(5^4).
        Read by stacked_pivots and the constancy sampler.
        """
        out = self.element_matrix(np.arange(self.q)).transpose(0, 2, 1).astype(np.float32)
        out.setflags(write=False)
        return out

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
        raise InputError(f"p = {p} is not prime")
    if p not in SUPPORTED_PRIMES:
        raise InputError(f"p = {p} outside the supported range {SUPPORTED_PRIMES}")
    if e < 1:
        raise InputError(f"extension degree must be >= 1, got {e}")
    if p**e > MAX_FIELD_ORDER:
        raise InputError(f"GF({p}^{e}) exceeds MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
    return FieldCtx(p, e, _least_irreducible(p, e))


# ---------------------------------------------------------------------------
# matrices


class FFMatrix:
    """Dense matrix over a FieldCtx; entries are encoded field elements."""

    __slots__ = ("ctx", "array")

    def __init__(self, ctx: FieldCtx, array):
        arr = np.array(array, dtype=np.int64)
        if arr.ndim != 2:
            raise InputError("FFMatrix needs a 2-d array")
        if arr.size and (arr.min() < 0 or arr.max() >= ctx.q):
            if ctx.e == 1:
                arr %= ctx.p
            else:
                # encoded extension elements do not wrap arithmetically
                raise InputError("entries must already be encoded in [0, q)")
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


# ---------------------------------------------------------------------------
# prime-field elimination core (uint8 arrays, p <= 13)


def echelon_p(A, p, reduced=False, ctx=None):
    """Row echelon form over GF(p), or over GF(p^e) on digit vectors.
    Returns (R, pivot column list).

    A is a 2-d uint8 array; not modified.  Deterministic: pivots are the
    first nonzero entry in scan order, scaled to 1, and only the rows below
    a pivot are cleared.  With reduced set the rows above are cleared too,
    which gives the (unique) reduced row echelon form.

    Row operations touch only the columns from the pivot column c on: the
    pivot row is zero left of c, since earlier pivot columns were cleared
    below their pivots and skipped columns had no nonzero from row rank
    down, so the cells left of c would not change.

    With ctx, the field GF(p^e), A is a (rows, cols, e) uint8 array of
    digit vectors and so is R; the pivots are GF(p^e) columns, one step
    each.  At e = 1 this is the uint8 loop above on A[..., 0].  At e > 1
    the rows are float32 and a step is fraction-free: every other row,
    with leading entry f, becomes a * row - f * pivot row, a the pivot's
    leading entry.  The step expands the pivot row once into the digits of
    t^k * pivot row, k < e (the transposed C^k of companion_powers); then
    f * pivot row is one BLAS product of the rows' leading digits with
    that expansion, and a * row one product with its column c, the
    (transposed) matrix of a.  The unreduced sums lie below
    e^2 (p-1)^2 (2p-1) <= 57600, so reduce_p makes them exact residues.
    The unreduced form keeps the leading entries it found.  The reduced
    form rescales the rows above a pivot by a over their whole length
    (their own leading entries move too), and ends by scaling each pivot
    row by the inverse of its leading entry, all in one batch.
    """
    e = 1 if ctx is None else ctx.e
    if e == 1:
        R = np.array(A if ctx is None else A[..., 0], dtype=np.uint8, copy=True)
    else:
        R = np.array(A, dtype=np.float32).reshape(A.shape[0], A.shape[1] * e)
        # a row of digit vectors times expand[k] = (C^k)^T: those of t^k * row
        expand = np.ascontiguousarray(ctx.companion_powers.reshape(e, e, e).transpose(0, 2, 1))
        ones = np.ones(e, dtype=np.float32)
    rows, cols = R.shape[0], R.shape[1] // e
    inv = _inverses(p)
    products = _products(p)
    # a step touches the cells from the pivot column on, or whole rows when
    # it rescales the rows above the pivot (reduced, e > 1)
    whole = reduced and e > 1
    pivots = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        if e == 1:
            nz = R[rank:, c].nonzero()[0]
        else:
            nz = (R[rank:, c * e : c * e + e] @ ones).nonzero()[0]
        if nz.size == 0:
            continue
        lo = 0 if whole else c * e
        pr = rank + int(nz[0])
        if pr != rank:
            tmp = R[rank, lo:].copy()
            R[rank, lo:] = R[pr, lo:]
            R[pr, lo:] = tmp
        row = R[rank, lo:]
        # the rows below with a nonzero in column c are nz[1:]: the row
        # swapped down to pr held 0 there, since pr was the first nonzero
        other = rank + nz[1:]
        if reduced:
            above = R[:rank, c] if e == 1 else R[:rank, c * e : c * e + e] @ ones
            other = np.concatenate((above.nonzero()[0], other))
        if e == 1:
            pv = int(row[0])
            if pv != 1:
                row[:] = products[inv[pv]][row]
            if other.size:
                sub = R[other, c:]
                # (p - entry) * pivot row <= 12*12, plus the entry <= 156: exact in uint8
                upd = (p - sub[:, :1]) * row
                upd += sub
                upd %= p
                R[other, c:] = upd
        elif other.size:
            sub = R[other, lo:]
            at = c * e - lo  # the digits of column c within sub and row
            t_row = np.matmul(row.reshape(-1, e), expand)
            # a * row, then + (p - f) * pivot row
            upd = (sub.reshape(-1, e) @ t_row[:, at // e]).reshape(sub.shape)
            upd += (p - sub[:, at : at + e]) @ t_row.reshape(e, -1)
            R[other, lo:] = reduce_p(upd, p)
        pivots.append(c)
        rank += 1
    if e == 1:
        return (R if ctx is None else R[..., None]), pivots
    R = R.reshape(rows, cols, e)
    if reduced and rank:
        # each pivot row times the matrix of the inverse of its leading entry
        lead = R[np.arange(rank), pivots] @ ctx.weights.astype(np.float32)
        scale = ctx.element_matrix(ctx.inv_array(lead)).transpose(0, 2, 1)
        R[:rank] = reduce_p(R[:rank] @ scale.astype(np.float32), p)
    return R.astype(np.uint8), pivots


def stacked_pivots(D, ctx):
    """Pivot columns over GF(p^e) of each matrix in a (b, rows, cols, e)
    uint8 stack of digit vectors, e = ctx.e.

    D is not modified.  Returns one list per matrix: its GF(p^e) pivot
    columns, those of its unique reduced echelon form.  Entries stay digit
    vectors and every product applies an element's e x e matrix
    (ctx.matrix_table) to digits, so all arithmetic is over GF(p); at
    e = 1 this is plain elimination over GF(p).  The blocked matrix over
    GF(p) has the pivots {j*e + k : k < e} for each pivot j here, since
    block column j spans the GF(p^e)-span of column j.

    The loop runs over rounds, not columns, and each round resolves every
    clash of the stack at once.  The rows of all matrices are numbered
    through; a live row is a nonzero one, and its key is (matrix, leading
    column).  Each round takes the lowest-numbered row of every key as its
    head (one np.minimum.at into a b x cols table) and replaces every other
    row of the key, with leading entry f, by a * row - f * head, a the
    head's leading entry: one fraction-free update of all of them at once,
    from the least of their leading columns on.  The rows are float32
    copies of D, so the update is two batched float32 BLAS products whose
    sums lie in [-e (p-1)^2, e (p-1)^2], exact, and reduce_p reduces them.

    Invariant: a != 0 and the head is kept, so every round keeps each
    matrix's row space.  Termination: row and head agree up to and in the
    leading column, so a reduced row leads strictly further right or is
    zero and drops out; leads are bounded by cols, so the rounds stop, at
    the first round with every key distinct.  The live rows of a matrix
    then have distinct leading columns, so they are an echelon basis of
    its row space, and those columns are the pivot columns of its reduced
    echelon form: the column rank profile, the same for any elimination
    order.
    """
    b, rows, cols, e = D.shape
    if cols == 0:
        return [[] for _ in range(b)]
    R = np.array(D, dtype=np.float32).reshape(b * rows, cols, e)
    p = ctx.p
    mats = ctx.matrix_table
    weights = ctx.weights.astype(np.float32)
    lead, entry = _leads(D.reshape(b * rows, cols, e), weights)
    live = entry.nonzero()[0]
    lead, entry = lead[live], entry[live].astype(np.intp)
    base = live // rows * cols  # key = base + lead
    head_of = np.empty(b * cols, dtype=np.intp)
    ordinal = np.arange(live.size)
    while True:
        key = base + lead
        at = ordinal[: live.size]  # live is sorted, so positions order rows
        head_of[key] = live.size
        np.minimum.at(head_of, key, at)
        head = head_of[key]
        clash = (head != at).nonzero()[0]
        if clash.size == 0:
            break
        head = head[clash]
        row = live[clash]
        c = lead[clash].min()
        upd = R[row, c:] @ mats[entry[head]]
        upd -= R[live[head], c:] @ mats[entry[clash]]
        R[row, c:] = reduce_p(upd, p)
        step, found = _leads(upd, weights)
        lead[clash] = c + step
        entry[clash] = found
        if not found.all():  # drop the rows that vanished
            keep = entry != 0
            live, lead, entry, base = live[keep], lead[keep], entry[keep], base[keep]
    pivots = [[] for _ in range(b)]
    for k in np.sort(base + lead).tolist():
        pivots[k // cols].append(k % cols)
    return pivots


def _leads(rows, weights):
    """Leading column and encoded leading entry of each row of a (k, cols,
    e) array of digit vectors; a zero row gets column 0 and entry 0.

    A row's first nonzero digit lies in its first nonzero entry, so one
    comparison over the flattened rows finds the columns, and only the
    entries there are encoded (their sums stay below 2^24, so exact).
    """
    k, cols, e = rows.shape
    lead = (rows.reshape(k, cols * e) != 0).argmax(axis=1) // e
    return lead, rows[np.arange(k), lead] @ weights


def rref_p(A, p):
    """Reduced row echelon form over GF(p).  Returns (R, pivot column list)."""
    return echelon_p(A, p, reduced=True)


def rank_p(A, p) -> int:
    """Rank over GF(p) by forward elimination (no back substitution)."""
    return len(echelon_p(A, p)[1])


def kernel_from_rref(R, pivots, cols, p):
    """Kernel basis (columns, uint8) of any matrix whose RREF is (R, pivots).

    Column k sets the k-th free variable to 1 and the other free ones to 0.
    An R of digit vectors over GF(p^e), as echelon_p gives with ctx, gives
    a K of digit vectors, (cols, free, e).
    """
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    K = np.zeros((cols, free.size) + R.shape[2:], dtype=np.uint8)
    # 1, or its digit vector (1, 0, ..., 0)
    K[free, np.arange(free.size)] = 1 if R.ndim == 2 else np.arange(R.shape[2]) == 0
    K[pivots] = (-R[: len(pivots), free].astype(np.int64)) % p
    return K


def kernel_p(A, p):
    """Columns form a basis of the right kernel over GF(p) (uint8)."""
    A = np.asarray(A, dtype=np.uint8)
    R, pivots = rref_p(A, p)
    return kernel_from_rref(R, pivots, A.shape[1], p)


def solve_p(A, B, p):
    """One solution X of AX = B over GF(p), or None if inconsistent.

    Free variables are set to zero, so the output is deterministic.
    """
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if B.ndim == 1:
        B = B[:, None]
    cols = A.shape[1]
    R, pivots = rref_p(np.hstack([A, B]), p)
    # a pivot among B's columns is a row 0 = nonzero; pivots increase
    if pivots and pivots[-1] >= cols:
        return None
    X = np.zeros((cols, B.shape[1]), dtype=np.uint8)
    X[pivots] = R[: len(pivots), cols:]
    return X


# ---------------------------------------------------------------------------
# linear algebra over GF(p^e), through companion blocks over GF(p)


def kernel_basis(m: FFMatrix) -> FFMatrix:
    """Basis of the right kernel; columns echelon-normalized and deterministic."""
    ctx = m.ctx
    K = kernel_p(blocked_over_prime(ctx, m.array), ctx.p)
    return FFMatrix(ctx, _unblock(ctx, K))


# ---------------------------------------------------------------------------
# helpers shared by the module layer (prime-field uint8 matrices)


def matmul_p(A, B, p):
    """Exact A @ B mod p (uint8), a float64 BLAS product reduced by reduce_p.

    Entries are residues below 13, so a sum of k products is below 144 k,
    exact for any inner dimension k < 10^13.
    """
    C = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)
    return reduce_p(C, p).astype(np.uint8)


def reduce_p(x, p):
    """x mod p in place, x a float32 array of integers in (-2^22, 2^22) or
    a float64 one of integers in (-2^51, 2^51); returns x.

    floor(x / p) is taken as floor((x + 1/2) * (1/p)): (x + 1/2) / p lies at
    least 1/(2p) from every integer, and the two roundings move it by less
    than that below those bounds.  Elementwise float operations, several
    times faster than integer remainder.
    """
    q = x + 0.5
    q *= 1 / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def matpow_p(A, k, p):
    n = A.shape[0]
    out = np.eye(n, dtype=np.uint8)
    for _ in range(k):
        out = matmul_p(out, A, p)
    return out


def blocked_over_prime(ctx: FieldCtx, M):
    """Replace each encoded GF(p^e) entry of M by its e x e matrix over GF(p).

    rank over GF(p^e) equals rank of the blocked matrix over GF(p),
    divided by e.  At e = 1 this is M itself, as uint8.
    """
    e = ctx.e
    if e == 1:
        return np.asarray(M, dtype=np.uint8)
    rows, cols = np.shape(M)
    blocks = ctx.element_matrix(M).transpose(0, 2, 1, 3)
    return blocks.reshape(rows * e, cols * e)


def _unblock(ctx: FieldCtx, B):
    """Inverse of blocked_over_prime: encode column 0 of each e x e block."""
    e = ctx.e
    digits = B[:, ::e].astype(np.int64)
    digits = digits.reshape(B.shape[0] // e, e, digits.shape[1])
    return np.einsum("iej,e->ij", digits, ctx.p ** np.arange(e))


def rank_ext(ctx: FieldCtx, M) -> int:
    """Rank over GF(p^e) of an encoded matrix, via the blocked embedding."""
    r = rank_p(blocked_over_prime(ctx, M), ctx.p)
    assert r % ctx.e == 0
    return r // ctx.e
