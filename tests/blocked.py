"""The companion-blocked form of GF(p^e) matrices: the tests' oracle.

blocked_over_prime replaces each encoded entry by its e x e matrix over
GF(p).  Blocking is a ring embedding, so blocked(A) blocked(B) =
blocked(A B), ranks over GF(p) are e times those over GF(p^e), and the
(unique) reduced echelon form of A maps to that of blocked(A): block
column j spans the GF(p^e)-span of column j, so a GF(p^e) pivot j stands
for the GF(p) pivots j e .. j e + e - 1.  unblock reads an encoded matrix
back from column 0 of each block.  Everything in cjt works on digit
vectors instead; these two let the tests check it with plain
eliminations and products over GF(p).
"""

import numpy as np


def blocked_over_prime(ctx, M):
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


def unblock(ctx, B):
    """Inverse of blocked_over_prime: encode column 0 of each e x e block."""
    e = ctx.e
    digits = B[:, ::e].astype(np.int64)
    digits = digits.reshape(B.shape[0] // e, e, digits.shape[1])
    return np.einsum("iej,e->ij", digits, ctx.weights)
