"""Exact arithmetic in the Chow ring Z[h]/(h^r) of P^{r-1}.

Total Chern classes are integer coefficient lists c_0..c_{r-1} with
c_0 = 1, carrying the rank alongside; Chern roots are never
materialized.  A Hilbert polynomial gives its bundle's Chern class
through the integer K-class it determines in the basis O(0), O(-1), ...,
O(-(r-1)); a resolution by sums of twists gives it through Whitney
products.  Each route checks the other.
"""

from __future__ import annotations

import dataclasses
from math import comb, factorial

from . import polyd
from .errors import Failure, InputError


class NonIntegralChernError(Failure, ArithmeticError):
    """The polynomial is not the chi-polynomial of an integer K-class on P^{r-1}."""


def binom_int(x: int, k: int) -> int:
    """Generalized binomial with integer (possibly negative) top."""
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= x - t
    return num // factorial(k)


@dataclasses.dataclass(frozen=True)
class ChowClass:
    """Total Chern class in Z[h]/(h^r): coefficients c_0..c_{r-1}, plus rank."""

    r: int
    coeffs: tuple
    rank: int

    def __post_init__(self):
        if len(self.coeffs) != self.r:
            raise InputError(f"need exactly {self.r} coefficients")
        if self.coeffs[0] != 1:
            raise InputError("total Chern classes start with c_0 = 1")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def c(self, m: int) -> int:
        return self.coeffs[m] if 0 <= m < self.r else 0

    def __str__(self):
        terms = []
        for m, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if m == 0:
                terms.append(str(c))
            else:
                hm = "h" if m == 1 else f"h^{m}"
                if c == 1:
                    terms.append(hm)
                elif c == -1:
                    terms.append(f"-{hm}")
                else:
                    terms.append(f"{c}{hm}")
        body = terms[0] if terms else "0"
        for t in terms[1:]:
            body += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return body


def chow(r: int, coeffs, rank: int) -> ChowClass:
    coeffs = list(coeffs)[:r]
    coeffs += [0] * (r - len(coeffs))
    return ChowClass(r, tuple(coeffs), rank)


def trivial_class(r: int, rank: int = 0) -> ChowClass:
    return chow(r, [1], rank)


def line_bundle_class(r: int, a: int) -> ChowClass:
    return chow(r, [1, a], 1)


def sum_of_line_bundles_class(r: int, twists) -> ChowClass:
    out = trivial_class(r, 0)
    for a in twists:
        out = whitney(out, line_bundle_class(r, a))
    return out


# ---------------------------------------------------------------------------
# ring operations


def whitney(c1: ChowClass, c2: ChowClass) -> ChowClass:
    """Truncated product; ranks add (the Whitney sum formula)."""
    if c1.r != c2.r:
        raise InputError("classes live on different projective spaces")
    r = c1.r
    out = [0] * r
    for m in range(r):
        out[m] = sum(c1.c(j) * c2.c(m - j) for j in range(m + 1))
    return ChowClass(r, tuple(out), c1.rank + c2.rank)


def twist(c: ChowClass, s: int, i: int) -> ChowClass:
    """Chern class of F(i) for F of rank s with total class c.

    c_m(F(i)) = sum_j i^j binom(s - m + j, j) c_{m-j}(F).
    """
    r = c.r
    out = [0] * r
    for m in range(r):
        out[m] = sum(
            i**j * binom_int(s - m + j, j) * c.c(m - j) for j in range(m + 1)
        )
    return ChowClass(r, tuple(out), s)


def dual_class(c: ChowClass) -> ChowClass:
    """c_m goes to (-1)^m c_m."""
    return ChowClass(
        c.r, tuple((-1) ** m * x for m, x in enumerate(c.coeffs)), c.rank
    )


def frobenius_pullback(c: ChowClass, p: int) -> ChowClass:
    """Pullback along the p-power map: h goes to p*h, so c_m to p^m c_m."""
    return ChowClass(c.r, tuple(p**m * x for m, x in enumerate(c.coeffs)), c.rank)


@dataclasses.dataclass(frozen=True)
class CongruenceReport:
    p: int
    s: int
    window: int  # congruence checked for h^0 .. h^{window}
    residues: tuple  # (coefficient of product) mod p over the window
    expected: tuple
    ok: bool

    def __str__(self):
        status = "holds" if self.ok else "FAILS"
        return (
            f"product congruence mod ({self.p}, h^{self.window + 1}) {status}: "
            f"residues {list(self.residues)} vs expected {list(self.expected)}"
        )


def product_twists(c: ChowClass, s: int, p: int) -> tuple[ChowClass, CongruenceReport]:
    """c(F) c(F(1)) ... c(F(p-1)) and its congruence to 1 - s h^{p-1} mod p.

    The congruence is checked coefficientwise up to h^{min(p, r) - 1};
    on small projective spaces the ring truncation cuts the window and
    the report records what was actually checked.
    """
    prod = trivial_class(c.r, 0)
    for i in range(p):
        prod = whitney(prod, twist(c, s, i))
    window = min(p, c.r) - 1
    residues = tuple(prod.c(m) % p for m in range(window + 1))
    expected = tuple(
        (1 if m == 0 else (-s if m == p - 1 else 0)) % p for m in range(window + 1)
    )
    return prod, CongruenceReport(p, s, window, residues, expected, residues == expected)


@dataclasses.dataclass(frozen=True)
class DivisibilityReport:
    p: int
    residues: dict  # m -> c_m mod p, for 1 <= m <= min(p-2, r-1)
    ok: bool

    def __str__(self):
        if not self.residues:
            return f"divisibility by {self.p}: vacuous (no degrees to check)"
        body = ", ".join(f"c_{m} = {v} (mod {self.p})" for m, v in self.residues.items())
        return f"divisibility by {self.p} {'holds' if self.ok else 'FAILS'}: {body}"


def divisibility_check(c: ChowClass, p: int) -> DivisibilityReport:
    """p | c_m for 1 <= m <= p-2 (within the ring truncation)."""
    residues = {m: c.c(m) % p for m in range(1, min(p - 1, c.r))}
    return DivisibilityReport(p, residues, all(v == 0 for v in residues.values()))


# ---------------------------------------------------------------------------
# Chern classes from Hilbert polynomials and from resolutions


def chern_from_hilbert(hd) -> tuple[int, ChowClass]:
    """Rank and Chern class of the bundle behind a Hilbert polynomial.

    A polynomial P of degree < r is the chi-polynomial of exactly one
    rational K-class sum_k q_k [O(-k)], k = 0..r-1 (Beilinson's basis of
    K_0(P^{r-1})), since sum_{d>=0} P(d) t^d = sum_k q_k t^k / (1-t)^r.
    Hence q_k = sum_{j<=k} (-1)^j binom(r, j) P(k - j), an integer for
    every k exactly when P is integer-valued, and then Whitney gives
    c = prod_k (1 - k h)^{q_k}.
    """
    r, fitted = hd.r, hd.fitted
    if len(fitted) > r:
        raise NonIntegralChernError(
            f"Hilbert polynomial of degree {len(fitted) - 1} on P^{r - 1} "
            "is not a chi-polynomial"
        )
    out = trivial_class(r, 0)
    for k in range(r):
        q = sum(
            (-1) ** j * comb(r, j) * polyd.evaluate(fitted, k - j)
            for j in range(k + 1)
        )
        if q.denominator != 1:
            raise NonIntegralChernError(
                f"K-class coefficient q_{k} = {q} of [O(-{k})] is not an integer"
            )
        q = int(q)
        out = whitney(out, chow(r, [binom_int(q, m) * (-k) ** m for m in range(r)], q))
    return out.rank, out


def chern_from_resolution(r: int, levels) -> tuple[int, ChowClass]:
    """Expected rank and Chern class of a sheaf resolved by twist sums.

    levels[i] is the list of twists at homological level i (level 0 maps
    onto the sheaf).  Whitney gives c(F) = prod even / prod odd.
    """
    num = trivial_class(r, 0)
    den = trivial_class(r, 0)
    rank = 0
    for i, twists in enumerate(levels):
        cls = sum_of_line_bundles_class(r, twists)
        if i % 2 == 0:
            num = whitney(num, cls)
            rank += len(twists)
        else:
            den = whitney(den, cls)
            rank -= len(twists)
    inv = _class_inverse(den)
    out = whitney(num, inv)
    return rank, ChowClass(r, out.coeffs, rank)


def _class_inverse(c: ChowClass) -> ChowClass:
    """Inverse of a total class in the truncated ring (c_0 = 1)."""
    r = c.r
    inv = [0] * r
    inv[0] = 1
    for m in range(1, r):
        inv[m] = -sum(c.c(j) * inv[m - j] for j in range(1, m + 1))
    return ChowClass(r, tuple(inv), -c.rank)


# ---------------------------------------------------------------------------
# the Fermat product identity used by the congruence proof


def fermat_product_identity_holds(p: int) -> bool:
    """x(x+y)...(x+(p-1)y) = x^p - x y^{p-1} mod p, as polynomials in x, y."""
    # dense coefficient grid prod[i][j] = coefficient of x^i y^j
    prod = {(0, 0): 1}
    for k in range(p):
        nxt = {}
        for (i, j), c in prod.items():
            for (di, dj, f) in ((1, 0, 1), (0, 1, k)):
                key = (i + di, j + dj)
                nxt[key] = (nxt.get(key, 0) + c * f) % p
        prod = {k: v for k, v in nxt.items() if v}
    expected = {(p, 0): 1 % p, (1, p - 1): (-1) % p}
    expected = {k: v for k, v in expected.items() if v}
    return prod == expected
