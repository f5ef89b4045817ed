"""Exact arithmetic in the Chow ring Z[h]/(h^r) of P^{r-1}.

Total Chern classes are integer coefficient lists c_0..c_{r-1} with
c_0 = 1, carrying the rank alongside.  Chern characters are rational.
Conversion between the two goes through Newton's identities on power
sums; Chern roots are never materialized.

Euler characteristics use chi(F(d)) = deg(ch(F) e^{dh} Td(P^{r-1})),
with Td = (h/(1-e^{-h}))^r truncated.  The inverse direction (Hilbert
polynomial -> Chern character) solves the triangular linear system this
pairing defines, in exact rationals; integrality of the recovered
Chern numbers is enforced and doubles as a stabilization check.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import factorial

from . import polyd


class NonIntegralChernError(ArithmeticError):
    """Recovered Chern numbers are not integers: bad window or not a bundle."""


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
            raise ValueError(f"need exactly {self.r} coefficients")
        if self.coeffs[0] != 1:
            raise ValueError("total Chern classes start with c_0 = 1")
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


@dataclasses.dataclass(frozen=True)
class ChernCharacter:
    """ch_0..ch_{r-1} as exact rationals; ch_0 is the rank."""

    r: int
    ch: tuple

    def __post_init__(self):
        object.__setattr__(self, "ch", tuple(Fraction(x) for x in self.ch))
        if len(self.ch) != self.r:
            raise ValueError(f"need exactly {self.r} components")
        if self.ch[0].denominator != 1:
            raise ValueError("ch_0 must be an integer (the rank)")

    @property
    def rank(self) -> int:
        return int(self.ch[0])


def character_of_line_bundle(r: int, a: int) -> ChernCharacter:
    return ChernCharacter(r, tuple(Fraction(a**m, factorial(m)) for m in range(r)))


# ---------------------------------------------------------------------------
# ring operations


def whitney(c1: ChowClass, c2: ChowClass) -> ChowClass:
    """Truncated product; ranks add (the Whitney sum formula)."""
    if c1.r != c2.r:
        raise ValueError("classes live on different projective spaces")
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
# Riemann-Roch


def todd_series(r: int) -> tuple:
    """Td(P^{r-1}) = (h/(1 - e^{-h}))^r as Fractions mod h^r."""
    # B(h) = (1 - e^{-h})/h = sum_{j>=0} (-1)^j h^j / (j+1)!
    B = [Fraction((-1) ** j, factorial(j + 1)) for j in range(r)]
    inv = _series_inverse(B, r)
    out = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for _ in range(r):
        out = _series_mul(out, inv, r)
    return tuple(out)


def _series_mul(f, g, r):
    out = [Fraction(0)] * r
    for i in range(r):
        if f[i] == 0:
            continue
        for j in range(r - i):
            out[i + j] += f[i] * g[j]
    return out


def _series_inverse(f, r):
    assert f[0] != 0
    inv = [Fraction(0)] * r
    inv[0] = 1 / Fraction(f[0])
    for m in range(1, r):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += f[j] * inv[m - j]
        inv[m] = -acc / f[0]
    return inv


def _chi_coefficient_polys(r: int):
    """T_m(d) = [h^{r-1-m}] (e^{dh} Td) as polynomials in d, m = 0..r-1."""
    Td = todd_series(r)
    polys = []
    for m in range(r):
        # [h^{r-1-m}] e^{dh} Td = sum_l d^l / l! * Td[r-1-m-l]
        coeffs = [
            Td[r - 1 - m - l] / factorial(l) if 0 <= r - 1 - m - l < r else Fraction(0)
            for l in range(r - m)
        ]
        polys.append(polyd.trim(coeffs))
    return polys


def hrr_chi(ch: ChernCharacter, d: int) -> Fraction:
    """chi(F(d)) = deg part of ch(F) e^{dh} Td(P^{r-1}); exact rational."""
    polys = _chi_coefficient_polys(ch.r)
    return sum(
        (ch.ch[m] * polyd.evaluate(polys[m], d) for m in range(ch.r)),
        start=Fraction(0),
    )


def chi_polynomial(ch: ChernCharacter) -> tuple:
    """chi(F(d)) as a polynomial in d with Fraction coefficients."""
    polys = _chi_coefficient_polys(ch.r)
    out = polyd.ZERO
    for m in range(ch.r):
        out = polyd.add(out, polyd.scale(ch.ch[m], polys[m]))
    return out


def character_from_chi(r: int, fitted) -> ChernCharacter:
    """Invert the pairing: the unique character whose chi-polynomial is fitted.

    The system is triangular because T_m has degree exactly r-1-m with
    leading coefficient 1/(r-1-m)!.
    """
    polys = _chi_coefficient_polys(r)
    residual = list(fitted) + [Fraction(0)] * (r - len(fitted))
    residual = [Fraction(x) for x in residual[:r]]
    ch = [Fraction(0)] * r
    for m in range(r):  # T_m has degree r-1-m: solve from the top down
        deg = r - 1 - m
        lead = polys[m][deg] if len(polys[m]) > deg else Fraction(0)
        assert lead != 0
        ch[m] = residual[deg] / lead
        for l, c in enumerate(polys[m]):
            residual[l] -= ch[m] * c
    if any(residual):
        raise NonIntegralChernError(
            "fitted polynomial is not a chi-polynomial of degree < r"
        )
    return ChernCharacter(r, tuple(ch)) if ch[0].denominator == 1 else _reject(ch)


def _reject(ch):
    raise NonIntegralChernError(f"rank ch_0 = {ch[0]} is not an integer")


# ---------------------------------------------------------------------------
# Newton's identities: Chern numbers <-> power sums


def character_to_class(ch: ChernCharacter) -> ChowClass:
    """Chern numbers from the character; NonIntegralChern if any c_m isn't whole."""
    r = ch.r
    if ch.ch[0].denominator != 1:
        _reject(ch.ch)
    s = int(ch.ch[0])
    # power sums p_m = m! ch_m; then m e_m = sum_{l=1..m} (-1)^{l-1} e_{m-l} p_l
    psums = [factorial(m) * ch.ch[m] for m in range(r)]
    e = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for m in range(1, r):
        acc = Fraction(0)
        for l in range(1, m + 1):
            acc += (-1) ** (l - 1) * e[m - l] * psums[l]
        e[m] = acc / m
    coeffs = []
    for m, v in enumerate(e):
        if v.denominator != 1:
            raise NonIntegralChernError(
                f"c_{m} = {v} is not an integer; "
                "stabilization window or input bundle is suspect"
            )
        coeffs.append(int(v))
    return ChowClass(r, tuple(coeffs), s)


def class_to_character(c: ChowClass) -> ChernCharacter:
    """Power sums from Chern numbers: p_m = e_1 p_{m-1} - ... + (-1)^{m-1} m e_m."""
    r = c.r
    e = [Fraction(x) for x in c.coeffs]
    psums = [Fraction(c.rank)] + [Fraction(0)] * (r - 1)
    for m in range(1, r):
        acc = (-1) ** (m - 1) * m * e[m]
        for l in range(1, m):
            acc += (-1) ** (l - 1) * e[l] * psums[m - l]
        psums[m] = acc
    return ChernCharacter(r, tuple(psums[m] / factorial(m) for m in range(r)))


def chern_from_hilbert(hd) -> tuple[int, ChowClass]:
    """Rank and Chern class of the bundle behind a HilbertData fit."""
    ch = character_from_chi(hd.r, hd.fitted)
    cls = character_to_class(ch)
    return cls.rank, cls


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
