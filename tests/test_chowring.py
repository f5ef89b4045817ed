import random
from fractions import Fraction
from math import factorial

import pytest

from cjt import polyd
from cjt.chowring import (
    ChowClass,
    NonIntegralChernError,
    binom_int,
    chern_from_hilbert,
    chern_from_resolution,
    chow,
    divisibility_check,
    dual_class,
    fermat_product_identity_holds,
    frobenius_pullback,
    line_bundle_class,
    product_twists,
    sum_of_line_bundles_class,
    trivial_class,
    twist,
    whitney,
)


# ---------------------------------------------------------------------------
# Riemann-Roch oracle: the rational route from a Hilbert polynomial to Chern
# numbers, through the Todd class and Newton's identities.  A Chern character
# is a tuple ch_0..ch_{r-1} of Fractions; ch_0 is the rank.


def _series_mul(f, g, r):
    out = [Fraction(0)] * r
    for i in range(r):
        for j in range(r - i):
            out[i + j] += f[i] * g[j]
    return out


def todd_series(r):
    """Td(P^{r-1}) = (h/(1 - e^{-h}))^r as Fractions mod h^r."""
    # B(h) = (1 - e^{-h})/h = sum_{j>=0} (-1)^j h^j / (j+1)!, inverted termwise
    B = [Fraction((-1) ** j, factorial(j + 1)) for j in range(r)]
    inv = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for m in range(1, r):
        inv[m] = -sum(B[j] * inv[m - j] for j in range(1, m + 1))
    out = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for _ in range(r):
        out = _series_mul(out, inv, r)
    return out


def _chi_coefficient_polys(r):
    """T_m(d) = [h^{r-1-m}] (e^{dh} Td) as polynomials in d, m = 0..r-1."""
    Td = todd_series(r)
    return [
        polyd.trim([Td[r - 1 - m - l] / factorial(l) for l in range(r - m)])
        for m in range(r)
    ]


def character_of_line_bundle(r, a):
    return tuple(Fraction(a**m, factorial(m)) for m in range(r))


def chi_polynomial(ch):
    """chi(F(d)) = deg(ch(F) e^{dh} Td(P^{r-1})) as a polynomial in d."""
    out = polyd.ZERO
    for m, T in enumerate(_chi_coefficient_polys(len(ch))):
        out = polyd.add(out, polyd.scale(ch[m], T))
    return out


def hrr_chi(ch, d):
    return polyd.evaluate(chi_polynomial(ch), d)


def character_from_chi(r, fitted):
    """The character whose chi-polynomial is fitted (degree < r).

    The system is triangular: T_m has degree exactly r-1-m.
    """
    assert len(fitted) <= r
    polys = _chi_coefficient_polys(r)
    residual = [Fraction(x) for x in fitted] + [Fraction(0)] * (r - len(fitted))
    ch = [Fraction(0)] * r
    for m in range(r):
        ch[m] = residual[r - 1 - m] / polys[m][r - 1 - m]
        for l, c in enumerate(polys[m]):
            residual[l] -= ch[m] * c
    assert not any(residual)
    return tuple(ch)


def character_to_class(ch):
    """Newton: m e_m = sum_{l=1..m} (-1)^{l-1} e_{m-l} p_l, p_m = m! ch_m."""
    r = len(ch)
    psums = [factorial(m) * ch[m] for m in range(r)]
    e = [Fraction(1)] + [Fraction(0)] * (r - 1)
    for m in range(1, r):
        e[m] = sum((-1) ** (l - 1) * e[m - l] * psums[l] for l in range(1, m + 1)) / m
    if any(x.denominator != 1 for x in (ch[0], *e)):
        raise NonIntegralChernError(f"rank {ch[0]} or Chern numbers {e} not integral")
    return ChowClass(r, tuple(int(x) for x in e), int(ch[0]))


def class_to_character(c):
    """Power sums from Chern numbers: p_m = e_1 p_{m-1} - ... + (-1)^{m-1} m e_m."""
    r = c.r
    psums = [Fraction(c.rank)] + [Fraction(0)] * (r - 1)
    for m in range(1, r):
        psums[m] = (-1) ** (m - 1) * m * c.c(m) + sum(
            (-1) ** (l - 1) * c.c(l) * psums[m - l] for l in range(1, m)
        )
    return tuple(Fraction(psums[m], factorial(m)) for m in range(r))


def hrr_class(r, fitted):
    """Rank and Chern class of fitted by the Riemann-Roch oracle."""
    c = character_to_class(character_from_chi(r, fitted))
    return c.rank, c


class _HD:
    def __init__(self, r, fitted):
        self.r, self.fitted = r, fitted


def random_class(rng, r, smax=10, cmax=9):
    s = rng.randint(1, smax)
    coeffs = [1] + [rng.randint(-cmax, cmax) for _ in range(r - 1)]
    return ChowClass(r, tuple(coeffs), s)


class TestWhitney:
    def test_unit(self):
        c = chow(4, [1, 2, 3, 4], 2)
        assert whitney(c, trivial_class(4, 0)) == c

    def test_square_of_hyperplane(self):
        c = line_bundle_class(3, 1)
        assert whitney(c, c).coeffs == (1, 2, 1)

    def test_euler_sequence_on_p2(self):
        # 0 -> O -> O(1)^3 -> T -> 0, so c(T) = c(O(1))^3 = 1 + 3h + 3h^2
        c = sum_of_line_bundles_class(3, [1, 1, 1])
        assert c.coeffs == (1, 3, 3)
        assert c.rank == 3
        # and c(O) * c(T) reproduces it
        cT = chow(3, [1, 3, 3], 2)
        assert whitney(trivial_class(3, 1), cT).coeffs == (1, 3, 3)

    def test_associative_commutative(self):
        rng = random.Random(1)
        for _ in range(30):
            r = rng.randint(2, 6)
            a, b, c = (random_class(rng, r) for _ in range(3))
            assert whitney(a, b) == whitney(b, a)
            assert whitney(whitney(a, b), c) == whitney(a, whitney(b, c))


class TestTwist:
    def test_c1_rule(self):
        rng = random.Random(2)
        for _ in range(20):
            r = rng.randint(2, 6)
            c = random_class(rng, r)
            i = rng.randint(-4, 4)
            assert twist(c, c.rank, i).c(1) == c.c(1) + i * c.rank

    def test_c2_rule(self):
        rng = random.Random(3)
        for _ in range(20):
            r = rng.randint(3, 6)
            c = random_class(rng, r)
            s, i = c.rank, rng.randint(-4, 4)
            assert twist(c, s, i).c(2) == c.c(2) + i * (s - 1) * c.c(1) + i * i * binom_int(s, 2)

    def test_identity_twist(self):
        rng = random.Random(4)
        for _ in range(10):
            c = random_class(rng, 5)
            assert twist(c, c.rank, 0) == c

    def test_composition(self):
        rng = random.Random(5)
        for _ in range(30):
            r = rng.randint(2, 7)
            c = random_class(rng, r)
            s = c.rank
            i, j = rng.randint(-3, 3), rng.randint(-3, 3)
            assert twist(twist(c, s, i), s, j) == twist(c, s, i + j)

    def test_splitting_free_restatement(self):
        # c(F(i), h) = sum_n c_n(F) h^n (1 + ih)^{s-n}, expanded directly
        rng = random.Random(6)
        for _ in range(40):
            r = rng.randint(2, 7)
            c = random_class(rng, r)
            s = c.rank
            if s < r:  # restatement sums n = 0..s
                continue
            i = rng.randint(-4, 4)
            direct = [0] * r
            for n2 in range(min(s, r - 1) + 1):
                for k in range(r - n2):
                    direct[n2 + k] += c.c(n2) * i**k * binom_int(s - n2, k)
            assert twist(c, s, i).coeffs == tuple(direct)

    def test_line_bundle_twists(self):
        assert twist(line_bundle_class(3, -1), 1, 1).coeffs == (1, 0, 0)


class TestDualFrobenius:
    def test_frobenius_of_hyperplane(self):
        assert frobenius_pullback(line_bundle_class(3, 1), 3).coeffs == (1, 3, 0)

    def test_dual_sign_rule(self):
        assert dual_class(chow(3, [1, 1, 1], 2)).coeffs == (1, -1, 1)

    def test_frobenius_of_tangent_twist(self):
        cT1 = chow(3, [1, 1, 1], 2)  # c(T(-1)) on P^2
        assert frobenius_pullback(cT1, 2).coeffs == (1, 2, 4)


class TestHRR:
    def test_chi_O_on_p2(self):
        ch = character_of_line_bundle(3, 0)
        for d in range(-3, 6):
            assert hrr_chi(ch, d) == Fraction((d + 1) * (d + 2), 2)

    def test_chi_O_minus3_on_p1(self):
        ch = character_of_line_bundle(2, -3)
        for d in range(-2, 6):
            assert hrr_chi(ch, d) == d - 2

    def test_zero_character(self):
        assert hrr_chi((Fraction(0),) * 3, 5) == 0

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_line_bundles_give_binomials(self, r):
        for a in range(-5, 6):
            ch = character_of_line_bundle(r, a)
            assert chi_polynomial(ch) == polyd.binomial_poly(a, r)

    def test_roundtrip_random_characters(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(2, 6)
            c = random_class(rng, r)
            ch = class_to_character(c)
            back = character_from_chi(r, chi_polynomial(ch))
            assert back == ch
            assert character_to_class(back) == c

    def test_newton_roundtrip_on_split_bundles(self):
        # cross-check against explicit sums of line bundles
        rng = random.Random(8)
        for _ in range(30):
            r = rng.randint(2, 6)
            twists = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            c = sum_of_line_bundles_class(r, twists)
            ch = class_to_character(c)
            expected = [
                sum(Fraction(a**m, 1) for a in twists) / factorial(m) for m in range(r)
            ]
            assert list(ch) == expected


class TestChernFromHilbert:
    def test_structure_sheaf(self):
        class HD:
            r = 3
            fitted = polyd.binomial_poly(0, 3)

        rank, c = chern_from_hilbert(HD)
        assert rank == 1 and c.coeffs == (1, 0, 0)

    def test_o_minus_n_on_p1(self):
        class HD:
            r = 2
            fitted = polyd.binomial_poly(-5, 2)

        rank, c = chern_from_hilbert(HD)
        assert rank == 1 and c.coeffs == (1, -5)

    def test_non_integral_rejected(self):
        class HD:
            r = 2
            fitted = (Fraction(1, 3), Fraction(1))

        with pytest.raises(NonIntegralChernError):
            chern_from_hilbert(HD)

    def test_degree_at_least_r_rejected(self):
        # 1 + d + d^2 is no chi-polynomial on P^1: its degree is r
        with pytest.raises(NonIntegralChernError):
            chern_from_hilbert(_HD(2, (Fraction(1), Fraction(1), Fraction(1))))

    def test_non_integer_constant_rejected(self):
        # chi = -11/6 on P^5 would be 11/6 times the class of a point, whose
        # Newton inversion happens to come out integral (c_5 = -44)
        with pytest.raises(NonIntegralChernError):
            chern_from_hilbert(_HD(6, (Fraction(-11, 6),)))

    def test_random_integer_k_classes(self):
        # sum_a n_a [O(a)] over twists a outside 0..-(r-1) too, against the
        # Riemann-Roch oracle and Whitney over the two-level resolution
        rng = random.Random(11)
        for _ in range(400):
            r = rng.randint(1, 8)
            terms = {
                rng.randint(-6, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))
            }
            fitted = polyd.ZERO
            for a, n in terms.items():
                fitted = polyd.add(fitted, polyd.scale(n, polyd.binomial_poly(a, r)))
            pos = [a for a, n in terms.items() if n > 0 for _ in range(n)]
            neg = [a for a, n in terms.items() if n < 0 for _ in range(-n)]
            got = chern_from_hilbert(_HD(r, fitted))
            assert got == hrr_class(r, fitted), (r, terms)
            assert got == chern_from_resolution(r, [pos, neg]), (r, terms)

    def test_tangent_twist_polynomial(self):
        # chi of T(-1)(d) on P^2 equals chi(O(d))*3 shifted: use resolution
        rank, c = chern_from_resolution(3, [[0, 0, 0], [-1]])
        assert (rank, c.coeffs) == (2, (1, 1, 1))


class TestResolutionClasses:
    def test_euler_type(self):
        rank, c = chern_from_resolution(3, [[0, 0, 0], [-1]])
        assert rank == 2
        assert c.coeffs == (1, 1, 1)  # c(T(-1)) on P^2

    def test_koszul_resolves_structure_sheaf(self):
        rank, c = chern_from_resolution(3, [[-1, -1, -1], [-2, -2, -2], [-3]])
        assert (rank, c.coeffs) == (1, (1, 0, 0))

    def test_line_bundle_level_zero(self):
        rank, c = chern_from_resolution(2, [[-4]])
        assert (rank, c.coeffs) == (1, (1, -4))


class TestCongruences:
    def test_fermat_identity(self):
        for p in (2, 3, 5, 7):
            assert fermat_product_identity_holds(p)

    def test_product_twists_expected_small_case(self):
        # s = 2, p = 2 on P^4: h-coefficient of c(F)c(F(1)) is 2c_1 + 2
        c = chow(5, [1, 3, 1, 0, 0], 2)
        prod, report = product_twists(c, 2, 2)
        assert prod.c(1) == 2 * c.c(1) + 2
        assert report.ok

    def test_triple_product_h2_coefficient(self):
        # any c, p = 3, r >= 4: h^2 coefficient of the triple product is -s mod 3
        rng = random.Random(9)
        for _ in range(25):
            r = rng.randint(4, 8)
            c = random_class(rng, r)
            prod, report = product_twists(c, c.rank, 3)
            assert prod.c(2) % 3 == (-c.rank) % 3
            assert report.ok

    def test_trivial_bundle_direct_expansion(self):
        # rank 1 trivial bundle, p = 3: c(O)c(O(1))c(O(2)) = (1+h)(1+2h)
        prod, report = product_twists(trivial_class(4, 1), 1, 3)
        assert prod.coeffs == (1, 3, 2, 0)
        assert report.ok
        assert report.residues == (1, 0, 2)

    def test_congruence_over_many_random_classes(self):
        rng = random.Random(10)
        cases = 0
        for p in (2, 3, 5, 7):
            for _ in range(30):
                r = rng.randint(2, 8)
                c = random_class(rng, r)
                _, report = product_twists(c, c.rank, p)
                assert report.ok, (p, c)
                cases += 1
        assert cases == 120


class TestDivisibility:
    def test_p3_needs_3_dividing_c1(self):
        assert divisibility_check(chow(4, [1, 3, 7, 1], 2), 3).ok
        assert not divisibility_check(chow(4, [1, 2, 7, 1], 2), 3).ok

    def test_p2_vacuous(self):
        rep = divisibility_check(chow(3, [1, 5, 9], 2), 2)
        assert rep.ok and rep.residues == {}

    def test_horrocks_mumford_obstruction(self):
        # c_1 = 2i+5, c_2 = i^2+5i+10 are never both 0 mod 7
        hits = [
            i for i in range(7) if (2 * i + 5) % 7 == 0 and (i * i + 5 * i + 10) % 7 == 0
        ]
        assert hits == []


class TestBridgeToModules:
    def test_congruence_on_computed_classes(self):
        # classes recovered from actual constant-Jordan-type modules obey
        # the product congruence, consistently with the trivial-class
        # filtration of M (x) O
        from cjt.kemod import builtin, dual, reference_jordan_type
        from cjt.thetasheaf import hilbert

        mods = [
            builtin("rad_quotient", 2, 3, m=2),
            builtin("rad_quotient", 3, 2, m=2),
            builtin("zigzag", 3, 2, n=2),
            dual(builtin("zigzag", 3, 2, n=1)),
        ]
        checked = 0
        for M in mods:
            t = reference_jordan_type(M)
            for i in range(1, M.p + 1):
                if t.a[i - 1] == 0:
                    continue
                rk, c = chern_from_hilbert(hilbert(M, i))
                _, rep = product_twists(c, rk, M.p)
                assert rep.ok, (M, i)
                checked += 1
        assert checked >= 6

    def test_hilbert_numerators_resolve_the_chern_class(self):
        # F_i is a signed sum of line bundles O(shift - k) read off the
        # Hilbert numerators of Im theta^{i-1}, theta^i, theta^{i+1} in
        # graded_dim's rank identity; Whitney on that two-level resolution
        # and the Riemann-Roch oracle against the K-class of hilbert()'s
        # polynomial
        from cjt.suites import DEFAULT_PAIRS, _battery
        from cjt.realize import euler_spec, realize_bundle
        from cjt.thetasheaf import NotConstantError, _certified_image, hilbert

        mods = [M for p, r in DEFAULT_PAIRS for _, M in _battery(p, r)]
        mods.append(realize_bundle(euler_spec(3, 3))[0])
        checked = 0
        for M in mods:
            for i in range(1, M.p + 1):
                try:
                    hd = hilbert(M, i)
                except NotConstantError:
                    continue
                lower, mid, upper = (_certified_image(M, a)[1] for a in (i - 1, i, i + 1))
                pos, neg = [], []
                for sign, shift, num in (
                    (1, 0, lower), (-1, 0, mid), (-1, 1, mid), (1, 1, upper)
                ):
                    for k, c in num.items():
                        (pos if sign * c > 0 else neg).extend([shift - k] * abs(c))
                got = chern_from_hilbert(hd)
                assert chern_from_resolution(M.r, [pos, neg]) == got, (M, i)
                assert hrr_class(M.r, hd.fitted) == got, (M, i)
                checked += 1
        assert checked == 93

    def test_divisibility_on_stable_rank_one_modules(self):
        # zig-zag modules have stable type [2]^n[1], so the theorem does
        # not constrain them: O(-n) can and does appear
        from cjt.kemod import builtin
        from cjt.thetasheaf import hilbert

        M = builtin("zigzag", 3, 2, n=1)
        _, c = chern_from_hilbert(hilbert(M, 1))
        assert c.coeffs == (1, -1)
        assert not divisibility_check(c, 3).ok
