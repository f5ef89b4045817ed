"""Small exact-polynomial helpers: one variable, Fraction coefficients.

Polynomials are tuples of Fractions, lowest degree first, with no
trailing zeros.  Used for Hilbert polynomials in the twist degree d.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def trim(coeffs) -> tuple:
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


ZERO = ()


def add(f, g):
    n = max(len(f), len(g))
    return trim(
        [
            (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
            for i in range(n)
        ]
    )


def scale(c, f):
    return trim([Fraction(c) * x for x in f])


def mul(f, g):
    if not f or not g:
        return ZERO
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def evaluate(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def shift_var(f, c):
    """f(d + c) as a polynomial in d."""
    out = ZERO
    binom_poly = (Fraction(1),)  # (d + c)^k built iteratively
    lin = (Fraction(c), Fraction(1))
    for k, a in enumerate(f):
        out = add(out, scale(a, binom_poly))
        binom_poly = mul(binom_poly, lin)
    return out


def binomial_poly(a: int, r: int):
    """binom(d + a + r - 1, r - 1) as a polynomial in d.

    This is the Hilbert polynomial of O(a) on P^{r-1}.
    """
    if r < 1:
        return ZERO
    out = (Fraction(1),)
    for t in range(1, r):
        out = mul(out, (Fraction(a + t), Fraction(1)))
    return scale(Fraction(1, factorial(r - 1)), out)


def fit_integer_samples(samples, max_degree):
    """Interpolate consecutive integer samples [(d0, v0), (d0+1, v1), ...].

    Returns the Newton-forward-difference polynomial if its degree is at
    most max_degree and it reproduces every sample in the window, else
    None.
    """
    if not samples:
        return None
    d0 = samples[0][0]
    vals = [Fraction(v) for _, v in samples]
    for i, (d, _) in enumerate(samples):
        if d != d0 + i:
            raise ValueError("samples must be at consecutive degrees")
    diffs = [vals]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    poly = ZERO
    basis = (Fraction(1),)
    for k in range(len(vals)):
        if k > max_degree:
            if any(diffs[k]):
                return None
            continue
        poly = add(poly, scale(diffs[k][0], basis))
        # next Newton basis term: (d - d0 - k) / (k + 1)
        basis = scale(
            Fraction(1, k + 1), mul(basis, (Fraction(-(d0 + k)), Fraction(1)))
        )
    return poly


def as_str(f, var="d"):
    if not f:
        return "0"
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            v = var if k == 1 else f"{var}^{k}"
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
