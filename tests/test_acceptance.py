"""Acceptance criteria, one test each; arithmetic is exact throughout.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion; pytest's exit status is the overall gate.  Runtime caps
are asserted with a wall clock.
"""

import time

import numpy as np
import pytest

from cjt import polyd
from cjt.chowring import chern_from_hilbert, divisibility_check
from cjt.cli import run_verify, SUITES
from cjt.kemod import (
    ConstantSoFar,
    Falsified,
    SamplingPlan,
    builtin,
    check_constant,
    new_module,
    omega,
)
from cjt.polyd import binomial_poly, shift_var
from cjt.realize import euler_spec, line_bundle_spec, realize_bundle
from cjt.thetasheaf import hilbert


def report(num, ok, detail, elapsed, cap):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.1f}s of {cap}s) - {detail}", flush=True)


def test_criterion_1_tangent_bundle_example():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        M = builtin("rad_quotient", p, 3, m=2)
        rk1, c1 = chern_from_hilbert(hilbert(M, 1))
        rk2, c2 = chern_from_hilbert(hilbert(M, 2))
        ok = ok and (rk1, c1.coeffs) == (2, (1, 1, 1))
        ok = ok and (rk2, c2.coeffs) == (1, (1, -1, 0))
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 10, "F_1 = T(-1), F_2 = O(-1) for p = 2, 3", elapsed, 10)
    assert ok
    assert elapsed < 10


def test_criterion_2_omega_shift():
    t0 = time.monotonic()
    p, r = 3, 2
    mods = {
        "k": builtin("trivial", p, r),
        "radq2": builtin("rad_quotient", p, r, m=2),
        "zigzag3": builtin("zigzag", p, r, n=3),
    }
    ok = True
    for name, M in mods.items():
        OM = omega(M, 1)
        for i in (1, 2):
            f_m = hilbert(M, i).fitted
            f_o = hilbert(OM, p - i).fitted
            if f_o != shift_var(f_m, i - p):
                ok = False
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 60, "F_{p-i}(Omega M) = F_i(M)(-p+i) on the battery",
           elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_3_omega_powers_of_k():
    t0 = time.monotonic()
    ok = True
    k32 = builtin("trivial", 3, 2)
    for n in (1, 2):
        fitted = hilbert(omega(k32, 2 * n), 1).fitted
        ok = ok and fitted == binomial_poly(-3 * n, 2)
    k23 = builtin("trivial", 2, 3)
    for n in (1, 2, 3):
        fitted = hilbert(omega(k23, n), 1).fitted
        ok = ok and fitted == binomial_poly(-n, 3)
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 60,
           "F_1(Omega^{2n} k) = O(-np) at p=3 and F_1(Omega^n k) = O(-n) at p=2",
           elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_4_main_theorem_p2():
    t0 = time.monotonic()
    M, rep = realize_bundle(euler_spec(2, 3))
    ok = M.n <= 5000
    ok = ok and isinstance(rep.verdict, ConstantSoFar)
    ok = ok and rep.verdict.points_checked >= 200
    ok = ok and rep.verdict.type.stable() == (2,)  # stable type [1]^2
    rk, c = chern_from_hilbert(hilbert(M, 1))
    ok = ok and (rk, c.coeffs) == (2, (1, 1, 1))
    elapsed = time.monotonic() - t0
    report(4, ok and elapsed < 120,
           f"Euler spec realizes stable [1]^2 with c = {c}", elapsed, 120)
    assert ok
    assert elapsed < 120


def test_criterion_5_main_theorem_p3():
    t0 = time.monotonic()
    M1, rep1 = realize_bundle(line_bundle_spec(3, 2, -1))
    om2 = omega(builtin("trivial", 3, 2), 2)
    ok = M1.n == om2.n == 10
    ok = ok and hilbert(M1, 1).fitted == binomial_poly(-3, 2)
    M2, rep2 = realize_bundle(euler_spec(3, 3))
    rk, c = chern_from_hilbert(hilbert(M2, 1))
    ok = ok and c.c(1) == 3
    ok = ok and divisibility_check(c, 3).ok
    elapsed = time.monotonic() - t0
    report(5, ok and elapsed < 300,
           f"O(-1) gives Omega^2 k with F_1 = O(-3); Euler gives c = {c}",
           elapsed, 300)
    assert ok
    assert elapsed < 300


def test_criterion_6_chern_congruence():
    import random

    t0 = time.monotonic()
    from cjt.chowring import ChowClass, product_twists

    rng = random.Random(0xC0FFEE)
    cases = 0
    ok = True
    for p in (2, 3, 5, 7):
        for _ in range(30):
            r = rng.randint(2, 8)
            s = rng.randint(1, 10)
            coeffs = [1] + [rng.randint(-9, 9) for _ in range(r - 1)]
            _, rep = product_twists(ChowClass(r, tuple(coeffs), s), s, p)
            ok = ok and rep.ok
            cases += 1
    elapsed = time.monotonic() - t0
    report(6, ok and cases >= 100,
           f"congruence to 1 - s h^(p-1) held for all {cases} classes", elapsed, 60)
    assert ok and cases >= 100


def test_criterion_7_divisibility_battery():
    t0 = time.monotonic()
    specs = [line_bundle_spec(3, 2, a) for a in (-2, -1, 0, 1)] + [euler_spec(3, 3)]
    ok = True
    checked = 0
    for spec in specs:
        M, rep = realize_bundle(spec)
        if M.n == 0:
            checked += 1
            continue
        _, c = chern_from_hilbert(hilbert(M, 1))
        ok = ok and divisibility_check(c, 3).ok
        checked += 1
    hits = [i for i in range(7)
            if (2 * i + 5) % 7 == 0 and (i * i + 5 * i + 10) % 7 == 0]
    ok = ok and hits == [] and checked >= 5
    elapsed = time.monotonic() - t0
    report(7, ok, f"3 | c_1 over {checked} realized specs; no twist mod 7 works",
           elapsed, 600)
    assert ok


class _Args:
    p = None
    r = None
    seed = 0xC0FFEE
    max_dim = 5000
    samples = 200
    field_ext = 4


def test_criterion_8_structural_suites_and_verify_all():
    import io

    t0 = time.monotonic()
    buf = io.StringIO()
    code = run_verify(list(SUITES), _Args(), out=buf)
    elapsed = time.monotonic() - t0
    ok = code == 0 and elapsed < 900
    tail = buf.getvalue().strip().splitlines()[-1]
    report(8, ok, f"verify all: {tail}", elapsed, 900)
    if code != 0:
        print(buf.getvalue())
    assert code == 0
    assert elapsed < 900


def test_criterion_9_falsifiability():
    t0 = time.monotonic()
    X1 = np.zeros((3, 3))
    X1[0, 1] = 1
    M = new_module(2, 2, [X1, np.zeros((3, 3))])
    v = check_constant(M, SamplingPlan())
    ok = isinstance(v, Falsified) and v.witness.normalized().coords == (0, 1)
    elapsed = time.monotonic() - t0
    report(9, ok, f"witness {v.witness.coords}: {v.type_at_witness} vs {v.reference_type}",
           elapsed, 60)
    assert ok
