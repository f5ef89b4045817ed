import argparse
import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cjt
from cjt import cli, kemod, realize, suites, thetasheaf
from cjt.cli import main
from cjt.formats import ParseError, parse_module, parse_spec, print_module
from cjt.realize import realize_bundle
from cjt.kemod import builtin, jordan_type_at, projective_points


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


TRIVIAL_22 = "2 2 1\n0\n0\n"

RADQ2_32 = textwrap.dedent(
    """\
    # dim-3 quotient, p=3 r=2
    3 2 3
    0 0 0
    1 0 0   # X_1 sends the generator to the first basis line
    0 0 0
    0 0 0
    0 0 0
    1 0 0
    """
)

NONCOMMUTING = textwrap.dedent(
    """\
    2 2 2
    0 1
    0 0
    0 0
    1 0
    """
)

FALSIFIABLE = textwrap.dedent(
    """\
    2 2 3
    0 1 0
    0 0 0
    0 0 0
    0 0 0
    0 0 0
    0 0 0
    """
)

SPEC_O_MINUS_1 = "3 2 0\nlevel 0: -1\n"

SPEC_EULER_P2R3 = textwrap.dedent(
    """\
    2 3 1
    level 0: 0 0 0
    level 1: -1
    map 1
    1 1 : 1 1 0 0
    2 1 : 1 0 1 0
    3 1 : 1 0 0 1
    """
)


def unreadable_path(tmp_path, kind):
    """A directory, or a file that is not UTF-8 text (0xff never is)."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        rng = np.random.default_rng(0)
        path.write_bytes(b"\xff" + rng.integers(0, 256, 199, dtype=np.uint8).tobytes())
    return str(path)


class TestModuleFiles:
    def test_parse_trivial(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text(TRIVIAL_22)
        M = parse_module(str(f))
        assert (M.p, M.r, M.n) == (2, 2, 1)

    def test_parse_radq2(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text(RADQ2_32)
        M = parse_module(str(f))
        assert M.n == 3
        R = builtin("rad_quotient", 3, 2, m=2)
        for pt in projective_points(3, 2):
            assert jordan_type_at(M, pt) == jordan_type_at(R, pt)

    def test_noncommuting_rejected(self, tmp_path):
        from cjt.kemod import NonCommutingError

        f = tmp_path / "m.txt"
        f.write_text(NONCOMMUTING)
        with pytest.raises(NonCommutingError):
            parse_module(str(f))

    def test_parse_error_has_line_number(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2 2 1\n0\n")
        from cjt.formats import ParseError

        with pytest.raises(ParseError):
            parse_module(str(f))

    def test_entries_are_read_mod_p(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text(f"2 2 1\n{10**30}\n{-(2**64)}\n")
        assert [int(A[0, 0]) for A in parse_module(str(f)).X] == [0, 0]
        f.write_text(f"3 1 2\n0 {3 * 2**70}\n{10**30} {-(2**63) - 1}\n")
        (A,) = parse_module(str(f)).X
        assert A.tolist() == [[0, 0], [1, 0]]  # 10^30 = 1 and -2^63 - 1 = 0 mod 3

    @pytest.mark.parametrize(
        "header", ["4 2 1", "0 2 1", "-2 2 1", f"{2**64} 2 1", "2 0 1", "2 -1 1", "2 2 -1"]
    )
    def test_bad_header_is_a_parse_error(self, tmp_path, header, capsys):
        f = tmp_path / "m.txt"
        f.write_text(f"# module\n{header}\n0\n0\n")
        with pytest.raises(ParseError) as exc:
            parse_module(str(f))
        assert exc.value.line == 2
        code, out, err = run_cli(["jordan-type", str(f)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f}:2: header needs ") and err.count("\n") == 1

    @settings(
        max_examples=150,
        deadline=1000,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        p=st.sampled_from([2, 2, 3, 5, 13, 0, 4, 2**64]),
        r=st.one_of(st.integers(1, 2), st.integers(-1, 2)),
        n=st.one_of(st.integers(0, 3), st.integers(-1, 3)),
        data=st.data(),
    )
    def test_jordan_type_on_fuzzed_module_files(self, tmp_path, p, r, n, data):
        # mostly well-shaped bodies of zeros and small entries, some of any size
        entry = st.one_of(
            st.just(0),
            st.integers(-2, 2),
            st.integers(-(2**70), 2**70),
            st.sampled_from([2**63, -(2**63), 2**64, -(2**64) - 1]),
        )
        rows = data.draw(st.one_of(st.just(max(r, 0) * max(n, 0)), st.integers(0, 7)))
        width = data.draw(st.one_of(st.just(max(n, 0)), st.integers(0, 4)))
        body = [" ".join(str(data.draw(entry)) for _ in range(width)) for _ in range(rows)]
        f = tmp_path / "m.txt"
        f.write_text("\n".join([f"{p} {r} {n}"] + body) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["jordan-type", str(f)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert err == "" and out.getvalue().count("\n") == 1
        else:
            assert err.count("\n") == 1
            assert err.startswith("error: " if code == 2 else "failure: ")

    @pytest.mark.parametrize("parse", [parse_module, parse_spec])
    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_path_is_a_parse_error(self, tmp_path, parse, kind):
        path = unreadable_path(tmp_path, kind)
        with pytest.raises(ParseError) as exc:
            parse(path)
        assert exc.value.path == path and exc.value.line is None

    @pytest.mark.parametrize(
        "mod",
        [
            builtin("rad_quotient", 3, 2, m=2),
            builtin("regular", 2, 2),
            builtin("zigzag", 5, 2, n=2),
        ],
    )
    def test_roundtrip_bit_exact(self, tmp_path, mod):
        f = tmp_path / "m.txt"
        f.write_text(print_module(mod))
        M = parse_module(str(f))
        assert (M.p, M.r, M.n) == (mod.p, mod.r, mod.n)
        for A, B in zip(M.X, mod.X):
            assert np.array_equal(A, B)
        # and a second trip is textually identical
        assert print_module(M) == print_module(mod)


class TestSpecFiles:
    def test_line_bundle_spec(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(SPEC_O_MINUS_1)
        spec = parse_spec(str(f))
        assert spec.levels == ((-1,),)
        assert spec.length == 0

    def test_euler_spec_file(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(SPEC_EULER_P2R3)
        spec = parse_spec(str(f))
        assert spec.levels == ((0, 0, 0), (-1,))
        assert spec.maps[0][1][0] == ((1, (0, 1, 0)),)

    @pytest.mark.parametrize("L", [-1, 2, 200000])
    def test_level_count_refused_on_the_header(self, tmp_path, L):
        f = tmp_path / "s.txt"
        f.write_text(f"# spec\n2 2 {L}\nlevel 0: 0\nlevel 1: -1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_spec(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == 2
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "entry",
        [
            "9 1 : 1 1 0 0",  # row past the 3 x 1 matrix
            "0 5 : 1 0 0 1",  # row and column outside it
            "1 2 : 1 1 0 0",  # column past it
            "2 1 : 1 0 0 1",  # a second entry at (2, 1)
        ],
    )
    def test_entry_outside_or_repeated_refused_on_its_line(self, tmp_path, entry):
        f = tmp_path / "s.txt"
        f.write_text(SPEC_EULER_P2R3 + entry + "\n")
        with pytest.raises(ParseError) as exc:
            parse_spec(str(f))
        assert exc.value.line == 8

    def test_polynomial_sum_entries(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(
            "2 2 1\nlevel 0: 0\nlevel 1: -2\nmap 1\n1 1 : 1 2 0 + 1 0 2\n"
        )
        spec = parse_spec(str(f))
        assert spec.maps[0][0][0] == ((1, (2, 0)), (1, (0, 2)))

    @pytest.mark.parametrize(
        "level1,entry,message",
        [
            ("-1", "1 2 -1", "map 1 entry (1,1): exponents must be nonnegative"),
            ("0", "1 0 0", "map 1 entry (1,1) is a nonzero constant"),
        ],
    )
    def test_negative_exponent_and_constant_entry_refused(
        self, tmp_path, level1, entry, message, capsys
    ):
        f = tmp_path / "s.txt"
        f.write_text(f"2 2 1\nlevel 0: 0\nlevel 1: {level1}\nmap 1\n1 1 : {entry}\n")
        with pytest.raises(realize.SpecInvalidError, match=rf"^{re.escape(message)}"):
            parse_spec(str(f))
        code, out, err = run_cli(["realize", str(f)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        p=st.sampled_from([2, 3]),
        r=st.integers(1, 2),
        L=st.integers(0, 2),
        data=st.data(),
    )
    def test_realize_on_fuzzed_spec_files(self, tmp_path, p, r, L, data):
        twists = st.lists(st.integers(-3, 2), min_size=1, max_size=2)
        levels = [data.draw(twists) for _ in range(L + 1)]
        exponents = st.lists(st.integers(-1, 3), min_size=r, max_size=r)
        monomial = st.tuples(st.integers(0, 3), exponents)
        lines = [f"{p} {r} {L}"]
        lines += [f"level {i}: {' '.join(map(str, tw))}" for i, tw in enumerate(levels)]
        for i in range(1, L + 1):
            lines.append(f"map {i}")
            for row in range(1, len(levels[i - 1]) + 1):
                for col in range(1, len(levels[i]) + 1):
                    poly = data.draw(st.lists(monomial, max_size=2))
                    if poly:
                        terms = (" ".join(map(str, (c, *exps))) for c, exps in poly)
                        lines.append(f"{row} {col} : {' + '.join(terms)}")
        f = tmp_path / "s.txt"
        f.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["realize", str(f), "--samples", "5"])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out.getvalue() == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestCommands:
    def test_jordan_type_builtin(self, capsys):
        code, out, _ = run_cli(
            ["jordan-type", "builtin:radq2", "--p", "2", "--r", "3"], capsys
        )
        assert code == 0
        assert out.strip() == "[2][1]^2"

    def test_jordan_type_at_point(self, capsys):
        code, out, _ = run_cli(
            [
                "jordan-type",
                "builtin:perm1",
                "--p",
                "3",
                "--r",
                "2",
                "--point",
                "0,1",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip() == "[1]^3"

    def test_point_read_mod_p_over_the_prime_field(self, capsys):
        # -3,1 and 3,4 are (0, 1) over GF(3), perm1's point of type [1]^3
        for point in ("-3,1", "3,4", "0,1"):
            argv = ["jordan-type", "builtin:perm1", "--p", "3", "--r", "2"]
            code, out, _ = run_cli(argv + [f"--point={point}"], capsys)
            assert (code, out.strip()) == (0, "[1]^3")

    def test_check_constant_falsified_exit_1(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(FALSIFIABLE)
        code, out, _ = run_cli(
            ["check-constant", str(f), "--samples", "10"], capsys
        )
        assert code == 1
        assert "FALSIFIED" in out
        assert "(0, 1)" in out

    def test_chern_zigzag(self, capsys):
        code, out, _ = run_cli(
            ["chern", "--functor", "1", "builtin:zigzag5", "--p", "3", "--r", "2"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "rank 1, c = 1 - 5h"

    def test_fiber(self, capsys):
        code, out, _ = run_cli(
            ["fiber", "builtin:radq2", "--p", "2", "--r", "3", "--point", "1,1,0"],
            capsys,
        )
        assert code == 0
        assert "F_1: 2" in out and "F_2: 1" in out

    def test_hilbert_prints_samples_and_fit(self, capsys):
        code, out, _ = run_cli(
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1"],
            capsys,
        )
        assert code == 0
        assert "samples: 0:1 1:2 2:3" in out
        assert "fitted: d + 1" in out
        assert "stable from degree 0" in out

    def test_omega_roundtrips_through_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["omega", "1", "builtin:trivial", "--p", "2", "--r", "2"], capsys
        )
        assert code == 0
        f = tmp_path / "om.txt"
        f.write_text(out)
        M = parse_module(str(f))
        assert M.n == 3

    def test_strip_free(self, capsys):
        code, out, _ = run_cli(
            ["strip-free", "builtin:regular", "--p", "2", "--r", "2"], capsys
        )
        assert code == 0
        assert "# stripped 1 free summands" in out
        assert "2 2 0" in out

    def test_sum_and_tensor(self, capsys):
        code, out, _ = run_cli(
            [
                "sum",
                "builtin:trivial",
                "builtin:trivial",
                "--p",
                "3",
                "--r",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "3 2 2"
        code, out, _ = run_cli(
            [
                "tensor",
                "builtin:perm1",
                "builtin:trivial",
                "--p",
                "3",
                "--r",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "3 2 3"

    def test_realize_line_bundle(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text(SPEC_O_MINUS_1)
        code, out, err = run_cli(["realize", str(f), "--samples", "30"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "3 2 10"
        assert "final dimension: 10" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(["hilbert", "--help"], capsys)
        assert code == 0
        assert out.startswith("usage: cjt hilbert")

    def test_usage_errors_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(["jordan-type", "builtin:radq2"], capsys)  # no p/r
        assert code == 2
        code, _, _ = run_cli(["verify", "no-such-suite"], capsys)
        assert code == 2
        code, _, _ = run_cli(["jordan-type", str(tmp_path / "nope.txt")], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fiber", "builtin:trivial", "--p", "2", "--r", "2", "--point", "0,0"],
            ["fiber", "builtin:trivial", "--p", "2", "--r", "2", "--point", "1,x"],
            ["fiber", "builtin:trivial", "--p", "2", "--r", "2", "--point", "1,0",
             "--field-ext-point", "0"],
            ["fiber", "builtin:trivial", "--p", "4", "--r", "2", "--point", "1,0"],
            ["check-constant", "builtin:trivial", "--p", "2", "--r", "2",
             "--field-ext", "0"],
            # sampling values above the caps: more extra points than
            # kemod.EXTRA_CAP, an extension degree the sampler never draws
            ["check-constant", "builtin:trivial", "--p", "13", "--r", "2",
             "--samples", "100000000"],
            ["check-constant", "builtin:trivial", "--p", "13", "--r", "2",
             "--field-ext", "9"],
            ["realize", "file:" + SPEC_O_MINUS_1, "--field-ext", "5"],
            ["verify", "exactness", "--p", "2", "--r", "2", "--samples", "10001"],
            ["fiber", "builtin:trivial", "--p", "13", "--r", "2", "--point", "1,0",
             "--field-ext-point", "10"],
            ["jordan-type", "builtin:radqx", "--p", "2", "--r", "2"],
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "0"],
            ["chern", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "3"],
            # a leading NAME=value sets that environment variable, as in a shell
            ["CJT_SEED=abc", "check-constant", "builtin:trivial", "--p", "2",
             "--r", "2"],
            # unsupported (p, r): the battery, and spec headers (an item
            # file:<text> stands for a file holding that text)
            ["verify", "fij-shift", "--p", "4", "--r", "2"],
            ["verify", "fij-shift", "--p", "2", "--r", "0"],
            # refused before the p^r cap and before any suite runs
            ["verify", "main-theorem", "--p", "0", "--r", "3", "--max-dim", "150"],
            ["verify", "omega2", "--p", "4", "--r", "2", "--max-dim", "10"],
            # refused as unsupported before --max-dim sees 4^7 > 5000
            ["jordan-type", "builtin:regular", "--p", "4", "--r", "7"],
            ["realize", "file:0 2 1\nlevel 0: 0\nlevel 1: -1\nmap 1\n1 1 : 1 1 0\n"],
            ["realize", "file:4 2 0\nlevel 0: -1\n"],
            ["realize", "file:2 0 0\nlevel 0: -1\n"],
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--degree-cap", "-1"],
            ["chern", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--degree-cap", "-1"],
            ["verify", "fij-shift", "--p", "2", "--r", "2", "--degree-cap", "-1"],
            # a level count that is negative or exceeds the lines that follow
            ["realize", "file:2 2 -1\nlevel 0: 0\n"],
            ["realize", "file:2 2 200000\nlevel 0: 0\n"],
            # a flag the command does not read
            ["dual", "builtin:trivial", "--p", "2", "--r", "2", "--samples", "5"],
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--seed", "3"],
            ["realize", "file:" + SPEC_O_MINUS_1, "--p", "2"],
            ["verify", "all", "--degree-cap", "0"],
            # a value the parser refuses, and other argparse failures
            ["check-constant", "builtin:trivial", "--p", "2", "--r", "2",
             "--samples", "-1"],
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2"],
            ["jordan-type", "builtin:trivial", "--p", "2", "--r", "2", "--bogus"],
            ["omega", "x", "builtin:trivial", "--p", "2", "--r", "2"],
            ["no-such-command"],
            ["verify", "no-such-suite"],
            # a map entry outside its matrix
            ["realize", "file:" + SPEC_EULER_P2R3 + "9 1 : 1 1 0 0\n"],
            # a flag the command does not read that prefixes one it does, and
            # an abbreviated flag: abbreviations are refused
            ["fiber", "builtin:trivial", "--p", "2", "--r", "2", "--point", "1,0",
             "--field-ext", "2"],
            ["jordan-type", "builtin:trivial", "--p", "2", "--r", "2",
             "--field-ext", "2"],
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--degree", "3"],
            # coordinates outside [0, q) over GF(p^e), e > 1: encoded
            # elements do not wrap
            ["jordan-type", "builtin:radq2", "--p", "3", "--r", "2", "--point", "10,1",
             "--field-ext-point", "2"],
            ["jordan-type", "builtin:radq2", "--p", "3", "--r", "2", "--point=-1,1",
             "--field-ext-point", "2"],
            # a point field without a point
            ["jordan-type", "builtin:trivial", "--p", "2", "--r", "2",
             "--field-ext-point", "3"],
            # --module and --n on a suite that does not read them
            ["verify", "rho-even", "--p", "2", "--r", "2", "--module", "builtin:radq2"],
            ["verify", "omegank", "--p", "2", "--r", "2", "--module", "builtin:radq2"],
            ["verify", "prop-bundles", "--p", "2", "--r", "2", "--n", "2"],
            # --p or --r alone that matches no default (p, r) pair
            ["verify", "exactness", "--r", "1"],
            ["verify", "all", "--r", "4"],
            ["verify", "fij-shift", "--p", "7"],
            # an empty coordinate between or after commas
            ["jordan-type", "builtin:radq2", "--p", "3", "--r", "2", "--point", "1,2,"],
            ["jordan-type", "builtin:radq2", "--p", "3", "--r", "2", "--point", "1,,2"],
            ["fiber", "builtin:radq2", "--p", "3", "--r", "2", "--point", ",1,2"],
            # --p or --r that contradicts a module file's header (p = 3, r = 2);
            # verify resolves the file at each pair it runs, (2, 2) first
            ["jordan-type", "file:" + RADQ2_32, "--p", "5", "--r", "2"],
            ["check-constant", "file:" + RADQ2_32, "--r", "3"],
            ["hilbert", "file:" + RADQ2_32, "--p", "2", "--functor", "1"],
            ["verify", "fij-shift", "--module", "file:" + RADQ2_32],
        ],
    )
    def test_bad_point_and_field_exit_2(self, argv, capsys, monkeypatch, tmp_path):
        while "=" in argv[0]:
            name, value = argv[0].split("=", 1)
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        argv = list(argv)
        for k, item in enumerate(argv):
            if item.startswith("file:"):
                path = tmp_path / f"arg{k}.txt"
                path.write_text(item[len("file:") :])
                argv[k] = str(path)
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # kE has dimension 2^3 = 8
            ["jordan-type", "builtin:regular", "--p", "2", "--r", "3", "--max-dim", "7"],
            ["hilbert", "builtin:radq2", "--p", "2", "--r", "3", "--functor", "1",
             "--max-dim", "7"],
            ["jordan-type", "builtin:omega1", "--p", "2", "--r", "3", "--max-dim", "7"],
            # 2^40 under the default cap
            ["jordan-type", "builtin:regular", "--p", "2", "--r", "40"],
            ["hilbert", "builtin:radq3", "--p", "2", "--r", "40", "--functor", "1"],
            # 2^40 - 1 GF(2)-points of P^39 under the constancy check's cap
            ["check-constant", "builtin:trivial", "--p", "2", "--r", "40"],
            ["strip-free", "builtin:trivial", "--p", "2", "--r", "3", "--max-dim", "7"],
            ["verify", "fij-shift", "--p", "2", "--r", "3", "--max-dim", "7"],
            # Omega^2 k has dimension 5 at p = r = 2, radq2 (x) radq2 has 9
            ["omega", "2", "builtin:trivial", "--p", "2", "--r", "2", "--max-dim", "4"],
            ["tensor", "builtin:radq2", "builtin:radq2", "--p", "2", "--r", "2",
             "--max-dim", "8"],
            # radq2 + radq2 has dimension 6
            ["sum", "builtin:radq2", "builtin:radq2", "--p", "2", "--r", "2",
             "--max-dim", "5"],
            # Heller chains longer than the cap; perm1's shifts and every
            # module's at r = 1 stay small, so no dimension cap would stop them
            ["omega", "100000000", "builtin:perm1", "--p", "2", "--r", "2"],
            ["verify", "omegank", "--p", "2", "--r", "1", "--n", "100000000",
             "--max-dim", "150"],
        ],
    )
    def test_max_dim_refused_exit_1(self, argv, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith("failure: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-constant", "FILE", "--max-dim", "2"],
            ["jordan-type", "FILE", "--p", "3", "--r", "2", "--max-dim", "2"],
            ["sum", "FILE", "FILE", "--max-dim", "2"],
            # refused at the header: the 10^5 rows it announces are not there
            ["jordan-type", "HUGE"],
            ["verify", "filtration", "--module", "HUGE", "--p", "3", "--r", "2"],
        ],
    )
    def test_module_file_above_max_dim_exit_1(self, argv, tmp_path, capsys):
        files = {"FILE": RADQ2_32, "HUGE": "3 2 100000\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("failure: module file of dimension ")
        assert err.count("\n") == 1

    def test_module_file_at_its_own_algebra(self, tmp_path, capsys):
        # --p and --r that agree with the header, and verify at that pair
        f = tmp_path / "m.txt"
        f.write_text(RADQ2_32)
        code, plain, _ = run_cli(["jordan-type", str(f), "--max-dim", "3"], capsys)
        assert code == 0
        code, out, _ = run_cli(["jordan-type", str(f), "--p", "3", "--r", "2"], capsys)
        assert code == 0 and out == plain
        code, out, _ = run_cli(
            ["verify", "fij-shift", "--module", str(f), "--p", "3", "--r", "2"], capsys
        )
        assert code == 0 and out.endswith("1/1 cases passed\n")

    def test_no_solution_exit_1(self, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise realize.NoSolutionError("no chain map lifts the cocycle")

        monkeypatch.setattr(cli, "realize_bundle", fail)
        f = tmp_path / "s.txt"
        f.write_text(SPEC_O_MINUS_1)
        code, out, err = run_cli(["realize", str(f)], capsys)
        assert code == 1 and out == ""
        assert err == "failure: no chain map lifts the cocycle\n"

    @pytest.mark.parametrize(
        "flag,value,cap",
        [("--samples", "100000000", kemod.EXTRA_CAP), ("--field-ext", "9", 4)],
    )
    def test_sampling_caps_refused_before_any_point(self, flag, value, cap, capsys):
        argv = ["check-constant", "builtin:trivial", "--p", "13", "--r", "2", flag, value]
        tracemalloc.start()
        try:
            code, _, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err == (
            f"error: cjt check-constant: argument {flag}: must be <= {cap}, got {value}\n"
        )
        assert peak < 1 << 20

    def test_degree_cap_refused_before_any_module(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "resolve_module", lambda *args: built.append(args))
        value = str(thetasheaf.MAX_DEGREE + 1)
        code, out, err = run_cli(
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--degree-cap", value],
            capsys,
        )
        assert code == 2 and not out and not built
        assert err == (
            f"error: cjt hilbert: argument --degree-cap: "
            f"must be <= {thetasheaf.MAX_DEGREE}, got {value}\n"
        )

    def test_degree_cap_at_max_degree_passes(self, capsys):
        code, out, _ = run_cli(
            ["hilbert", "builtin:trivial", "--p", "2", "--r", "2", "--functor", "1",
             "--degree-cap", str(thetasheaf.MAX_DEGREE)],
            capsys,
        )
        assert code == 0
        assert f" {thetasheaf.MAX_DEGREE}:" in out

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    @pytest.mark.parametrize(
        "argv", [["jordan-type", "PATH", "--p", "2", "--r", "2"], ["realize", "PATH"]]
    )
    def test_unreadable_path_exit_2(self, tmp_path, kind, argv, capsys):
        path = unreadable_path(tmp_path, kind)
        code, _, err = run_cli([path if a == "PATH" else a for a in argv], capsys)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_max_dim_refuses_realize_before_group_algebra(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text(SPEC_O_MINUS_1)  # p = 3, r = 2: kE has dimension 9
        code, _, err = run_cli(["realize", str(f), "--max-dim", "8"], capsys)
        assert code == 1
        assert err.startswith("failure: ") and err.count("\n") == 1

    def test_memory_budget_exit_1(self, monkeypatch, capsys):
        # certifying Im theta for Omega^1 k needs one tracker step
        monkeypatch.setattr(thetasheaf, "DEFAULT_MEMORY_BUDGET", 16)
        code, _, err = run_cli(
            ["hilbert", "builtin:omega1", "--p", "2", "--r", "2", "--functor", "1"],
            capsys,
        )
        assert code == 1
        assert err.startswith("failure: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_degree_cap_sets_last_sample_only(self, capsys):
        code, out, _ = run_cli(
            ["hilbert", "builtin:radq2", "--p", "2", "--r", "2", "--functor", "1",
             "--degree-cap", "3"],
            capsys,
        )
        assert code == 0
        assert "samples: 0:2 1:3 2:4 3:5\n" in out
        assert "fitted: d + 2" in out


def flag_values(good):
    """Text for a numeric flag: mostly in range, sometimes anything."""
    anything = st.one_of(
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(["", "x", "1.5", "-", "0x10", "1e3"]),
    )
    return st.one_of(good.map(str), anything)


def builtin_refs():
    """builtin:<name><N> references, with N mostly small and sometimes not a number."""
    index = st.one_of(st.integers(-4, 5).map(str), st.sampled_from(["", "x", "2.0", "-", "1e2"]))
    indexed = st.sampled_from(["radq", "perm", "zigzag", "omega"])
    return st.one_of(
        st.sampled_from(["trivial", "regular", "nothing"]),
        st.builds(lambda name, n: name + n, indexed, index),
    ).map(lambda name: f"builtin:{name}")


class TestFuzzedFlags:
    """fiber, hilbert, chern and check-constant on fuzzed flags and references."""

    @settings(max_examples=80, deadline=None)
    @given(
        command=st.sampled_from(["fiber", "hilbert", "chern", "check-constant"]),
        module=builtin_refs(),
        p=st.sampled_from(["2", "2", "3", "3", "5", "4", None]),
        r=st.sampled_from(["1", "2", "2", "2", "0", None]),
        max_dim=st.sampled_from([None, None, "1", "10", "60"]),
        data=st.data(),
    )
    def test_commands_on_fuzzed_flags(self, command, module, p, r, max_dim, data):
        argv = [command, module]
        for flag, value in (("--p", p), ("--r", r), ("--max-dim", max_dim)):
            if value is not None:
                argv += [flag, value]
        coords = st.lists(st.integers(-30, 30), min_size=2, max_size=2) | st.lists(
            st.integers(-30, 30), max_size=3
        )
        point = st.one_of(
            coords.map(lambda c: ",".join(map(str, c))),
            coords.map(lambda c: " ".join(map(str, c))),
            st.sampled_from(["", "1,x", "1,,2"]),
        )
        functor = flag_values(st.integers(-1, 6))
        # (flag, values, required)
        flags = {
            "fiber": [
                ("--point", point, True),
                ("--field-ext-point", flag_values(st.integers(-1, 5)), False),
            ],
            "hilbert": [
                ("--functor", functor, True),
                ("--degree-cap", flag_values(st.integers(-1, 40) | st.just(10_001)), False),
            ],
            "chern": [("--functor", functor, True)],
            "check-constant": [("--samples", flag_values(st.integers(-1, 20)), False)],
        }[command]
        for flag, values, required in flags:
            if required or data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(values)}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        elif command == "check-constant" and out.startswith("FALSIFIED"):
            assert code == 1 and err == "" and out.count("\n") == 1
        else:
            assert err.count("\n") == 1, argv
            assert err.startswith("error: " if code == 2 else "failure: ")


class TestFuzzedVerify:
    """verify on fuzzed suites, pairs and flags; --p and --r always come
    together, so all never runs the four default pairs."""

    @settings(max_examples=150, deadline=None)
    @given(
        suite=st.sampled_from(("all",) + suites.SUITES),
        pair=st.sampled_from(
            [("2", "2"), ("2", "3"), ("3", "2"), ("5", "2"), ("2", "1"), ("3", "1")]
            + [("4", "2"), ("2", "0"), ("0", "3"), ("-2", "2"), ("13", "5"), ("x", "2")]
        ),
        max_dim=st.sampled_from(["150", "60", "150", "10", "x", "-1"]),
        data=st.data(),
    )
    def test_verify_on_fuzzed_flags(self, suite, pair, max_dim, data):
        argv = ["verify", suite, "--p", pair[0], "--r", pair[1], f"--max-dim={max_dim}"]

        def mostly(good):
            bad = st.sampled_from(["", "x", "1.5", "0x10", str(2**70)])
            return st.one_of(good.map(str), good.map(str), good.map(str), bad)

        # --n stays small: a long Heller chain at r = 1 never reaches the cap
        for flag, values in (
            ("--module", builtin_refs()),
            ("--n", mostly(st.integers(-3, 4))),
            ("--samples", mostly(st.integers(-1, 20))),
            ("--field-ext", mostly(st.integers(0, 5))),
            ("--seed", mostly(st.integers(-5, 5))),
        ):
            if data.draw(st.integers(0, 3)) == 0:
                argv.append(f"{flag}={data.draw(values)}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 0:
            assert err == "", argv
        elif code == 1 and not err:
            passed, total = re.fullmatch(
                r"(\d+)/(\d+) cases passed", out.splitlines()[-1]
            ).groups()
            assert int(passed) < int(total), argv
        else:
            assert err.count("\n") == 1, argv
            assert err.startswith("error: " if code == 2 else "failure: "), argv


MODULE_FLAGS = {"--p", "--r", "--max-dim"}
SAMPLING_FLAGS = {"--seed", "--samples", "--field-ext"}
COMMON_FLAGS = MODULE_FLAGS | SAMPLING_FLAGS | {"--degree-cap"}


class TestParser:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {o for a in sp._actions for o in a.option_strings} & COMMON_FLAGS
            for name, sp in sub.choices.items()
        }
        want = dict.fromkeys(got, MODULE_FLAGS)
        want["check-constant"] = want["verify"] = MODULE_FLAGS | SAMPLING_FLAGS
        want["realize"] = {"--max-dim"} | SAMPLING_FLAGS
        want["hilbert"] = MODULE_FLAGS | {"--degree-cap"}
        assert len(got) == 12
        assert got == want
        assert sum(map(len, got.values())) == 44

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(cmd, comments=True)
            for line in block.splitlines()
            for cmd in line.split(";")
        ]
        commands = [argv for argv in commands if argv]
        assert len(commands) > 10
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "cjt"
            parser.parse_args(argv[1:])


class TestVerify:
    def test_hm_obstruction_suite(self, capsys):
        code, out, _ = run_cli(["verify", "hm-obstruction"], capsys)
        assert code == 0
        assert "pass" in out

    def test_product_twists_suite(self, capsys):
        code, out, _ = run_cli(["verify", "product-twists"], capsys)
        assert code == 0
        assert "120 random classes" in out

    def test_chern_twist_suite(self, capsys):
        code, out, _ = run_cli(["verify", "chern-twist"], capsys)
        assert code == 0

    def test_fij_shift_single_pair(self, capsys):
        code, out, _ = run_cli(
            ["verify", "fij-shift", "--p", "2", "--r", "2"], capsys
        )
        assert code == 0
        assert "cases passed" in out

    @pytest.mark.parametrize("suite", cli.MODULE_SUITES)
    def test_module_restricts_the_battery(self, suite, capsys):
        code, out, _ = run_cli(
            ["verify", suite, "--p", "2", "--r", "2", "--module", "builtin:radq2"],
            capsys,
        )
        cases = out.splitlines()[:-1]
        assert code == 0
        assert cases and all("builtin:radq2" in line for line in cases)

    def test_n_restricts_omegank(self, capsys):
        code, out, _ = run_cli(
            ["verify", "omegank", "--p", "2", "--r", "2", "--n", "2"], capsys
        )
        assert code == 0
        assert out.splitlines()[0].startswith("omegank p=2 r=2 Omega^2 ")
        assert out.endswith("1/1 cases passed\n")

    def test_fij_shift_catches_a_corrupted_rank(self, capsys, monkeypatch):
        rank_theta = thetasheaf._rank_theta
        monkeypatch.setattr(
            thetasheaf,
            "_rank_theta",
            lambda M, a, e: rank_theta(M, a, e) + ((a, e) == (1, 0)),
        )
        code, out, _ = run_cli(["verify", "fij-shift", "--p", "2", "--r", "2"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_realize_once_per_spec(self, monkeypatch):
        # at (3, 2) the three realizing suites share six specs: O(-2)..O(1)
        # and the Koszul tail at (3, 2), and divisibility's Euler spec at (3, 3)
        calls = []

        def counted(spec, **kw):
            calls.append(spec)
            return realize_bundle(spec, **kw)

        monkeypatch.setattr(suites, "realize_bundle", counted)
        suites._realized.cache_clear()
        args = cli.build_parser().parse_args(["verify", "all", "--p", "3", "--r", "2"])
        args.seed = cli.DEFAULT_SEED
        names = ["exactness", "main-theorem", "divisibility"]
        try:
            assert suites.run_verify(names, args, out=io.StringIO()) == 0
        finally:
            suites._realized.cache_clear()
        assert len(calls) == len(set(calls)) == 6

    def test_certificate_over_budget_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(thetasheaf, "DEFAULT_MEMORY_BUDGET", 16)
        code, out, err = run_cli(["verify", "omegank", "--p", "2", "--r", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p,cases", [(2, 48), (3, 50)])
    def test_verify_all_at_rank_one(self, p, cases, capsys):
        # exactness realizes the Koszul tail only at r = 2, as main-theorem does
        code, out, err = run_cli(["verify", "all", "--p", str(p), "--r", "1"], capsys)
        assert code == 0 and err == ""
        assert f"exactness p={p} r=1 euler " in out
        assert out.endswith(f"{cases}/{cases} cases passed\n")

    def test_r_alone_selects_the_default_pairs_with_that_r(self, capsys):
        code, out, err = run_cli(["verify", "rho-odd", "--r", "2"], capsys)
        assert code == 0 and err == ""
        assert "rho-odd p=3 r=2 x_1" in out and " r=3 " not in out
        assert out.endswith("2/2 cases passed\n")

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CJT_SEED", "0x123")
        code, out, _ = run_cli(["verify", "hm-obstruction"], capsys)
        assert code == 0


def run_child(*argv):
    # the child imports cjt from where this process found it, so the tests
    # also run from a checkout whose src is only on pytest's pythonpath
    src = str(Path(cjt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestConsoleEntry:
    def test_installed_script(self):
        proc = run_child("-m", "cjt.cli", "verify", "hm-obstruction")
        assert proc.returncode == 0
        assert "pass" in proc.stdout

    @pytest.mark.parametrize("module", ["cjt.formats", "cjt.suites", "cjt.cli"])
    def test_each_module_imports_first(self, module):
        # an import cycle among cli, suites and formats breaks whichever of
        # them a fresh interpreter imports first; only cli parses arguments
        proc = run_child("-c", f"import sys, {module}; print('argparse' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{module == 'cjt.cli'}\n"
