import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cjt
from cjt.cli import main, parse_module, parse_spec, print_module
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
        from cjt.cli import ParseError

        with pytest.raises(ParseError):
            parse_module(str(f))

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

    def test_polynomial_sum_entries(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(
            "2 2 1\nlevel 0: 0\nlevel 1: -2\nmap 1\n1 1 : 1 2 0 + 1 0 2\n"
        )
        spec = parse_spec(str(f))
        assert spec.maps[0][0][0] == ((1, (2, 0)), (1, (0, 2)))


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
            ["fiber", "builtin:trivial", "--p", "13", "--r", "2", "--point", "1,0",
             "--field-ext-point", "10"],
        ],
    )
    def test_bad_point_and_field_exit_2(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CJT_SEED", "0x123")
        code, out, _ = run_cli(["verify", "hm-obstruction"], capsys)
        assert code == 0


class TestConsoleEntry:
    def test_installed_script(self):
        # the child imports cjt from where this process found it, so the test
        # also runs from a checkout whose src is only on pytest's pythonpath
        src = str(Path(cjt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "cjt.cli", "verify", "hm-obstruction"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "pass" in proc.stdout
