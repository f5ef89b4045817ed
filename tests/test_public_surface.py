"""The public names of the cjt package, pinned.

A change to this list is a change to the public surface: edit the pin
and record the change in CHANGES.md together.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cjt

PUBLIC_NAMES = [
    "ChowClass",
    "ConstancyVerdict",
    "ConstantSoFar",
    "Failure",
    "Falsified",
    "FiberReport",
    "FieldCtx",
    "HilbertData",
    "InputError",
    "JordanType",
    "KEModule",
    "ModuleHom",
    "Point",
    "ResolutionSpec",
    "SamplingPlan",
    "ThetaOp",
    "build_field",
    "builtin",
    "check_constant",
    "chern_from_hilbert",
    "chowring",
    "cone",
    "direct_sum",
    "divisibility_check",
    "dual",
    "dual_class",
    "errors",
    "euler_spec",
    "fiber",
    "filtration_check",
    "frobenius_pullback",
    "gfalg",
    "graded_dim",
    "hilbert",
    "jordan_type_at",
    "kemod",
    "kernel_basis",
    "koszul_tail_spec",
    "line_bundle_spec",
    "new_module",
    "omega",
    "polyd",
    "product_twists",
    "realize",
    "realize_bundle",
    "stable_models",
    "strip_free",
    "tensor",
    "thetasheaf",
    "twist",
    "twist_shift_check",
    "whitney",
    "x_alpha",
]


def test_public_names_of_cjt_are_pinned():
    # in a fresh interpreter: importing a submodule such as cjt.cli binds it
    # on the package, so this process's cjt depends on what ran before
    code = "import cjt, json; print(json.dumps(sorted(n for n in dir(cjt) if n[0] != '_')))"
    src = str(Path(cjt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_NAMES
