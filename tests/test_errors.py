"""The error contract: every cjt exception is an InputError or a Failure,
and cli.main maps the kind, not the class, to the exit code."""

import importlib
import inspect
import pkgutil

import pytest

import cjt
from cjt import chowring, cli, formats, kemod, realize, thetasheaf
from cjt.cli import main
from cjt.errors import Failure, InputError


def exception_classes():
    """Every Exception subclass defined in a cjt submodule."""
    out = []
    for info in pkgutil.iter_modules(cjt.__path__):
        mod = importlib.import_module(f"cjt.{info.name}")
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__ and issubclass(cls, Exception):
                out.append(cls)
    return out


def test_every_exception_class_is_of_exactly_one_kind():
    classes = exception_classes()
    assert len(classes) >= 13  # the two kinds and the eleven library classes
    for cls in classes:
        assert issubclass(cls, InputError) + issubclass(cls, Failure) == 1, cls


@pytest.mark.parametrize(
    "cls,bases",
    [
        (kemod.ModuleError, (InputError, ValueError)),
        (kemod.NonCommutingError, (kemod.ModuleError,)),
        (kemod.NotPNilpotentError, (kemod.ModuleError,)),
        (formats.ParseError, (InputError, ValueError)),
        (realize.SpecInvalidError, (InputError, ValueError)),
        (cli.UsageError, (InputError, ValueError)),
        (kemod.ResourceCapError, (Failure, RuntimeError)),
        (realize.NoSolutionError, (Failure, RuntimeError)),
        (thetasheaf.StabilizationFailedError, (kemod.ResourceCapError, RuntimeError)),
        (thetasheaf.NotConstantError, (Failure, ValueError, RuntimeError)),
        (chowring.NonIntegralChernError, (Failure, ArithmeticError, RuntimeError)),
    ],
)
def test_each_class_keeps_its_builtin_base(cls, bases):
    for base in bases:
        assert issubclass(cls, base)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cjt.build_field(4),
        lambda: cjt.build_field(2, 0),
        lambda: cjt.hilbert(kemod.builtin("trivial", 2, 2), 0),
        lambda: cjt.hilbert(kemod.builtin("trivial", 2, 2), 1, d_max=-1),
        lambda: cjt.graded_dim(kemod.builtin("trivial", 2, 2), 1, 1, 0),
        lambda: cjt.graded_dim(kemod.builtin("trivial", 2, 2), 1, 0, -1),
        lambda: realize.stable_models(2, 2).monomial_cocycle((1, -1)),
        lambda: realize.stable_models(2, 2).monomial_cocycle((0, 0)),
        lambda: realize.stable_models(2, 2).generator_cocycle(3),
        lambda: cjt.Point(cjt.build_field(2), (0, 0)),
        lambda: cjt.ChowClass(2, (1,), 1),
        lambda: cjt.ChowClass(2, (2, 0), 1),
    ],
)
def test_library_input_errors_are_input_errors(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "exc,code,prefix",
    [
        (kemod.ModuleError("a module the command refuses"), 2, "error: "),
        (InputError("an input error of no subclass"), 2, "error: "),
        (thetasheaf.StabilizationFailedError("over the memory budget"), 1, "failure: "),
        (Failure("a failure of no subclass"), 1, "failure: "),
    ],
)
def test_main_maps_the_kind(exc, code, prefix, monkeypatch, capsys):
    def fail(args, out):
        raise exc

    monkeypatch.setattr(cli, "_cmd_jordan_type", fail)
    assert main(["jordan-type", "builtin:trivial", "--p", "2", "--r", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{exc}\n"
