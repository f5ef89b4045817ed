"""The two kinds of cjt error; cli.main maps each kind to its exit code."""


class InputError(ValueError):
    """Bad input or usage: exit 2 with one ``error:`` line."""


class Failure(RuntimeError):
    """A mathematical failure or a resource cap: exit 1 with one ``failure:`` line."""
