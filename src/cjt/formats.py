"""Text in and out: module files, resolution-spec files, points and module
references.

Module files are line-oriented ASCII: a header line ``p r n`` followed
by r blocks of n lines of n integers (the actions, read mod p).  ``#``
starts a comment.  Resolution-spec files start with ``p r L``, then one
line per level ``level i: a_1 ... a_m`` (i = 0..L), then blocks ``map i``
(i = 1..L, sending level i to level i-1) whose lines read
``row col : coef e_1 ... e_r [+ coef e_1 ... e_r ...]`` with 1-based
row/col into the twist lists.

A module reference is a file path or ``builtin:<name>``; modules built
from a reference stay within a dimension cap (the command line's
--max-dim).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .gfalg import SUPPORTED_PRIMES, build_field
from .kemod import KEModule, ModuleError, Point, builtin, new_module, omega
from .realize import ResolutionSpec


class ParseError(InputError):
    """A file that cannot be read or parsed; line is None for the whole file."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


def _content_lines(path):
    """(line number, text) of each line with something left besides comments."""
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    out.append((lineno, text))
    except UnicodeDecodeError:
        raise ParseError(path, None, "not UTF-8 text") from None
    except OSError as exc:
        raise ParseError(path, None, exc.strerror or "cannot be read") from None
    return out


def parse_module(path) -> KEModule:
    """Read and validate a module file."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty module file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(path, lineno, "header must be: p r n")
    try:
        p, r, n = (int(x) for x in parts)
    except ValueError:
        raise ParseError(path, lineno, "header entries must be integers") from None
    if p not in SUPPORTED_PRIMES or r < 1:
        raise ParseError(
            path, lineno, f"header needs p in {SUPPORTED_PRIMES} and r >= 1"
        )
    if n < 0:
        raise ParseError(path, lineno, f"header needs n >= 0, got {n}")
    rows = lines[1:]
    if len(rows) != r * n:
        raise ParseError(
            path,
            lineno,
            f"expected {r * n} matrix rows ({r} blocks of {n}), got {len(rows)}",
        )
    X = []
    for b in range(r):
        mat = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            lineno, text = rows[b * n + i]
            entries = text.split()
            if len(entries) != n:
                raise ParseError(path, lineno, f"expected {n} integers")
            try:
                mat[i] = [int(x) % p for x in entries]
            except ValueError:
                raise ParseError(path, lineno, "entries must be integers") from None
        X.append(mat)
    return new_module(p, r, X)


def print_module(M: KEModule) -> str:
    lines = [f"{M.p} {M.r} {M.n}"]
    for i, A in enumerate(M.X):
        lines.append(f"# action of X_{i + 1}")
        for row in A:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_spec(path) -> ResolutionSpec:
    """Read a resolution-spec file."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 1, "empty spec file")
    lineno, header = lines[0]
    try:
        p, r, L = (int(x) for x in header.split())
    except ValueError:
        raise ParseError(path, lineno, "header must be: p r L") from None
    if p not in SUPPORTED_PRIMES or r < 1:
        raise ParseError(
            path, lineno, f"header needs p in {SUPPORTED_PRIMES} and r >= 1"
        )
    # each of the L + 1 levels needs its own line: refuse before allocating
    if L < 0:
        raise ParseError(path, lineno, f"header needs L >= 0, got {L}")
    if L + 1 > len(lines) - 1:
        raise ParseError(
            path, lineno, f"L = {L} needs {L + 1} level lines; {len(lines) - 1} follow"
        )
    levels = [None] * (L + 1)
    maps = [dict() for _ in range(L)]
    mode = None  # ("map", i) while reading a map block
    for lineno, text in lines[1:]:
        if text.startswith("level"):
            body = text[len("level") :].strip()
            if ":" not in body:
                raise ParseError(path, lineno, "level line needs a colon")
            idx_s, twists_s = body.split(":", 1)
            try:
                idx = int(idx_s)
                twists = tuple(int(x) for x in twists_s.split())
            except ValueError:
                raise ParseError(path, lineno, "bad level line") from None
            if not 0 <= idx <= L:
                raise ParseError(path, lineno, f"level index must be 0..{L}")
            levels[idx] = twists
            mode = None
        elif text.startswith("map"):
            try:
                idx = int(text[len("map") :].strip())
            except ValueError:
                raise ParseError(path, lineno, "bad map line") from None
            if not 1 <= idx <= L:
                raise ParseError(path, lineno, f"map index must be 1..{L}")
            mode = idx
        else:
            if mode is None:
                raise ParseError(path, lineno, "matrix entry outside a map block")
            if ":" not in text:
                raise ParseError(path, lineno, "entry line needs a colon")
            pos, poly_s = text.split(":", 1)
            try:
                row, col = (int(x) for x in pos.split())
            except ValueError:
                raise ParseError(path, lineno, "entry must start with: row col") from None
            monos = []
            for term in poly_s.split("+"):
                nums = term.split()
                if len(nums) != 1 + r:
                    raise ParseError(
                        path, lineno, f"monomial needs a coefficient and {r} exponents"
                    )
                try:
                    coef = int(nums[0])
                    exps = tuple(int(x) for x in nums[1:])
                except ValueError:
                    raise ParseError(path, lineno, "bad monomial") from None
                monos.append((coef % p, exps))
            if (row, col) in maps[mode - 1]:
                raise ParseError(path, lineno, f"entry {row} {col} twice in map {mode}")
            maps[mode - 1][(row, col)] = (lineno, tuple(m for m in monos if m[0]))
            # mode stays: more entries may follow
    for i, tw in enumerate(levels):
        if tw is None:
            raise ParseError(path, 1, f"missing 'level {i}' line")
    built_maps = []
    for i in range(L):
        rows, cols = len(levels[i]), len(levels[i + 1])
        mat = [[()] * cols for _ in range(rows)]
        for (row, col), (lineno, poly) in maps[i].items():
            if not (1 <= row <= rows and 1 <= col <= cols):
                where = f"the {rows} x {cols} map {i + 1}"
                raise ParseError(path, lineno, f"entry {row} {col} outside {where}")
            mat[row - 1][col - 1] = poly
        built_maps.append(tuple(map(tuple, mat)))
    spec = ResolutionSpec(p, r, tuple(levels), tuple(built_maps))
    spec.validate()
    return spec


def parse_point(M: KEModule, text: str, ext: int) -> Point:
    """Coordinates read mod p over GF(p); over GF(p^e), e > 1, encoded
    elements in [0, p^e), which do not wrap."""
    try:
        ctx = build_field(M.p, ext)
        coords = tuple(int(x) for x in text.replace(",", " ").split())
        if ctx.e == 1:
            coords = tuple(c % ctx.p for c in coords)
        point = Point(ctx, coords)
    except ValueError as exc:
        raise ModuleError(f"bad point {text!r} over GF({M.p}^{ext}): {exc}") from None
    if len(coords) != M.r:
        raise ModuleError(f"point needs {M.r} coordinates")
    return point


def resolve_module(ref: str, p, r, max_dim) -> KEModule:
    """A path, or builtin:<name> over the algebra of (p, r), within max_dim."""
    if not ref.startswith("builtin:"):
        return parse_module(ref)
    name = ref[len("builtin:") :]
    if p is None or r is None:
        raise ModuleError("builtin modules need --p and --r")
    k = builtin("trivial", p, r)  # refuses an unsupported (p, r) before any cap
    if name == "trivial":
        return k
    if name == "regular":
        return builtin("regular", p, r, max_dim=max_dim)
    if name.startswith("radq"):
        m = _builtin_index(name, "radq")
        return builtin("rad_quotient", p, r, max_dim=max_dim, m=m)
    if name.startswith("perm"):
        return builtin("perm", p, r, i=_builtin_index(name, "perm"))
    if name.startswith("zigzag"):
        return builtin("zigzag", p, r, n=_builtin_index(name, "zigzag"))
    if name.startswith("omega"):
        return omega(k, _builtin_index(name, "omega"), max_dim)
    raise ModuleError(f"unknown builtin module {name!r}")


def _builtin_index(name: str, prefix: str) -> int:
    try:
        return int(name[len(prefix) :])
    except ValueError:
        raise ModuleError(f"builtin:{prefix}<N> needs an integer N, got {name!r}") from None
