"""Building modules whose first bundle functor realizes a prescribed bundle.

The input is a resolution of the target bundle by sums of twists of the
structure sheaf, with matrices of homogeneous polynomials in Y_1..Y_r.
Each variable Y_i corresponds to a distinguished cohomology class of E:
a degree-one class for p = 2 and its degree-two Bockstein for odd p.
A cocycle is a plain ModuleHom between the Heller-shift models of the
trivial module that StableModels keeps: a monomial composes generator
cocycles shifted along the chain.  Neighbouring models are linked by the
exact sequence omega cached between them (kemod.HellerStep), whose free
middle is a projective cover and an injective hull at once.  A shift
toward deeper models lifts the images of the free generators through
proj; a shift the other way extends socle rows along incl, since a map
into a free module is the trace-pairing map of its socle rows.
Either way only those columns or rows are solved for.  The resolution
matrices become maps between sums of shifts, and mapping cones
(computed in the stable category as cokernels into injective hulls)
assemble the final module, top level first, with free summands stripped
after every cone; each level sum and each cone is refused above the
size cap before it is built.

For p = 2 the first bundle functor of the result is the resolved bundle
itself; for odd p it is the Frobenius pullback (the variables arrive as
p-th powers on the polynomial side).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

import numpy as np

from . import gfalg
from .errors import Failure, InputError
from .gfalg import matmul_p
from .kemod import (
    DEFAULT_MAX_DIM,
    DEFAULT_MEMORY_BUDGET,
    ConstantSoFar,
    Falsified,
    HellerStep,
    KEModule,
    ModuleHom,
    ResourceCapError,
    SamplingPlan,
    apply_monomials,
    builtin,
    cap,
    check_constant,
    direct_sum,
    group_algebra,
    hom_from_free,
    hom_to_free,
    injective_hull,
    minimal_generators,
    omega,
    projective_cover,
    quotient_module,
    strip_free_with_inclusion,
)

MAX_LENGTH = 6  # longest resolution realize_bundle accepts


class SpecInvalidError(InputError):
    pass


class NoSolutionError(Failure):
    """A chain-map solve failed; inputs are not genuine cocycle data."""


# ---------------------------------------------------------------------------
# resolution specifications


@dataclasses.dataclass(frozen=True)
class ResolutionSpec:
    """Twist lists per level and polynomial matrices between them.

    levels[i] is the tuple of twists a_{i,j} at homological level i;
    level 0 surjects onto the bundle.  maps[i] sends level i+1 to level
    i: maps[i][row][col] is a polynomial, a tuple of (coeff, exponents)
    monomials, homogeneous of degree levels[i][row] - levels[i+1][col].
    """

    p: int
    r: int
    levels: tuple
    maps: tuple

    @property
    def length(self) -> int:
        return len(self.levels) - 1

    def rank(self) -> int:
        return sum((-1) ** i * len(tw) for i, tw in enumerate(self.levels))

    def validate(self):
        if len(self.maps) != self.length:
            raise SpecInvalidError(
                f"{self.length + 1} levels need {self.length} maps, "
                f"got {len(self.maps)}"
            )
        if any(len(tw) == 0 for tw in self.levels):
            raise SpecInvalidError("every level needs at least one twist")
        for i, mat in enumerate(self.maps):
            tgt, src = self.levels[i], self.levels[i + 1]
            if len(mat) != len(tgt) or any(len(row) != len(src) for row in mat):
                raise SpecInvalidError(
                    f"map {i + 1} must be {len(tgt)} x {len(src)}"
                )
            for t, row in enumerate(mat):
                for s, poly in enumerate(row):
                    deg = tgt[t] - src[s]
                    where = f"map {i + 1} entry ({t + 1},{s + 1})"
                    for coeff, exps in poly:
                        if len(exps) != self.r:
                            raise SpecInvalidError(
                                f"{where}: exponent tuple needs {self.r} entries"
                            )
                        if coeff % self.p == 0:
                            continue
                        if any(e < 0 for e in exps):
                            raise SpecInvalidError(
                                f"{where}: exponents must be nonnegative"
                            )
                        if sum(exps) != deg or deg < 0:
                            raise SpecInvalidError(
                                f"{where} must be homogeneous of degree {deg}"
                            )
                        if deg == 0:
                            raise SpecInvalidError(
                                f"{where} is a nonzero constant; realize "
                                "needs positive degree"
                            )
        for i in range(self.length - 1):
            if not _poly_matrix_product_is_zero(
                self.maps[i], self.maps[i + 1], self.p
            ):
                raise SpecInvalidError(
                    f"maps {i + 2} then {i + 1} do not compose to zero"
                )


def _poly_add(f, g, p):
    acc = {}
    for coeff, exps in itertools.chain(f, g):
        acc[exps] = (acc.get(exps, 0) + coeff) % p
    return tuple((c, e) for e, c in sorted(acc.items()) if c)


def _poly_mul(f, g, p):
    acc = {}
    for c1, e1 in f:
        for c2, e2 in g:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = (acc.get(e, 0) + c1 * c2) % p
    return tuple((c, e) for e, c in sorted(acc.items()) if c)


def _poly_matrix_product_is_zero(A, B, p):
    rows, mid, cols = len(A), len(B), len(B[0])
    for t in range(rows):
        for s in range(cols):
            acc = ()
            for m in range(mid):
                acc = _poly_add(acc, _poly_mul(A[t][m], B[m][s], p), p)
            if acc:
                return False
    return True


def line_bundle_spec(p: int, r: int, a: int) -> ResolutionSpec:
    """The trivial resolution of O(a): one level, no maps."""
    return ResolutionSpec(p, r, ((a,),), ())


def euler_spec(p: int, r: int) -> ResolutionSpec:
    """0 -> O(-1) -> O^r -> T(-1) -> 0 on P^{r-1}."""
    col = tuple(
        ((1, tuple(1 if t == i else 0 for t in range(r))),) for i in range(r)
    )
    return ResolutionSpec(p, r, ((0,) * r, (-1,)), (tuple((m,) for m in col),))


def koszul_tail_spec(p: int, r: int) -> ResolutionSpec:
    """The last three Koszul terms on P^{r-1}.

    Only r = 2 stays desk-sized: levels O(-2) -> O(-1)^2 -> O.  That
    complex is exact on P^1, so the resolved sheaf is zero: the spec has
    rank 0 and realizes the zero module.
    """
    if r != 2:
        raise SpecInvalidError("koszul tail spec is provided for r = 2 only")
    y1 = ((1, (1, 0)),)
    y2 = ((1, (0, 1)),)
    neg_y2 = ((p - 1, (0, 1)),)
    return ResolutionSpec(
        p,
        2,
        ((0,), (-1, -1), (-2,)),
        (
            ((y1, y2),),          # O(-1)^2 -> O via (Y1, Y2)
            ((neg_y2,), (y1,)),   # O(-2) -> O(-1)^2 via (-Y2, Y1)
        ),
    )


# ---------------------------------------------------------------------------
# the canonical chain of Heller shifts of k, and cocycles between its models


class StableModels:
    """Explicit models of the Heller shifts of k, doubly linked.

    The chain itself is kemod.omega's: model(j) is Omega^j k, and pair(j),
    the sequence 0 -> model(j) -> kE^b -> model(j-1) -> 0, is the very
    cover or hull omega cached on the way.  Cocycles are ModuleHoms between
    these models; the caches on the cocycle methods live as long as the
    instance, which stable_models keeps for the whole process.
    """

    def __init__(self, p, r, max_dim=DEFAULT_MAX_DIM):
        self.p = p
        self.r = r
        self.max_dim = max_dim
        # the generators live in degree eps: 1 for p = 2, their Bocksteins 2
        self.eps = 1 if p == 2 else 2
        self.k = builtin("trivial", p, r)

    def model(self, j: int) -> KEModule:
        return omega(self.k, j, self.max_dim)

    def pair(self, j: int) -> HellerStep:
        """The linking sequence between model(j) and model(j-1)."""
        self.model(j if j >= 1 else j - 1)  # builds and caps both ends
        if j >= 1:
            return projective_cover(self.model(j - 1))
        return injective_hull(self.model(j))

    # -- chain maps

    def lift_up(self, f: ModuleHom, src: int, tgt: int) -> ModuleHom:
        """model(src+1) -> model(tgt+1) lifting f: model(src) -> model(tgt)."""
        pair_s, pair_t = self.pair(src + 1), self.pair(tgt + 1)
        q = group_algebra(self.p, self.r).q
        gen_cols = pair_s.proj[:, ::q]  # images of the free generators
        rhs = matmul_p(f.matrix, gen_cols, self.p)
        V = gfalg.solve_p(pair_t.proj, rhs, self.p)
        if V is None:
            raise NoSolutionError("projective lift failed")
        F = hom_from_free(pair_t.free, V)
        restricted = matmul_p(F, pair_s.incl, self.p)
        Z = gfalg.solve_p(pair_t.incl, restricted, self.p)
        if Z is None:
            raise NoSolutionError("lift does not preserve kernels")
        return ModuleHom(self.model(src + 1), self.model(tgt + 1), Z, validate=False)

    def lift_down(self, f: ModuleHom, src: int, tgt: int) -> ModuleHom:
        """model(src-1) -> model(tgt-1) induced on hull cokernels.

        The mirror of lift_up: a map phi into kE^b is hom_to_free of its
        socle rows (coeff_v phi(a) = coeff_z phi(X^(z-v) a)), so the
        extension G of incl_t f along incl_s is solved for on those rows
        only; the system is consistent because incl_s is injective.
        """
        pair_s, pair_t = self.pair(src), self.pair(tgt)
        q = group_algebra(self.p, self.r).q
        rhs = matmul_p(pair_t.incl, f.matrix, self.p)  # A_src -> F_tgt
        L = gfalg.solve_p(pair_s.incl.T, rhs[q - 1 :: q].T, self.p)
        G = hom_to_free(pair_s.free, L.T)  # G incl_s = incl_t f
        # induced map on cokernels: h proj_s = proj_t G
        lhs = matmul_p(pair_t.proj, G, self.p)
        H = gfalg.solve_p(pair_s.proj.T.copy(), lhs.T.copy(), self.p)
        if H is None:
            raise NoSolutionError("cokernel descent failed")
        return ModuleHom(
            self.model(src - 1), self.model(tgt - 1), H.T, validate=False
        )

    def shift(self, f: ModuleHom, src: int, tgt: int, steps: int) -> ModuleHom:
        """f: model(src) -> model(tgt) moved steps along the chain.

        Positive steps lift toward deeper shifts (covers), negative ones
        descend through hull cokernels; the result maps model(src + steps)
        to model(tgt + steps) and represents the same stable class.
        """
        for _ in range(steps):
            f = self.lift_up(f, src, tgt)
            src, tgt = src + 1, tgt + 1
        for _ in range(-steps):
            f = self.lift_down(f, src, tgt)
            src, tgt = src - 1, tgt - 1
        return f

    # -- cocycles

    @functools.cache
    def generator_cocycle(self, i: int) -> ModuleHom:
        """The map model(eps) -> model(0) representing the i-th polynomial generator.

        p = 2: the degree-one class, reading off the i-th linear
        coordinate of the augmentation ideal Omega k inside kE.  p odd: its
        Bockstein, reading off the top power of the i-th variable in the
        coordinate of Omega^2 k (the syzygies of the minimal generators
        of the augmentation ideal) of the generator that maps to X_i.
        """
        if not 1 <= i <= self.r:
            raise InputError(f"generator index must be in 1..r, got {i}")
        p, r = self.p, self.r
        kE = group_algebra(p, r)
        incl1 = self.pair(1).incl  # Omega k -> kE coordinates
        x_i = kE.index[tuple(int(t == i - 1) for t in range(r))]
        if p == 2:
            mat = incl1[[x_i]]
        else:
            target = next(
                (t for t, g in enumerate(minimal_generators(self.model(1)))
                 if np.flatnonzero(incl1[:, g]).tolist() == [x_i]),
                None,
            )
            if target is None:
                raise AssertionError("cover generators do not include X_i")
            top = kE.index[tuple((p - 1) * int(t == i - 1) for t in range(r))]
            mat = self.pair(2).incl[[target * kE.q + top]]
        hom = ModuleHom(self.model(self.eps), self.model(0), mat, validate=True)
        if not self.is_stably_nonzero(hom):
            raise AssertionError("generator cocycle is stably trivial")
        return hom

    def is_stably_nonzero(self, f: ModuleHom) -> bool:
        """True unless f factors through the injective hull of its source."""
        return _extend_over_hull(f) is None

    def monomial_cocycle(self, exponents, shift_j: int = 0) -> ModuleHom:
        """Composite cocycle for the monomial with the given exponents.

        Represents the product of the polynomial generators, as a map
        model(eps*(n + j)) -> model(eps*j) with n the total degree.
        """
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.r or any(e < 0 for e in exponents):
            raise InputError("exponents must be r nonnegative integers")
        if sum(exponents) == 0:
            raise InputError("monomial must have positive degree")
        return self._monomial_cocycle(exponents, shift_j)

    @functools.cache
    def _monomial_cocycle(self, exponents: tuple, shift_j: int) -> ModuleHom:
        eps = self.eps
        sequence = [i + 1 for i, e in enumerate(exponents) for _ in range(e)]
        # the t-th factor, shifted eps*t, maps model(eps*(t+1)) -> model(eps*t)
        f = functools.reduce(
            operator.matmul,
            (self._lifted_generator(i, eps * t) for t, i in enumerate(sequence)),
        )
        return self.shift(f, eps * len(sequence), 0, eps * shift_j)

    @functools.cache
    def _lifted_generator(self, i: int, amount: int) -> ModuleHom:
        return self.shift(self.generator_cocycle(i), self.eps, 0, amount)


def _extend_over_hull(phi: ModuleHom):
    """t: I(A) -> T with t o hull = phi, for phi: A -> T, or None if none exists.

    I(A) = kE^s is A's cached injective hull.  Since t is determined by
    its s generator images and all maps are module homs, the constraint
    is imposed only at a minimal generating set of A: coordinate w of
    hull(g) in copy j contributes X^w to the block (g, j) of the system.
    Returns the full matrix of t.
    """
    A, target = phi.source, phi.target
    p, n_t = A.p, target.n
    q = group_algebra(p, A.r).q
    hull = injective_hull(A).incl
    s = hull.shape[0] // q
    gens = minimal_generators(A)
    H = hull[:, gens].reshape(s, q, len(gens))
    # bytes at the peak, counted before allocating: the (q, n_t, n_t) monomial
    # stack beside the int32 system, then that system beside its uint8 copy
    nbytes = q * n_t * n_t + 5 * len(gens) * n_t * s * n_t
    if nbytes > DEFAULT_MEMORY_BUDGET:
        raise ResourceCapError(
            f"hull extension system of {nbytes >> 20} MB at its peak above the "
            f"memory budget of {DEFAULT_MEMORY_BUDGET >> 20} MB"
        )
    # unknowns u[(j, tau)] = coordinate tau of the image of generator j;
    # every entry is a sum of q products below p^2, so int32 holds it.  The
    # monomial stack is freed as soon as the system is built
    acts = apply_monomials(target.X, np.eye(n_t, dtype=np.uint8), p)
    sys = np.einsum("jwg,wab->gajb", H, acts, dtype=np.int32)
    del acts
    sys %= p
    # one contiguous uint8 copy, so the int32 system is freed before solve_p
    sys = sys.astype(np.uint8, order="C").reshape(len(gens) * n_t, s * n_t)
    rhs = phi.matrix[:, gens].T.reshape(-1, 1)  # (gens * n_t) x 1
    sol = gfalg.solve_p(sys, rhs, p)
    if sol is None:
        return None
    return hom_from_free(target, sol.reshape(s, n_t).T)  # generator images


# ---------------------------------------------------------------------------
# mapping cones


@dataclasses.dataclass(frozen=True)
class ConeResult:
    module: KEModule
    section: np.ndarray  # coordinate section of the quotient projection


def cone(f: ModuleHom) -> ConeResult:
    """Complete f: A -> B to a triangle: the cokernel of (f, hull) in B + I(A).

    The associated short exact sequence 0 -> A -> B + I(A) -> C -> 0 is
    locally split, and the bundle functors exact on it, exactly when the
    Jordan types of A and C add up to that of B + I(A) at every point.
    Constant Jordan type of A and B does not ensure it: the cone of zeta:
    Omega^5 k -> k at (2,2), zeta = y_1^5 + y_1^2 y_2^3 + y_2^5, is off
    type at 5 points of P^1(GF(32)).
    """
    A, B = f.source, f.target
    hull = injective_hull(A)
    D = direct_sum(B, hull.free, max_dim=math.inf)  # realize_bundle caps the cone
    G = np.vstack([f.matrix, hull.incl])
    C, _, sec = quotient_module(D, G)
    C.constant_by_construction = (
        A.constant_by_construction and B.constant_by_construction
    )
    return ConeResult(C, sec)


def descend(cone_res: ConeResult, f: ModuleHom, g: ModuleHom) -> ModuleHom:
    """The map cone(f) -> T with h o (B -> cone) = g, for g o f stably zero.

    Solves t: I(A) -> T with t o hull = g o f, then reads h off on
    quotient representatives as (g, -t).
    """
    p = f.source.p
    t = _extend_over_hull(g @ f)
    if t is None:
        raise NoSolutionError(
            "map does not descend to the cone; composite is not stably zero"
        )
    stacked = np.hstack([g.matrix, (-t.astype(np.int64)) % p])
    h = matmul_p(stacked.astype(np.uint8), cone_res.section, p)
    return ModuleHom(cone_res.module, g.target, h, validate=False)


# ---------------------------------------------------------------------------
# the main construction


@dataclasses.dataclass
class RealizeReport:
    eps: int
    expected_rank: int
    level_dims: list
    cone_dims: list
    stripped: list
    final_dim: int = 0
    verdict: object = None
    triangles: list = dataclasses.field(default_factory=list)
    # (A, B, stripped cone) per level: each is a locally split triangle

    def __str__(self):
        lines = [
            f"variable replacement exponent eps = {self.eps}",
            f"expected stable rank s = {self.expected_rank}",
            f"level module dimensions: {self.level_dims}",
            f"cone dimensions: {self.cone_dims}",
            f"free summands stripped per cone: {self.stripped}",
            f"final dimension: {self.final_dim}",
        ]
        if isinstance(self.verdict, ConstantSoFar):
            lines.append(
                f"constant so far: type {self.verdict.type} at "
                f"{self.verdict.points_checked} points over "
                f"{', '.join(self.verdict.fields_used)}"
            )
        elif isinstance(self.verdict, Falsified):
            lines.append(f"NOT CONSTANT: witness {self.verdict.witness}")
        return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def stable_models(p: int, r: int, max_dim: int = DEFAULT_MAX_DIM) -> StableModels:
    return StableModels(p, r, max_dim)


def _sum_of_shifts(models: StableModels, shifts):
    """Direct sum of shift models with per-summand coordinate offsets."""
    parts = [models.model(j) for j in shifts]
    cap(sum(part.n for part in parts), "level sum", models.max_dim)
    total = parts[0]
    offsets = [0]
    for part in parts[1:]:
        offsets.append(total.n)
        total = direct_sum(total, part, models.max_dim)
    return total, parts, offsets


def _block_hom(src_sum, tgt_sum, blocks):
    """Assemble a hom out of per-(row, col) ModuleHoms between summands."""
    src, src_parts, src_off = src_sum
    tgt, tgt_parts, tgt_off = tgt_sum
    mat = np.zeros((tgt.n, src.n), dtype=np.uint8)
    for (t, s), hom in blocks.items():
        mat[
            tgt_off[t] : tgt_off[t] + tgt_parts[t].n,
            src_off[s] : src_off[s] + src_parts[s].n,
        ] = hom.matrix
    return ModuleHom(src, tgt, mat, validate=False)


def realize_bundle(
    spec: ResolutionSpec,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    plan: SamplingPlan | None = None,
) -> tuple[KEModule, RealizeReport]:
    """The module whose first bundle functor realizes the resolved bundle.

    For p = 2 that functor value is the bundle itself; for odd p it is
    the Frobenius pullback.  Free summands are stripped after every cone
    (all statements are stable, and dimensions would otherwise multiply).
    """
    spec.validate()
    if spec.length > MAX_LENGTH:
        raise ResourceCapError(
            f"resolution length {spec.length} exceeds the cap {MAX_LENGTH}"
        )
    p, r = spec.p, spec.r
    models = stable_models(p, r, max_dim)
    eps = models.eps
    report = RealizeReport(eps=eps, expected_rank=spec.rank(), level_dims=[],
                           cone_dims=[], stripped=[])

    sums = []
    for twists in spec.levels:
        sums.append(_sum_of_shifts(models, [-eps * a for a in twists]))
        report.level_dims.append(sums[-1][0].n)

    def differential(i):
        # maps[i]: level i+1 -> level i
        blocks = {}
        tgt_twists, src_twists = spec.levels[i], spec.levels[i + 1]
        for t in range(len(tgt_twists)):
            for s in range(len(src_twists)):
                poly = spec.maps[i][t][s]
                acc = None
                for coeff, exps in poly:
                    if coeff % p == 0:
                        continue
                    hom = models.monomial_cocycle(exps, shift_j=-tgt_twists[t])
                    term = (coeff * hom.matrix.astype(np.int64)) % p
                    acc = term if acc is None else (acc + term) % p
                if acc is not None:
                    blocks[(t, s)] = ModuleHom(
                        sums[i + 1][1][s],
                        sums[i][1][t],
                        acc,
                        validate=False,
                    )
        return _block_hom(sums[i + 1], sums[i], blocks)

    L = spec.length
    if L == 0:
        current, _, _ = sums[0]
        current, a, _ = strip_free_with_inclusion(current)
        report.stripped.append(a)
    else:
        f_cur = differential(L - 1)  # level L -> level L-1 module
        for i in range(L - 1, -1, -1):
            A, B = f_cur.source, f_cur.target
            # (f, hull) is injective, so the cone has dimension B + I(A) - A
            cap(B.n + injective_hull(A).incl.shape[0] - A.n, "cone", max_dim)
            cres = cone(f_cur)
            report.cone_dims.append(cres.module.n)
            stripped, a, incl = strip_free_with_inclusion(cres.module)
            report.stripped.append(a)
            report.triangles.append((A, B, stripped))
            if i > 0:
                g = differential(i - 1)
                h = descend(cres, f_cur, g)
                f_cur = h @ incl
            current = stripped
    report.final_dim = current.n
    report.verdict = check_constant(current, plan or SamplingPlan())
    if isinstance(report.verdict, Falsified):
        current.constant_by_construction = False
    return current, report
