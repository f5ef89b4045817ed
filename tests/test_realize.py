import inspect
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cjt import kemod, realize
from cjt.chowring import chern_from_hilbert, chern_from_resolution, frobenius_pullback
from cjt.gfalg import matmul_p
from cjt.kemod import (
    ConstantSoFar,
    ModuleHom,
    SamplingPlan,
    builtin,
    hom_commutes,
    injective_hull,
    jordan_type_at,
    omega,
    projective_cover,
    projective_points,
    reference_jordan_type,
    strip_free,
)
from cjt.polyd import binomial_poly
from cjt.realize import (
    ResolutionSpec,
    ResourceCapError,
    SpecInvalidError,
    StableModels,
    cone,
    descend,
    euler_spec,
    koszul_tail_spec,
    line_bundle_spec,
    realize_bundle,
    stable_models,
)
from cjt.suites import DEFAULT_PAIRS
from cjt.thetasheaf import hilbert, monomials, s_dim


class TestResolutionOfK:
    def test_p2r2_betti_numbers(self):
        # minimal generator counts b_j = j + 1 for the rank-2 exterior case
        sm = stable_models(2, 2)
        q = 4
        assert [sm.pair(j).free.n // q for j in range(1, 6)] == [1, 2, 3, 4, 5]

    def test_p2r2_omega1_dim(self):
        assert stable_models(2, 2).model(1).n == 3

    def test_omega0_is_trivial(self):
        sm = stable_models(3, 2)
        assert sm.model(0).n == 1

    def test_p3r2_dims(self):
        sm = stable_models(3, 2)
        assert [sm.model(j).n for j in (1, 2, 3)] == [8, 10, 17]

    def test_deep_model_needs_no_recursion(self):
        # the chain is walked by a loop: 60 shifts fit in 60 spare frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            M = stable_models(2, 2).model(60)
        finally:
            sys.setrecursionlimit(limit)
        assert M.n == 121  # Omega^j k has dimension 2j + 1 at p = r = 2

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)])
    def test_models_and_pairs_are_the_omega_chain(self, p, r):
        sm = stable_models(p, r)
        k = sm.model(0)
        for j in range(-3, 5):
            assert sm.model(j) is omega(k, j)
            pair = sm.pair(j)
            if j >= 1:
                assert pair is projective_cover(sm.model(j - 1))
            else:
                assert pair is injective_hull(sm.model(j))
            assert pair.sub is sm.model(j) and pair.quotient is sm.model(j - 1)

    def test_pair_refuses_either_end_above_max_dim(self):
        sm = StableModels(2, 2, max_dim=4)
        assert sm.pair(1).free.n == 4  # model(1) has dimension 3
        with pytest.raises(ResourceCapError):
            sm.pair(2)  # model(2) has dimension 5
        with pytest.raises(ResourceCapError):
            sm.pair(-1)  # and so has model(-2)

    def test_exactness_of_pairs(self):
        sm = stable_models(2, 3)
        for j in (-1, 0, 1, 2):
            pair = sm.pair(j)
            assert sm.model(j).n + sm.model(j - 1).n == pair.free.n
            assert not np.any(matmul_p(pair.proj, pair.incl, 2))


class TestGeneratorCocycles:
    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_nonzero_and_kills_radical(self, p, r):
        sm = stable_models(p, r)
        for i in range(1, r + 1):
            c = sm.generator_cocycle(i)
            assert c.source is sm.model(sm.eps) and c.target is sm.model(0)
            assert sm.is_stably_nonzero(c)
            # a map to the trivial module kills J * source
            for A in c.source.X:
                assert not np.any((c.matrix.astype(np.int64) @ A) % p)

    def test_distinct_generators_differ(self, ):
        sm = stable_models(2, 2)
        assert not np.array_equal(
            sm.generator_cocycle(1).matrix, sm.generator_cocycle(2).matrix
        )


class TestLift:
    def test_lift_of_identity_is_stably_identity(self):
        sm = stable_models(3, 2)
        k = sm.model(0)
        ident = ModuleHom(k, k, np.eye(1, dtype=np.uint8), validate=False)
        up = sm.shift(ident, 0, 0, 1)
        assert up.source is sm.model(1) and up.target is sm.model(1)
        # difference from the identity factors through a projective
        diff = (
            up.matrix.astype(np.int64)
            - np.eye(sm.model(1).n, dtype=np.int64)
        ) % 3
        assert not sm.is_stably_nonzero(
            ModuleHom(sm.model(1), sm.model(1), diff, validate=False)
        )

    def test_lift_of_zero_is_stably_zero(self):
        sm = stable_models(2, 2)
        zero = ModuleHom(sm.model(1), sm.model(0), np.zeros((1, 3)), validate=False)
        up = sm.shift(zero, 1, 0, 2)
        assert up.source is sm.model(3) and up.target is sm.model(2)
        assert not sm.is_stably_nonzero(up)

    def test_square_of_generator_is_monomial(self):
        # composition of a lifted generator with itself represents the square
        sm = stable_models(2, 2)
        sq = sm.monomial_cocycle((2, 0))
        assert sq.source is sm.model(2) and sq.target is sm.model(0)
        assert sm.is_stably_nonzero(sq)
        assert sm.monomial_cocycle([2, 0]) is sq  # cached on the normalized key

    def test_negative_shift(self):
        sm = stable_models(2, 2)
        c = sm.monomial_cocycle((1, 0), shift_j=-1)
        assert c.source is sm.model(0) and c.target is sm.model(-1)
        assert sm.is_stably_nonzero(c)

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_shift_round_trips(self, p, r):
        # lift_up and lift_down undo each other on every generator cocycle
        sm = stable_models(p, r)
        eps = sm.eps
        for i in range(1, r + 1):
            g = sm.generator_cocycle(i)
            for s in (1, -1, 2, -2):
                f = sm.shift(g, eps, 0, s)
                assert f.source is sm.model(eps + s) and f.target is sm.model(s)
                back = sm.shift(f, eps + s, s, -s)
                assert back.source is g.source and back.target is g.target
                assert back.matrix.dtype == g.matrix.dtype
                assert np.array_equal(back.matrix, g.matrix), (i, s)


class TestLiftDown:
    """lift_down extends along the hull inclusions through the trace pairing."""

    @pytest.mark.parametrize("p,r", DEFAULT_PAIRS + ((5, 2), (2, 4)))
    def test_extension_and_descent_commute(self, p, r, monkeypatch):
        extensions = []

        def spy(M, functionals):
            extensions.append(kemod.hom_to_free(M, functionals))
            return extensions[-1]

        monkeypatch.setattr(realize, "hom_to_free", spy)
        sm = stable_models(p, r)
        for i in range(1, r + 1):
            f, src, tgt = sm.generator_cocycle(i), sm.eps, 0
            for _ in range(3):
                extensions.clear()
                h = sm.lift_down(f, src, tgt)
                (G,) = extensions  # free_s -> free_t
                pair_s, pair_t = sm.pair(src), sm.pair(tgt)
                assert hom_commutes(pair_s.free, pair_t.free, G)
                assert np.array_equal(
                    matmul_p(G, pair_s.incl, p),
                    matmul_p(pair_t.incl, f.matrix, p),
                )
                assert np.array_equal(
                    matmul_p(h.matrix, pair_s.proj, p),
                    matmul_p(pair_t.proj, G, p),
                )
                assert h.source is sm.model(src - 1) and h.target is sm.model(tgt - 1)
                assert hom_commutes(h.source, h.target, h.matrix)
                f, src, tgt = h, src - 1, tgt - 1

    def test_six_steps_down_at_rank_four_stay_small(self):
        # a dense extension system over the free targets would need 2.09 GiB here
        sm = StableModels(2, 4)
        g = sm.generator_cocycle(1)
        tracemalloc.start()
        try:
            f = sm.shift(g, 1, 0, -6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.source is sm.model(-5) and f.target is sm.model(-6)
        assert (f.source.n, f.target.n) == (351, 545)
        assert peak < 200 << 20


class TestMonomialImage:
    """The graded image of the induced first-functor map is the monomial ideal."""

    @pytest.mark.parametrize(
        "p,r,exps",
        [
            (2, 2, (1, 0)),
            (2, 2, (2, 0)),  # composite of a lifted generator with itself
            (2, 3, (1, 0, 0)),
            (2, 3, (1, 1, 0)),
            (3, 2, (1, 0)),
        ],
    )
    def test_image_is_monomial_multiple(self, p, r, exps):
        from cjt.gfalg import kernel_p, matmul_p, rank_p
        from cjt.thetasheaf import ThetaOp, monomial_index

        sm = stable_models(p, r)
        hom = sm.monomial_cocycle(exps)
        src = hom.source
        n_deg = sum(exps) * (1 if p == 2 else p)
        theta = ThetaOp(src)
        for d in range(n_deg, n_deg + 3):
            ker = kernel_p(theta.degree_matrix(d), p)
            big = np.kron(np.eye(s_dim(r, d), dtype=np.uint8), hom.matrix)
            img = matmul_p(big, ker, p)
            # expected: the monomial times S_{d - n_deg}
            expect_dim = s_dim(r, d - n_deg)
            assert rank_p(img, p) == expect_dim
            idx = monomial_index(r, d)
            mono = tuple(e * (1 if p == 2 else p) for e in exps)
            allowed = {
                idx[tuple(m + x for m, x in zip(mono, extra))]
                for extra in monomials(r, d - n_deg)
            }
            live = set(np.flatnonzero(np.any(img, axis=1)))
            assert live <= allowed


class TestCone:
    def test_cone_of_identity_is_stably_zero(self):
        k = builtin("trivial", 2, 2)
        res = cone(ModuleHom(k, k, np.eye(1), validate=False))
        stripped, a = strip_free(res.module)
        assert stripped.n == 0 and a == 1

    def test_cone_of_zero_splits(self):
        A = builtin("trivial", 3, 2)
        B = builtin("rad_quotient", 3, 2, m=2)
        res = cone(ModuleHom(A, B, np.zeros((3, 1)), validate=False))
        om = injective_hull(A).quotient
        assert res.module.n == B.n + om.n
        for pt in projective_points(3, 2):
            assert (
                jordan_type_at(res.module, pt)
                == jordan_type_at(B, pt) + jordan_type_at(om, pt)
            )

    def test_cone_jordan_dichotomy(self):
        # where the class restricts nonzero, the cone sequence is locally
        # split and Jordan types add; where it vanishes, the cone splits
        # as B + Omega^{-1}A instead
        sm = stable_models(2, 2)
        c = sm.generator_cocycle(1)
        res = cone(c)
        A, B = c.source, c.target
        I = injective_hull(A).free
        om_inv = injective_hull(A).quotient
        for pt in projective_points(2, 2) + projective_points(2, 2, 2):
            tA = jordan_type_at(A, pt)
            tB = jordan_type_at(B, pt)
            tI = jordan_type_at(I, pt)
            tC = jordan_type_at(res.module, pt)
            if pt.coords[0] != 0:  # y_1 restricts nonzero
                assert (tA + tC).a == (tB + tI).a
            else:
                assert tC.a == (tB + jordan_type_at(om_inv, pt)).a
        # dimension bookkeeping holds unconditionally
        assert res.module.n == B.n + I.n - A.n

    def test_descend_reproduces_block_maps(self):
        # koszul tail: descending the level-1 differential through the cone
        sm = stable_models(2, 2)
        spec = koszul_tail_spec(2, 2)
        spec.validate()
        M, rep = realize_bundle(spec)
        assert M.n == 0  # resolves the zero sheaf


class TestRealize:
    def test_line_bundle_p3_gives_omega2(self):
        M, rep = realize_bundle(line_bundle_spec(3, 2, -1))
        assert M.n == 10
        assert str(reference_jordan_type(M)) == "[3]^3[1]"
        hd = hilbert(M, 1)
        assert hd.fitted == binomial_poly(-3, 2)

    def test_positive_twist_uses_negative_shifts(self):
        M, rep = realize_bundle(line_bundle_spec(3, 2, 1))
        hd = hilbert(M, 1)
        assert hd.fitted == binomial_poly(3, 2)

    @pytest.mark.parametrize("p,dim,c1", [(2, 5, 2), (3, 19, 6)])
    def test_differential_into_positive_twists(self, p, dim, c1):
        # 0 -> O -> O(1)^2 via (Y1, Y2) on P^1 resolves O(2); the
        # differential lands in negative shifts, through lift_down
        y1, y2 = ((1, (1, 0)),), ((1, (0, 1)),)
        spec = ResolutionSpec(p, 2, ((1, 1), (0,)), (((y1,), (y2,)),))
        M, rep = realize_bundle(spec)
        assert M.n == dim
        assert isinstance(rep.verdict, ConstantSoFar)
        assert rep.verdict.type.stable() == (1,) + (0,) * (p - 2)  # [1]^1
        rk, c = chern_from_hilbert(hilbert(M, 1))
        assert (rk, c.coeffs) == (1, (1, c1))  # O(2), or F*O(2) at odd p

    @pytest.mark.parametrize("a", [-3, -2, -1, 0])
    def test_line_bundles_p2(self, a):
        M, rep = realize_bundle(line_bundle_spec(2, 2, a))
        hd = hilbert(M, 1)
        assert hd.fitted == binomial_poly(a, 2)

    def test_euler_p2r3(self):
        M, rep = realize_bundle(euler_spec(2, 3))
        assert M.n == 4
        assert isinstance(rep.verdict, ConstantSoFar)
        assert rep.verdict.type.stable() == (2,)  # stable type [1]^2
        rk, c = chern_from_hilbert(hilbert(M, 1))
        assert (rk, c.coeffs) == (2, (1, 1, 1))

    def test_euler_p3r3(self):
        M, rep = realize_bundle(euler_spec(3, 3))
        assert isinstance(rep.verdict, ConstantSoFar)
        assert rep.verdict.type.stable() == (2, 0)
        rk, c = chern_from_hilbert(hilbert(M, 1))
        rk0, c0 = chern_from_resolution(3, [[0, 0, 0], [-1]])
        assert rk == rk0 == 2
        assert c == frobenius_pullback(c0, 3)

    def test_frobenius_euler_p2(self):
        # resolve F*(T(-1)) directly: entries Y_i^2, twists doubled
        r = 3
        cols = tuple(
            ((1, tuple(2 if t == i else 0 for t in range(r))),) for i in range(r)
        )
        spec = ResolutionSpec(
            2, r, ((0,) * r, (-2,)), (tuple((m,) for m in cols),)
        )
        M, rep = realize_bundle(spec)
        rk, c = chern_from_hilbert(hilbert(M, 1))
        assert (rk, c.coeffs) == (2, (1, 2, 4))

    def test_validation_catches_bad_specs(self):
        with pytest.raises(SpecInvalidError):
            ResolutionSpec(2, 2, ((0,), (-1,)), ()).validate()
        # non-homogeneous entry: degree must be 0 - (-1) = 1, not 2
        bad_poly = ((1, (0, 2)),)
        with pytest.raises(SpecInvalidError):
            ResolutionSpec(2, 2, ((0,), (-1,)), (((bad_poly,),),)).validate()
        # composite not zero: Y1 then Y1
        y1 = ((1, (1, 0)),)
        with pytest.raises(SpecInvalidError):
            ResolutionSpec(
                2,
                2,
                ((0,), (-1,), (-2,)),
                ((((y1,),)[0],), (((y1,),)[0],)),
            ).validate()

    def test_group_algebra_above_max_dim_refused_before_it_is_built(self, monkeypatch):
        built = []
        init = kemod.GroupAlgebra.__init__

        def spy(self, p, r):
            built.append((p, r))
            init(self, p, r)

        kemod.group_algebra.cache_clear()
        monkeypatch.setattr(kemod.GroupAlgebra, "__init__", spy)
        with pytest.raises(ResourceCapError):
            realize_bundle(line_bundle_spec(2, 4, -1), max_dim=15)  # kE has 16
        assert (2, 4) not in built

    def test_level_sum_refused_before_it_is_built(self, monkeypatch):
        sums = []
        monkeypatch.setattr(realize, "direct_sum", lambda *args: sums.append(args))
        spec = ResolutionSpec(2, 2, ((-3,) * 10,), ())  # ten copies of Omega^3 k, dim 7
        message = "^level sum of dimension 70 above the cap 50$"
        with pytest.raises(ResourceCapError, match=message):
            realize_bundle(spec, max_dim=50)
        assert not sums

    def test_cone_refused_before_its_quotient_is_built(self, monkeypatch):
        quotients = []
        monkeypatch.setattr(
            realize, "quotient_module", lambda *args, **kw: quotients.append(args)
        )
        # the first cone is 6 + 8 - 5 = 9: level 1, the hull of Omega^2 k, Omega^2 k
        with pytest.raises(ResourceCapError, match="^cone of dimension 9 above the cap 8$"):
            realize_bundle(koszul_tail_spec(2, 2), max_dim=8)
        assert not quotients
        monkeypatch.undo()
        M, rep = realize_bundle(koszul_tail_spec(2, 2), max_dim=9)
        assert rep.cone_dims == [9, 4] and M.n == 0

    def test_hull_extension_system_refused_before_it_is_allocated(self):
        # at (2, 4) the extension system for the generator cocycle shifted n
        # steps down peaks at 413 MB at n = 5 and 2780 MB at n = 6; the
        # child's address space stops at 2 GiB, so allocating the n = 6
        # system would end in a MemoryError instead of the refusal
        code = textwrap.dedent(
            """\
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from cjt.realize import ResourceCapError, StableModels
            sm = StableModels(2, 4)
            g5 = sm.shift(sm.generator_cocycle(1), 1, 0, -5)
            g6 = sm.shift(g5, -4, -5, -1)
            try:
                sm.is_stably_nonzero(g6)
            except ResourceCapError as exc:
                print(exc)
            print(sm.is_stably_nonzero(g5))
            """
        )
        src = str(Path(realize.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "hull extension system of 2780 MB at its peak above the memory "
            "budget of 512 MB\n"
            "True\n"
        )

    def test_hull_extension_budget_bounds_its_peak(self, monkeypatch):
        # three steps down at (2, 4) the extension system peaks at 2.5 MB;
        # the bytes the budget counts are at least that peak, and not twice it
        sm = StableModels(2, 4)
        f = sm.shift(sm.generator_cocycle(1), 1, 0, -3)
        injective_hull(f.source)
        tracemalloc.start()
        try:
            assert realize._extend_over_hull(f) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > 2 << 20
        monkeypatch.setattr(realize, "DEFAULT_MEMORY_BUDGET", 2 * peak)
        assert realize._extend_over_hull(f) is None
        monkeypatch.setattr(realize, "DEFAULT_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ResourceCapError, match="at its peak"):
            realize._extend_over_hull(f)

    def test_report_contents(self):
        M, rep = realize_bundle(euler_spec(2, 3), plan=SamplingPlan(extra=60))
        assert rep.eps == 1
        assert rep.expected_rank == 2
        assert rep.final_dim == M.n
        assert rep.stripped and rep.cone_dims
