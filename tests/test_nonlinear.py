import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from igasolve import iga, nonlinear
from igasolve.extrapolation import Diverged, anderson_solve
from igasolve.bspline import KnotVector
from igasolve.iga import ExpOverflow, SplineSpace, bratu_load, l2_error, make_space
from igasolve.multigrid import v_cycle
from igasolve.nonlinear import (
    BratuProblem,
    MongeAmpereProblem,
    OuterConfig,
    build_discretisation,
    make_context,
    run_outer,
)

from oracles import (
    l2_projection,
    plain_fixed_point,
    seed_build_discretisation,
    seed_dirichlet_split,
)


def picard_map(prob, u, **cfg):
    """One application of the problem's Picard map to the coefficient vector u."""
    ctx = make_context(prob, OuterConfig(**cfg))
    return ctx.step(u), ctx


def doubled_knot_monge_ampere():
    """Monge-Ampere p=3 N=64 with 0.5 twice in x: the coarse levels keep both copies."""
    prob = MongeAmpereProblem.manufactured(3, 64)
    kv = prob.space.kvs[0]
    prob.space = SplineSpace((KnotVector(3, np.sort(np.append(kv.knots, 0.5))), prob.space.kvs[1]))
    return prob


@pytest.fixture
def splu_args(monkeypatch):
    """The matrices SuperLU is given, in call order."""
    args = []

    def spy(A, *rest, **kwargs):
        args.append(A)
        return splu(A, *rest, **kwargs)

    splu = nonlinear.spla.splu
    monkeypatch.setattr(nonlinear.spla, "splu", spy)
    return args


class TestBratuMap:
    def test_lambda_zero_is_plain_poisson_solve(self):
        prob = BratuProblem.manufactured_1d(0.0, 2, 16)
        u0 = np.zeros(prob.space.n_dof)
        cfg = dict(inner="vcycle_to_tol", linear_tol=1e-14)
        u1, ctx = picard_map(prob, u0, **cfg)
        interior = ctx.disc.interior
        # oracle: direct Galerkin solve of the Poisson problem
        space = prob.space
        F = bratu_load(space, iga._call_on_grid(prob.f, space.tables()), 0.0,
                       np.zeros(space.n_dof))
        ref = spla.spsolve(ctx.disc.hier.fine.A.tocsc(), F[interior])
        assert np.abs(u1[interior] - ref).max() <= 1e-10 * np.abs(ref).max()
        # the linear problem is a fixed point after one application
        u2, _ = picard_map(prob, u1, **cfg)
        rel = np.linalg.norm(u2 - u1) / np.linalg.norm(u1)
        assert rel <= 1e-12

    def test_exact_projection_nearly_fixed(self):
        prob = BratuProblem.manufactured_1d(1.0, 3, 32)
        u = l2_projection(prob.space, prob.exact)
        out, _ = picard_map(prob, u)
        rel = np.linalg.norm(out - u) / np.linalg.norm(u)
        # bounded by discretization plus inner-solve error; pinned once measured
        assert rel <= 2e-4


class TestMongeAmpereMap:
    def test_paraboloid_is_exact_fixed_point(self):
        # u = (x^2+y^2)/2 with f = 1: det H = 1 and G = 2 = lap u exactly
        def u_exact(x, y):
            return 0.5 * (x**2 + y**2)

        prob = MongeAmpereProblem(f=lambda x, y: np.ones_like(x), g=u_exact,
                                  space=make_space(2, 8, dims=2), exact=u_exact)
        u = l2_projection(prob.space, u_exact)
        out, _ = picard_map(prob, u, linear_tol=1e-13)
        assert l2_error(prob.space, out, u_exact) <= 1e-10

    def test_exact_solution_projection_nearly_fixed(self):
        resid = {}
        for n in (8, 16):
            prob = MongeAmpereProblem.manufactured(2, n)
            u = l2_projection(prob.space, prob.exact)
            out, _ = picard_map(prob, u, linear_tol=1e-12)
            resid[n] = np.linalg.norm(out - u) / np.linalg.norm(u)
        assert resid[8] <= 5e-3
        assert resid[16] <= resid[8]  # shrinks under refinement

    def test_degree_validated(self):
        with pytest.raises(Exception):
            MongeAmpereProblem(f=lambda x, y: 1.0, g=None, space=make_space(1, 8, dims=2))


class TestInnerSolve:
    def test_one_vcycle_step_is_one_v_cycle_bitwise(self):
        prob = BratuProblem.manufactured_2d(3.0, 3, 16)
        ctx = make_context(prob, OuterConfig())
        x = ctx.step(ctx.initial_guess())
        interior = ctx.disc.interior
        space = prob.space
        f_vals = iga._call_on_grid(prob.f, space.tables())
        rhs = bratu_load(space, f_vals, prob.lam, x)[interior] - ctx.disc.lift_vec
        ref = v_cycle(ctx.disc.hier, rhs, x[interior])[0]
        out = ctx.step(x)
        assert out[interior].tobytes() == ref.tobytes()
        assert np.all(np.delete(out, interior) == np.delete(x, interior))

    def test_bratu_vcycle_to_tol_freezes_cycle_count(self, monkeypatch):
        ctx = make_context(BratuProblem.manufactured_2d(1.0, 2, 64),
                           OuterConfig(inner="vcycle_to_tol", linear_tol=1e-6))
        assert ctx.disc.hier.n_levels > 1
        calls = {"v_cycle": 0, "solve_to_tolerance": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(nonlinear, name, counting(name, getattr(nonlinear, name)))
        x = ctx.step(ctx.initial_guess())
        assert calls == {"v_cycle": 0, "solve_to_tolerance": 1}
        n = ctx._n_cycles
        assert n > 1
        for k in (1, 2):
            x = ctx.step(x)
            assert calls == {"v_cycle": k * n, "solve_to_tolerance": 1}
        assert ctx._n_cycles == n

    def test_first_solve_runs_at_least_one_cycle(self):
        # at p=2, N=24 the harmonic lift's interior already meets
        # linear_tol = 1e-2, so solving to tolerance runs no cycle
        prob = MongeAmpereProblem.manufactured(2, 24)
        cfg = OuterConfig(tol=1e-10, maxiter=400, linear_tol=1e-2)
        ctx = make_context(prob, cfg)
        x0 = ctx.initial_guess()
        interior = ctx.disc.interior
        rhs = prob.load(ctx._f_vals, x0)[interior] - ctx.disc.lift_vec
        x1 = ctx.step(x0)
        assert ctx._n_cycles == 1
        assert not np.array_equal(x1, x0)
        assert x1[interior].tobytes() == v_cycle(ctx.disc.hier, rhs, x0[interior])[0].tobytes()
        x, hist = run_outer(prob, cfg)
        assert hist.converged and hist.iterations > 1
        assert l2_error(prob.space, x, prob.exact) <= 1e-4

    @pytest.mark.parametrize("p, n", [(2, 16), (3, 32)])
    def test_monge_ampere_lift_equals_spsolve_bitwise(self, p, n):
        prob = MongeAmpereProblem.manufactured(p, n)
        ctx = make_context(prob, OuterConfig())
        interior, boundary, values = seed_dirichlet_split(prob.space, prob.g)
        full = iga.assemble_stiffness(prob.space)
        # the interior x boundary block times the boundary data
        lift = full[interior][:, boundary] @ values
        assert ctx.disc.lift_vec.tobytes() == lift.tobytes()
        ref = spla.spsolve(ctx.disc.hier.fine.A.tocsc(), -lift)
        assert ctx.initial_guess()[interior].tobytes() == ref.tobytes()

    def test_lift_lu_is_kept_only_for_direct_inner_solves(self):
        prob = MongeAmpereProblem.manufactured(2, 16)
        ctx = make_context(prob, OuterConfig())
        x0 = ctx.initial_guess()
        assert ctx._lu is None
        direct = make_context(prob, OuterConfig(inner="direct"))
        assert direct.initial_guess().tobytes() == x0.tobytes()
        lu = direct._lu
        assert lu is not None
        direct.step(x0)
        assert direct._lu is lu

    def test_multigrid_context_factorises_once_for_the_lift(self, splu_args):
        ctx = make_context(MongeAmpereProblem.manufactured(2, 8), OuterConfig())
        assert len(splu_args) == 1
        x0 = ctx.initial_guess()
        start = x0.tobytes()
        x0[:] = 0.0  # a copy: the caller's iterate is not the context's
        assert ctx.initial_guess().tobytes() == start
        assert len(splu_args) == 1

    @staticmethod
    def _check_direct_factorises_once(splu_args, prob, n_splu):
        ctx = make_context(prob, OuterConfig(inner="direct"))
        assert [A.shape for A in splu_args] == [ctx.disc.hier.fine.A.shape] * n_splu
        ctx.step(ctx.step(ctx.initial_guess()))
        assert len(splu_args) == n_splu

    def test_direct_context_factorises_once(self, splu_args):
        # the lift's LU, then the context's
        self._check_direct_factorises_once(splu_args, MongeAmpereProblem.manufactured(2, 8), 2)

    def test_direct_context_without_a_lift_factorises_once(self, splu_args):
        # homogeneous boundary data: no lift to factorise
        self._check_direct_factorises_once(splu_args, BratuProblem.manufactured_2d(1.0, 2, 8), 1)


class TestDiscretisation:
    def test_shared_arrays_are_read_only(self):
        prob = MongeAmpereProblem.manufactured(2, 64)
        disc = build_discretisation(prob.space, prob.g)
        levels = disc.hier.levels
        operators = [M for lvl in levels for M in (lvl.A, lvl.P, lvl.R) if M is not None]
        assert len(levels) == 2 and len(operators) == 4
        for shared in (disc.interior, disc.lift_vec, disc.x0,
                       *(lvl.inv_diag for lvl in levels),
                       *(a for M in operators for a in (M.data, M.indices, M.indptr)),
                       *disc.hier._coarse_lu._lu):
            with pytest.raises(ValueError, match="read-only"):
                shared.flat[0] = 1
        ctx = make_context(prob, OuterConfig(), disc)
        x0 = ctx.initial_guess()
        x0[:] = 0.0  # the context hands out copies
        assert ctx.initial_guess().tobytes() == disc.x0.tobytes()

    def test_prebuilt_discretisation_gives_the_fresh_solve(self):
        prob = MongeAmpereProblem.manufactured(2, 16)
        cfg = OuterConfig(accelerator="rre", window=3, tol=1e-10, linear_tol=1e-3)
        disc = build_discretisation(prob.space, prob.g)
        x_fresh, fresh = run_outer(prob, cfg)
        for _ in range(2):
            x, hist = run_outer(prob, cfg, disc=disc)
            assert x.tobytes() == x_fresh.tobytes()
            assert repr(hist.records) == repr(fresh.records)

    @pytest.mark.parametrize("make", [
        lambda: MongeAmpereProblem.manufactured(2, 64),
        lambda: MongeAmpereProblem.manufactured(3, 64),
        lambda: MongeAmpereProblem.manufactured(4, 64),
        lambda: BratuProblem.manufactured_1d(1.0, 3, 128),
        lambda: BratuProblem.manufactured_2d(1.0, 2, 64),
        doubled_knot_monge_ampere,
    ], ids=["ma-p2", "ma-p3", "ma-p4", "bratu-1d", "bratu-2d", "doubled-knot"])
    def test_build_matches_seed_build_bytes(self, make):
        prob = make()
        new = build_discretisation(prob.space, prob.g)
        old = seed_build_discretisation(prob.space, prob.g)
        assert new.hier.n_levels == old.hier.n_levels >= 2
        for a, b in [(new.interior, old.interior), (new.lift_vec, old.lift_vec),
                     (new.x0, old.x0), *zip(new.hier._coarse_lu._lu, old.hier._coarse_lu._lu)]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for lvl_new, lvl_old in zip(new.hier.levels, old.hier.levels):
            assert lvl_new.inv_diag.tobytes() == lvl_old.inv_diag.tobytes()
            for name in ("A", "P", "R"):
                M, N = getattr(lvl_new, name), getattr(lvl_old, name)
                assert (M is None) == (N is None)
                if M is None:
                    continue
                assert M.format == N.format == "csr" and M.shape == N.shape
                for a, b in [(M.data, N.data), (M.indices, N.indices), (M.indptr, N.indptr)]:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make, lifted", [
        (lambda: MongeAmpereProblem.manufactured(2, 64), True),
        (lambda: BratuProblem.manufactured_2d(1.0, 2, 64), False),
    ], ids=["lift", "homogeneous"])
    def test_lift_factorises_csc_before_the_hierarchy(self, monkeypatch, make, lifted):
        events = []
        splu, build = nonlinear._splu, nonlinear.build_hierarchy

        def splu_spy(A):
            events.append(("splu", A.format))
            return splu(A)

        def build_spy(*args):
            events.append(("hierarchy", args[2].format))
            return build(*args)

        monkeypatch.setattr(nonlinear, "_splu", splu_spy)
        monkeypatch.setattr(nonlinear, "build_hierarchy", build_spy)
        prob = make()
        build_discretisation(prob.space, prob.g)
        assert events == [("splu", "csc")] * lifted + [("hierarchy", "csr")]

    def test_lift_factorises_with_one_copy_of_the_interior_matrix_alive(self, monkeypatch):
        # no full stiffness, no CSR twin of the CSC matrix and no hierarchy
        # (its dense coarsest LU alone is 9.5 MB here) beside the one copy
        seen = []
        splu = nonlinear._splu

        def spy(A):
            seen.append((tracemalloc.get_traced_memory()[0],
                         sum(a.nbytes for a in (A.data, A.indices, A.indptr))))
            return splu(A)

        monkeypatch.setattr(nonlinear, "_splu", spy)
        prob = MongeAmpereProblem.manufactured(3, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_discretisation(prob.space, prob.g)
        finally:
            tracemalloc.stop()
        ((traced, matrix),) = seen
        # beside the matrix: x0, lift_vec, interior and the quadrature tables
        assert matrix <= traced - base < 1.25 * matrix

    @pytest.mark.parametrize("make, inner, n_splu", [
        (lambda: MongeAmpereProblem.manufactured(3, 64), "one_vcycle", 1),
        (lambda: BratuProblem.manufactured_1d(1.0, 5, 32), "direct", 1),
        (lambda: MongeAmpereProblem.manufactured(2, 16), "direct", 2),
    ], ids=["lift", "picard-slu-1d", "picard-slu-lift"])
    def test_superlu_reads_the_hierarchy_arrays(self, splu_args, make, inner, n_splu):
        # the stiffness is symmetric to the bit: its CSR arrays are its CSC arrays
        ctx = make_context(make(), OuterConfig(inner=inner))
        A = ctx.disc.hier.fine.A
        assert len(splu_args) == n_splu
        for arg in splu_args:
            assert arg.format == "csc" and arg.shape == A.shape
            for a, b in ((arg.data, A.data), (arg.indices, A.indices), (arg.indptr, A.indptr)):
                assert np.shares_memory(a, b)

    def test_direct_step_matches_a_solve_on_a_csc_copy(self):
        # non-homogeneous data, which no golden solves directly
        prob = MongeAmpereProblem.manufactured(2, 16)
        ctx = make_context(prob, OuterConfig(inner="direct"))
        disc = ctx.disc
        lu = spla.splu(disc.hier.fine.A.tocsc())
        x = ctx.initial_guess()
        for _ in range(2):
            rhs = prob.load(ctx._f_vals, x)[disc.interior] - disc.lift_vec
            ref = x.copy()
            ref[disc.interior] = lu.solve(rhs)
            x = ctx.step(x)
            assert x.tobytes() == ref.tobytes()

    def test_mismatched_discretisation_refused(self):
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        other = BratuProblem.manufactured_1d(1.0, 2, 8)
        with pytest.raises(ValueError, match="not on the problem's space"):
            make_context(prob, OuterConfig(), build_discretisation(other.space))


class TestRunOuter:
    def test_huge_tolerance_stops_immediately(self):
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        cfg = OuterConfig(accelerator="none", tol=1.0, maxiter=100)
        _, hist = run_outer(prob, cfg)
        assert hist.converged and hist.iterations == 1

    def test_linear_problem_converges_fast_any_accelerator(self):
        for acc, w in (("none", 0), ("mpe", 2), ("rre", 2), ("anderson", 2)):
            prob = BratuProblem.manufactured_1d(0.0, 2, 16)
            cfg = OuterConfig(accelerator=acc, window=w, tol=1e-11, maxiter=50,
                              inner="vcycle_to_tol", linear_tol=1e-13)
            _, hist = run_outer(prob, cfg)
            assert hist.converged
            assert hist.iterations <= 5

    def test_accelerator_none_reproduces_raw_picard_bitwise(self):
        prob = BratuProblem.manufactured_1d(2.0, 2, 16)
        cfg = OuterConfig(accelerator="none", tol=1e-10, maxiter=40)
        x, hist = run_outer(prob, cfg)
        ctx = make_context(BratuProblem.manufactured_1d(2.0, 2, 16),
                           OuterConfig(accelerator="none", tol=1e-10, maxiter=40))
        x_ref, residuals = plain_fixed_point(ctx.step, ctx.initial_guess(), 1e-10, 40)
        assert np.all(x == x_ref)
        assert [r.relative_residual for r in hist.records] == residuals

    def test_overflow_becomes_diverged(self):
        # enormous lambda blows the exponential up within a few steps
        prob = BratuProblem.manufactured_1d(1e6, 1, 8)
        cfg = OuterConfig(accelerator="none", tol=1e-12, maxiter=50)
        with pytest.raises(Diverged):
            run_outer(prob, cfg)

    def test_overflow_diverged_carries_history(self):
        prob = BratuProblem.manufactured_1d(1e6, 1, 8)
        cfg = OuterConfig(accelerator="none", tol=1e-12, maxiter=50)
        with pytest.raises(Diverged) as ei:
            run_outer(prob, cfg)
        assert isinstance(ei.value, ExpOverflow)
        assert ei.value.history is not None and ei.value.history.records

    def test_blown_up_iterate_diverges_under_multigrid(self):
        # the non-finite load reaches the coarsest-grid LU, which passes it
        # on, so the residual check ends the solve with its history
        ctx = make_context(MongeAmpereProblem.manufactured(2, 16), OuterConfig())
        x = ctx.initial_guess()
        x[ctx.disc.interior] = 1e200
        with np.errstate(all="ignore"), pytest.raises(Diverged) as ei:
            anderson_solve(ctx.step, x, 0, 1e-10, 5)
        assert len(ei.value.history.records) == 1

    def test_history_records_phases_and_l2(self):
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        cfg = OuterConfig(accelerator="mpe", window=2, tol=1e-10, maxiter=60)
        _, hist = run_outer(prob, cfg)
        t = hist.timers
        assert t.rhs_s > 0.0 and t.mg_s >= 0.0 and t.extrapol_s > 0.0
        assert np.isfinite(hist.records[-1].l2_error)
        its = [r.iteration for r in hist.records]
        assert its == sorted(its) and len(set(its)) == len(its)

    @pytest.mark.parametrize("acc, window", [("mpe", 5), ("none", 0)])
    def test_returned_vector_has_the_last_recorded_l2_error(self, acc, window):
        prob = BratuProblem.manufactured_1d(1.0, 3, 16)
        cfg = OuterConfig(accelerator=acc, window=window, tol=1e-12, maxiter=200)
        x, hist = run_outer(prob, cfg)
        assert isinstance(x, np.ndarray) and x.shape == (prob.space.n_dof,)
        assert hist.converged
        assert l2_error(prob.space, x, prob.exact) == hist.records[-1].l2_error

    def test_no_exact_solution_records_nan(self, monkeypatch):
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        prob.exact = None
        monkeypatch.setattr(iga, "l2_error", None)  # never called
        _, hist = run_outer(prob, OuterConfig(accelerator="rre", window=2, tol=1e-10))
        assert hist.converged and all(np.isnan(r.l2_error) for r in hist.records)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_repeated_interior_knot_runs_through_the_hierarchy(self, dims):
        # 0.5 twice: the coarse levels must keep both copies
        build = BratuProblem.manufactured_1d if dims == 1 else BratuProblem.manufactured_2d
        prob = build(1.0, 2, 64)
        kv = prob.space.kvs[0]
        prob.space = SplineSpace((KnotVector(2, np.sort(np.append(kv.knots, 0.5))),)
                                 + prob.space.kvs[1:])
        ctx = make_context(prob, OuterConfig())
        assert ctx.disc.hier.n_levels == 2
        _, hist = run_outer(prob, OuterConfig(accelerator="rre", window=3))
        assert hist.converged and hist.records[-1].l2_error < 1e-5

    def test_discontinuous_space_refused_before_assembly(self, monkeypatch):
        # at multiplicity p+1 the H1 Galerkin map decouples the two sides and
        # converges to a wrong answer
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        kv = prob.space.kvs[0]
        prob.space = SplineSpace((KnotVector(2, np.sort(np.append(kv.knots, [0.5, 0.5]))),))
        iga.assemble_stiffness(prob.space)  # assembly accepts the space
        monkeypatch.setattr(iga, "assemble_stiffness", None)
        with pytest.raises(ValueError, match=r"interior knot 0\.5 repeats 3 times.* p = 2"):
            run_outer(prob, OuterConfig(accelerator="rre", window=3))

    def test_unknown_accelerator(self):
        prob = BratuProblem.manufactured_1d(1.0, 2, 8)
        with pytest.raises(ValueError):
            run_outer(prob, OuterConfig(accelerator="aitken"))

    @pytest.mark.parametrize("kwargs", [
        dict(accelerator="foo"),
        dict(inner="vcycle"),
        dict(accelerator="mpe", window=0),
        dict(accelerator="rre", window=0),
        dict(accelerator="anderson", window=0),
        dict(maxiter=0),
        dict(maxiter=-3),
        dict(linear_tol=0.0),
        dict(linear_tol=-1.0),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
        dict(linear_tol=float("inf")),
    ], ids=["accelerator", "inner", "mpe-window-0", "rre-window-0", "anderson-window-0",
            "maxiter-0", "maxiter-negative", "linear-tol-0", "linear-tol-negative", "tol-nan",
            "tol-inf", "linear-tol-inf"])
    def test_bad_config_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            OuterConfig(**kwargs)
        # plain Picard ignores the window, so 0 stays valid
        OuterConfig(accelerator="none", window=0)


def solve(build, cfg, l2_every_step):
    """run_outer on a fresh problem: (vector, history, None), or (None, its
    history, the exception) when it raises Diverged."""
    try:
        return (*run_outer(build(), cfg, l2_every_step=l2_every_step), None)
    except Diverged as exc:
        return None, exc.history, exc


def final_l2_both_ways(build, cfg):
    """Solve with the L2 error on every step and with the default final-only
    L2, check that the last record and the returned vector agree bit for bit,
    and return the default solve's (vector, history, exception)."""
    x_ref, hist_ref, exc_ref = solve(build, cfg, True)
    x, hist, exc = solve(build, cfg, False)
    assert type(exc) is type(exc_ref)
    assert repr(hist.records[-1]) == repr(hist_ref.records[-1])
    assert (x is None and x_ref is None) or x.tobytes() == x_ref.tobytes()
    assert all(np.isfinite(r.l2_error) for r in hist_ref.records)
    assert all(np.isnan(r.l2_error) for r in hist.records[:-1])
    return x, hist, exc


def tiny_problem():
    """1D Bratu on a single quadratic element: three dof, all of them mapped
    by the replacement Picard maps below."""
    return BratuProblem.manufactured_1d(1.0, 2, 1)


class TestFinalL2:
    """The L2 error computed once per solve equals the per-step path's."""

    @pytest.fixture
    def map_outputs(self, monkeypatch):
        outputs = []
        step = nonlinear._PicardContext.step

        def spy(self, x):
            outputs.append(step(self, x))
            return outputs[-1]

        monkeypatch.setattr(nonlinear._PicardContext, "step", spy)
        return outputs

    def test_mpe_accepted_extrapolant(self, map_outputs):
        build = lambda: BratuProblem.manufactured_1d(7.0, 3, 32)
        cfg = OuterConfig(accelerator="mpe", window=3, tol=1e-10, maxiter=200)
        x, hist, _ = final_l2_both_ways(build, cfg)
        # converged on an extrapolant, not on a map application
        assert hist.converged and not np.array_equal(x, map_outputs[-1])
        prob = build()
        assert hist.records[-1].l2_error == l2_error(prob.space, x, prob.exact)

    def test_rre_rejected_prediction_at_maxiter(self, monkeypatch):
        # TestRestartedDriver::test_rejected_prediction_returns_extrapolant as
        # a Picard map: the last record describes the last map application
        G = lambda x: np.sin(3.0 * x) + 2.0
        monkeypatch.setattr(nonlinear._PicardContext, "step", lambda self, x: G(x))
        x, hist, _ = final_l2_both_ways(tiny_problem, OuterConfig(
            accelerator="rre", window=3, tol=1e-14, maxiter=4))
        s = np.zeros(3)
        for _ in range(4):
            s = G(s)
        assert not hist.converged and hist.iterations == 4
        assert not np.array_equal(x, s)
        prob = tiny_problem()
        assert hist.records[-1].l2_error == l2_error(prob.space, s, prob.exact)
        assert hist.records[-1].l2_error != l2_error(prob.space, x, prob.exact)

    @pytest.mark.parametrize("acc, window", [("anderson", 3), ("none", 0)])
    def test_anderson_and_plain_picard(self, acc, window, map_outputs):
        cfg = OuterConfig(accelerator=acc, window=window, tol=1e-10, maxiter=200)
        x, hist, _ = final_l2_both_ways(lambda: BratuProblem.manufactured_1d(1.0, 3, 16), cfg)
        assert hist.converged and hist.iterations > 1
        if acc == "none":
            assert x.tobytes() == map_outputs[-1].tobytes()

    def test_diverged_from_the_residual_check(self, monkeypatch):
        # zeros -> ones -> zeros: the second residual is infinite, and the
        # record that raises describes the zero iterate
        monkeypatch.setattr(nonlinear._PicardContext, "step", lambda self, x: 1.0 - x)
        _, hist, exc = final_l2_both_ways(tiny_problem, OuterConfig(maxiter=10))
        assert type(exc) is Diverged and hist.iterations == 2
        prob = tiny_problem()
        assert hist.records[-1].l2_error == l2_error(prob.space, np.zeros(3), prob.exact)

    def test_exp_overflow_inside_the_map(self, map_outputs):
        # the last record is the step before the map that overflowed
        build = lambda: BratuProblem.manufactured_1d(1e6, 1, 8)
        _, hist, exc = final_l2_both_ways(build, OuterConfig(tol=1e-12, maxiter=50))
        assert isinstance(exc, ExpOverflow) and exc.history is hist
        assert hist.iterations >= 1
        prob = build()
        # the overflowing application raised before the spy kept an output
        assert hist.records[-1].l2_error == l2_error(prob.space, map_outputs[-1], prob.exact)

    def test_no_exact_solution_never_calls_l2_error(self, monkeypatch):
        def build():
            prob = BratuProblem.manufactured_1d(1.0, 2, 8)
            prob.exact = None
            return prob

        monkeypatch.setattr(iga, "l2_error", None)  # never called
        cfg = OuterConfig(accelerator="rre", window=2, tol=1e-10)
        x_ref, hist_ref, _ = solve(build, cfg, True)
        x, hist, _ = solve(build, cfg, False)
        assert repr(hist.records) == repr(hist_ref.records) and x.tobytes() == x_ref.tobytes()
        assert hist.converged and all(np.isnan(r.l2_error) for r in hist.records)


class TestTrendInvariants:
    def test_bratu_error_decreases_under_refinement(self):
        errs = []
        for n in (8, 16, 32):
            prob = BratuProblem.manufactured_1d(7.0, 5, n)
            cfg = OuterConfig(accelerator="rre", window=5, tol=1e-12, maxiter=500)
            _, hist = run_outer(prob, cfg)
            assert hist.converged
            errs.append(hist.records[-1].l2_error)
        assert errs[0] > errs[1] > errs[2]

    def test_monge_ampere_error_decreases_under_refinement(self):
        errs = []
        for n in (8, 16):
            prob = MongeAmpereProblem.manufactured(2, n)
            cfg = OuterConfig(accelerator="rre", window=5, tol=1e-10, maxiter=200,
                              inner="vcycle_to_tol", linear_tol=1e-2)
            _, hist = run_outer(prob, cfg)
            assert hist.converged
            errs.append(hist.records[-1].l2_error)
        assert errs[0] > errs[1]
        assert errs[0] / errs[1] >= 2.5

    def test_monge_ampere_inner_cycles_frozen(self):
        prob = MongeAmpereProblem.manufactured(2, 32)
        cfg = OuterConfig(accelerator="none", tol=1e-10, maxiter=5,
                          inner="vcycle_to_tol", linear_tol=1e-3)
        ctx = make_context(prob, cfg)
        x = ctx.initial_guess()
        ctx.step(x)
        assert ctx._n_cycles is not None and ctx._n_cycles >= 1
