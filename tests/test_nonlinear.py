import numpy as np
import pytest
import scipy.sparse.linalg as spla

from igasolve import iga, nonlinear
from igasolve.extrapolation import Diverged
from igasolve.iga import ExpOverflow, bratu_load, l2_error, make_space
from igasolve.multigrid import v_cycle
from igasolve.nonlinear import (
    BratuProblem,
    MongeAmpereProblem,
    OuterConfig,
    make_context,
    run_outer,
)

from oracles import l2_projection, plain_fixed_point, seed_dirichlet_split


def picard_map(prob, u, **cfg):
    """One application of the problem's Picard map to the coefficient vector u."""
    ctx = make_context(prob, OuterConfig(**cfg))
    return ctx.step(u), ctx


class TestBratuMap:
    def test_lambda_zero_is_plain_poisson_solve(self):
        prob = BratuProblem.manufactured_1d(0.0, 2, 16)
        u0 = np.zeros(prob.space.n_dof)
        cfg = dict(inner="vcycle_to_tol", linear_tol=1e-14)
        u1, ctx = picard_map(prob, u0, **cfg)
        interior = ctx.interior
        # oracle: direct Galerkin solve of the Poisson problem
        space = prob.space
        F = bratu_load(space, iga._call_on_grid(prob.f, space.tables()), 0.0,
                       np.zeros(space.n_dof))
        ref = spla.spsolve(ctx.A.tocsc(), F[interior])
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
        interior = ctx.interior
        space = prob.space
        f_vals = iga._call_on_grid(prob.f, space.tables())
        rhs = bratu_load(space, f_vals, prob.lam, x)[interior] - ctx._lift_vec
        ref = v_cycle(ctx.hier, rhs, x[interior])[0]
        out = ctx.step(x)
        assert out[interior].tobytes() == ref.tobytes()
        assert np.all(np.delete(out, interior) == np.delete(x, interior))

    def test_bratu_vcycle_to_tol_freezes_cycle_count(self, monkeypatch):
        ctx = make_context(BratuProblem.manufactured_2d(1.0, 2, 64),
                           OuterConfig(inner="vcycle_to_tol", linear_tol=1e-6))
        assert ctx.hier.n_levels > 1
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
        interior = ctx.interior
        rhs = prob.load(ctx._f_vals, x0)[interior] - ctx._lift_vec
        x1 = ctx.step(x0)
        assert ctx._n_cycles == 1
        assert not np.array_equal(x1, x0)
        assert x1[interior].tobytes() == v_cycle(ctx.hier, rhs, x0[interior])[0].tobytes()
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
        assert ctx._lift_vec.tobytes() == lift.tobytes()
        ref = spla.spsolve(ctx.A.tocsc(), -lift)
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

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []

        def spy(A, *args, **kwargs):
            calls.append(A.shape)
            return splu(A, *args, **kwargs)

        splu = nonlinear.spla.splu
        monkeypatch.setattr(nonlinear.spla, "splu", spy)
        return calls

    def test_multigrid_context_factorises_once_for_the_lift(self, splu_calls):
        ctx = make_context(MongeAmpereProblem.manufactured(2, 8), OuterConfig())
        assert len(splu_calls) == 1
        x0 = ctx.initial_guess()
        start = x0.tobytes()
        x0[:] = 0.0  # a copy: the caller's iterate is not the context's
        assert ctx.initial_guess().tobytes() == start
        assert len(splu_calls) == 1

    def test_direct_context_factorises_once(self, splu_calls):
        ctx = make_context(MongeAmpereProblem.manufactured(2, 8), OuterConfig(inner="direct"))
        ctx.step(ctx.step(ctx.initial_guess()))
        assert splu_calls == [ctx.A.shape]


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
