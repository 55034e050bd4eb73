import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from igasolve.bspline import insert_knots
from igasolve.iga import SplineSpace, apply_dirichlet, assemble_stiffness, make_space
from igasolve.multigrid import (
    OMEGA,
    CycleReport,
    Level,
    ZeroDiagonal,
    _coarsen_kv,
    _interior_prolongation,
    build_hierarchy,
    smooth,
    solve_to_tolerance,
    v_cycle,
)
from oracles import kron_interior_prolongation


def poisson_hierarchy(p, n, dims=1, **kw):
    return build_hierarchy(make_space(p, n, dims=dims), **kw)


class TestHierarchy:
    def test_two_level_p1_prolongation_is_linear_interpolation(self):
        h = poisson_hierarchy(1, 8, direct_threshold=4)
        assert h.n_levels == 2
        P = h.levels[0].P.toarray()
        # interior coarse hat i maps to fine dofs (2i, 2i+1, 2i+2) with (1/2, 1, 1/2)
        assert P.shape == (7, 3)
        expected = np.zeros((7, 3))
        for i in range(3):
            expected[2 * i, i] = 0.5
            expected[2 * i + 1, i] = 1.0
            expected[2 * i + 2, i] = 0.5
        assert np.abs(P - expected).max() <= 1e-14

    def test_galerkin_identity_all_levels(self):
        h = poisson_hierarchy(2, 32, dims=1, direct_threshold=4)
        for i in range(h.n_levels - 1):
            lvl, finer = h.levels[i], h.levels[i + 1]
            assert abs(lvl.R - lvl.P.T).max() == 0.0
            defect = abs(lvl.A - lvl.R @ finer.A @ lvl.P).max()
            assert defect <= 1e-12 * abs(lvl.A).max()

    def test_symmetry_preserved(self):
        h = poisson_hierarchy(3, 32, dims=2, direct_threshold=8)
        for lvl in h.levels:
            assert abs(lvl.A - lvl.A.T).max() <= 1e-12 * abs(lvl.A).max()

    def test_rediscretize_agrees_up_to_boundary_rows(self):
        # p=1 uniform 1D Poisson: Galerkin and rediscretized coarse operators
        # agree except in rows coupling to the eliminated boundary, where the
        # hat overlap pattern differs; on this discretization the stencils
        # coincide everywhere, so the discrepancy set is empty.
        hg = poisson_hierarchy(1, 16, direct_threshold=7)
        assert hg.n_levels == 2
        coarse = make_space(1, 8)
        Ag = hg.levels[0].A.toarray()
        interior, _ = apply_dirichlet(coarse)
        Ar = assemble_stiffness(coarse)[interior][:, interior].toarray()
        interior = slice(1, -1)
        assert np.abs(Ag[interior, interior] - Ar[interior, interior]).max() <= 1e-12
        assert np.abs(Ag - Ar).max() <= 1e-12  # document: no boundary discrepancy for p=1

    def test_too_coarse(self):
        # p=1, N=4 halves to N=2 (one interior dof); N=1 would have none,
        # so even a zero threshold stops there
        h = build_hierarchy(make_space(1, 4), direct_threshold=0)
        assert [lvl.A.shape[0] for lvl in h.levels] == [1, 3]
        # an odd element count stops coarsening as well
        h = build_hierarchy(make_space(2, 6, dims=2), direct_threshold=0)
        assert [lvl.A.shape[0] for lvl in h.levels] == [9, 36]

    def test_oversized_coarsest_level_rejected(self):
        # N=254 halves once to the odd N=127: 127^2 = 16129 coarsest dof,
        # refused before anything is assembled or densified
        with pytest.raises(ValueError, match="16129"):
            build_hierarchy(make_space(2, 254, dims=2))

    def test_auto_depth_respects_threshold(self):
        h = poisson_hierarchy(1, 64, direct_threshold=16)
        assert h.levels[0].A.shape[0] <= 16
        assert h.n_levels == 3  # 63 -> 31 -> 15 interior dof


class TestProlongation:
    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 6), half=st.integers(2, 64), dims=st.sampled_from([1, 2]))
    def test_matches_kron_then_slice_oracle(self, p, half, dims):
        fine = make_space(p, 2 * half, dims=dims)
        coarse = SplineSpace(tuple(_coarsen_kv(kv) for kv in fine.kvs))
        maps = [insert_knots(kvc, np.setdiff1d(kvf.breakpoints, kvc.breakpoints))
                for kvc, kvf in zip(coarse.kvs, fine.kvs)]
        P = _interior_prolongation(coarse, fine)
        oracle = kron_interior_prolongation(maps)
        for got, want in ((P, oracle), (P.T.tocsr(), oracle.T.tocsr())):
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


class TestSmoother:
    def test_exact_solution_unchanged(self):
        h = poisson_hierarchy(1, 8)
        A = h.fine.A
        x = np.arange(A.shape[0], dtype=float)
        b = A @ x
        out = x
        for _ in range(3):
            out = smooth(A, b, out, h.fine.inv_diag)
        assert np.abs(out - x).max() <= 1e-14

    def test_identity_matrix_one_sweep(self):
        A = sp.identity(5, format="csr")
        b = np.arange(5.0)
        out = smooth(A, b, np.zeros(5), np.ones(5))
        assert np.allclose(out, OMEGA * b)

    def test_fourier_mode_damping(self):
        # 1D hat-function Poisson: weighted Jacobi damps mode k by exactly
        # 1 - 2*omega*sin^2(k*pi*h/2)
        n = 32
        h = poisson_hierarchy(1, n)
        A = h.fine.A
        m = A.shape[0]
        k = n // 2
        xs = np.arange(1, m + 1) / n
        mode = np.sin(k * np.pi * xs)
        out = smooth(A, np.zeros(m), mode, h.fine.inv_diag)
        expected = 1.0 - 2.0 * OMEGA * np.sin(k * np.pi / (2 * n)) ** 2
        assert np.abs(out - expected * mode).max() <= 1e-12
        assert expected == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_diagonal(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ZeroDiagonal) as ei:
            Level(A=A)
        assert ei.value.row == 1


class TestVCycle:
    def test_zero_problem(self):
        h = poisson_hierarchy(1, 16)
        n = h.fine.A.shape[0]
        x, rep = v_cycle(h, np.zeros(n), np.zeros(n))
        assert np.abs(x).max() == 0.0
        assert isinstance(rep, CycleReport)
        assert rep.initial_residual_norm == 0.0 and rep.final_residual_norm == 0.0

    def test_single_level_is_direct_solve(self):
        h = poisson_hierarchy(2, 8, direct_threshold=8)
        assert h.n_levels == 1
        A = h.fine.A
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        x, rep = v_cycle(h, b, np.zeros_like(b))
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)

    def test_contraction_p1(self):
        h = poisson_hierarchy(1, 64, direct_threshold=8)
        assert h.n_levels == 4
        A = h.fine.A
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.shape[0])
        x = np.zeros_like(b)
        factors = []
        for _ in range(6):
            x, rep = v_cycle(h, b, x)
            factors.append(rep.final_residual_norm / rep.initial_residual_norm)
        assert max(factors) <= 0.2

    def test_two_grid_equals_smoothed_coarse_correction_oracle(self):
        # one 2/3-Jacobi sweep, x + P A_c^{-1} P^T (b - A x), one more sweep
        h = poisson_hierarchy(2, 16, direct_threshold=15)
        assert h.n_levels == 2
        A = h.fine.A.toarray()
        P = h.levels[0].P.toarray()
        Ac = P.T @ A @ P
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        x0 = rng.standard_normal(A.shape[0])

        def jacobi(x):
            return x + (2.0 / 3.0) * (b - A @ x) / np.diag(A)

        x1 = jacobi(x0)
        x2 = x1 + P @ np.linalg.solve(Ac, P.T @ (b - A @ x1))
        oracle = jacobi(x2)
        x, _ = v_cycle(h, b, x0)
        assert np.abs(x - oracle).max() <= 1e-11

    @pytest.mark.parametrize("p", (1, 2, 3, 4, 5))
    def test_contraction_sweep_1d(self, p):
        # contraction < 1 for all p; factors recorded in the test log
        factors = {}
        for n in (32, 128):
            h = poisson_hierarchy(p, n, direct_threshold=8)
            A = h.fine.A
            rng = np.random.default_rng(p * 100 + n)
            b = rng.standard_normal(A.shape[0])
            x = np.zeros_like(b)
            rs = []
            for _ in range(8):
                x, rep = v_cycle(h, b, x)
                rs.append(rep.final_residual_norm / max(rep.initial_residual_norm, 1e-300))
            factors[n] = max(rs[-3:])
        print(f"p={p} 1D asymptotic factors: {factors}")
        assert all(f < 1.0 for f in factors.values())


    @pytest.mark.parametrize("p", (2, 3, 4, 5))
    def test_contraction_sweep_2d(self, p):
        # 2D factors deteriorate with p under weighted Jacobi but stay < 1
        h = poisson_hierarchy(p, 32, dims=2, direct_threshold=8)
        A = h.fine.A
        rng = np.random.default_rng(500 + p)
        b = rng.standard_normal(A.shape[0])
        x = np.zeros_like(b)
        rs = []
        for _ in range(8):
            x, rep = v_cycle(h, b, x)
            rs.append(rep.final_residual_norm / max(rep.initial_residual_norm, 1e-300))
        factor = max(rs[-3:])
        print(f"p={p} 2D asymptotic factor: {factor:.3f}")
        assert factor < 1.0


class TestSolveToTolerance:
    def test_converges_quickly_on_easy_problem(self):
        h = poisson_hierarchy(1, 32)
        A = h.fine.A
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.shape[0])
        x, rep = solve_to_tolerance(h, b, np.zeros_like(b), tol=1e-2)
        assert rep.converged
        assert rep.n_cycles <= 3

    def test_zero_rhs_converged_start(self):
        h = poisson_hierarchy(1, 16)
        n = h.fine.A.shape[0]
        x, rep = solve_to_tolerance(h, np.zeros(n), np.zeros(n), tol=1e-8)
        assert rep.n_cycles == 0 and rep.converged

    def test_zero_rhs_drives_to_zero(self):
        h = poisson_hierarchy(1, 16)
        n = h.fine.A.shape[0]
        rng = np.random.default_rng(4)
        x, rep = solve_to_tolerance(h, np.zeros(n), rng.standard_normal(n), tol=1e-10, maxiter=60)
        assert rep.converged
        assert np.linalg.norm(h.fine.A @ x) <= 1e-10

    def test_maxiter_zero_returns_start(self):
        h = poisson_hierarchy(1, 16)
        n = h.fine.A.shape[0]
        x0 = np.ones(n)
        x, rep = solve_to_tolerance(h, np.ones(n), x0, tol=1e-12, maxiter=0)
        assert np.all(x == x0)
        assert not rep.converged
        assert rep.n_cycles == 0

    def test_tol_validated(self):
        h = poisson_hierarchy(1, 16)
        with pytest.raises(ValueError):
            solve_to_tolerance(h, np.zeros(h.fine.A.shape[0]), np.zeros(h.fine.A.shape[0]), tol=0.0)
