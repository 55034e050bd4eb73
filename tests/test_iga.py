import logging
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from igasolve import iga
from igasolve.bspline import make_open_uniform_knots
from igasolve.iga import (
    DegreeTooLow,
    ExpOverflow,
    SplineSpace,
    apply_dirichlet,
    assemble_mass,
    assemble_stiffness,
    bratu_load,
    l2_error,
    make_space,
    monge_ampere_load,
    monge_ampere_operator,
)
from igasolve.nonlinear import MongeAmpereProblem

from oracles import (
    add_at_scatter_load,
    chunked_assemble_2d,
    csr_fingerprint,
    dense_gauss_quadrature,
    element_matrices_1d,
    fancy_grid_values,
    l2_projection,
    scipy_coo_to_csr,
    seed_dirichlet_split,
    spline_point_value,
)
from strategies import open_knot_vectors


class TestStiffness1D:
    def test_hat_tridiagonal(self):
        space = make_space(1, 4)
        interior, _ = apply_dirichlet(space)
        A = assemble_stiffness(space)[interior][:, interior].toarray()
        h = 0.25
        expected = (2.0 / h) * np.eye(3) - (1.0 / h) * (np.eye(3, k=1) + np.eye(3, k=-1))
        assert np.abs(A - expected).max() <= 1e-13

    @pytest.mark.parametrize("p,n,dims", [(1, 6, 1), (3, 5, 1), (2, 4, 2)])
    def test_spd(self, p, n, dims):
        space = make_space(p, n, dims=dims)
        A = assemble_stiffness(space)
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
        interior, _ = apply_dirichlet(space)
        Ai = A[interior][:, interior]
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(Ai.shape[0])
            assert x @ (Ai @ x) > 0.0
        # Cholesky of a small instance succeeds
        np.linalg.cholesky(Ai.toarray())


class TestMass:
    def test_hat_tridiagonal(self):
        space = make_space(1, 4)
        interior, _ = apply_dirichlet(space)
        M = assemble_mass(space)[interior][:, interior].toarray()
        h = 0.25
        expected = (2 * h / 3) * np.eye(3) + (h / 6) * (np.eye(3, k=1) + np.eye(3, k=-1))
        assert np.abs(M - expected).max() <= 1e-14

    def test_constant_field_integrates_domain(self):
        space = make_space(2, 5, dims=2)
        M = assemble_mass(space)
        c = np.ones(space.n_dof)
        assert c @ (M @ c) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_positive(self):
        space = make_space(2, 4)
        M = assemble_mass(space).toarray()
        assert np.linalg.eigvalsh(M).min() > 0.0


class TestKroneckerOracle:
    @pytest.mark.parametrize("p,n", [(1, 4), (2, 4), (3, 4)])
    def test_2d_stiffness_is_kron_sum(self, p, n):
        kv = make_open_uniform_knots(p, n)
        s1 = SplineSpace((kv,))
        s2 = SplineSpace((kv, kv))
        K1 = assemble_stiffness(s1)
        M1 = assemble_mass(s1)
        oracle = sp.kron(K1, M1) + sp.kron(M1, K1)
        assert abs(assemble_stiffness(s2) - oracle).max() <= 1e-12

    def test_2d_mass_is_kron(self):
        kv = make_open_uniform_knots(2, 3)
        M1 = assemble_mass(SplineSpace((kv,)))
        assert abs(assemble_mass(SplineSpace((kv, kv))) - sp.kron(M1, M1)).max() <= 1e-13


def source_on_grid(f, space):
    """Source values on the load quadrature grid, as the Picard maps pass them."""
    return iga._call_on_grid(f, space.tables())


class TestBratuRhs:
    def test_zero_when_no_source(self):
        space = make_space(2, 4)
        F = bratu_load(space, 0.0, 0.0, np.zeros(space.n_dof))
        assert np.abs(F).max() == 0.0

    def test_lambda_zero_is_poisson_load(self):
        # fine enough that the assembly quadrature is exact to rounding
        space = make_space(3, 64)
        f = lambda x: np.pi**2 * np.sin(np.pi * x)
        F = bratu_load(space, source_on_grid(f, space), 0.0, np.zeros(space.n_dof))
        # reference load from high-order quadrature, function by function
        from igasolve.bspline import eval_basis
        kv = space.kvs[0]
        for i in (0, 13, 40, kv.n_basis - 1):
            def integrand(x, i=i):
                out = np.zeros_like(x)
                for k, xv in enumerate(np.atleast_1d(x)):
                    ev = eval_basis(kv, float(xv))
                    if ev.first_dof <= i <= ev.first_dof + kv.p:
                        out[k] = f(xv) * ev.values[i - ev.first_dof]
                return out
            ref = sum(dense_gauss_quadrature(integrand, a, b)
                      for a, b in zip(kv.breakpoints[:-1], kv.breakpoints[1:]))
            assert abs(F[i] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_unit_previous_iterate_gives_negated_mass_rows(self):
        space = make_space(2, 6, dims=2)
        F = bratu_load(space, 0.0, 1.0, np.zeros(space.n_dof))
        rows = np.asarray(assemble_mass(space).sum(axis=1)).ravel()
        assert np.abs(F + rows).max() <= 1e-13

    def test_overflow_flagged(self):
        space = make_space(1, 4)
        with pytest.raises(ExpOverflow):
            bratu_load(space, 0.0, 1.0, np.full(space.n_dof, 800.0))


class TestMongeAmpereRhs:
    def test_paraboloid_is_fixed_point_data(self):
        # u = (x^2+y^2)/2 has det H = 1, lap = 2, so G = sqrt(4 + 2(1-1)) = 2
        space = make_space(2, 4, dims=2)
        u = l2_projection(space, lambda x, y: 0.5 * (x**2 + y**2))
        F = monge_ampere_load(space, source_on_grid(lambda x, y: np.ones_like(x), space),
                              u)
        ref = bratu_load(space, source_on_grid(lambda x, y: -2.0 * np.ones_like(x), space),
                         0.0, np.zeros(space.n_dof))
        assert np.abs(F - ref).max() <= 1e-10

    def test_operator_matches_laplacian_on_exact_solution(self):
        # symbolic Laplacian/Hessian oracle for u = exp((x^2+y^2)/2)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 200)
        y = rng.uniform(0, 1, 200)
        ee = np.exp(0.5 * (x**2 + y**2))
        lap = (2 + x**2 + y**2) * ee
        det_h = (1 + x**2 + y**2) * ee**2
        f = (1 + x**2 + y**2) * np.exp(x**2 + y**2)
        g_vals, frac = monge_ampere_operator(lap, det_h, f)
        assert frac == 0.0
        assert np.abs(g_vals - lap).max() <= 1e-10 * np.abs(lap).max()

    def test_zero_data_zero_load(self):
        space = make_space(2, 4, dims=2)
        F = monge_ampere_load(space, source_on_grid(lambda x, y: np.zeros_like(x), space),
                              np.zeros(space.n_dof))
        assert np.abs(F).max() == 0.0

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            MongeAmpereProblem(f=lambda x, y: np.ones_like(x), g=None,
                               space=make_space(1, 4, dims=2))

    def test_planar_only(self):
        with pytest.raises(ValueError):
            MongeAmpereProblem(f=lambda x: np.ones_like(x), g=None, space=make_space(2, 4))

    def test_clamp_diagnostic_logged(self, caplog):
        # negative source drives the radicand below zero everywhere
        space = make_space(2, 4, dims=2)
        f_vals = source_on_grid(lambda x, y: -np.ones_like(x), space)
        with caplog.at_level(logging.WARNING, logger="igasolve.iga"):
            F = monge_ampere_load(space, f_vals, np.zeros(space.n_dof))
        assert any("radicand" in rec.message for rec in caplog.records)
        assert np.abs(F).max() == 0.0  # everything clamped to zero


class TestDirichlet:
    def test_homogeneous(self):
        space = make_space(2, 4, dims=2)
        interior, x_boundary = apply_dirichlet(space)
        assert np.all(x_boundary == 0.0)
        nx, ny = space.shape
        boundary = np.delete(np.arange(space.n_dof), interior)
        assert len(boundary) == 2 * nx + 2 * ny - 4
        assert interior.tolist() == [ix * ny + iy for ix in range(1, nx - 1)
                                     for iy in range(1, ny - 1)]
        full = assemble_stiffness(space)
        lift = (full @ x_boundary)[interior]
        # bit for bit the interior x boundary block times the boundary data
        block = full[interior][:, boundary]
        assert lift.tobytes() == (block @ x_boundary[boundary]).tobytes()
        assert np.abs(lift).max() == 0.0

    def test_constant_boundary_exact(self):
        space = make_space(3, 5, dims=2)
        interior, x_boundary = apply_dirichlet(space, lambda x, y: 1.0)
        assert np.abs(np.delete(x_boundary, interior) - 1.0).max() <= 1e-12

    def test_monge_ampere_trace_interpolation(self):
        # piecewise boundary data g = exp(x^2/2) on y=0 etc.
        g = lambda x, y: np.exp(0.5 * (x**2 + y**2))
        for p, n in ((2, 8), (3, 8)):
            space = make_space(p, n, dims=2)
            _, full = apply_dirichlet(space, g)
            h = 1.0 / n
            worst = 0.0
            for s in np.linspace(0.0, 1.0, 50):
                for pt, ref in (((s, 0.0), g(s, 0.0)), ((s, 1.0), g(s, 1.0)),
                                ((0.0, s), g(0.0, s)), ((1.0, s), g(1.0, s))):
                    worst = max(worst, abs(spline_point_value(space, full, pt) - ref))
            assert worst <= 10.0 * h ** (p + 1)

    def test_expand_roundtrip(self):
        space = make_space(2, 4)
        interior, x_boundary = apply_dirichlet(space, lambda x: float(x))
        assert interior.tolist() == list(range(1, space.n_dof - 1))
        assert x_boundary[0] == 0.0 and x_boundary[-1] == 1.0
        assert np.all(x_boundary[interior] == 0.0)

    @settings(deadline=None, max_examples=60)
    @given(kvs=st.lists(open_knot_vectors(), min_size=1, max_size=2), smooth=st.booleans())
    def test_split_matches_seed_layout(self, kvs, smooth):
        space = SplineSpace(tuple(kvs))
        g = (lambda *xs: np.exp(0.3 * sum(xs)) + np.sin(xs[0])) if smooth else None
        interior, x_boundary = apply_dirichlet(space, g)
        ref_interior, boundary, values = seed_dirichlet_split(space, g)
        assert interior.dtype == ref_interior.dtype
        assert np.array_equal(interior, ref_interior)
        assert x_boundary[boundary].tobytes() == values.tobytes()
        assert np.all(x_boundary[interior] == 0.0)


class TestL2Error:
    def test_self_is_zero(self):
        space = make_space(3, 6)
        coeffs = l2_projection(space, lambda x: np.sin(2 * np.pi * x))

        def as_spline(x):
            flat = np.asarray(x, dtype=float).ravel()
            out = np.array([spline_point_value(space, coeffs, v) for v in flat])
            return out.reshape(np.shape(x))

        assert l2_error(space, coeffs, as_spline) <= 1e-13

    def test_zero_vs_one_on_square(self):
        space = make_space(2, 4, dims=2)
        coeffs = np.zeros(space.n_dof)
        assert l2_error(space, coeffs, lambda x, y: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", (35, 37))
    def test_wrong_length_rejected(self, n):
        with pytest.raises(ValueError, match="36 dof"):
            l2_error(make_space(2, 4, dims=2), np.zeros(n), lambda x, y: x)

    def test_projection_error_small_and_high_order(self):
        errs = {}
        for n in (16, 64):
            space = make_space(3, n)
            coeffs = l2_projection(space, lambda x: np.sin(2 * np.pi * x))
            errs[n] = l2_error(space, coeffs, lambda x: np.sin(2 * np.pi * x))
        # measured once with the quadrature oracle and frozen: 5.9985e-08
        assert errs[64] <= 1e-7
        assert errs[64] == pytest.approx(5.9985e-08, rel=1e-3)
        order = np.log(errs[16] / errs[64]) / np.log(4.0)
        assert order >= 3.7  # observed order ~ p + 1

    @pytest.mark.parametrize("p", (1, 2, 3, 4))
    def test_projection_order_at_least_p_fraction(self, p):
        errs = {}
        for n in (16, 64):
            space = make_space(p, n)
            coeffs = l2_projection(space, lambda x: np.sin(2 * np.pi * x))
            errs[n] = l2_error(space, coeffs, lambda x: np.sin(2 * np.pi * x))
        order = np.log(errs[16] / errs[64]) / np.log(4.0)
        assert order >= p + 0.7

    def test_bratu_lambda_zero_equals_poisson_load(self):
        space = make_space(2, 8)
        f_vals = source_on_grid(lambda x: np.exp(x), space)
        F1 = bratu_load(space, f_vals, 0.0, np.zeros(space.n_dof))
        F2 = bratu_load(space, f_vals, 0.0, np.random.default_rng(3).standard_normal(space.n_dof))
        assert np.abs(F1 - F2).max() <= 1e-13


def _seed_assembly(assemble, space):
    """``assemble(space)`` with scipy's COO finalisation in place of coo_to_csr."""
    with mock.patch.object(iga, "coo_to_csr", scipy_coo_to_csr):
        return assemble(space)


class TestSeedIdiomOracles:
    """Assembly, load scatter and coefficient gather against the generic
    scipy/numpy idioms they replace, bit for bit."""

    @pytest.mark.parametrize("dims,n", [(1, 40), (2, 9)])
    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("assemble", [assemble_stiffness, assemble_mass],
                             ids=["stiffness", "mass"])
    def test_assembly_matches_scipy_finalisation(self, assemble, p, dims, n):
        space = make_space(p, n, dims)
        assert (csr_fingerprint(assemble(space))
                == csr_fingerprint(_seed_assembly(assemble, space)))

    @pytest.mark.parametrize("n", [64, 128])
    def test_multi_chunk_stiffness_matches_seed_assembly(self, n):
        # the chunk partition is part of the rounding, so the oracle keeps its own
        p = 5
        space = make_space(p, n, dims=2)
        per_x_element = n * ((p + 1) ** 2) ** 2
        assert n > iga.CHUNK_TRIPLETS // per_x_element  # more than one chunk
        tables = space.tables(0, 1)
        K = [element_matrices_1d(t, 1, 1) for t in tables]
        M = [element_matrices_1d(t, 0, 0) for t in tables]
        seed = chunked_assemble_2d(space, tables, [(K[0], M[1]), (M[0], K[1])])
        assert csr_fingerprint(assemble_stiffness(space)) == csr_fingerprint(seed)

    @settings(deadline=None, max_examples=60)
    @given(kvs=st.lists(open_knot_vectors(), min_size=1, max_size=2), data=st.data())
    def test_nonuniform_assembly_matches_scipy_finalisation(self, kvs, data):
        space = SplineSpace(tuple(kvs))
        assemble = data.draw(st.sampled_from([assemble_stiffness, assemble_mass]))
        assert (csr_fingerprint(assemble(space))
                == csr_fingerprint(_seed_assembly(assemble, space)))

    @settings(deadline=None, max_examples=60)
    @given(kvs=st.lists(open_knot_vectors(), min_size=1, max_size=2), data=st.data())
    def test_scatter_and_gather_match_add_at_and_fancy_gather(self, kvs, data):
        space = SplineSpace(tuple(kvs))
        extra = data.draw(st.integers(0, 1))
        max_deriv = data.draw(st.integers(1, min(space.degrees)))
        tables = space.tables(extra, max_deriv)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = sum((t.points.shape for t in tables), ())
        integrand = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        assert (iga._scatter_load(space, tables, integrand).tobytes()
                == add_at_scatter_load(space, tables, integrand).tobytes())
        coeffs = rng.standard_normal(space.n_dof)
        orders = st.tuples(*[st.integers(0, max_deriv)] * space.dims)
        many = data.draw(st.lists(orders, min_size=1, max_size=4))
        news = iga._grid_values(space, coeffs, tables, *many)
        assert len(news) == len(many)
        for dorders, new in zip(many, news):
            (single,) = iga._grid_values(space, coeffs, tables, dorders)
            old = fancy_grid_values(space, coeffs, tables, dorders)
            assert new.shape == old.shape and new.tobytes() == old.tobytes()
            assert new.tobytes() == single.tobytes()
