import logging
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
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
    seed_dirichlet_split,
    spline_point_value,
    triplet_assemble_1d,
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


def field_axes(space, tables):
    """The memory order of the 2D fields on the Gauss grid of ``tables``."""
    tx, ty = tables
    return iga._field_axes(tx.basis.shape[1:], space.element_dofs.shape, ty.basis.shape[1:])


def in_field_layout(space, tables, values):
    """A copy of grid values laid out in memory like the fields there."""
    axes = field_axes(space, tables)
    return np.ascontiguousarray(values.transpose(axes)).transpose(np.argsort(axes))


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


def _seed_assembly(assemble, space, chunk_triplets=2_000_000):
    """``assemble(space)`` as the seed built it: the element matrices'
    triplets finalised by scipy's COO, in 2D per chunk of x-elements."""
    tables = space.tables(0, 1)
    K = [element_matrices_1d(t, 1, 1) for t in tables]
    M = [element_matrices_1d(t, 0, 0) for t in tables]
    stiffness = assemble is assemble_stiffness
    if space.dims == 1:
        return triplet_assemble_1d(space, tables[0], K[0] if stiffness else M[0])
    pairs = [(K[0], M[1]), (M[0], K[1])] if stiffness else [(M[0], M[1])]
    return chunked_assemble_2d(space, tables, pairs, chunk_triplets)


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

    @pytest.mark.parametrize("chunk", [2_000_000, 5000, 1])
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kvs=st.lists(open_knot_vectors(extra_multiplicity=1), min_size=1, max_size=2),
           data=st.data())
    def test_rank_assembly_matches_scipy_coo(self, monkeypatch, chunk, kvs, data):
        # knots of multiplicity p+1 split the basis into runs that share no
        # entry; small chunks put one entry's terms in several chunks
        monkeypatch.setattr(iga, "CHUNK_TRIPLETS", chunk)
        space = SplineSpace(tuple(kvs))
        assemble = data.draw(st.sampled_from([assemble_stiffness, assemble_mass]))
        assert (csr_fingerprint(assemble(space))
                == csr_fingerprint(_seed_assembly(assemble, space, chunk)))

    @pytest.mark.parametrize("dims, chunk", [(2, 2_000_000), (2, 5000), (2, 1), (1, 1)],
                             ids=["2d-one-chunk", "2d-chunk-5000", "2d-chunk-1", "1d"])
    def test_signed_zeros_and_cancellations_match_chunked_oracle(self, monkeypatch, dims, chunk):
        # element matrices of +-0.0 and dyadic values whose sums cancel to
        # exactly 0: every term starts from +0.0, a one-chunk matrix keeps
        # its zeros, and chunk sums drop them
        monkeypatch.setattr(iga, "CHUNK_TRIPLETS", chunk)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
        rng = np.random.default_rng(dims)
        space = SplineSpace((make_open_uniform_knots(2, 12), make_open_uniform_knots(3, 5))[:dims])
        tables = space.tables(0, 1)

        def element_matrices(t):
            shape = (len(t.first_dof),) + (t.basis.shape[3],) * 2
            return values[rng.integers(0, len(values), shape)]

        if dims == 2:
            pairs = [(element_matrices(tables[0]), element_matrices(tables[1])) for _ in range(2)]
            ref = chunked_assemble_2d(space, tables, pairs, chunk)
        else:
            # a 1D space is one chunk: the oracle's y direction is one function
            pairs = [(element_matrices(tables[0]), iga._ONE)]
            point = SimpleNamespace(first_dof=np.zeros(1, dtype=np.intp), basis=np.ones((1,) * 4))
            ref = chunked_assemble_2d(SimpleNamespace(shape=(space.n_dof, 1), n_dof=space.n_dof),
                                      (tables[0], point), pairs)
        new = iga._assemble(tables, pairs)
        assert csr_fingerprint(new) == csr_fingerprint(ref)
        one_chunk = chunk == 2_000_000 or dims == 1
        assert np.any(new.data == 0.0) == one_chunk

    @settings(deadline=None, max_examples=60)
    @given(kvs=st.lists(open_knot_vectors(extra_multiplicity=1), min_size=1, max_size=2),
           data=st.data())
    def test_scatter_and_gather_match_add_at_and_fancy_gather(self, kvs, data):
        # knots of multiplicity p+1 make the first dofs jump by p+1; signed
        # zeros check that every coefficient's sum starts from +0.0
        space = SplineSpace(tuple(kvs))
        extra = data.draw(st.integers(0, 1))
        max_deriv = data.draw(st.integers(1, min(space.degrees)))
        tables = space.tables(extra, max_deriv)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = sum((t.points.shape for t in tables), ())
        integrand = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        zeros = rng.random(shape) < 0.3
        integrand[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
        assert (iga._scatter_load(space, tables, integrand).tobytes()
                == add_at_scatter_load(space, tables, integrand).tobytes())
        if space.dims == 2:  # also laid out like the fields, as the loads pass it
            assert (iga._scatter_load(space, tables, in_field_layout(space, tables, integrand))
                    .tobytes() == add_at_scatter_load(space, tables, integrand).tobytes())
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

    @pytest.mark.parametrize("px, py, nx, ny, extra, first", [
        (1, 1, 1, 3, 0, ("y", "y")),    # numpy's planner contracts By first both ways
        (1, 2, 64, 64, 1, ("y", "x")),  # mixed: the gather goes y-first, the scatter x-first
        (2, 1, 64, 64, 1, ("x", "y")),  # and its mirror
        (3, 3, 16, 16, 0, ("x", "x")),  # every shipped cell
    ], ids=["y-first", "mixed", "mixed-mirror", "x-first"])
    def test_planner_orders_match_einsum_oracles(self, px, py, nx, ny, extra, first):
        space = SplineSpace((make_open_uniform_knots(px, nx), make_open_uniform_knots(py, ny)))
        tables = space.tables(extra, 1)
        tx, ty = tables
        # the first pair numpy's path contracts; operand 2 of both einsums is By
        gather = (tx.basis[0], np.zeros(space.element_dofs.shape), ty.basis[0])
        scatter = (np.zeros(tx.points.shape + ty.points.shape), tx.basis[0], ty.basis[0])
        paths = [np.einsum_path(eq, *ops, optimize=True)[0]
                 for eq, ops in (("eqa,efab,frb->eqfr", gather), ("eqfr,eqa,frb->efab", scatter))]
        assert tuple("y" if 2 in path[1] else "x" for path in paths) == first
        rng = np.random.default_rng(px * 10 + py)
        coeffs = rng.standard_normal(space.n_dof)
        for dorders in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            (new,) = iga._grid_values(space, coeffs, tables, dorders)
            old = fancy_grid_values(space, coeffs, tables, dorders)
            assert new.strides == old.strides and new.tobytes() == old.tobytes()
            assert new.transpose(field_axes(space, tables)).flags.c_contiguous
        shape = tables[0].points.shape + tables[1].points.shape
        integrand = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        integrand[rng.random(shape) < 0.2] = -0.0
        ref = add_at_scatter_load(space, tables, integrand).tobytes()
        assert iga._scatter_load(space, tables, integrand).tobytes() == ref
        field = in_field_layout(space, tables, integrand)
        assert iga._scatter_load(space, tables, field).tobytes() == ref

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [6, 16])
    def test_loads_match_oracle_composition(self, p, n):
        # the source in the field layout for the package, C-ordered for the oracles
        space = make_space(p, n, dims=2)
        coeffs = np.random.default_rng(p * n).standard_normal(space.n_dof)

        def f(x, y):
            return 1.0 + x * np.exp(y)

        tables = space.tables(0, 1)
        u = fancy_grid_values(space, coeffs, tables, (0, 0))
        ref = add_at_scatter_load(space, tables, iga._call_on_grid(f, tables) - 0.7 * np.exp(u))
        new = bratu_load(space, iga.field_on_grid(space, f), 0.7, coeffs)
        assert new.tobytes() == ref.tobytes()
        tables = space.tables(0, 2)
        uxx, uyy, uxy = [fancy_grid_values(space, coeffs, tables, d)
                         for d in ((2, 0), (0, 2), (1, 1))]
        g_vals, _ = monge_ampere_operator(uxx + uyy, uxx * uyy - uxy**2,
                                          iga._call_on_grid(f, tables))
        ref = add_at_scatter_load(space, tables, -g_vals)
        new = monge_ampere_load(space, iga.field_on_grid(space, f), coeffs)
        assert new.tobytes() == ref.tobytes()


class TestFieldOnGrid:
    @settings(deadline=None, max_examples=40)
    @given(kvs=st.sampled_from([0, 1]).flatmap(
               lambda extra: st.lists(open_knot_vectors(extra), min_size=2, max_size=2)),
           seed=st.integers(0, 2**32 - 1))
    def test_source_has_call_on_grid_bytes_in_the_field_layout(self, kvs, seed):
        def f(x, y):
            return np.sin(3.0 * x) * y + x**2

        iga._field_axes.cache_clear()
        space = SplineSpace(tuple(kvs))
        tables = space.tables()
        new = iga.field_on_grid(space, f)
        ref = iga._call_on_grid(f, tables)
        assert new.shape == ref.shape and new.tobytes() == ref.tobytes()
        axes = field_axes(space, tables)
        coeffs = np.random.default_rng(seed).standard_normal(space.n_dof)
        for field in iga._grid_values(space, coeffs, tables, (0, 0), (1, 0), (0, 1)):
            assert field.transpose(axes).flags.c_contiguous
        assert new.transpose(axes).flags.c_contiguous
        # a second space of the same shape reuses the layout
        iga.field_on_grid(SplineSpace(tuple(kvs)), f)
        assert iga._field_axes.cache_info().misses == 1


class TestSharedArraysReadOnly:
    @pytest.mark.parametrize("dims", [1, 2])
    def test_tables_refuse_writes(self, dims):
        # one space serves every cell of a sweep that shares its key
        space = make_space(2, 4, dims=dims)
        arrays = []
        for extra, max_deriv in [(0, 1), (0, 2), (1, 1)]:
            for t in space.tables(extra, max_deriv):
                arrays += [t.points, t.weights, t.basis, t.first_dof]
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = 1.0

    def test_module_arrays_of_1d_assembly_refuse_writes(self):
        y_present, y_count, cols_y, place_y, groups = iga._POINT
        (_, y_row, y_offset, _, _), = groups
        for x in (y_present, y_count, cols_y, place_y, y_row, y_offset, iga._ONE):
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = 0
