from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igasolve.bspline import (
    MAX_GAUSS_POINTS,
    KnotVector,
    OutOfDomain,
    UnsupportedOrder,
    _legendre_nodes,
    eval_basis,
    find_span,
    greville_abscissae,
    insert_knots,
    make_open_uniform_knots,
    tabulate,
)
from igasolve.iga import SplineSpace

from oracles import (
    _local_dofs,
    csr_fingerprint,
    gauss_rule,
    naive_bspline,
    naive_bspline_all,
    rational_knots,
    scalar_eval_basis,
    seed_insert_knots,
)
from strategies import open_knot_vectors


def spline_value(kv, coeffs, t):
    ev = eval_basis(kv, t)
    return ev.values @ coeffs[ev.first_dof: ev.first_dof + len(ev.values)]


class TestKnotVectors:
    def test_p1_two_elements(self):
        kv = make_open_uniform_knots(1, 2)
        assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])
        assert kv.n_basis == 3

    def test_p2_four_elements_count(self):
        kv = make_open_uniform_knots(2, 4)
        assert np.allclose(kv.knots, [0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1])
        assert kv.n_basis == 4 + 2  # N = n_elements + p

    def test_single_span_is_bernstein(self):
        kv = make_open_uniform_knots(3, 1)
        assert np.allclose(kv.knots, [0, 0, 0, 0, 1, 1, 1, 1])
        assert kv.n_basis == 4

    def test_not_open_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0.5, 1, 1, 1, 1])

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(1, [0, 0, 0.6, 0.4, 1, 1])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_knot_rejected(self, bad):
        # NaN compares false both ways, so the ordering check alone let it in
        with pytest.raises(ValueError, match="finite"):
            KnotVector(1, [0, 0, 0.3, bad, 0.6, 1, 1])

    def test_interior_multiplicity_above_p_plus_1_rejected(self):
        # the 4th quadratic basis function of this sequence is identically zero
        with pytest.raises(ValueError, match="repeats more than"):
            KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1])
        # multiplicity p+1 (a C^-1 break) is a valid space
        assert KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1]).n_basis == 6


class TestEvalBasis:
    def test_degree_zero_reduction_is_span_indicator(self):
        # base case of the recursion: N^0_j = indicator of [t_j, t_{j+1})
        knots = rational_knots([0, 0, 0.5, 1, 1])
        for j, (lo, hi) in enumerate(zip(knots[:-1], knots[1:])):
            for t in (Fraction(1, 4), Fraction(3, 4)):
                expected = 1 if lo <= t < hi else 0
                assert naive_bspline(t, 0, j, knots) == expected

    def test_hat_interpolates_at_interior_knot(self):
        kv = make_open_uniform_knots(1, 2)
        ev = eval_basis(kv, 0.5)
        values = np.zeros(kv.n_basis)
        values[ev.first_dof: ev.first_dof + 2] = ev.values
        assert np.allclose(values, [0.0, 1.0, 0.0])

    def test_p2_interior_midspan_values(self):
        kv = make_open_uniform_knots(2, 4)
        ev = eval_basis(kv, 0.375)  # midpoint of [0.25, 0.5]
        assert np.allclose(ev.values, [0.125, 0.75, 0.125], atol=1e-15)

    def test_matches_naive_rational_recursion(self):
        for p in (1, 2, 3, 4):
            kv = make_open_uniform_knots(p, 4)
            knots = rational_knots(kv.knots)
            for t in (Fraction(1, 8), Fraction(3, 8), Fraction(5, 7), Fraction(9, 10)):
                ref = naive_bspline_all(t, p, knots)
                ev = eval_basis(kv, float(t))
                full = np.zeros(kv.n_basis)
                full[ev.first_dof: ev.first_dof + p + 1] = ev.values
                assert np.allclose(full, [float(r) for r in ref], atol=1e-14)

    def test_right_endpoint_belongs_to_last_span(self):
        kv = make_open_uniform_knots(3, 4)
        ev = eval_basis(kv, 1.0)
        assert ev.span_index == kv.n_basis - 1
        assert ev.values[-1] == pytest.approx(1.0)

    def test_out_of_domain(self):
        kv = make_open_uniform_knots(2, 4)
        with pytest.raises(OutOfDomain):
            eval_basis(kv, 1.0 + 1e-9)
        with pytest.raises(OutOfDomain):
            find_span(kv, -0.1)
        # NaN compares false both ways: it used to give span 8 of 6 functions
        with pytest.raises(OutOfDomain):
            find_span(kv, np.nan)
        with pytest.raises(OutOfDomain):
            eval_basis(kv, np.nan)

    def test_max_deriv_capped_at_p(self):
        kv = make_open_uniform_knots(2, 4)
        with pytest.raises(ValueError):
            eval_basis(kv, 0.3, max_deriv=3)


class TestBasisProperties:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_partition_support_positivity(self, p):
        kv = make_open_uniform_knots(p, 8)
        rng = np.random.default_rng(100 + p)
        for t in rng.uniform(0.0, 1.0, 1000):
            ev = eval_basis(kv, t)
            assert abs(ev.values.sum() - 1.0) <= 1e-12
            assert ev.values.min() >= -1e-14
            # exactly the p+1 functions j-p..j are active
            assert len(ev.values) == p + 1
            assert 0 <= ev.first_dof <= kv.n_basis - p - 1

    @pytest.mark.parametrize("p", range(1, 7))
    def test_first_derivative_vs_central_differences(self, p):
        kv = make_open_uniform_knots(p, 8)
        rng = np.random.default_rng(200 + p)
        coeffs = rng.standard_normal(kv.n_basis)
        h = 1e-6
        for t in rng.uniform(0.01, 0.99, 60):
            ev = eval_basis(kv, t, max_deriv=1)
            der = ev.derivatives(1) @ coeffs[ev.first_dof: ev.first_dof + p + 1]
            fd = (spline_value(kv, coeffs, t + h) - spline_value(kv, coeffs, t - h)) / (2 * h)
            assert abs(der - fd) <= 1e-6 * max(1.0, abs(der))

    def test_second_derivative_vs_differences(self):
        kv = make_open_uniform_knots(4, 8)
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal(kv.n_basis)
        h = 1e-4
        for t in rng.uniform(0.05, 0.95, 20):
            ev = eval_basis(kv, t, max_deriv=2)
            der2 = ev.derivatives(2) @ coeffs[ev.first_dof: ev.first_dof + 5]
            fd2 = (spline_value(kv, coeffs, t + h) - 2 * spline_value(kv, coeffs, t)
                   + spline_value(kv, coeffs, t - h)) / h**2
            assert abs(der2 - fd2) <= 1e-4 * max(1.0, abs(der2))


def span_rule(n_points, a, b):
    """Points and weights ``tabulate`` uses on the single element [a, b]."""
    table = tabulate(KnotVector(1, [a, a, b, b]), n_points, max_deriv=0)
    return table.points[0], table.weights[0]


class TestGauss:
    def test_one_point(self):
        points, weights = span_rule(1, 0.0, 1.0)
        assert np.allclose(points, [0.5])
        assert np.allclose(weights, [1.0])

    def test_two_points_textbook(self):
        points, weights = span_rule(2, -1.0, 1.0)
        assert np.allclose(sorted(points), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(weights, [1.0, 1.0])

    def test_three_points_integrate_x5(self):
        points, weights = span_rule(3, 0.0, 1.0)
        assert abs(np.sum(weights * points**5) - 1.0 / 6.0) <= 1e-15

    def test_weights_sum_to_span_length(self):
        for n in (1, 4, 9, 16):
            points, weights = span_rule(n, 0.25, 0.75)
            assert abs(weights.sum() - 0.5) <= 1e-14
            assert np.all(weights > 0)

    def test_exactness_degree(self):
        for n in (2, 5, 8):
            points, weights = span_rule(n, 0.0, 2.0)
            k = 2 * n - 1
            exact = 2.0 ** (k + 1) / (k + 1)
            assert abs(np.sum(weights * points**k) - exact) <= 1e-12 * exact

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            span_rule(0, 0.0, 1.0)
        with pytest.raises(UnsupportedOrder):
            span_rule(17, 0.0, 1.0)
        for _ in range(2):  # a refused count is refused again, not cached
            for n in (0, MAX_GAUSS_POINTS + 1):
                with pytest.raises(UnsupportedOrder):
                    _legendre_nodes(n)

    def test_cached_rules_are_leggauss_bytes_and_read_only(self):
        for n in range(1, MAX_GAUSS_POINTS + 1):
            rule = _legendre_nodes(n)
            assert _legendre_nodes(n) is rule
            for mine, theirs in zip(rule, np.polynomial.legendre.leggauss(n)):
                assert mine.tobytes() == theirs.tobytes()
                assert not mine.flags.writeable


def bisect(kv):
    """Two-scale matrix of inserting every element midpoint."""
    bp = kv.breakpoints
    return insert_knots(kv, 0.5 * (bp[:-1] + bp[1:]))


class TestRefinement:
    def test_p1_is_linear_interpolation_stencil(self):
        kv = make_open_uniform_knots(1, 2)
        P = bisect(kv).toarray()
        # endpoint rows pass coefficients through; midpoint rows average
        assert np.allclose(P[0], [1, 0, 0])
        assert np.allclose(P[1], [0.5, 0.5, 0])
        assert np.allclose(P[2], [0, 1, 0])
        assert np.allclose(P[3], [0, 0.5, 0.5])
        assert np.allclose(P[4], [0, 0, 1])

    def test_quadratic_reproduction(self):
        kv = make_open_uniform_knots(2, 2)
        # coefficients of x^2 - x + 0.25 via Greville collocation are exact
        # for quadratics; just check an arbitrary coarse spline pointwise
        coeffs = np.array([0.25, -0.25, 0.25, 0.75])
        fine = bisect(kv) @ coeffs
        kv_fine = make_open_uniform_knots(2, 4)
        for t in np.linspace(0.0, 1.0, 100):
            assert abs(spline_value(kv, coeffs, t)
                       - spline_value(kv_fine, fine, t)) <= 1e-12

    @pytest.mark.parametrize("p", (1, 2, 3, 4, 5))
    def test_row_sums_one(self, p):
        sums = np.asarray(bisect(make_open_uniform_knots(p, 4)).sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("p", (1, 2, 3, 5))
    def test_random_coarse_spline_reproduced(self, p):
        kv = make_open_uniform_knots(p, 8)
        rng = np.random.default_rng(300 + p)
        coeffs = rng.standard_normal(kv.n_basis)
        fine = bisect(kv) @ coeffs
        kv_fine = make_open_uniform_knots(p, 16)
        for t in np.linspace(0.0, 1.0, 100):
            assert abs(spline_value(kv, coeffs, t)
                       - spline_value(kv_fine, fine, t)) <= 1e-12

    def test_insert_knots_outside_domain_rejected(self):
        kv = make_open_uniform_knots(2, 4)
        with pytest.raises(OutOfDomain):
            insert_knots(kv, [1.5])

    @pytest.mark.parametrize("values", ([0.0], [0.5, 1.0], [np.nan], [0.5, np.nan]))
    def test_insert_knots_not_strictly_inside_rejected(self, values):
        # NaN compares false both ways, so it passed an endpoint check
        with pytest.raises(OutOfDomain):
            insert_knots(make_open_uniform_knots(2, 4), values)

    @pytest.mark.parametrize("values, knot", [([0.3] * 4, 0.3), ([0.5] * 3, 0.5)])
    def test_insert_knots_above_multiplicity_p_plus_1_rejected(self, values, knot):
        kv = make_open_uniform_knots(2, 4)
        with pytest.raises(ValueError, match=f"knot {knot} would repeat more than p\\+1 = 3"):
            insert_knots(kv, values)
        # one copy fewer leaves the knot p+1 times, as hierarchy levels may have it
        assert insert_knots(kv, values[1:]).shape == (kv.n_basis + len(values) - 1, kv.n_basis)

    @settings(max_examples=300, deadline=None)
    @given(kv=open_knot_vectors(), data=st.data())
    def test_insert_knots_bitwise_equals_sequential_products(self, kv, data):
        # the seed's one sparse product per knot: same indptr, stored column
        # order, values (no fused multiply-add) and dropped exact zeros
        a, b = kv.domain
        fresh = st.floats(a, b, exclude_min=True, exclude_max=True)
        existing = kv.breakpoints[1:-1].tolist()
        pool = st.one_of(fresh, st.sampled_from(existing)) if existing else fresh
        values = data.draw(st.lists(pool, max_size=12))
        if np.unique(np.concatenate([kv.knots, values]), return_counts=True)[1].max() > kv.p + 1:
            with pytest.raises(ValueError, match="more than p\\+1"):
                insert_knots(kv, values)
            return
        assert (csr_fingerprint(insert_knots(kv, values))
                == csr_fingerprint(seed_insert_knots(kv, values)))

    @pytest.mark.parametrize("p", (1, 2, 3, 4, 5, 6))
    def test_insert_knots_bitwise_on_dyadic_refinement(self, p):
        for n in (1, 2, 3, 8, 64):
            kv = make_open_uniform_knots(p, n)
            bp = kv.breakpoints
            for values in ([], 0.5 * (bp[:-1] + bp[1:]), np.repeat(bp[1:-1], p)):
                assert (csr_fingerprint(insert_knots(kv, values))
                        == csr_fingerprint(seed_insert_knots(kv, values)))


class TestHelpers:
    def test_greville_endpoints(self):
        kv = make_open_uniform_knots(3, 5)
        g = greville_abscissae(kv)
        assert g[0] == pytest.approx(0.0)
        assert g[-1] == pytest.approx(1.0)
        assert np.all(np.diff(g) > 0)

    @settings(max_examples=200)
    @example(kv=make_open_uniform_knots(2, 7))
    @given(kv=st.one_of(open_knot_vectors(),
                        st.builds(make_open_uniform_knots, st.integers(1, 14),
                                  st.integers(1, 299))))
    def test_greville_within_domain(self, kv):
        # unclipped, the running sum puts p=2, N=7's last abscissa at 1.0000000000000002
        g = greville_abscissae(kv)
        lo, hi = kv.domain
        assert lo <= g.min() and g.max() <= hi

    def test_element_dofs_jump_at_repeated_knots(self):
        uniform = SplineSpace((make_open_uniform_knots(2, 5),))
        assert uniform.element_dofs.tolist() == [[e, e + 1, e + 2] for e in range(5)]
        # a double interior knot at 0.5 makes the first dofs jump 1 -> 3
        kv = KnotVector(2, [0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1])
        table = tabulate(kv, 3)
        assert table.first_dof.tolist() == [0, 1, 3, 4]
        assert SplineSpace((kv,)).element_dofs.tolist() == [[0, 1, 2], [1, 2, 3], [3, 4, 5],
                                                            [4, 5, 6]]
        # 2D: flat x-major indices of the per-direction local dofs
        space = SplineSpace((kv, make_open_uniform_knots(3, 2)))
        ix, iy = (_local_dofs(t) for t in space.tables())
        Ny = space.shape[1]
        assert np.array_equal(space.element_dofs, ix[:, None, :, None] * Ny + iy[None, :, None, :])

    def test_tabulate_shapes_and_partition(self):
        kv = make_open_uniform_knots(3, 6)
        table = tabulate(kv, 4, max_deriv=2)
        assert table.points.shape == (6, 4)
        assert table.basis.shape == (3, 6, 4, 4)
        assert np.abs(table.basis[0].sum(axis=2) - 1.0).max() <= 1e-12
        assert abs(table.weights.sum() - 1.0) <= 1e-14
        with pytest.raises(UnsupportedOrder):
            tabulate(kv, 17)
        with pytest.raises(ValueError):
            tabulate(kv, 4, max_deriv=kv.p + 1)


class TestScalarOracle:
    """The batched kernel against the one-point scalar A2.3, bit for bit."""

    @settings(deadline=None)
    @given(kv=open_knot_vectors(), n_qp=st.integers(1, MAX_GAUSS_POINTS), data=st.data())
    def test_tabulate_bitwise(self, kv, n_qp, data):
        max_deriv = data.draw(st.integers(0, kv.p))
        table = tabulate(kv, n_qp, max_deriv)
        U = kv.knots
        spans = [j for j in range(len(U) - 1) if U[j] < U[j + 1]]
        points = np.empty((len(spans), n_qp))
        weights = np.empty((len(spans), n_qp))
        basis = np.empty((max_deriv + 1, len(spans), n_qp, kv.p + 1))
        for e, j in enumerate(spans):
            points[e], weights[e] = gauss_rule(n_qp, (U[j], U[j + 1]))
            for q, t in enumerate(points[e]):
                span, basis[:, e, q, :] = scalar_eval_basis(kv, float(t), max_deriv)
                assert span == j
        assert np.array_equal(table.points, points)
        assert np.array_equal(table.weights, weights)
        assert np.array_equal(table.basis, basis)
        assert np.array_equal(table.first_dof, np.array(spans) - kv.p)

    @settings(deadline=None)
    @given(kv=open_knot_vectors(), data=st.data())
    def test_eval_basis_bitwise(self, kv, data):
        a, b = kv.domain
        max_deriv = data.draw(st.integers(0, kv.p))
        ts = data.draw(st.lists(st.floats(a, b) | st.sampled_from(list(kv.knots)), max_size=8))
        for t in ts + [a, b]:
            ev = eval_basis(kv, t, max_deriv)
            span, derivs = scalar_eval_basis(kv, t, max_deriv)
            assert ev.span_index == span
            assert np.array_equal(ev.derivs, derivs)
