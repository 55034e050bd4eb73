import numpy as np
import pytest

from igasolve.extrapolation import (
    AndersonState,
    Diverged,
    IterateWindow,
    ZeroDenominator,
    anderson_solve,
    anderson_step,
    fixed_point_solve,
    generalized_residual,
    mpe_extrapolate,
    restarted_solve,
    rre_extrapolate,
)
from igasolve.linalg import RankDeficient

from oracles import affine_window, moore_penrose_residual, plain_fixed_point


def random_affine(rng, dim, rho=0.8):
    M = rng.standard_normal((dim, dim))
    M *= rho / max(abs(np.linalg.eigvals(M)))
    b = rng.standard_normal(dim)
    xstar = np.linalg.solve(np.eye(dim) - M, b)
    return M, b, xstar


# Four differences in 6 dimensions. The QR accepts column 2 because it
# measures its 1e-14 remainder against R[0,0] = 1e-3; the triangular solves
# measure it against the largest diagonal entry, 1, and reject it.
DEPENDENT_DIFFS = [1e-3 * np.eye(6)[0], np.eye(6)[1],
                   0.5 * np.eye(6)[1] + 1e-14 * np.eye(6)[2], np.eye(6)[3]]


def replay(diffs):
    """A map that adds the given differences one call at a time."""
    it = iter(diffs)
    return lambda x: x + next(it)


class TestWindows:
    def test_differences_accumulated_exactly(self):
        rng = np.random.default_rng(0)
        iters = [rng.standard_normal(6) for _ in range(5)]
        w = IterateWindow.from_iterates(iters)
        assert w.q == 3
        for j in range(4):
            assert np.all(w.dS[:, j] == iters[j + 1] - iters[j])
        d2 = w.d2S
        assert d2.shape == (6, 3)
        assert np.all(d2 == w.dS[:, 1:] - w.dS[:, :-1])

    def test_needs_two_iterates(self):
        with pytest.raises(ValueError):
            IterateWindow.from_iterates([np.zeros(3)])


class TestRRE:
    def test_constant_sequence_rank_deficient(self):
        s = np.ones(3)
        with pytest.raises(RankDeficient):
            rre_extrapolate(IterateWindow.from_iterates([s, s.copy()]))

    def test_affine_exactness_at_minimal_degree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            M, b, xstar = random_affine(rng, dim)
            window = affine_window(M, b, rng.standard_normal(dim), dim + 1)
            res = rre_extrapolate(IterateWindow.from_iterates(window))
            assert np.linalg.norm(res.t - xstar) <= 1e-10 * (1 + np.linalg.norm(xstar))
            assert res.gamma.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_shortcut_equals_pseudoinverse_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M, b, _ = random_affine(rng, 3)
            window = affine_window(M, b, rng.standard_normal(3), 4)
            w = IterateWindow.from_iterates(window)
            res = rre_extrapolate(w)
            r_ref = moore_penrose_residual(w.dS)
            ref = np.linalg.norm(r_ref)
            assert np.sqrt(max(res.lambda_shortcut, 0.0)) == pytest.approx(ref, abs=1e-10 + 1e-10 * ref)

    def test_gamma_sums_to_one_generic(self):
        rng = np.random.default_rng(3)
        w = IterateWindow.from_iterates([rng.standard_normal(30) for _ in range(6)])
        res = rre_extrapolate(w)
        assert res.gamma.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.generalized_residual_norm >= 0.0


class TestMPE:
    def test_q0_returns_next_iterate(self):
        w = IterateWindow.from_iterates([np.array([1.0, 2.0]), np.array([1.5, 2.5])])
        for fn in (mpe_extrapolate, rre_extrapolate):
            res = fn(w)
            assert np.allclose(res.t, [1.5, 2.5])
            assert np.allclose(res.gamma, [1.0])

    def test_affine_exactness(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            M, b, xstar = random_affine(rng, dim)
            window = affine_window(M, b, rng.standard_normal(dim), dim + 1)
            res = mpe_extrapolate(IterateWindow.from_iterates(window))
            assert np.linalg.norm(res.t - xstar) <= 1e-10 * (1 + np.linalg.norm(xstar))

    def test_translation_map_zero_denominator(self):
        # G(x) = x + c has eigenvalue one: the gamma normalization vanishes
        c = np.array([1.0, 2.0])
        window = [np.zeros(2), c, 2 * c]
        with pytest.raises(ZeroDenominator):
            mpe_extrapolate(IterateWindow.from_iterates(window))

    def test_diagonal_hand_value(self):
        M = np.diag([0.5, 0.2])
        b = np.array([1.0, 1.0])
        window = affine_window(M, b, np.zeros(2), 3)
        res = mpe_extrapolate(IterateWindow.from_iterates(window))
        assert np.allclose(res.t, [2.0, 1.25], atol=1e-12)


class TestGeneralizedResidual:
    def test_exactness_gives_zero(self):
        rng = np.random.default_rng(5)
        for method in ("mpe", "rre"):
            M, b, _ = random_affine(rng, 4, rho=0.7)
            window = affine_window(M, b, rng.standard_normal(4), 5)
            r = generalized_residual(IterateWindow.from_iterates(window), method)
            assert np.linalg.norm(r) <= 1e-10

    def test_rre_gram_inverse_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = IterateWindow.from_iterates([rng.standard_normal(30) for _ in range(6)])
            r = generalized_residual(w, "rre")
            gram = w.dS.T @ w.dS
            e = np.ones(w.q + 1)
            value = (r @ r) * (e @ np.linalg.solve(gram, e))
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_rre_residual_orthogonal_to_second_differences(self):
        rng = np.random.default_rng(7)
        w = IterateWindow.from_iterates([rng.standard_normal(25) for _ in range(6)])
        r = generalized_residual(w, "rre")
        proj = w.d2S.T @ r
        assert np.abs(proj).max() <= 1e-9 * np.linalg.norm(r)

    def test_mpe_norm_matches_definition(self):
        rng = np.random.default_rng(8)
        w = IterateWindow.from_iterates([rng.standard_normal(20) for _ in range(5)])
        res = mpe_extrapolate(w)
        r = generalized_residual(w, "mpe")
        assert res.generalized_residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-9)

    def test_gamma_translation_invariance(self):
        rng = np.random.default_rng(9)
        iters = [rng.standard_normal(12) for _ in range(6)]
        shift = 7.5 * np.ones(12)
        for fn in (mpe_extrapolate, rre_extrapolate):
            g1 = fn(IterateWindow.from_iterates(iters)).gamma
            g2 = fn(IterateWindow.from_iterates([s + shift for s in iters])).gamma
            assert np.allclose(g1, g2, atol=1e-9)

    def test_bad_method_name(self):
        w = IterateWindow.from_iterates([np.zeros(3), np.ones(3)])
        with pytest.raises(ValueError):
            generalized_residual(w, "epsilon")


class TestRestartedDriver:
    def test_identity_map_detected_immediately(self):
        x, hist = restarted_solve(lambda x: x, np.array([3.0, 1.0]), "mpe", 2, 1e-12, 50)
        assert np.allclose(x, [3.0, 1.0])
        assert hist.converged and hist.iterations == 1

    def test_scalar_contraction_one_cycle(self):
        x, hist = restarted_solve(lambda x: 0.5 * x + 1.0, np.array([0.0]), "rre", 1, 1e-13, 100)
        assert x[0] == pytest.approx(2.0, abs=1e-12)
        assert hist.converged
        assert hist.iterations <= 4  # one cycle (2 maps) + confirming step

    def test_affine_converges_for_both_methods(self):
        rng = np.random.default_rng(10)
        M, b, xstar = random_affine(rng, 6, rho=0.9)
        for method in ("mpe", "rre"):
            x, hist = restarted_solve(lambda v: M @ v + b, rng.standard_normal(6),
                                      method, 6, 1e-11, 100)
            assert hist.converged
            assert np.linalg.norm(x - xstar) <= 1e-9 * (1 + np.linalg.norm(xstar))

    def test_rank_deficiency_shrinks_window(self):
        # map whose minimal polynomial degree (2) is below the restart q=4:
        # windows go rank deficient and the cycle must shrink, not abort
        M = np.diag([0.5, 0.5, 0.25, 0.25])
        b = np.array([1.0, 2.0, 1.0, 0.5])
        xstar = np.linalg.solve(np.eye(4) - M, b)
        x, hist = restarted_solve(lambda v: M @ v + b, np.zeros(4), "rre", 4, 1e-12, 60)
        assert hist.converged
        assert np.linalg.norm(x - xstar) <= 1e-10 * np.linalg.norm(xstar)

    @pytest.mark.parametrize("method, kept", [("mpe", 4), ("rre", 3)])
    def test_dependent_window_shrinks(self, method, kept):
        # MPE shrinks once; RRE's normal equations see the same remainder
        # on the tail diagonal at q=2 and shrink once more
        x0 = np.ones(6)
        x, hist = restarted_solve(replay(DEPENDENT_DIFFS), x0, method, 3, 1e-12, 4)
        iterates = np.cumsum([x0, *DEPENDENT_DIFFS], axis=0)
        extrapolate = mpe_extrapolate if method == "mpe" else rre_extrapolate
        assert hist.iterations == 4
        assert np.array_equal(x, extrapolate(IterateWindow.from_iterates(iterates[:kept])).t)

    def test_scalar_divergent_affine_recovers_antilimit(self):
        # rho(M) > 1 with 1 not an eigenvalue: extrapolation still recovers
        # the (anti-)fixed point from the divergent sequence
        x, hist = restarted_solve(lambda x: 3.0 * x + 1.0, np.array([1.0]), "rre", 2, 1e-12, 200)
        assert hist.converged
        assert x[0] == pytest.approx(-0.5, abs=1e-9)

    def test_divergence_raises(self):
        # blow-up that overflows before extrapolation can rescue it
        with pytest.raises(Diverged):
            restarted_solve(lambda x: (x * 1e100)**3, np.array([10.0]), "rre", 2, 1e-12, 200)

    def test_q_valident(self):
        with pytest.raises(ValueError):
            restarted_solve(lambda x: x, np.zeros(2), "rre", 0, 1e-12, 10)

    def test_maxiter_caps_map_applications(self):
        # nonlinear oscillator the window cannot resolve: runs to the cap
        calls = []

        def G(x):
            calls.append(1)
            return np.sin(3.0 * x) + 2.0

        _, hist = restarted_solve(G, np.zeros(3), "mpe", 3, 1e-14, maxiter=10)
        assert len(calls) == 10
        assert not hist.converged


class TestQuadraticDecay:
    @pytest.mark.parametrize("seed", (3, 7, 23))
    def test_true_residual_slope_at_least_1_8(self, seed):
        # smooth component map x -> (x^2 + c)/K, minimal polynomial degree 4
        J = np.array([0.8, 0.7, 0.6, 0.5])
        K = 4.0 / J
        c = 2.0 * K - 4.0
        xstar = np.full(4, 2.0)
        G = lambda x: (x**2 + c) / K
        rng = np.random.default_rng(seed)
        x = xstar + 0.5 * rng.uniform(0.5, 1.0, 4)
        pairs = []
        for _ in range(10):
            e = np.linalg.norm(x - xstar)
            window = [x]
            for _ in range(5):
                window.append(G(window[-1]))
            try:
                res = rre_extrapolate(IterateWindow.from_iterates(window))
            except (RankDeficient, ZeroDenominator):
                break
            t = res.t
            r_true = np.linalg.norm(G(t) - t)
            # the quadratic-decay bound holds with an O(1) constant
            assert res.generalized_residual_norm <= 10.0 * e**2
            pairs.append((e, r_true))
            x = t
        usable = [(e, r) for e, r in pairs if e > 1e-7 and r > 1e-14][-3:]
        assert len(usable) == 3
        slope = np.polyfit(np.log([e for e, _ in usable]),
                           np.log([r for _, r in usable]), 1)[0]
        assert slope >= 1.8


class TestAnderson:
    def test_first_step_is_fixed_point_step(self):
        st = AndersonState(3)
        s0 = np.array([1.0, -2.0])
        g0 = np.array([0.5, 0.5])
        assert np.allclose(anderson_step(st, s0, g0), g0)

    def test_affine_scalar_secant(self):
        # brute-force least-squares oracle agrees: f0 = 1, f1 = 0.5 at s1 = 1,
        # theta = 1 and x2 = G(s1) - (G(s1)-G(s0)) * 1 = 2 exactly
        G = lambda x: 0.5 * x + 1.0
        st = AndersonState(1)
        s0 = np.array([0.0])
        x1 = anderson_step(st, s0, G(s0))
        assert x1[0] == pytest.approx(1.0)
        x2 = anderson_step(st, x1, G(x1))
        F = np.array([[G(x1)[0] - x1[0] - (G(s0)[0] - s0[0])]])
        theta_ref, *_ = np.linalg.lstsq(F, np.array([G(x1)[0] - x1[0]]), rcond=None)
        assert theta_ref[0] == pytest.approx(-1.0)  # brute-force LS oracle
        assert x2[0] == pytest.approx(2.0, abs=1e-14)

    def test_depth_capped_at_m(self):
        st = AndersonState(2)
        rng = np.random.default_rng(11)
        for k in range(6):
            anderson_step(st, rng.standard_normal(4), rng.standard_normal(4))
            assert st.depth == min(2, k)

    def test_m0_is_plain_fixed_point_bitwise(self):
        rng = np.random.default_rng(12)
        M, b, _ = random_affine(rng, 5, rho=0.6)
        G = lambda x: M @ x + b
        x0 = rng.standard_normal(5)
        x_ref, res_ref = plain_fixed_point(G, x0, 1e-13, 60)
        for x, hist in (anderson_solve(G, x0, 0, 1e-13, 60), fixed_point_solve(G, x0, 1e-13, 60)):
            assert np.all(x == x_ref)
            assert [r.relative_residual for r in hist.records] == res_ref

    def test_duplicate_columns_dropped_oldest_first(self):
        st = AndersonState(3)
        s = np.zeros(3)
        g = np.ones(3)
        anderson_step(st, s, g)
        # feeding identical residual pairs makes F columns zero; the step
        # must fall back rather than blow up
        out = anderson_step(st, s, g)
        assert np.allclose(out, g)

    def test_rank_deficient_window_drops_oldest_columns(self):
        # two identical oldest difference pairs: the window must shed the
        # oldest column and solve with the informative ones
        st = AndersonState(3)
        G = lambda x: np.array([0.5 * x[0] + 1.0, 0.25 * x[1] + 2.0])
        s = np.zeros(2)
        x = anderson_step(st, s, G(s))
        # duplicate the (f, g) pair to force a zero difference column
        st.push(st._f[-1].copy(), st._g[-1].copy())
        out = anderson_step(st, x, G(x))
        assert np.all(np.isfinite(out))
        xstar = np.array([2.0, 8.0 / 3.0])
        # the informative secant data still contributes: closer than G(x)
        assert np.linalg.norm(out - xstar) <= np.linalg.norm(G(x) - xstar) + 1e-12

    def test_dependent_window_drops_oldest_columns(self):
        # the three differences as F columns: the triangular solve rejects
        # column 2, then the QR of the newest two rejects column 1
        st, one = AndersonState(3), AndersonState(1)
        f = [np.zeros(6), *np.cumsum(DEPENDENT_DIFFS[:3], axis=0)]
        for f_k in f:
            out = anderson_step(st, np.zeros(6), f_k)
        anderson_step(one, np.zeros(6), f[-2])
        assert np.array_equal(out, anderson_step(one, np.zeros(6), f[-1]))

    def test_anderson_solve_affine(self):
        rng = np.random.default_rng(13)
        M, b, xstar = random_affine(rng, 6, rho=0.9)
        x, hist = anderson_solve(lambda v: M @ v + b, np.zeros(6), 3, 1e-12, 100)
        assert hist.converged
        assert np.linalg.norm(x - xstar) <= 1e-10 * np.linalg.norm(xstar)

    def test_window_wider_than_iterate(self):
        # depth 5 on 3 unknowns: the window keeps its newest 3 columns
        rng = np.random.default_rng(14)
        M, b, xstar = random_affine(rng, 3, rho=0.9)
        x, hist = anderson_solve(lambda v: M @ v + b, np.zeros(3), 5, 1e-13, 100)
        assert hist.converged and hist.iterations > 4  # more columns than rows
        assert np.linalg.norm(x - xstar) <= 1e-10 * np.linalg.norm(xstar)


class TestFixedPoint:
    def test_records_every_application(self):
        G = lambda x: 0.5 * x + 1.0
        x, hist = fixed_point_solve(G, np.ones(2), 1e-3, 50)
        assert hist.converged
        assert [r.iteration for r in hist.records] == list(range(1, hist.iterations + 1))

    def test_divergence_carries_history(self):
        with pytest.raises(Diverged) as ei:
            fixed_point_solve(lambda x: x**2, np.full(1, 2.0), 1e-12, 100)
        assert ei.value.history is not None
        assert len(ei.value.history.records) >= 1
