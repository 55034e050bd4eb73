import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igasolve.extrapolation as ex
from igasolve.extrapolation import (
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

from oracles import (
    affine_window,
    moore_penrose_residual,
    plain_fixed_point,
    seed_anderson_solve,
    seed_mpe_extrapolate,
    seed_restarted_solve,
    seed_rre_extrapolate,
)


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


@st.composite
def extrapolation_windows(draw):
    """A window of dimension 1..8 with 2..9 iterates: random vectors; an
    affine sequence at or below its minimal-polynomial degree, which takes
    RRE's degenerate-tail branch; a diagonal map with repeated eigenvalues,
    whose windows are rank deficient; a constant sequence, whose differences
    are zero; or a translation, whose gamma normalization vanishes."""
    kind = draw(st.sampled_from(["random", "affine", "diagonal", "constant", "translation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 8))
    # an affine window of dim + 2 iterates sits at the minimal-polynomial degree
    n_iter = draw(st.integers(2, min(dim + 2, 9) if kind == "affine" else 9))
    s0 = rng.standard_normal(dim)
    if kind == "random":
        iterates = [s0, *(rng.standard_normal(dim) for _ in range(n_iter - 1))]
    elif kind == "affine":
        M, b, _ = random_affine(rng, dim)
        iterates = affine_window(M, b, s0, n_iter - 1)
    elif kind == "diagonal":
        M = np.diag(rng.choice([0.2, 0.5, 0.9], size=dim))
        iterates = affine_window(M, rng.standard_normal(dim), s0, n_iter - 1)
    elif kind == "constant":
        iterates = [s0] * n_iter
    else:
        c = rng.standard_normal(dim)
        iterates = [s0 + k * c for k in range(n_iter)]
    return IterateWindow.from_iterates(iterates)


def _bytes(x):
    return np.float64(x).tobytes()


class TestKernelSeedOracle:
    """The one MPE/RRE kernel gives the seed extrapolators' exceptions,
    extrapolants and weights, bit for bit, and reports ||DeltaS gamma||."""

    @settings(deadline=None, max_examples=400)
    @given(w=extrapolation_windows(), rre=st.booleans())
    def test_bitwise_equal_to_seed(self, w, rre):
        fn, seed = (rre_extrapolate, seed_rre_extrapolate) if rre else (
            mpe_extrapolate, seed_mpe_extrapolate)
        outcomes = []
        for f in (fn, seed):
            try:
                outcomes.append(f(w))
            except (RankDeficient, ZeroDenominator) as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if isinstance(want, type):
            assert got is want
            return
        assert got.t.tobytes() == want.t.tobytes()
        assert got.gamma.tobytes() == want.gamma.tobytes()
        assert _bytes(got.generalized_residual_norm) == _bytes(np.linalg.norm(w.dS @ got.gamma))
        if not rre:
            assert _bytes(got.generalized_residual_norm) == _bytes(want.generalized_residual_norm)
            assert got.lambda_shortcut is None and want.lambda_shortcut is None
        elif w.q:
            assert _bytes(got.lambda_shortcut) == _bytes(want.lambda_shortcut)
        else:  # r~^T r~ where the seed squared the norm
            assert got.lambda_shortcut == pytest.approx(want.lambda_shortcut, rel=1e-14)


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

    @pytest.mark.parametrize("method", ["mpe", "rre"])
    def test_window_no_wider_than_iterate_plus_one(self, monkeypatch, method):
        # q = 5 on 2 unknowns: more than 3 differences are dependent by
        # their shape, so no window offers the extrapolator more
        widths = []

        def spy(w):
            widths.append(w.dS.shape[1])
            return extrapolate(w)

        extrapolate = ex._EXTRAPOLATORS[method]
        monkeypatch.setitem(ex._EXTRAPOLATORS, method, spy)
        restarted_solve(lambda x: np.sin(3.0 * x) + 2.0, np.zeros(2), method, 5, 1e-14, 30)
        assert widths and max(widths) == 3

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

    def test_bad_method_name(self):
        # the same error generalized_residual gives, not a KeyError
        with pytest.raises(ValueError, match="unknown method 'foo'"):
            restarted_solve(lambda x: x, np.zeros(2), "foo", 2, 1e-12, 10)

    @pytest.mark.parametrize("method", ["mpe", "rre"])
    def test_rejected_prediction_returns_extrapolant(self, method):
        # one cycle of 4 applications whose prediction is rejected: the
        # extrapolant is returned, while the last record and the observer's
        # last call describe the last map application
        G = lambda x: np.sin(3.0 * x) + 2.0
        seen = []
        x, hist = restarted_solve(G, np.zeros(3), method, 3, 1e-14, 4,
                                  observer=lambda rec, v: seen.append((rec.iteration, v)))
        s = [np.zeros(3)]
        for _ in range(4):
            s.append(G(s[-1]))
        assert not hist.converged and hist.iterations == 4
        assert not np.array_equal(x, s[-1])
        assert seen[-1][0] == 4 and np.array_equal(seen[-1][1], s[-1])
        assert hist.records[-1].relative_residual == (
            np.linalg.norm(s[-1] - s[-2]) / np.linalg.norm(s[-1]))

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
        s0 = np.array([1.0, -2.0])
        g0 = np.array([0.5, 0.5])
        assert np.allclose(anderson_step([], [], g0 - s0, g0), g0)

    def test_affine_scalar_secant(self):
        # brute-force least-squares oracle agrees: f0 = 1, f1 = 0.5 at s1 = 1,
        # theta = 1 and x2 = G(s1) - (G(s1)-G(s0)) * 1 = 2 exactly
        G = lambda x: 0.5 * x + 1.0
        s0 = np.array([0.0])
        f0 = G(s0) - s0
        x1 = anderson_step([], [], f0, G(s0))
        assert x1[0] == pytest.approx(1.0)
        f1 = G(x1) - x1
        x2 = anderson_step([f1 - f0], [G(x1) - G(s0)], f1, G(x1))
        F = np.array([[G(x1)[0] - x1[0] - (G(s0)[0] - s0[0])]])
        theta_ref, *_ = np.linalg.lstsq(F, np.array([G(x1)[0] - x1[0]]), rcond=None)
        assert theta_ref[0] == pytest.approx(-1.0)  # brute-force LS oracle
        assert x2[0] == pytest.approx(2.0, abs=1e-14)

    def test_depth_capped_at_m(self, monkeypatch):
        depths = []

        def spy(dF, dG, f_k, G_sk):
            depths.append((len(dF), len(dG)))
            return step(dF, dG, f_k, G_sk)

        step = ex.anderson_step
        monkeypatch.setattr(ex, "anderson_step", spy)
        rng = np.random.default_rng(11)
        anderson_solve(lambda x: rng.standard_normal(4), rng.standard_normal(4), 2, 0.0, 6)
        assert depths == [(k, k) for k in (0, 1, 2, 2, 2, 2)]

    def test_depth_capped_at_iterate_size(self, monkeypatch):
        # depth 5 on 3 unknowns: a step uses at most 3 columns, so no more are kept
        depths = []

        def spy(dF, dG, f_k, G_sk):
            depths.append((len(dF), len(dG)))
            return step(dF, dG, f_k, G_sk)

        step = ex.anderson_step
        monkeypatch.setattr(ex, "anderson_step", spy)
        rng = np.random.default_rng(15)
        anderson_solve(lambda x: rng.standard_normal(3), rng.standard_normal(3), 5, 0.0, 7)
        assert depths == [(k, k) for k in (0, 1, 2, 3, 3, 3, 3)]

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
        g = np.ones(3)
        f = g - np.zeros(3)
        # identical residual pairs make the F column zero; the step must
        # fall back rather than blow up
        out = anderson_step([f - f], [g - g], f, g)
        assert np.allclose(out, g)

    def test_rank_deficient_window_drops_oldest_columns(self):
        # two identical oldest (f, g) pairs: the window must shed its zero
        # oldest column and solve with the informative one
        G = lambda x: np.array([0.5 * x[0] + 1.0, 0.25 * x[1] + 2.0])
        s = np.zeros(2)
        f0 = G(s) - s
        x = anderson_step([], [], f0, G(s))
        f1 = G(x) - x
        out = anderson_step([f0 - f0, f1 - f0], [G(s) - G(s), G(x) - G(s)], f1, G(x))
        assert np.all(np.isfinite(out))
        xstar = np.array([2.0, 8.0 / 3.0])
        # the informative secant data still contributes: closer than G(x)
        assert np.linalg.norm(out - xstar) <= np.linalg.norm(G(x) - xstar) + 1e-12

    def test_dependent_window_drops_oldest_columns(self):
        # the three differences as F columns (and, at s_k = 0, as G columns):
        # the triangular solve rejects column 2, then the QR of the newest
        # two rejects column 1
        diffs = DEPENDENT_DIFFS[:3]
        f_k = np.sum(diffs, axis=0)
        out = anderson_step(diffs, diffs, f_k, f_k)
        assert np.array_equal(out, anderson_step(diffs[2:], diffs[2:], f_k, f_k))

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


@st.composite
def anderson_problems(draw):
    """(map factory, x0, maxiter): a random affine map of dimension 1..8,
    often below the depth, with or without a small smooth nonlinearity that
    keeps AA(m) from finishing in dim + 1 steps, or the replay of
    ``DEPENDENT_DIFFS``."""
    if draw(st.booleans()):
        return (lambda: replay(DEPENDENT_DIFFS)), np.ones(6), len(DEPENDENT_DIFFS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, b, _ = random_affine(rng, draw(st.integers(1, 8)),
                            rho=draw(st.sampled_from([0.3, 0.9, 0.999])))
    c = draw(st.sampled_from([0.0, 0.1]))
    return (lambda: lambda v: M @ v + b + c * np.sin(v)), rng.standard_normal(len(b)), 40


def _anderson_outcome(solve, make_G, x0, m, maxiter):
    """The bytes of x and the repr of the records, also when it diverges."""
    try:
        x, hist = solve(make_G(), x0, m, 1e-13, maxiter)
    except Diverged as exc:
        return "diverged", repr(exc.history.records)
    return x.tobytes(), repr((hist.records, hist.converged))


class TestAndersonSeedOracle:
    """The difference windows give the seed's iterates and residuals, bit
    for bit."""

    @settings(deadline=None, max_examples=150)
    @given(problem=anderson_problems(), m=st.integers(0, 6))
    def test_bitwise_equal_to_seed(self, problem, m):
        make_G, x0, maxiter = problem
        assert (_anderson_outcome(anderson_solve, make_G, x0, m, maxiter)
                == _anderson_outcome(seed_anderson_solve, make_G, x0, m, maxiter))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            anderson_solve(lambda x: x, np.zeros(2), -1, 1e-12, 10)


@st.composite
def restarted_problems(draw):
    """(map factory, x0, maxiter cap): a random affine map of dimension 1..8
    and spectral radius 0.3..1.5, with or without a small smooth
    nonlinearity; a diagonal map with repeated eigenvalues, whose windows go
    rank deficient; the ``DEPENDENT_DIFFS`` replay, or that replay after a
    zero difference, which for a negative tol no window can extrapolate, so
    the cycle restarts from its last map application; the identity; or
    sin(3x) + 2."""
    kind = draw(st.sampled_from(["affine", "diagonal", "replay", "stall", "identity", "sin"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 8))
    x0 = rng.standard_normal(dim)
    if kind == "affine":  # rho = 1 may make I - M singular, so no fixed point is solved for
        M = rng.standard_normal((dim, dim))
        M *= draw(st.floats(0.3, 1.5)) / max(abs(np.linalg.eigvals(M)))
        b = rng.standard_normal(dim)
        c = draw(st.sampled_from([0.0, 0.1]))
        return (lambda: lambda v: M @ v + b + c * np.sin(v)), x0, 40
    if kind == "diagonal":
        M = np.diag(rng.choice([0.2, 0.5, 0.9], size=dim))
        b = rng.standard_normal(dim)
        return (lambda: lambda v: M @ v + b), x0, 40
    if kind == "replay":
        return (lambda: replay(DEPENDENT_DIFFS)), np.ones(6), len(DEPENDENT_DIFFS)
    if kind == "stall":
        diffs = [np.zeros(6), *DEPENDENT_DIFFS]
        return (lambda: replay(diffs)), np.ones(6), len(diffs)
    if kind == "identity":
        return (lambda: lambda v: v.copy()), x0, 40
    return (lambda: lambda v: np.sin(3.0 * v) + 2.0), x0, 40


def _restarted_outcome(solve, make_G, x0, method, q, tol, maxiter):
    """The bytes of x, the repr of the records, converged and the observer's
    log, or the records of the Diverged history and the log."""
    log = []
    try:
        x, hist = solve(make_G(), x0, method, q, tol, maxiter,
                        observer=lambda rec, v: log.append((rec.iteration, v.tobytes())))
    except Diverged as exc:
        return "diverged", repr(exc.history.records), log
    return x.tobytes(), repr(hist.records), hist.converged, log


class TestRestartedSeedOracle:
    """Keeping the cycle's differences gives the seed's iterates, records
    and observer calls, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(problem=restarted_problems(), method=st.sampled_from(["mpe", "rre"]),
           q=st.integers(1, 6), maxiter=st.integers(1, 40),
           tol=st.sampled_from([-1.0, 0.0, 1e-14, 1e-8]))
    def test_bitwise_equal_to_seed(self, problem, method, q, maxiter, tol):
        make_G, x0, cap = problem
        args = (make_G, x0, method, q, tol, min(maxiter, cap))
        assert (_restarted_outcome(restarted_solve, *args)
                == _restarted_outcome(seed_restarted_solve, *args))


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
