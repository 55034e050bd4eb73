"""Vector-sequence acceleration for fixed-point iterations.

Implements reduced rank extrapolation (RRE) and minimal polynomial
extrapolation (MPE) on a sliding window of iterates, their restarted
drivers, and Anderson acceleration in unconstrained least-squares form.

Both polynomial methods factor the first-difference matrix
DeltaS = [ds_k, ..., ds_{k+q}] as QR and form

    t = s_k + Q_q (R_q alpha),    alpha_j = 1 - (gamma_0 + ... + gamma_j),

where the gamma weights sum to one. RRE obtains them from the normal
system R^T R d = e and exposes lambda = 1/(e^T d), whose square root equals
the generalized residual norm; MPE solves the triangular system
R_q d = -r_q with d_q = 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .history import IterationHistory, PhaseTimers
from .linalg import (
    RANK_DROP_TOL,
    RankDeficient,
    qr_factor,
    solve_normal_equations,
    solve_upper_triangular,
)

DIVERGE_LIMIT = 1e10


class ZeroDenominator(Exception):
    """The gamma normalization sum vanished (eigenvalue-one pathology)."""


class Diverged(Exception):
    """The outer residual blew up or became non-finite.

    Carries the partial iteration history when raised from a driver.
    """

    def __init__(self, message: str, history: IterationHistory | None = None):
        super().__init__(message)
        self.history = history


@dataclass
class IterateWindow:
    """Base iterate s_k plus the first-difference matrix of the window.

    ``dS[:, j] = s_{k+j+1} - s_{k+j}``; the second differences are formed by
    adjacent column subtraction.
    """

    s0: np.ndarray
    dS: np.ndarray

    @classmethod
    def from_iterates(cls, iterates) -> "IterateWindow":
        arr = np.column_stack([np.asarray(s, dtype=float) for s in iterates])
        if arr.shape[1] < 2:
            raise ValueError("a window needs at least two iterates")
        return cls(s0=arr[:, 0].copy(), dS=np.diff(arr, axis=1))

    @property
    def q(self) -> int:
        return self.dS.shape[1] - 1

    @property
    def d2S(self) -> np.ndarray:
        return np.diff(self.dS, axis=1)


@dataclass
class ExtrapolationResult:
    t: np.ndarray
    gamma: np.ndarray
    generalized_residual_norm: float
    lambda_shortcut: float | None = None


def _check_sum(d: np.ndarray) -> float:
    ssum = float(np.sum(d))
    if abs(ssum) <= 1e-14 * float(np.sum(np.abs(d))):
        raise ZeroDenominator("sum of coefficient solve vanished")
    return ssum


def _split_qr(dS: np.ndarray):
    """QR of the window differences, keeping the last column separate.

    The algorithms use Q_q and R_q of the first q columns plus the last
    column's projection coefficients r_q; the trailing diagonal entry (which
    vanishes by construction when the window hits the minimal-polynomial
    degree) is returned as ``tail`` instead of being treated as a defect.
    Raises :class:`RankDeficient` only for collapses within the first q
    columns.
    """
    q = dS.shape[1] - 1
    if q > dS.shape[0]:
        # more difference columns than dimensions: necessarily dependent
        raise RankDeficient(dS.shape[0])
    fac = qr_factor(dS[:, :q])
    col = dS[:, q].copy()
    r_q = np.zeros(q)
    for _ in range(2):
        s = fac.Q.T @ col
        r_q += s
        col -= fac.Q @ s
    return fac, r_q, float(np.linalg.norm(col))


def _combine(w: IterateWindow, fac, gamma: np.ndarray) -> np.ndarray:
    q = w.q
    alpha = 1.0 - np.cumsum(gamma[:q])
    return w.s0 + fac.Q @ (fac.R @ alpha)


def _degenerate(w: IterateWindow) -> ExtrapolationResult:
    """One-difference window: the extrapolant is the newest iterate."""
    norm0 = float(np.linalg.norm(w.dS[:, 0]))
    if norm0 == 0.0:
        raise RankDeficient(0)
    return ExtrapolationResult(t=w.s0 + w.dS[:, 0], gamma=np.array([1.0]),
                               generalized_residual_norm=norm0,
                               lambda_shortcut=norm0**2)


def _null_coefficients(fac, r_q: np.ndarray) -> np.ndarray:
    """d = (xi, 1) with R_q xi = -r_q, the minimal-polynomial direction."""
    return np.append(solve_upper_triangular(fac.R, -r_q), 1.0)


def rre_extrapolate(w: IterateWindow) -> ExtrapolationResult:
    """Reduced rank extrapolation of one window.

    Records lambda = 1/(e^T d), whose square root equals the generalized
    residual norm, so the norm is available before the extrapolated point
    itself. When the window sits exactly at the minimal-polynomial degree
    the normal system degenerates; the limit coefficients are the null
    direction of R, computed triangularly.
    """
    q = w.q
    if q == 0:
        return _degenerate(w)
    fac, r_q, tail = _split_qr(w.dS)
    if tail > RANK_DROP_TOL * fac.R[0, 0]:
        R_full = np.zeros((q + 1, q + 1))
        R_full[:q, :q] = fac.R
        R_full[:q, q] = r_q
        R_full[q, q] = tail
        d = solve_normal_equations(R_full, np.ones(q + 1))
        lam = 1.0 / _check_sum(d)
        gamma = lam * d
    else:
        d = _null_coefficients(fac, r_q)
        gamma = d / _check_sum(d)
        v = w.dS @ gamma
        lam = float(v @ v)
    t = _combine(w, fac, gamma)
    return ExtrapolationResult(t=t, gamma=gamma,
                               generalized_residual_norm=float(np.sqrt(max(lam, 0.0))),
                               lambda_shortcut=lam)


def mpe_extrapolate(w: IterateWindow) -> ExtrapolationResult:
    """Minimal polynomial extrapolation of one window.

    Solves the upper triangular system R_q d = -r_q, fixes d_q = 1 and
    normalizes; the trailing QR diagonal is never needed.
    """
    q = w.q
    if q == 0:
        res = _degenerate(w)
        return ExtrapolationResult(t=res.t, gamma=res.gamma,
                                   generalized_residual_norm=res.generalized_residual_norm)
    fac, r_q, _ = _split_qr(w.dS)
    d = _null_coefficients(fac, r_q)
    gamma = d / _check_sum(d)
    t = _combine(w, fac, gamma)
    # generalized residual r~ = t~ - t = DeltaS @ gamma
    res = float(np.linalg.norm(w.dS @ gamma))
    return ExtrapolationResult(t=t, gamma=gamma, generalized_residual_norm=res)


def generalized_residual(w: IterateWindow, method: str) -> np.ndarray:
    """r~ = ds_k - D2S (Y^T D2S)^{-1} Y^T ds_k with Y per method."""
    if method not in ("mpe", "rre"):
        raise ValueError(f"unknown method {method!r}")
    q = w.q
    ds0 = w.dS[:, 0]
    if q == 0:
        return ds0.copy()
    d2S = w.d2S
    Y = d2S if method == "rre" else w.dS[:, :q]
    M = Y.T @ d2S
    try:
        coef = np.linalg.solve(M, Y.T @ ds0)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(q) from exc
    return ds0 - d2S @ coef


_EXTRAPOLATORS = {"mpe": mpe_extrapolate, "rre": rre_extrapolate}


def _relative_residual(x_new, x_old) -> float:
    with np.errstate(all="ignore"):  # non-finite values are caught by _guard
        num = np.linalg.norm(x_new - x_old)
        den = np.linalg.norm(x_new)
        if den == 0.0:
            return 0.0 if num == 0.0 else float("inf")
        return float(num / den)


def _guard(rel: float, hist: IterationHistory) -> None:
    if not np.isfinite(rel) or rel > DIVERGE_LIMIT:
        raise Diverged(f"relative residual {rel:.3e}", hist)


def _apply(G, x, hist: IterationHistory):
    try:
        return G(x)
    except Diverged as exc:
        if exc.history is None:
            exc.history = hist
        raise


def fixed_point_solve(G, x0, tol: float, maxiter: int, observer=None
                      ) -> tuple[np.ndarray, IterationHistory]:
    """Plain fixed-point iteration x <- G(x) with a relative-residual stop."""
    hist = IterationHistory()
    x = np.asarray(x0, dtype=float)
    for k in range(1, maxiter + 1):
        x_new = _apply(G, x, hist)
        rel = _relative_residual(x_new, x)
        rec = hist.append(k, rel)
        if observer:
            observer(rec, x_new)
        _guard(rel, hist)
        x = x_new
        if rel <= tol:
            hist.converged = True
            break
    return x, hist


def _extrapolate_shrinking(window, extrapolate, timers: PhaseTimers | None):
    """Extrapolate the window, shrinking q on rank problems; q is restored
    for the next cycle by the caller.

    Returns the extrapolated point and its generalized residual vector
    (r~ = DeltaS gamma), or None for the bare fall-back iterate.
    """
    qq = len(window) - 2
    t0 = time.perf_counter()
    try:
        while qq >= 0:
            try:
                w = IterateWindow.from_iterates(window[: qq + 2])
                res = extrapolate(w)
                return res.t, w.dS @ res.gamma
            except (RankDeficient, ZeroDenominator):
                qq -= 1
        return window[-1], None
    finally:
        if timers is not None:
            timers.extrapol_s += time.perf_counter() - t0


def restarted_solve(G, x0, method: str, q: int, tol: float, maxiter: int,
                    observer=None, timers: PhaseTimers | None = None
                    ) -> tuple[np.ndarray, IterationHistory]:
    """Restarted MPE/RRE around the fixed-point map G.

    Each cycle generates s_0 = x, s_{i+1} = G(s_i) for i = 0..q (q+1 map
    applications building q+1 differences), extrapolates, and restarts from
    the extrapolated point. One iteration means one application of G. The
    relative residual is checked after every application and, through the
    generalized residual (free by the lambda shortcut), after every
    extrapolation, so a converged extrapolant stops the loop without
    further map applications; the cycle's record keeps the smaller of the
    two residuals.
    """
    if q < 1:
        raise ValueError("restart number q must be >= 1")
    extrapolate = _EXTRAPOLATORS[method]
    hist = IterationHistory()
    x = np.asarray(x0, dtype=float)
    evals = 0
    while evals < maxiter:
        window = [x]
        for _ in range(q + 1):
            if evals >= maxiter:
                break
            s = _apply(G, window[-1], hist)
            evals += 1
            rel = _relative_residual(s, window[-1])
            rec = hist.append(evals, rel)
            if observer:
                observer(rec, s)
            _guard(rel, hist)
            window.append(s)
            if rel <= tol:
                hist.converged = True
                return s, hist
        if len(window) < 2:
            break
        x, r_gen = _extrapolate_shrinking(window, extrapolate, timers)
        if r_gen is not None and hist.records:
            den = np.linalg.norm(x)
            rel_last = hist.records[-1].relative_residual
            if den > 0.0:
                rel_t = float(np.linalg.norm(r_gen) / den)
                # Predictions below the quadratic-decay floor rel_last^2 are
                # window-noise artifacts and cannot be trusted.
                if rel_last**2 <= rel_t < rel_last:
                    rec = hist.records[-1]
                    rec.relative_residual = rel_t
                    if observer:
                        observer(rec, x)
                    if rel_t <= tol:
                        hist.converged = True
                        return x, hist
    return x, hist


class AndersonState:
    """History of (f_i, G(s_i)) pairs; at most m+1 retained, newest last."""

    def __init__(self, m: int):
        if m < 0:
            raise ValueError("depth m must be >= 0")
        self.m = m
        self._f: list[np.ndarray] = []
        self._g: list[np.ndarray] = []

    def push(self, f: np.ndarray, g: np.ndarray) -> None:
        self._f.append(f)
        self._g.append(g)
        if len(self._f) > self.m + 1:
            self._f.pop(0)
            self._g.pop(0)

    @property
    def depth(self) -> int:
        """Current window depth m_k = min(m, k)."""
        return max(0, len(self._f) - 1)

    def difference_matrices(self):
        F = np.column_stack([self._f[i + 1] - self._f[i] for i in range(self.depth)])
        Gm = np.column_stack([self._g[i + 1] - self._g[i] for i in range(self.depth)])
        return F, Gm


def anderson_step(state: AndersonState, s_k, G_sk) -> np.ndarray:
    """One Anderson update x_{k+1} = G(s_k) - G_k theta.

    theta solves min ||f_k - F_k theta||_2 by QR; rank-deficient windows drop
    their oldest column first. With an empty history the step is a plain
    fixed-point step.
    """
    s_k = np.asarray(s_k, dtype=float)
    G_sk = np.asarray(G_sk, dtype=float)
    f_k = G_sk - s_k
    state.push(f_k, G_sk)
    if state.depth == 0 or state.m == 0:
        return G_sk.copy()
    F, Gm = state.difference_matrices()
    while F.shape[1] > 0:
        try:
            fac = qr_factor(F)
            theta = solve_upper_triangular(fac.R, fac.Q.T @ f_k)
            return G_sk - Gm @ theta
        except RankDeficient:
            F = F[:, 1:]
            Gm = Gm[:, 1:]
    return G_sk.copy()


def anderson_solve(G, x0, m: int, tol: float, maxiter: int,
                   observer=None, timers: PhaseTimers | None = None
                   ) -> tuple[np.ndarray, IterationHistory]:
    """Anderson-accelerated fixed-point iteration AA(m)."""
    hist = IterationHistory()
    state = AndersonState(m)
    s = np.asarray(x0, dtype=float)
    for k in range(1, maxiter + 1):
        g = _apply(G, s, hist)
        t0 = time.perf_counter()
        x_next = anderson_step(state, s, g)
        if timers is not None:
            timers.extrapol_s += time.perf_counter() - t0
        rel = _relative_residual(x_next, s)
        rec = hist.append(k, rel)
        if observer:
            observer(rec, x_next)
        _guard(rel, hist)
        s = x_next
        if rel <= tol:
            hist.converged = True
            break
    return s, hist
