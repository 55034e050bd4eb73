"""Vector-sequence acceleration for fixed-point iterations.

Implements reduced rank extrapolation (RRE) and minimal polynomial
extrapolation (MPE) on a sliding window of iterates, their restarted
driver, and Anderson acceleration in unconstrained least-squares form.
An Anderson step is a function of its two difference windows, the m newest
residual differences dF and map-value differences dG, which
:func:`anderson_solve` keeps. Plain Picard iteration is Anderson
acceleration of depth 0 (Walker & Ni, SINUM 2011); both drivers add their
extrapolation time to the history's ``timers``.

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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .history import Diverged, IterationHistory, PhaseTimers
from .linalg import (
    RANK_DROP_TOL,
    RankDeficient,
    project_out,
    qr_factor,
    solve_normal_equations,
    solve_upper_triangular,
)

DIVERGE_LIMIT = 1e10


class ZeroDenominator(Exception):
    """The gamma normalization sum vanished (eigenvalue-one pathology)."""


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
    Q, R = qr_factor(dS[:, :q])
    col = dS[:, q].copy()
    r_q = project_out(Q, col)
    return Q, R, r_q, float(np.linalg.norm(col))


def _combine(w: IterateWindow, Q: np.ndarray, R: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    alpha = 1.0 - np.cumsum(gamma[:w.q])
    return w.s0 + Q @ (R @ alpha)


def _degenerate(w: IterateWindow) -> ExtrapolationResult:
    """One-difference window: the extrapolant is the newest iterate."""
    norm0 = float(np.linalg.norm(w.dS[:, 0]))
    if norm0 == 0.0:
        raise RankDeficient(0)
    return ExtrapolationResult(t=w.s0 + w.dS[:, 0], gamma=np.array([1.0]),
                               generalized_residual_norm=norm0)


def _null_coefficients(R: np.ndarray, r_q: np.ndarray) -> np.ndarray:
    """d = (xi, 1) with R_q xi = -r_q, the minimal-polynomial direction."""
    return np.append(solve_upper_triangular(R, -r_q), 1.0)


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
        res = _degenerate(w)
        res.lambda_shortcut = res.generalized_residual_norm**2
        return res
    Q, R, r_q, tail = _split_qr(w.dS)
    if tail > RANK_DROP_TOL * R[0, 0]:
        R_full = np.zeros((q + 1, q + 1))
        R_full[:q, :q] = R
        R_full[:q, q] = r_q
        R_full[q, q] = tail
        d = solve_normal_equations(R_full, np.ones(q + 1))
        lam = 1.0 / _check_sum(d)
        gamma = lam * d
    else:
        d = _null_coefficients(R, r_q)
        gamma = d / _check_sum(d)
        v = w.dS @ gamma
        lam = float(v @ v)
    t = _combine(w, Q, R, gamma)
    return ExtrapolationResult(t=t, gamma=gamma,
                               generalized_residual_norm=float(np.sqrt(max(lam, 0.0))),
                               lambda_shortcut=lam)


def mpe_extrapolate(w: IterateWindow) -> ExtrapolationResult:
    """Minimal polynomial extrapolation of one window.

    Solves the upper triangular system R_q d = -r_q, fixes d_q = 1 and
    normalizes; the trailing QR diagonal is never needed.
    """
    if w.q == 0:
        return _degenerate(w)
    Q, R, r_q, _ = _split_qr(w.dS)
    d = _null_coefficients(R, r_q)
    gamma = d / _check_sum(d)
    t = _combine(w, Q, R, gamma)
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
    with np.errstate(all="ignore"):  # non-finite values are caught by _record
        num = np.linalg.norm(x_new - x_old)
        den = np.linalg.norm(x_new)
        if den == 0.0:
            return 0.0 if num == 0.0 else float("inf")
        return float(num / den)


def _record(hist: IterationHistory, iteration: int, x_new, x_old, observer) -> float:
    """Record one map application; raise Diverged if its residual blew up."""
    rel = _relative_residual(x_new, x_old)
    rec = hist.append(iteration, rel)
    if observer:
        observer(rec, x_new)
    if not np.isfinite(rel) or rel > DIVERGE_LIMIT:
        raise Diverged(f"relative residual {rel:.3e}", hist)
    return rel


def _apply(G, x, hist: IterationHistory):
    try:
        return G(x)
    except Diverged as exc:
        if exc.history is None:
            exc.history = hist
        raise


def fixed_point_solve(G, x0, tol: float, maxiter: int, observer=None,
                      timers: PhaseTimers | None = None
                      ) -> tuple[np.ndarray, IterationHistory]:
    """Plain fixed-point iteration x <- G(x): AA(0), whose step returns G(x)."""
    return anderson_solve(G, x0, 0, tol, maxiter, observer=observer, timers=timers)


def _extrapolate_shrinking(window, extrapolate, timers: PhaseTimers):
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
        timers.extrapol_s += time.perf_counter() - t0


def restarted_solve(G, x0, method: str, q: int, tol: float, maxiter: int,
                    observer=None, timers: PhaseTimers | None = None
                    ) -> tuple[np.ndarray, IterationHistory]:
    """Restarted MPE/RRE around the fixed-point map G.

    Each cycle generates s_0 = x, s_{i+1} = G(s_i) for i = 0..q (q+1 map
    applications building q+1 differences), extrapolates, and restarts from
    the extrapolated point. One iteration means one application of G. The
    relative residual is checked after every application and, through the
    generalized residual ||DeltaS gamma|| formed from the window (no map
    application), after every extrapolation, so a converged extrapolant
    stops the loop without further map applications; the cycle's record
    keeps the smaller of the two residuals. A rejected prediction leaves the
    record, and the observer's last call, on the last map application,
    although the extrapolant is what the loop returns.
    """
    if q < 1:
        raise ValueError("restart number q must be >= 1")
    if method not in _EXTRAPOLATORS:
        raise ValueError(f"unknown method {method!r}")
    extrapolate = _EXTRAPOLATORS[method]
    hist = IterationHistory() if timers is None else IterationHistory(timers=timers)
    x = np.asarray(x0, dtype=float)
    evals = 0
    while evals < maxiter:
        window = [x]
        for _ in range(q + 1):
            if evals >= maxiter:
                break
            s = _apply(G, window[-1], hist)
            evals += 1
            rel = _record(hist, evals, s, window[-1], observer)
            window.append(s)
            if rel <= tol:
                hist.converged = True
                return s, hist
        x, r_gen = _extrapolate_shrinking(window, extrapolate, hist.timers)
        if r_gen is not None:
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


def anderson_step(dF, dG, f_k: np.ndarray, G_sk: np.ndarray) -> np.ndarray:
    """One Anderson update x_{k+1} = G(s_k) - G_k theta.

    ``dF`` and ``dG`` hold the window's residual and map-value differences,
    oldest first; theta solves min ||f_k - F_k theta||_2 by QR, where F_k
    and G_k stack them as columns. A window wider than f_k keeps its newest
    len(f_k) columns, and rank-deficient windows drop their oldest column
    first. With no differences the step is a plain fixed-point step.
    """
    if not dF:
        return G_sk.copy()
    F = np.column_stack(dF)[:, -len(f_k):]
    Gm = np.column_stack(dG)[:, -len(f_k):]
    while F.shape[1] > 0:
        try:
            Q, R = qr_factor(F)
            theta = solve_upper_triangular(R, Q.T @ f_k)
            return G_sk - Gm @ theta
        except RankDeficient:
            F, Gm = F[:, 1:], Gm[:, 1:]
    return G_sk.copy()


def anderson_solve(G, x0, m: int, tol: float, maxiter: int,
                   observer=None, timers: PhaseTimers | None = None
                   ) -> tuple[np.ndarray, IterationHistory]:
    """Anderson-accelerated fixed-point iteration AA(m); m = 0 is plain Picard."""
    if m < 0:
        raise ValueError("depth m must be >= 0")
    hist = IterationHistory() if timers is None else IterationHistory(timers=timers)
    dF, dG = deque(maxlen=m), deque(maxlen=m)  # the m newest differences, oldest first
    s = np.asarray(x0, dtype=float)
    for k in range(1, maxiter + 1):
        g = np.asarray(_apply(G, s, hist), dtype=float)
        t0 = time.perf_counter()
        f = g - s
        if m and k > 1:
            dF.append(f - f_prev)
            dG.append(g - g_prev)
        f_prev, g_prev = f, g
        x_next = anderson_step(dF, dG, f, g)
        hist.timers.extrapol_s += time.perf_counter() - t0
        rel = _record(hist, k, x_next, s, observer)
        s = x_next
        if rel <= tol:
            hist.converged = True
            break
    return s, hist
