"""Vector-sequence acceleration for fixed-point iterations.

Implements reduced rank extrapolation (RRE) and minimal polynomial
extrapolation (MPE) on a window of first differences, their restarted
driver, and Anderson acceleration in unconstrained least-squares form.
Both drivers keep differences: :func:`restarted_solve` its cycle's, and
:func:`anderson_solve` the m newest residual and map-value differences
dF and dG that an Anderson step takes. Neither keeps more than it can
use: a window of more than n+1 differences of n-vectors is dependent by
its shape, and an Anderson step uses at most n columns. Plain Picard
iteration is Anderson acceleration of depth 0 (Walker & Ni, SINUM 2011);
both drivers add their extrapolation time to the history's ``timers``.

MPE and RRE are one kernel that differs only in how it solves for the
gamma weights (Sidi, Vector Extrapolation Methods, SIAM 2017). It factors
the first-difference matrix DeltaS = [ds_k, ..., ds_{k+q}] as QR and forms

    t = s_k + Q_q (R_q alpha),    alpha_j = 1 - (gamma_0 + ... + gamma_j),

where the gamma weights sum to one. MPE solves the triangular system
R_q d = -r_q with d_q = 1; RRE the normal system R^T R d = e. Both report
the generalized residual norm ||DeltaS gamma||, from which the restarted
driver predicts the extrapolant's residual.
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
# Largest extrapolation window a config may ask for, in values: up to
# min(window+1, n+1) differences of n-value iterates. restarted_solve keeps
# up to q+1 of them, stacks them and factors them into a Q as wide (3
# copies); anderson_solve keeps m residual and m map-value differences,
# stacks both and factors the first (5 copies). 2^23 values are 64 MiB a
# copy, so a window costs at most about 320 MiB.
MAX_WINDOW_VALUES = 2**23


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


def _extrapolate(w: IterateWindow, rre: bool) -> ExtrapolationResult:
    """MPE, or RRE when ``rre`` is set, of one window.

    A one-difference window extrapolates to its newest iterate. Otherwise
    the first q differences are factored as Q_q R_q and the newest one is
    projected off Q_q, leaving coefficients r_q and a remainder norm
    ``tail``. MPE, and RRE when ``tail`` vanishes, takes the
    minimal-polynomial direction d = (xi, 1) with R_q xi = -r_q. RRE
    otherwise solves the normal system R^T R d = e of the full triangular
    factor and sets lambda = 1/(e^T d), whose square root equals the
    generalized residual norm. That system degenerates exactly when the
    window sits at the minimal-polynomial degree: ``tail`` then vanishes by
    construction, and the limit of its coefficients is the null direction.
    Either way gamma = d / (e^T d). Both methods report ||DeltaS gamma||,
    the norm of the generalized residual r~ = t~ - t, and RRE also lambda,
    as r~^T r~ where it did not solve the normal system.
    """
    q, dS = w.q, w.dS
    lam = None
    if q == 0:
        if np.linalg.norm(dS[:, 0]) == 0.0:
            raise RankDeficient(0)
        gamma = np.array([1.0])
        t = w.s0 + dS[:, 0]
    else:
        if q > dS.shape[0]:  # more difference columns than dimensions: dependent
            raise RankDeficient(dS.shape[0])
        Q, R = qr_factor(dS[:, :q])
        col = dS[:, q].copy()
        r_q = project_out(Q, col)
        tail = float(np.linalg.norm(col))
        if rre and tail > RANK_DROP_TOL * R[0, 0]:
            R_full = np.zeros((q + 1, q + 1))
            R_full[:q, :q] = R
            R_full[:q, q] = r_q
            R_full[q, q] = tail
            d = solve_normal_equations(R_full, np.ones(q + 1))
            lam = 1.0 / _check_sum(d)
            gamma = lam * d
        else:
            d = np.append(solve_upper_triangular(R, -r_q), 1.0)
            gamma = d / _check_sum(d)
        t = w.s0 + Q @ (R @ (1.0 - np.cumsum(gamma[:q])))
    v = dS @ gamma
    if rre and lam is None:
        lam = float(v @ v)
    return ExtrapolationResult(t=t, gamma=gamma,
                               generalized_residual_norm=float(np.linalg.norm(v)),
                               lambda_shortcut=lam)


def rre_extrapolate(w: IterateWindow) -> ExtrapolationResult:
    """Reduced rank extrapolation of one window; see :func:`_extrapolate`."""
    return _extrapolate(w, rre=True)


def mpe_extrapolate(w: IterateWindow) -> ExtrapolationResult:
    """Minimal polynomial extrapolation of one window; see :func:`_extrapolate`."""
    return _extrapolate(w, rre=False)


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


def restarted_solve(G, x0, method: str, q: int, tol: float, maxiter: int,
                    observer=None, timers: PhaseTimers | None = None
                    ) -> tuple[np.ndarray, IterationHistory]:
    """Restarted MPE/RRE around the fixed-point map G.

    Each cycle applies G q+1 times from s_0 = x, keeps the first differences
    s_{i+1} - s_i (at most x.size + 1 of them), extrapolates from them,
    dropping the newest one while the window raises RankDeficient or
    ZeroDenominator, and restarts from the extrapolated point. One iteration
    means one application of G. The relative residual is checked after every
    application and, through the generalized residual norm ||DeltaS gamma||
    that the extrapolator reports (no map application), after every
    extrapolation, so a converged extrapolant stops the loop without further
    map applications; the cycle's record keeps the smaller of the two
    residuals. A rejected prediction leaves the record, and the observer's
    last call, on the last map application, although the extrapolant is
    what the loop returns.
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
        s, diffs = x, []  # the cycle's first differences, oldest first
        for _ in range(q + 1):
            if evals >= maxiter:
                break
            s_new = _apply(G, s, hist)
            evals += 1
            rel = _record(hist, evals, s_new, s, observer)
            if rel <= tol:
                hist.converged = True
                return s_new, hist
            if len(diffs) <= x.size:  # a wider window is dependent by its shape
                diffs.append(s_new - s)
            s = s_new
        t0 = time.perf_counter()
        for k in range(len(diffs), 0, -1):
            try:
                res = extrapolate(IterateWindow(x, np.column_stack(diffs[:k])))
                break
            except (RankDeficient, ZeroDenominator):
                pass
        else:
            res = None
        hist.timers.extrapol_s += time.perf_counter() - t0
        if res is None:  # a zero-norm difference, which any tol >= 0 has accepted
            x = s  # restart from the last map application, with no prediction
            continue
        x, rec = res.t, hist.records[-1]
        den = np.linalg.norm(x)
        if den > 0.0:
            rel_t = float(res.generalized_residual_norm / den)
            # Predictions below the quadratic-decay floor rel_last^2 of the
            # last map application are window-noise artifacts.
            if rec.relative_residual**2 <= rel_t < rec.relative_residual:
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
    s = np.asarray(x0, dtype=float)
    # the newest differences, oldest first; a step uses at most s.size of them
    dF, dG = deque(maxlen=min(m, s.size)), deque(maxlen=min(m, s.size))
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
