"""Independent reference computations used by the test suite.

Most of it is deliberately naive (direct recursions, dense algebra,
hand-rolled eliminations) so it shares no code path with the package. The
last helpers are test fixtures the package does not ship: a Gauss rule on
one span, a point evaluator, the global L2 projection, and the seed's QR,
Anderson loop and restarted MPE/RRE driver, against which the package's are
compared bit for bit.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from igasolve import iga
from igasolve.bspline import eval_basis, greville_abscissae
from igasolve.extrapolation import (
    _EXTRAPOLATORS,
    IterateWindow,
    ZeroDenominator,
    _apply,
    _record,
)
from igasolve.history import IterationHistory, PhaseTimers
from igasolve.linalg import RANK_DROP_TOL, RankDeficient, solve_upper_triangular


def naive_bspline(t, k, i, knots):
    """Cox-de Boor recursion evaluated verbatim; 0/0 terms are 0.

    Works with Fractions for exact rational evaluation.
    """
    if k == 0:
        return 1 if knots[i] <= t < knots[i + 1] else 0
    c1 = 0
    if knots[i + k] != knots[i]:
        c1 = (t - knots[i]) / (knots[i + k] - knots[i]) * naive_bspline(t, k - 1, i, knots)
    c2 = 0
    if knots[i + k + 1] != knots[i + 1]:
        c2 = ((knots[i + k + 1] - t) / (knots[i + k + 1] - knots[i + 1])
              * naive_bspline(t, k - 1, i + 1, knots))
    return c1 + c2


def naive_bspline_all(t, p, knots):
    """All basis values at t by the naive recursion."""
    n = len(knots) - p - 1
    return [naive_bspline(t, p, i, knots) for i in range(n)]


def scalar_eval_basis(kv, t, max_deriv=0):
    """Piegl & Tiller A2.3 at one point in scalar arithmetic.

    Returns (span index, derivs) with ``derivs[r, j]`` the r-th derivative
    of basis function ``span - p + j``. The span rule is find_span's: the
    right domain endpoint belongs to the last span.
    """
    p = kv.p
    U = kv.knots
    n = max_deriv
    if t >= U[-p - 1]:
        i = len(U) - p - 2
    else:
        i = int(np.searchsorted(U, t, side="right") - 1)

    # Triangular table of lower-degree values and knot differences.
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = t - U[i + 1 - j]
        right[j] = U[i + j] - t
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n + 1, p + 1))
    ders[0] = ndu[:, p]

    if n > 0:
        a2 = np.empty((2, p + 1))
        for r in range(p + 1):
            s1, s2 = 0, 1
            a2[0, 0] = 1.0
            for k in range(1, n + 1):
                d = 0.0
                rk = r - k
                pk = p - k
                if r >= k:
                    a2[s2, 0] = a2[s1, 0] / ndu[pk + 1, rk]
                    d = a2[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a2[s2, j] = (a2[s1, j] - a2[s1, j - 1]) / ndu[pk + 1, rk + j]
                    d += a2[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a2[s2, k] = -a2[s1, k - 1] / ndu[pk + 1, r]
                    d += a2[s2, k] * ndu[r, pk]
                ders[k, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, n + 1):
            ders[k] *= fac
            fac *= p - k

    return i, ders


def rational_knots(knots):
    return [Fraction(x).limit_denominator(10**9) for x in knots]


def thomas_tridiagonal(lower, diag, upper, rhs):
    """Textbook Thomas algorithm for a tridiagonal system."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = upper[0] / diag[0] if n > 1 else 0.0
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = upper[i] / denom
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def forward_substitution_upper(R, b):
    """Back substitution written out by hand."""
    n = len(b)
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        s = b[i] - R[i, i + 1:] @ x[i + 1:]
        x[i] = s / R[i, i]
    return x


def dense_gauss_quadrature(f, a, b, n=40):
    """High-order Gauss quadrature for reference integrals."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return half * np.sum(w * f(a + half * (x + 1.0)))


def affine_window(M, b, s0, n_steps):
    """Iterates of s <- M s + b, as a list."""
    out = [np.asarray(s0, dtype=float)]
    for _ in range(n_steps):
        out.append(M @ out[-1] + b)
    return out


def plain_fixed_point(G, x0, tol, maxiter):
    """x <- G(x) until ||x_new - x|| / ||x_new|| <= tol: the Picard loop
    written out, with its relative residuals."""
    x = np.asarray(x0, dtype=float)
    residuals = []
    for _ in range(maxiter):
        x_new = G(x)
        residuals.append(float(np.linalg.norm(x_new - x) / np.linalg.norm(x_new)))
        x = x_new
        if residuals[-1] <= tol:
            break
    return x, residuals


def moore_penrose_residual(dS):
    """r~ = (I - D2S D2S^+) ds_0 by explicit pseudoinverse."""
    d2S = np.diff(dS, axis=1)
    pinv = np.linalg.pinv(d2S)
    return dS[:, 0] - d2S @ (pinv @ dS[:, 0])


def kron_interior_prolongation(maps):
    """Interior prolongation from the full 1D two-scale maps: Kronecker
    product of the full maps first, then the boundary rows and columns
    removed by fancy indexing with x-major interior index lists."""

    def interior(shape):
        idx = np.indices(shape).reshape(len(shape), -1)
        upper = np.array(shape)[:, None] - 1
        return np.flatnonzero(np.all((idx > 0) & (idx < upper), axis=0))

    P = maps[0] if len(maps) == 1 else sp.kron(maps[0], maps[1], format="csr")
    fine = interior(tuple(m.shape[0] for m in maps))
    coarse = interior(tuple(m.shape[1] for m in maps))
    return P[fine][:, coarse].tocsr()


def scipy_coo_to_csr(rows, cols, vals, shape):
    """COO finalisation through scipy: ``sum_duplicates`` (``np.lexsort``
    and ``np.add.reduceat``) followed by ``tocsr``."""
    mat = sp.coo_matrix((vals, (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat.tocsr()


def csr_fingerprint(A):
    """Type, shape and the dtype and bytes of every CSR array, for bitwise
    comparisons."""
    return (type(A).__name__, A.shape) + tuple(
        (str(a.dtype), a.tobytes()) for a in (A.indptr, A.indices, A.data))


def _local_dofs(table):
    return table.first_dof[:, None] + np.arange(table.basis.shape[3])[None, :]


def add_at_scatter_load(space, tables, integrand):
    """Load vector F_i = sum of w * integrand * B_i, scattered by ``np.add.at``."""
    if space.dims == 1:
        (t,) = tables
        loc = np.einsum("eq,eq,eqa->ea", integrand, t.weights, t.basis[0])
        F = np.zeros(space.n_dof)
        np.add.at(F, _local_dofs(t), loc)
        return F
    tx, ty = tables
    weighted = integrand * tx.weights[:, :, None, None] * ty.weights[None, None, :, :]
    loc = np.einsum("eqfr,eqa,frb->efab", weighted, tx.basis[0], ty.basis[0], optimize=True)
    idxx, idxy = _local_dofs(tx), _local_dofs(ty)
    F = np.zeros(space.shape)
    np.add.at(F, (idxx[:, None, :, None], idxy[None, :, None, :]), loc)
    return F.ravel()


def fancy_grid_values(space, coeffs, tables, dorders):
    """Field derivative on the quadrature grid from a 4-index fancy gather
    of the element coefficient blocks."""
    if space.dims == 1:
        (t,) = tables
        idx = _local_dofs(t)
        return np.einsum("eqa,ea->eq", t.basis[dorders[0]], coeffs[idx])
    tx, ty = tables
    idxx, idxy = _local_dofs(tx), _local_dofs(ty)
    C = coeffs.reshape(space.shape)
    blocks = C[idxx[:, None, :, None], idxy[None, :, None, :]]
    return np.einsum(
        "eqa,efab,frb->eqfr", tx.basis[dorders[0]], blocks, ty.basis[dorders[1]],
        optimize=True,
    )


def element_matrices_1d(table, du, dv):
    """Per-element matrices of int B^(du)_a B^(dv)_b."""
    return np.einsum("eqa,eqb,eq->eab", table.basis[du], table.basis[dv], table.weights)


def chunked_assemble_2d(space, tables, pairs):
    """The 2D triplet assembly as the seed wrote it: chunks of x-elements of
    at most 2e6 triplets, each finalised by scipy, summed left to right."""
    tx, ty = tables
    idxx, idxy = _local_dofs(tx), _local_dofs(ty)
    nx1, ny1 = idxx.shape[1], idxy.shape[1]
    Ny = space.shape[1]
    rows2 = (idxx[:, None, :, None, None, None] * Ny + idxy[None, :, None, None, :, None])
    cols2 = (idxx[:, None, None, :, None, None] * Ny + idxy[None, :, None, None, None, :])
    n = space.n_dof
    acc = None
    # chunk over x-elements to bound the triplet arrays
    n_ex = idxx.shape[0]
    per_e = idxy.shape[0] * (nx1 * ny1) ** 2
    chunk = max(1, int(2e6 / per_e))
    for start in range(0, n_ex, chunk):
        sl = slice(start, min(start + chunk, n_ex))
        vals = np.zeros((sl.stop - sl.start, idxy.shape[0], nx1, nx1, ny1, ny1))
        for X, Y in pairs:
            vals += X[sl, None, :, :, None, None] * Y[None, :, None, None, :, :]
        shape6 = vals.shape
        r = np.broadcast_to(rows2[sl], shape6).ravel()
        c = np.broadcast_to(cols2[sl], shape6).ravel()
        part = scipy_coo_to_csr(r, c, vals.ravel(), (n, n))
        acc = part if acc is None else acc + part
    return acc.tocsr()


def seed_dirichlet_split(space, g=None):
    """The seed's Dirichlet layout: ``(interior, boundary, boundary_values)``
    from an explicit boundary list in 1D and a meshgrid edge mask in 2D, with
    boundary coefficients interpolating g at the Greville abscissae."""
    if space.dims == 1:
        (kv,) = space.kvs
        n = kv.n_basis
        boundary = np.array([0, n - 1])
        if g is None:
            vals = np.zeros(2)
        else:
            a, b = kv.domain
            vals = np.array([float(g(a)), float(g(b))])
    else:
        kvx, kvy = space.kvs
        nx, ny = space.shape
        coeffs = np.zeros((nx, ny))
        if g is not None:
            ax, bx = kvx.domain
            ay, by = kvy.domain
            gx = greville_abscissae(kvx)
            gy = greville_abscissae(kvy)
            coeffs[:, 0] = iga._interpolate_1d(kvx, np.array([g(x, ay) for x in gx]))
            coeffs[:, -1] = iga._interpolate_1d(kvx, np.array([g(x, by) for x in gx]))
            coeffs[0, :] = iga._interpolate_1d(kvy, np.array([g(ax, y) for y in gy]))
            coeffs[-1, :] = iga._interpolate_1d(kvy, np.array([g(bx, y) for y in gy]))
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        on_edge = (ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1)
        boundary = np.flatnonzero(on_edge.ravel())
        vals = coeffs.ravel()[boundary]
    boundary = np.asarray(boundary, dtype=int)
    mask = np.ones(space.n_dof, dtype=bool)
    mask[boundary] = False
    return np.flatnonzero(mask), boundary, np.asarray(vals, dtype=float)


def gauss_rule(n_points, span=(0.0, 1.0)):
    """Gauss-Legendre (points, weights) mapped to [a, b]; exact on
    polynomials of degree 2*n_points - 1."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    a, b = float(span[0]), float(span[1])
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def spline_point_value(space, coeffs, point):
    """Value of a spline at one point, from the active basis values."""
    evs = [eval_basis(kv, float(x)) for kv, x in zip(space.kvs, np.atleast_1d(point))]
    C = np.asarray(coeffs, dtype=float).reshape(space.shape)
    value = C[tuple(slice(ev.first_dof, ev.first_dof + len(ev.values)) for ev in evs)]
    for ev in reversed(evs):
        value = value @ ev.values
    return float(value)


def l2_projection(space, f):
    """Coefficients of the global L2 projection of a function onto the spline space."""
    tables = space.tables(1, 1)
    M = iga.assemble_mass(space)
    rhs = iga._scatter_load(space, tables, iga._call_on_grid(f, tables))
    return spla.spsolve(M.tocsc(), rhs)


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factors: Q has orthonormal columns, R is upper triangular
    with positive diagonal."""

    Q: np.ndarray
    R: np.ndarray


def seed_qr_factor(M) -> QRFactors:
    """The seed's thin QR by modified Gram-Schmidt, with its two passes
    accumulated into ``R`` in place."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    n, m = M.shape
    if n < m:
        raise ValueError(f"need rows >= cols, got shape {M.shape}")
    Q = np.empty((n, m))
    R = np.zeros((m, m))
    for j in range(m):
        v = M[:, j].copy()
        for _ in range(2):  # MGS pass + reorthogonalization pass
            s = Q[:, :j].T @ v
            R[:j, j] += s
            v -= Q[:, :j] @ s
        rjj = float(np.linalg.norm(v))
        lead = R[0, 0] if j > 0 else rjj
        if not np.isfinite(rjj) or rjj <= RANK_DROP_TOL * lead or rjj == 0.0:
            raise RankDeficient(j)
        R[j, j] = rjj
        Q[:, j] = v / rjj
    return QRFactors(Q, R)


class AndersonState:
    """The seed's Anderson history of (f_i, G(s_i)) pairs; at most m+1
    retained, newest last."""

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


def seed_anderson_step(state: AndersonState, s_k, G_sk) -> np.ndarray:
    """The seed's Anderson update, re-forming every difference of the
    stored pairs on each step."""
    s_k = np.asarray(s_k, dtype=float)
    G_sk = np.asarray(G_sk, dtype=float)
    f_k = G_sk - s_k
    state.push(f_k, G_sk)
    if state.depth == 0 or state.m == 0:
        return G_sk.copy()
    F, Gm = state.difference_matrices()
    F, Gm = F[:, -len(f_k):], Gm[:, -len(f_k):]
    while F.shape[1] > 0:
        try:
            fac = seed_qr_factor(F)
            theta = solve_upper_triangular(fac.R, fac.Q.T @ f_k)
            return G_sk - Gm @ theta
        except RankDeficient:
            F = F[:, 1:]
            Gm = Gm[:, 1:]
    return G_sk.copy()


def seed_anderson_solve(G, x0, m: int, tol: float, maxiter: int,
                        observer=None, timers: PhaseTimers | None = None):
    """The seed's AA(m) loop over :class:`AndersonState`."""
    hist = IterationHistory() if timers is None else IterationHistory(timers=timers)
    state = AndersonState(m)
    s = np.asarray(x0, dtype=float)
    for k in range(1, maxiter + 1):
        g = _apply(G, s, hist)
        x_next = seed_anderson_step(state, s, g)
        rel = _record(hist, k, x_next, s, observer)
        s = x_next
        if rel <= tol:
            hist.converged = True
            break
    return s, hist


def seed_extrapolate_shrinking(window, extrapolate, timers: PhaseTimers):
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


def seed_restarted_solve(G, x0, method: str, q: int, tol: float, maxiter: int,
                         observer=None, timers: PhaseTimers | None = None
                         ) -> tuple[np.ndarray, IterationHistory]:
    """The seed's restarted MPE/RRE, which keeps the cycle's iterates and
    re-forms the differences of every shrinking window.

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
        x, r_gen = seed_extrapolate_shrinking(window, extrapolate, hist.timers)
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
