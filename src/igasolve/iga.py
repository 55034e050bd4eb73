"""Galerkin assembly on tensor-product B-spline spaces (1D/2D).

Stiffness/mass matrices, nonlinear load vectors for the Bratu and
Monge-Ampere fixed-point maps, Dirichlet data and L2 error norms. A spline
function is its full coefficient vector on a :class:`SplineSpace`, and so
is its Dirichlet data: :func:`apply_dirichlet` interpolates the boundary
coefficients and returns them over a zero interior, with the interior dof
indices (the ``[1:-1]`` block in every direction) that a solve restricts to.

Assembly loops run element by element with per-direction Gauss tables;
2D local blocks are formed as outer products of 1D element matrices
(sum factorization) and scattered into global coordinate triplets.

Order rule: wherever several terms land on one matrix entry or one load
coefficient, they are taken in input order (ascending element, then local
index). A load coefficient sums them left to right from zero, as
``np.add.at`` does. A matrix entry sums them as ``coo_matrix.sum_duplicates``
does (see :func:`~igasolve.linalg.coo_to_csr`): the first term plus numpy's
pairwise sum of the rest, per 2D chunk of x-elements, the chunks added left
to right. The structured kernels below keep these orders, so every
assembled matrix and load vector stays bit-for-bit the same.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from . import bspline
from .bspline import ElementTable, KnotVector, greville_abscissae, tabulate
from .history import Diverged
from .linalg import coo_to_csr

log = logging.getLogger(__name__)

# Triplets per chunk of x-elements in 2D assembly. Each chunk is finalised on
# its own and the chunks are summed left to right, so this partition is part
# of the rounding of every assembled entry: changing it changes last bits.
CHUNK_TRIPLETS = 2_000_000


class ExpOverflow(Diverged):
    """The lagged Bratu iterate exceeds the exp() range at a quadrature point.

    Signals divergence of the outer iteration.
    """


class DegreeTooLow(ValueError):
    """Operation requires second derivatives (p >= 2)."""


class SplineSpace:
    """Tensor-product B-spline space on the unit interval or square.

    Degrees of freedom are numbered x-major in 2D: flat = ix * Ny + iy.
    """

    def __init__(self, knotvectors):
        kvs = tuple(knotvectors)
        if len(kvs) not in (1, 2):
            raise ValueError("only 1D and 2D spaces are supported")
        self.kvs = kvs
        self._table_cache: dict = {}

    @property
    def dims(self) -> int:
        return len(self.kvs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(kv.n_basis for kv in self.kvs)

    @property
    def n_dof(self) -> int:
        return int(np.prod(self.shape))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(kv.p for kv in self.kvs)

    def tables(self, extra: int = 0, max_deriv: int = 1) -> tuple[ElementTable, ...]:
        """Per-direction quadrature tables with p+1+extra Gauss points per span."""
        key = (extra, max_deriv)
        if key not in self._table_cache:
            self._table_cache[key] = tuple(
                tabulate(kv, kv.p + 1 + extra, max_deriv) for kv in self.kvs
            )
        return self._table_cache[key]

    def __repr__(self):
        return f"SplineSpace(p={self.degrees}, n_el={tuple(kv.n_elements for kv in self.kvs)})"


def make_space(p, n_elements, dims: int = 1) -> SplineSpace:
    """Uniform open spline space on [0, 1]^dims, same degree and resolution per direction."""
    kv = bspline.make_open_uniform_knots(p, n_elements)
    return SplineSpace((kv,) * dims)


def _local_dof_indices(table: ElementTable) -> np.ndarray:
    # (n_el, p+1) global dof index of each local function
    p1 = table.basis.shape[3]
    return table.first_dof[:, None] + np.arange(p1)[None, :]


def _grid_values(space: SplineSpace, coeffs: np.ndarray, tables, *dorders) -> list[np.ndarray]:
    """Evaluate a coefficient vector's derivatives on the quadrature grid.

    Each of ``dorders`` is one tuple of per-direction derivative orders; one
    array per tuple comes back, of shape (n_el, nq) in 1D and
    (n_ex, nqx, n_ey, nqy) in 2D. The coefficient blocks are gathered once.
    """
    if space.dims == 1:
        (t,) = tables
        blocks = coeffs[_local_dof_indices(t)]
        return [np.einsum("eqa,ea->eq", t.basis[dx], blocks) for (dx,) in dorders]
    tx, ty = tables
    # (n_ex, n_ey, px+1, py+1) coefficient blocks, gathered as whole windows
    windows = sliding_window_view(coeffs.reshape(space.shape),
                                  (tx.basis.shape[3], ty.basis.shape[3]))
    blocks = np.ascontiguousarray(windows[np.ix_(tx.first_dof, ty.first_dof)])
    return [np.einsum("eqa,efab,frb->eqfr", tx.basis[dx], blocks, ty.basis[dy], optimize=True)
            for dx, dy in dorders]


def _on_grid(per_direction) -> tuple[np.ndarray, ...]:
    """Per-direction (n_el, nq) arrays (points or weights), each reshaped to
    broadcast over the (n_el, nq) or (n_ex, nqx, n_ey, nqy) quadrature grid."""
    if len(per_direction) == 1:
        return tuple(per_direction)
    ax, ay = per_direction
    return ax[:, :, None, None], ay[None, None, :, :]


def _shifted_slices(table: ElementTable) -> list[tuple[slice, slice, int]]:
    """(elements, dofs, a) triples: local function a of a run of elements
    with consecutive first dofs covers one slice of dofs.

    Ordered by run, then a from p down to 0. Adding the triples in this
    order hands each dof its element terms in ascending element order.
    """
    return [(slice(lo, hi), slice(dof + a, dof + a + hi - lo), a)
            for lo, hi, dof in table.dof_runs for a in reversed(range(table.basis.shape[3]))]


def _scatter_load(space: SplineSpace, tables, integrand: np.ndarray) -> np.ndarray:
    """Load vector F_i = sum of w * integrand * B_i over the quadrature grid.

    Element terms are added with one shifted slice add per local function
    and direction (see :func:`_shifted_slices`), in the order ``np.add.at``
    would apply them: ascending element (x-major in 2D), from zero.
    """
    if space.dims == 1:
        (t,) = tables
        loc = np.einsum("eq,eq,eqa->ea", integrand, t.weights, t.basis[0])
    else:
        tx, ty = tables
        wx, wy = _on_grid([tx.weights, ty.weights])
        loc = np.einsum("eqfr,eqa,frb->efab", integrand * wx * wy, tx.basis[0], ty.basis[0],
                        optimize=True)
    F = np.zeros(space.shape)
    for parts in itertools.product(*map(_shifted_slices, tables)):
        elements, dofs, local = zip(*parts)
        F[dofs] += loc[elements + local]
    return F.ravel()


def _element_matrices_1d(table: ElementTable, du: int, dv: int) -> np.ndarray:
    """Per-element (p+1) x (p+1) matrices of int B^(du)_a B^(dv)_b."""
    return np.einsum("eqa,eqb,eq->eab", table.basis[du], table.basis[dv], table.weights)


def _assemble_1d(space: SplineSpace, table: ElementTable, du: int, dv: int) -> sp.csr_matrix:
    vals = _element_matrices_1d(table, du, dv)
    idx = _local_dof_indices(table)
    rows = np.broadcast_to(idx[:, :, None], vals.shape)
    cols = np.broadcast_to(idx[:, None, :], vals.shape)
    n = space.n_dof
    return coo_to_csr(rows.ravel(), cols.ravel(), vals.ravel(), (n, n))


def _assemble_2d(space: SplineSpace, tables, pairs) -> sp.csr_matrix:
    """Scatter sum of kron(X_e, Y_f) element blocks for each (X, Y) pair.

    ``pairs`` is a list of per-direction element-matrix arrays, e.g.
    [(Kx, My), (Mx, Ky)] for the stiffness bilinear form.
    """
    tx, ty = tables
    idxx, idxy = _local_dof_indices(tx), _local_dof_indices(ty)
    nx1, ny1 = idxx.shape[1], idxy.shape[1]
    Ny = space.shape[1]
    rows2 = (idxx[:, None, :, None, None, None] * Ny + idxy[None, :, None, None, :, None])
    cols2 = (idxx[:, None, None, :, None, None] * Ny + idxy[None, :, None, None, None, :])
    n = space.n_dof
    acc = None
    n_ex = idxx.shape[0]
    per_e = idxy.shape[0] * (nx1 * ny1) ** 2
    chunk = max(1, int(CHUNK_TRIPLETS / per_e))
    for start in range(0, n_ex, chunk):
        sl = slice(start, min(start + chunk, n_ex))
        vals = np.zeros((sl.stop - sl.start, idxy.shape[0], nx1, nx1, ny1, ny1))
        for X, Y in pairs:
            vals += X[sl, None, :, :, None, None] * Y[None, :, None, None, :, :]
        shape6 = vals.shape
        r = np.broadcast_to(rows2[sl], shape6).ravel()
        c = np.broadcast_to(cols2[sl], shape6).ravel()
        part = coo_to_csr(r, c, vals.ravel(), (n, n))
        acc = part if acc is None else acc + part
    return acc.tocsr()


def assemble_stiffness(space: SplineSpace) -> sp.csr_matrix:
    """Full stiffness matrix, entry (i,j) = int grad B_i . grad B_j."""
    tables = space.tables(0, 1)
    if space.dims == 1:
        return _assemble_1d(space, tables[0], 1, 1)
    tx, ty = tables
    Kx, Mx = _element_matrices_1d(tx, 1, 1), _element_matrices_1d(tx, 0, 0)
    Ky, My = _element_matrices_1d(ty, 1, 1), _element_matrices_1d(ty, 0, 0)
    return _assemble_2d(space, tables, [(Kx, My), (Mx, Ky)])


def assemble_mass(space: SplineSpace) -> sp.csr_matrix:
    """Full mass matrix, entry (i,j) = int B_i B_j."""
    tables = space.tables(0, 1)
    if space.dims == 1:
        return _assemble_1d(space, tables[0], 0, 0)
    tx, ty = tables
    Mx = _element_matrices_1d(tx, 0, 0)
    My = _element_matrices_1d(ty, 0, 0)
    return _assemble_2d(space, tables, [(Mx, My)])


def _call_on_grid(func, tables):
    """``func`` of one coordinate per direction on the quadrature grid."""
    pts = _on_grid([t.points for t in tables])
    vals = np.asarray(func(*pts), dtype=float)
    return np.broadcast_to(vals, np.broadcast(*pts).shape)


def bratu_load(space: SplineSpace, f_vals, lam: float, coeffs: np.ndarray) -> np.ndarray:
    """Load vector F_i = int (f - lam * exp(u)) B_i over all dof.

    ``f_vals`` holds the source on the ``space.tables()`` quadrature grid
    (or a broadcastable scalar) and ``coeffs`` the full coefficients of the
    lagged iterate u. Raises :class:`ExpOverflow` when u exceeds 700
    anywhere, which signals a diverging outer iteration.
    """
    tables = space.tables(0, 1)
    (u_vals,) = _grid_values(space, coeffs, tables, (0,) * space.dims)
    if np.max(u_vals) > 700.0:
        raise ExpOverflow("exp argument exceeds 700")
    return _scatter_load(space, tables, f_vals - lam * np.exp(u_vals))


def monge_ampere_operator(lap: np.ndarray, det_hess: np.ndarray, f_vals):
    """Pointwise G(u) = ((lap u)^2 + 2 (f - det H(u)))^(1/2), radicand clamped at 0.

    Returns the values and the fraction of clamped points.
    """
    radicand = lap**2 + 2.0 * (f_vals - det_hess)
    clamped = radicand < 0.0
    frac = float(np.mean(clamped))
    vals = np.maximum(radicand, 0.0) ** 0.5
    return vals, frac


def monge_ampere_load(space: SplineSpace, f_vals, coeffs: np.ndarray) -> np.ndarray:
    """Load vector F_i = -int G(u) B_i for the Laplacian fixed-point map.

    ``f_vals`` holds the source on the ``space.tables()`` quadrature grid
    and ``coeffs`` the full coefficients of the lagged iterate u. Logs a
    warning when the radicand is clamped on more than 1% of the points.
    """
    tables = space.tables(0, 2)
    u_xx, u_yy, u_xy = _grid_values(space, coeffs, tables, (2, 0), (0, 2), (1, 1))
    g_vals, frac = monge_ampere_operator(u_xx + u_yy, u_xx * u_yy - u_xy**2, f_vals)
    if frac > 0.01:
        log.warning("negative radicand clamped on %.1f%% of quadrature points", 100 * frac)
    return _scatter_load(space, tables, -g_vals)


def _interpolate_1d(kv: KnotVector, values_at_greville: np.ndarray) -> np.ndarray:
    """Spline coefficients collocating the given values at the Greville points."""
    pts = greville_abscissae(kv)
    spans = np.array([bspline.find_span(kv, float(t)) for t in pts])
    values = bspline._basis_derivs(kv, pts, spans, 0)[0]
    n = kv.n_basis
    B = np.zeros((n, n))
    cols = (spans - kv.p)[:, None] + np.arange(kv.p + 1)
    B[np.arange(n)[:, None], cols] = values.T
    return np.linalg.solve(B, values_at_greville)


def apply_dirichlet(space: SplineSpace, g=None) -> tuple[np.ndarray, np.ndarray]:
    """Interior dof and boundary data for the whole boundary of the interval/square.

    Returns ``(interior, x_boundary)``: the flat indices of the interior
    dof, which are the ``[1:-1]`` block in every direction, and the boundary
    data as a full coefficient vector with a zero interior. ``g`` is None
    for homogeneous data, else a callable evaluated with one argument per
    dimension. Boundary coefficients interpolate g at the Greville
    abscissae of the boundary dof.
    """
    interior = np.flatnonzero(np.pad(np.ones([n - 2 for n in space.shape], dtype=bool), 1))
    coeffs = np.zeros(space.shape)
    if g is not None and space.dims == 1:
        a, b = space.kvs[0].domain
        coeffs[[0, -1]] = float(g(a)), float(g(b))
    elif g is not None:
        kvx, kvy = space.kvs
        ax, bx = kvx.domain
        ay, by = kvy.domain
        gx = greville_abscissae(kvx)
        gy = greville_abscissae(kvy)
        coeffs[:, 0] = _interpolate_1d(kvx, np.array([g(x, ay) for x in gx]))
        coeffs[:, -1] = _interpolate_1d(kvx, np.array([g(x, by) for x in gx]))
        coeffs[0, :] = _interpolate_1d(kvy, np.array([g(ax, y) for y in gy]))
        coeffs[-1, :] = _interpolate_1d(kvy, np.array([g(bx, y) for y in gy]))
    return interior, coeffs.ravel()


def l2_error(space: SplineSpace, coeffs, exact) -> float:
    """sqrt(int (u_h - exact)^2) of the spline with full coefficient vector
    ``coeffs``, with p+2 Gauss points per span."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if coeffs.size != space.n_dof:
        raise ValueError(f"{coeffs.size} coefficients for a space of {space.n_dof} dof")
    tables = space.tables(1, 1)
    (u_vals,) = _grid_values(space, coeffs, tables, (0,) * space.dims)
    diff2 = (u_vals - _call_on_grid(exact, tables)) ** 2
    weights = math.prod(_on_grid([t.weights for t in tables]))
    return float(np.sqrt(np.sum(diff2 * weights)))

