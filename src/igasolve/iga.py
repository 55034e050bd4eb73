"""Galerkin assembly on tensor-product B-spline spaces (1D/2D).

Stiffness/mass matrices, nonlinear load vectors for the Bratu and
Monge-Ampere fixed-point maps, Dirichlet data and L2 error norms. A spline
function is its full coefficient vector on a :class:`SplineSpace`, and so
is its Dirichlet data: :func:`apply_dirichlet` interpolates the boundary
coefficients and returns them over a zero interior, with the interior dof
indices (the ``[1:-1]`` block in every direction) that a solve restricts to.

Assembly is vectorised per chunk of x-elements with per-direction Gauss
tables. A 2D matrix is built from the tensor-product structure: each
direction lays its 1D element matrices out as runs, one per band entry
(the terms that land on that 1D entry, in element order), and the terms
of a 2D entry are the outer product of an x-run and a y-run, formed as
dense blocks per y-run length and summed in place. No array holds one
index per term.

Order rule: wherever several terms land on one matrix entry or one load
coefficient, they are taken in input order (ascending element, then local
index). A load coefficient sums them left to right from zero, as
``np.add.at`` does: a load is one ``np.bincount`` over the space's
element-to-dof map :attr:`SplineSpace.element_dofs`. A matrix entry takes
its terms as one run in ascending (x-element, y-element) order, each term
(0.0 + X0 Y0) + X1 Y1 + ... over the (X, Y) pairs, and sums it as the
first term plus numpy's pairwise sum of the rest (``np.add.reduceat``),
per 2D chunk of x-elements. An entry in several chunks is their sums
added left to right; with more than one chunk, entries that come out
exactly zero are dropped, and a one-chunk matrix keeps them. That is the
order and the result of scipy's ``coo_matrix.sum_duplicates`` on each
chunk's element triplets, the chunks summed with csr + csr, so every
assembled matrix and load vector stays bit-for-bit the same.

The 2D grid values ``eqa,efab,frb->eqfr`` and element loads
``eqfr,eqa,frb->efab`` are ``np.einsum(..., optimize=True)`` calls: numpy
picks the contraction order from the operand shapes and runs each pair as a
batched matmul, so a field comes back in the memory layout of its last
product. :func:`field_on_grid` evaluates a load's source in that layout
(:func:`_field_axes`). The 1D ones are plain ``np.einsum`` calls, whose
bytes the optimized path would change.
"""

from __future__ import annotations

import logging
import math
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from . import bspline
from .bspline import ElementTable, KnotVector, greville_abscissae, tabulate
from .history import Diverged

log = logging.getLogger(__name__)

# Triplets per chunk of x-elements in 2D assembly. Each chunk reduces the run
# of an entry's terms in ascending (x-element, y-element) order as the first
# term plus the pairwise sum of the rest, and the chunks' sums are added left
# to right, so this partition is part of the rounding of every assembled
# entry: changing it changes last bits. A chunk's temporaries are about 8 B
# per triplet. A 1D space is one chunk.
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
        """Per-direction quadrature tables with p+1+extra Gauss points per span,
        read-only, as every solve on the space shares them."""
        key = (extra, max_deriv)
        if key not in self._table_cache:
            tables = tuple(tabulate(kv, kv.p + 1 + extra, max_deriv) for kv in self.kvs)
            for t in tables:
                for x in (t.points, t.weights, t.basis, t.first_dof):
                    x.setflags(write=False)
            self._table_cache[key] = tables
        return self._table_cache[key]

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """Flat dof of every element's local functions, (n_el, p+1) in 1D and
        (n_ex, n_ey, px+1, py+1) in 2D: the per-direction maps' tensor product.

        Shared like the tables but left writable: ``np.bincount`` copies a
        read-only index array on every call (4.5 MiB per load at p=5 N=128).
        """
        ix, *iy = [(kv.element_spans - kv.p)[:, None] + np.arange(kv.p + 1) for kv in self.kvs]
        if not iy:
            return ix
        return ix[:, None, :, None] * self.shape[1] + iy[0][None, :, None, :]

    def __repr__(self):
        return f"SplineSpace(p={self.degrees}, n_el={tuple(kv.n_elements for kv in self.kvs)})"


def make_space(p, n_elements, dims: int = 1) -> SplineSpace:
    """Uniform open spline space on [0, 1]^dims, same degree and resolution per direction."""
    kv = bspline.make_open_uniform_knots(p, n_elements)
    return SplineSpace((kv,) * dims)


_GATHER = "eqa,efab,frb->eqfr"


@cache
def _field_axes(bx: tuple, blocks: tuple, by: tuple) -> tuple[int, ...]:
    """The grid axes (ex, qx, ey, qy) of a 2D field from outermost to
    innermost in memory, for gather operands of these shapes: the layout
    ``np.einsum`` leaves its last product in, read off one probe."""
    probe = np.einsum(_GATHER, np.zeros(bx), np.zeros(blocks), np.zeros(by), optimize=True)
    return tuple(int(k) for k in np.argsort(probe.strides)[::-1])


def _grid_values(space: SplineSpace, coeffs: np.ndarray, tables, *dorders) -> list[np.ndarray]:
    """Evaluate a coefficient vector's derivatives on the quadrature grid.

    Each of ``dorders`` is one tuple of per-direction derivative orders; one
    array per tuple comes back, of shape (n_el, nq) in 1D and
    (n_ex, nqx, n_ey, nqy) in 2D, from one gather of the coefficients over
    ``space.element_dofs``. A 2D field is laid out as :func:`_field_axes`
    says.
    """
    blocks = coeffs[space.element_dofs]
    if space.dims == 2:
        tx, ty = tables
        return [np.einsum(_GATHER, tx.basis[dx], blocks, ty.basis[dy], optimize=True)
                for dx, dy in dorders]
    (t,) = tables
    return [np.einsum("eqa,ea->eq", t.basis[dx], blocks) for (dx,) in dorders]


def _on_grid(per_direction) -> tuple[np.ndarray, ...]:
    """Per-direction (n_el, nq) arrays (points or weights), each reshaped to
    broadcast over the (n_el, nq) or (n_ex, nqx, n_ey, nqy) quadrature grid."""
    if len(per_direction) == 1:
        return tuple(per_direction)
    ax, ay = per_direction
    return ax[:, :, None, None], ay[None, None, :, :]


def _scatter_load(space: SplineSpace, tables, integrand: np.ndarray) -> np.ndarray:
    """Load vector F_i = sum of w * integrand * B_i over the quadrature grid.

    Element terms are added by ``np.bincount`` over ``space.element_dofs``,
    in the order ``np.add.at`` would apply them: ascending element (x-major
    in 2D), then local function, from zero.
    """
    if space.dims == 1:
        (t,) = tables
        loc = np.einsum("eq,eq,eqa->ea", integrand, t.weights, t.basis[0])
    else:
        tx, ty = tables
        wx, wy = _on_grid([tx.weights, ty.weights])
        # C-ordered, the layout in which the first matmul takes it without a copy
        weighted = np.multiply(integrand, wx, order="C")
        weighted *= wy
        loc = np.einsum("eqfr,eqa,frb->efab", weighted, tx.basis[0], ty.basis[0], optimize=True)
    return np.bincount(space.element_dofs.ravel(), weights=loc.ravel(), minlength=space.n_dof)


def _element_matrices_1d(table: ElementTable, du: int, dv: int) -> np.ndarray:
    """Per-element (p+1) x (p+1) matrices of int B^(du)_a B^(dv)_b."""
    return np.einsum("eqa,eqb,eq->eab", table.basis[du], table.basis[dv], table.weights)


@cache
def _local_pattern(p: int):
    """Per degree: the local indices a, the band entry (row a, offset
    b - a + p, flat) of each (a, b), the offsets -p..p and the column d of
    the rank of (a, b), p - max(a, b). Read-only, as every caller shares them."""
    a = np.arange(p + 1)
    pattern = a, 2 * p * a[:, None] + a + p, np.arange(-p, p + 1), p - np.maximum.outer(a, a)
    for x in pattern:
        x.flags.writeable = False
    return pattern


def _runs(first_dof: np.ndarray, p: int, start: int, stop: int, by_length: bool = False):
    """The band of the elements ``start..stop-1`` of one direction, as runs.

    Local functions a and b of an element give the entry (i, j) =
    (first + a, first + b); the elements that give one entry are the
    consecutive ones with first dof in [max(i, j) - p, min(i, j)], and the
    rank of an element is its place among them. The band has the rows i
    from ``first_dof[start]`` to ``first_dof[stop-1] + p`` and the offsets
    o = j - i + p in 0..2p. Every band entry that some element gives owns a
    run of its terms in rank order; the runs follow each other in band
    order, or with ``by_length`` by ascending length, then band order.

    Returns the band's ``counts``, how many elements give each entry, and
    ``cols``, its j, both (rows, 2p+1); the flat band index, length and
    start of each run; and per (element, a, b) the place of its term among
    the runs.
    """
    a, local_cell, offsets, d = _local_pattern(p)
    first = first_dof[start:stop]
    cell = ((first - first[0]) * (2 * p + 1))[:, None, None] + local_cell
    cols = np.arange(first[0], first[-1] + p + 1)[:, None] + offsets
    counts = np.bincount(cell.ravel(), minlength=cols.size)
    # column k: the first element that gives the entries with max(a, b) = p - k
    lo = np.maximum(first_dof.searchsorted(first[:, None] - a), start)
    rank = (np.arange(start, stop)[:, None] - lo)[:, d]
    entry = counts.nonzero()[0]
    if by_length:
        entry = entry[counts[entry].argsort(kind="stable")]
    length = counts[entry]
    begin = length.cumsum() - length
    at = np.empty_like(counts)
    at[entry] = begin
    return counts.reshape(cols.shape), cols, entry, length, begin, at[cell] + rank


def _lay_out(values: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Element-matrix ``values`` moved to their ``place`` among the runs."""
    out = np.empty(place.size)
    out[place] = values
    return out


def _y_runs(first_dof: np.ndarray, p: int):
    """A whole direction's band as :func:`_runs` grouped by run length.

    Returns which band entries some element gives and how many per row,
    their columns, the place of each element term among the runs and, per
    run length v, the band rows and offsets of its entries (as columns) and
    the start and number of its runs.
    """
    counts, cols, entry, length, begin, place = _runs(first_dof, p, 0, len(first_dof),
                                                      by_length=True)
    row, offset = np.divmod(entry, 2 * p + 1)
    bounds = length.searchsorted(np.arange(1, p + 3))
    groups = [(v, row[lo:hi, None], offset[lo:hi, None], begin[lo], hi - lo)
              for v, lo, hi in zip(range(1, p + 2), bounds[:-1], bounds[1:]) if hi > lo]
    present = counts > 0
    return present, present.sum(1), cols, place, groups


# The y direction of a 1D space: one element of degree 0. Read-only, as
# every 1D assembly shares them.
_POINT = _y_runs(np.zeros(1, dtype=np.intp), 0)
_ONE = np.ones((1, 1, 1))
for _x in (*_POINT[:4], *_POINT[4][0][1:3], _ONE):
    _x.setflags(write=False)
del _x


def _assemble(tables, pairs) -> sp.csr_matrix:
    """Sum of kron(X_e, Y_f) element blocks for each (X, Y) pair.

    ``pairs`` is a list of per-direction element-matrix arrays, e.g.
    [(Kx, My), (Mx, Ky)] for the 2D stiffness bilinear form. With one table
    the space is 1D and every Y is ``_ONE``, its y direction's one element.

    The terms of an entry come from the element pairs (ex, ey) of a run of
    x-terms and a run of v y-terms (see :func:`_runs`), term ``kx * v + ky``
    being (0.0 + X0 Y0) + X1 Y1 + ... of the pair (kx, ky). Per chunk of
    x-elements and y-run length v, the block T[y, x-term, ky] holds each
    entry's terms in that order, one after the other, so one
    ``np.add.reduceat`` sums them into the chunk's dense (row, offset) band.
    The chunk's rows are one stretch of the CSR arrays; the first chunk
    writes its band's entries there and each later one adds them, so an
    entry in several chunks is their sum left to right. With more than one
    chunk, exact zeros are dropped at the end, as scipy's csr + csr does.
    """
    (X0, Y0), fdx = pairs[0], tables[0].first_dof
    px, n_ex = X0.shape[1] - 1, len(fdx)
    if len(tables) == 1:
        y_present, y_count, cols_y, place_y, groups = _POINT
        chunk = n_ex
    else:
        y_present, y_count, cols_y, place_y, groups = _y_runs(tables[1].first_dof, Y0.shape[1] - 1)
        chunk = max(1, int(CHUNK_TRIPLETS / (X0[0].size * Y0.size)))  # triplets per x-element
    Ny, Wy = y_present.shape
    Wx, n = 2 * px + 1, (fdx[-1] + px + 1) * Ny
    y_runs = [_lay_out(Y, place_y) for _, Y in pairs]
    for start in range(0, n_ex, chunk):
        stop = min(start + chunk, n_ex)
        cx, cols_x, x_entry, _, begin_x, place_x = _runs(fdx, px, start, stop)
        if start == 0:  # the CSR structure, from the whole x band
            x_present = (cx if stop == n_ex else _runs(fdx, px, 0, n_ex)[0]) > 0
            per_row = np.multiply.outer(x_present.sum(1), y_count)
            nnz = int(per_row.sum())
            idx = np.int32 if max(n, nnz) < 2**31 else np.int64  # as scipy's COO picks
            indptr = np.zeros(n + 1, dtype=idx)
            per_row.cumsum(out=indptr[1:])
            data, cols = np.zeros(nnz), np.empty(nnz, dtype=idx)
        x_runs = [_lay_out(X[start:stop], place_x) for X, _ in pairs]
        x_row, x_offset = np.divmod(x_entry, Wx)
        band = np.zeros((len(cx), Ny, Wx, Wy))
        for v, y_row, y_offset, y_begin, m in groups:
            y_blocks = [r[y_begin:y_begin + m * v].reshape(m, v) for r in y_runs]
            T = x_runs[0][None, :, None] * y_blocks[0][:, None, :]
            T += 0.0
            for xr, yr in zip(x_runs[1:], y_blocks[1:]):
                T += xr[None, :, None] * yr[:, None, :]
            band[x_row, y_row, x_offset, y_offset] = np.add.reduceat(
                T.reshape(m, -1), begin_x * v, axis=1)
            del T
        # the chunk's rows, with every entry of theirs that any chunk has
        r0 = fdx[start]
        present = x_present[r0:r0 + len(cx), None, :, None] & y_present[None, :, None, :]
        stretch = slice(indptr[r0 * Ny], indptr[(r0 + len(cx)) * Ny])
        if start == 0:
            data[stretch] = band[present]
        else:
            data[stretch] += band[present]
        cols[stretch] = (cols_x[:, None, :, None] * Ny + cols_y[None, :, None, :])[present]
    if chunk < n_ex and not (kept := data != 0).all():
        data, cols = data[kept], cols[kept]
        indptr = np.concatenate(([0], kept.cumsum()))[indptr].astype(idx)
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def assemble_stiffness(space: SplineSpace) -> sp.csr_matrix:
    """Full stiffness matrix, entry (i,j) = int grad B_i . grad B_j."""
    tables = space.tables(0, 1)
    if space.dims == 1:
        return _assemble(tables, [(_element_matrices_1d(tables[0], 1, 1), _ONE)])
    tx, ty = tables
    Kx, Mx = _element_matrices_1d(tx, 1, 1), _element_matrices_1d(tx, 0, 0)
    Ky, My = _element_matrices_1d(ty, 1, 1), _element_matrices_1d(ty, 0, 0)
    return _assemble(tables, [(Kx, My), (Mx, Ky)])


def assemble_mass(space: SplineSpace) -> sp.csr_matrix:
    """Full mass matrix, entry (i,j) = int B_i B_j."""
    tables = space.tables(0, 1)
    if space.dims == 1:
        return _assemble(tables, [(_element_matrices_1d(tables[0], 0, 0), _ONE)])
    tx, ty = tables
    Mx = _element_matrices_1d(tx, 0, 0)
    My = _element_matrices_1d(ty, 0, 0)
    return _assemble(tables, [(Mx, My)])


def _call_on_grid(func, tables, axes=None):
    """``func`` of one coordinate per direction on the quadrature grid. With
    ``axes``, the grid axes from outermost to innermost in memory, it is
    evaluated in that layout; its values are the same."""
    pts = _on_grid([t.points for t in tables])
    if axes is not None:
        pts = [np.ascontiguousarray(x.transpose(axes)) for x in pts]
    vals = np.broadcast_to(np.asarray(func(*pts), dtype=float), np.broadcast(*pts).shape)
    return vals if axes is None else vals.transpose(np.argsort(axes))


def field_on_grid(space: SplineSpace, func):
    """``func`` on the ``space.tables()`` quadrature grid of the loads, laid
    out in memory like the fields they evaluate there (a load's source)."""
    tables = space.tables()
    axes = None
    if space.dims == 2:
        tx, ty = tables
        axes = _field_axes(tx.basis.shape[1:], space.element_dofs.shape, ty.basis.shape[1:])
    return _call_on_grid(func, tables, axes)


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

