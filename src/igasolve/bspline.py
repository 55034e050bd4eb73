"""Open knot vectors, Cox-de Boor basis evaluation, Gauss quadrature on knot
spans, and knot insertion (the two-scale relation of nested spaces).

Basis values and derivatives follow the classical triangular-table algorithm
for the recurrence

    N^p_j(t) = (t - t_j)/(t_{j+p} - t_j) N^{p-1}_j(t)
             + (t_{j+p+1} - t)/(t_{j+p+1} - t_{j+1}) N^{p-1}_{j+1}(t)

with any 0/0 term taken as 0. Only the p+1 functions active on the span
containing t are computed. One kernel evaluates the table vectorised over
points: ``tabulate`` passes every Gauss point of every element at once, and
``eval_basis`` a single point. Each Gauss-Legendre rule is computed once per
point count and shared, read-only, by every later ``tabulate``.

Knot insertion builds the two-scale matrix in one left-to-right pass over
the sorted values (Boehm, CAD 12(4), 1980; Piegl & Tiller, The NURBS Book,
section 5.3). Its bytes are those of the product of one Boehm matrix per
knot as scipy forms it: each row's columns in scipy's stored order (reversed
by every insertion), and entries that sum to exactly 0 dropped. The
multigrid Galerkin products accumulate in that stored order, so the order is
kept, not sorted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class OutOfDomain(Exception):
    """Evaluation point outside the knot vector's domain."""


class UnsupportedOrder(Exception):
    """Gauss rule order outside the supported 1..MAX_GAUSS_POINTS range."""


MAX_GAUSS_POINTS = 16


class KnotVector:
    """Open knot sequence of degree p with N = len(knots) - p - 1 basis functions.

    The first and last knots must repeat exactly p+1 times (open vector), the
    sequence must be finite and non-decreasing, and no interior knot may
    repeat more than p+1 times (a basis function would vanish identically).
    """

    def __init__(self, degree: int, knots):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or len(knots) < 2 * (degree + 1):
            raise ValueError("too few knots for the given degree")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")
        p = degree
        if not (np.all(knots[: p + 1] == knots[0]) and knots[p + 1] > knots[0]):
            raise ValueError("first knot must repeat exactly p+1 times")
        if not (np.all(knots[-(p + 1):] == knots[-1]) and knots[-(p + 2)] < knots[-1]):
            raise ValueError("last knot must repeat exactly p+1 times")
        if np.unique(knots, return_counts=True)[1].max() > p + 1:
            raise ValueError(f"an interior knot repeats more than p+1 = {p + 1} times")
        self.p = p
        self.knots = knots
        self.knots.flags.writeable = False

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.p - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.p]), float(self.knots[-self.p - 1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (element boundaries)."""
        return np.unique(self.knots)

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def element_spans(self) -> np.ndarray:
        """Span index of every nonempty knot interval, left to right."""
        return np.flatnonzero(np.diff(self.knots) > 0)

    def __repr__(self):
        a, b = self.domain
        return f"KnotVector(p={self.p}, n_elements={self.n_elements}, domain=[{a}, {b}])"


@dataclass(frozen=True)
class BasisEvaluation:
    """Active basis values (and derivatives) at one parameter value.

    ``derivs[r, j]`` is the r-th derivative of basis function
    ``span_index - p + j``; row 0 holds the values themselves.
    """

    span_index: int
    derivs: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.derivs[0]

    def derivatives(self, order: int) -> np.ndarray:
        return self.derivs[order]

    @property
    def first_dof(self) -> int:
        return self.span_index - (self.derivs.shape[1] - 1)


def make_open_uniform_knots(p: int, n_elements: int) -> KnotVector:
    """Open uniform knot vector with n_elements spans on [0, 1].

    The basis has N = n_elements + p functions.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    inner = np.linspace(0.0, 1.0, n_elements + 1)
    knots = np.concatenate([np.full(p, 0.0), inner, np.full(p, 1.0)])
    return KnotVector(p, knots)


def find_span(kv: KnotVector, t: float) -> int:
    """Index j of the nonempty span with t in [t_j, t_{j+1}).

    The right domain endpoint belongs to the last span.
    """
    a, b = kv.domain
    if not a <= t <= b:  # NaN fails both comparisons
        raise OutOfDomain(f"t={t} outside [{a}, {b}]")
    if t >= b:
        return kv.n_basis - 1
    return int(np.searchsorted(kv.knots, t, side="right") - 1)


def _basis_derivs(kv: KnotVector, t, spans, max_deriv: int) -> np.ndarray:
    """Active basis derivatives at many points, each with its span index.

    ``out[r, j, m]`` is the r-th derivative of basis function
    ``spans[m] - p + j`` at ``t[m]``. Every point goes through the same
    scalar operations in the same order as the one-point recurrence, so the
    values do not depend on how points are batched.
    """
    p = kv.p
    if max_deriv < 0 or max_deriv > p:
        raise ValueError(f"max_deriv must be in [0, {p}]")
    U = kv.knots
    n = max_deriv
    t = np.asarray(t, dtype=float)
    spans = np.asarray(spans)
    zero = np.zeros_like(t)
    one = np.ones_like(t)

    # Triangular table of lower-degree values and knot differences;
    # ndu[a][b] is one array over the points.
    ndu = [[None] * (p + 1) for _ in range(p + 1)]
    left = [None] * (p + 1)
    right = [None] * (p + 1)
    ndu[0][0] = one
    for j in range(1, p + 1):
        left[j] = t - U[spans + 1 - j]
        right[j] = U[spans + j] - t
        saved = zero
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved

    ders = np.zeros((n + 1, p + 1, t.size))
    for r in range(p + 1):
        ders[0, r] = ndu[r][p]

    if n > 0:
        for r in range(p + 1):
            a2 = [[None] * (p + 1), [None] * (p + 1)]
            s1, s2 = 0, 1
            a2[0][0] = one
            for k in range(1, n + 1):
                d = zero
                rk = r - k
                pk = p - k
                if r >= k:
                    a2[s2][0] = a2[s1][0] / ndu[pk + 1][rk]
                    d = a2[s2][0] * ndu[rk][pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a2[s2][j] = (a2[s1][j] - a2[s1][j - 1]) / ndu[pk + 1][rk + j]
                    d = d + a2[s2][j] * ndu[rk + j][pk]
                if r <= pk:
                    a2[s2][k] = -a2[s1][k - 1] / ndu[pk + 1][r]
                    d = d + a2[s2][k] * ndu[r][pk]
                ders[k, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, n + 1):
            ders[k] *= fac
            fac *= p - k

    return ders


def eval_basis(kv: KnotVector, t: float, max_deriv: int = 0) -> BasisEvaluation:
    """Values and derivatives of the p+1 basis functions active at t."""
    i = find_span(kv, t)
    ders = _basis_derivs(kv, [t], [i], max_deriv)
    return BasisEvaluation(span_index=i, derivs=ders[:, :, 0])


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Knot averages xi*_i = (t_{i+1} + ... + t_{i+p}) / p, one per basis function."""
    p, U = kv.p, kv.knots
    csum = np.concatenate([[0.0], np.cumsum(U)])
    # differences of a running sum can round past the domain end
    return np.clip((csum[p + 1: p + 1 + kv.n_basis] - csum[1: 1 + kv.n_basis]) / p, *kv.domain)


@functools.cache
def _legendre_nodes(n_points: int):
    """Gauss-Legendre nodes and weights on [-1, 1], as read-only arrays.

    ``leggauss`` solves an eigenproblem on every call; the cache keeps one
    rule per valid point count (a refused count raises and is not kept).
    """
    if not 1 <= n_points <= MAX_GAUSS_POINTS:
        raise UnsupportedOrder(f"n_points={n_points} outside 1..{MAX_GAUSS_POINTS}")
    rule = np.polynomial.legendre.leggauss(n_points)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def insert_knots(kv: KnotVector, values) -> sp.csr_matrix:
    """Two-scale matrix of inserting the given knot values (strictly inside
    the domain, no knot more than p+1 times) one by one, in ascending order.

    The matrix has shape (fine n_basis, coarse n_basis); a coarse spline with
    coefficients c is reproduced exactly on the refined knot vector by P @ c.

    One left-to-right pass writes every row once. Before insertion t at span
    k, rows right of k are coarse identity rows shifted by t, and rows up to
    k-p never change again. Row i of the p changed rows is
    ``(1 - alpha) * row[i-1] + alpha * row[i]``. The result is byte for byte
    the product of the single-insertion (Boehm) matrices that scipy forms
    knot by knot:

    - a changed row adds ``alpha * row[i]`` to ``(1 - alpha) * row[i-1]``;
    - an entry that sums to exactly 0 is dropped (alpha is 0 on the rows
      whose knot t_i equals an inserted value that is already a knot);
    - each product stores a row's columns in reverse discovery order: the
      columns of row[i-1], then the new ones of row[i]. So every insertion
      reverses every row, and a row written by insertion t is stored
      reversed once per later insertion.

    The Galerkin products of a hierarchy accumulate in this stored order, so
    sorting the indices would change their round-off.
    """
    a, b = kv.domain
    values = np.sort(np.asarray(values, dtype=float))
    if not np.all((values > a) & (values < b)):  # NaN fails both comparisons
        raise OutOfDomain("inserted knots must lie strictly inside the domain")
    p, n_coarse, n_new = kv.p, kv.n_basis, values.size
    U = kv.knots
    merged = np.sort(np.concatenate([U, values]))
    over = merged[p + 1:] == merged[:-p - 1]  # a value p+2 times
    if over.any():
        raise ValueError(f"knot {merged[over.argmax()]} would repeat more than "
                         f"p+1 = {p + 1} times")
    done = np.arange(n_new)  # knots inserted before each value
    spans = np.searchsorted(U, values, side="right") - 1 + done
    # Rows k-p+1..k change. The knot vector before insertion t is the merged
    # one up to the span k, and the coarse one shifted by t after it.
    changed = spans[:, None] + np.arange(1 - p, 1)
    left = merged[changed]
    alphas = (values[:, None] - left) / (U[changed + p - done[:, None]] - left)
    betas = (1.0 - alphas).tolist()
    alphas = alphas.tolist()

    cols, data, lengths = [], [], []

    def emit(rows, flip):
        for row in rows:
            if flip:
                row = dict(reversed(row.items()))
            cols.extend(row), data.extend(row.values()), lengths.append(len(row))

    def identity(lo, hi, shift):
        return [{i - shift: 1.0} for i in range(lo, hi)]

    # Rows first.. were written by the previous insertion, as {column: value}
    # in stored order; rows from first + len(pending) on are identity rows.
    pending, first = [], 0
    for t, k in enumerate(spans.tolist()):
        lo = k - p
        ident = first + len(pending)
        rows = pending[lo - first:] + identity(max(ident, lo), k + 1, t)
        # rows up to lo are final; each later insertion reverses them
        emit(pending[:lo + 1 - first], (n_new - t) % 2)
        emit(identity(ident, lo + 1, t), 0)
        new = []
        for prev, row, alpha, beta in zip(rows, rows[1:], alphas[t], betas[t]):
            acc = {c: beta * v for c, v in prev.items()}
            for c, v in row.items():
                acc[c] = acc[c] + alpha * v if c in acc else alpha * v
            new.append({c: v for c, v in reversed(acc.items()) if v != 0.0})
        pending, first = new, lo + 1
    emit(pending, 0)
    emit(identity(first + len(pending), n_coarse + n_new, n_new), 0)
    # scipy stores int32 indices whenever they fit, as its product does
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sp.csr_matrix((np.array(data), np.array(cols), indptr),
                         shape=(n_coarse + n_new, n_coarse))


@dataclass(frozen=True)
class ElementTable:
    """Per-element Gauss data and active-basis derivative tables.

    ``basis[r, e, q, j]`` is the r-th derivative of local function j at
    quadrature point q of element e; ``first_dof[e]`` is the global index of
    local function 0.
    """

    points: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    first_dof: np.ndarray


def tabulate(kv: KnotVector, n_qp: int, max_deriv: int = 1) -> ElementTable:
    """Tabulate Gauss points, weights and basis derivatives on every element."""
    x, w = _legendre_nodes(n_qp)
    spans = kv.element_spans
    p = kv.p
    # The Gauss-Legendre rule mapped affinely to every span at once.
    a = kv.knots[spans][:, None]
    half = 0.5 * (kv.knots[spans + 1][:, None] - a)
    points = a + half * (x + 1.0)
    weights = half * w
    ders = _basis_derivs(kv, points.ravel(), np.repeat(spans, n_qp), max_deriv)
    basis = ders.reshape(max_deriv + 1, p + 1, len(spans), n_qp).transpose(0, 2, 3, 1)
    return ElementTable(points=points, weights=weights,
                        basis=np.ascontiguousarray(basis), first_dof=spans - p)
