"""Open knot vectors, Cox-de Boor basis evaluation, Gauss quadrature on knot
spans, and knot insertion (the two-scale relation of nested spaces).

Basis values and derivatives follow the classical triangular-table algorithm
for the recurrence

    N^p_j(t) = (t - t_j)/(t_{j+p} - t_j) N^{p-1}_j(t)
             + (t_{j+p+1} - t)/(t_{j+p+1} - t_{j+1}) N^{p-1}_{j+1}(t)

with any 0/0 term taken as 0. Only the p+1 functions active on the span
containing t are computed. One kernel evaluates the table vectorised over
points: ``tabulate`` passes every Gauss point of every element at once, and
``eval_basis`` a single point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import coo_to_csr


class OutOfDomain(Exception):
    """Evaluation point outside the knot vector's domain."""


class UnsupportedOrder(Exception):
    """Gauss rule order outside the supported 1..MAX_GAUSS_POINTS range."""


MAX_GAUSS_POINTS = 16


class KnotVector:
    """Open knot sequence of degree p with N = len(knots) - p - 1 basis functions.

    The first and last knots must repeat exactly p+1 times (open vector), and
    the sequence must be non-decreasing.
    """

    def __init__(self, degree: int, knots):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or len(knots) < 2 * (degree + 1):
            raise ValueError("too few knots for the given degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be non-decreasing")
        p = degree
        if not (np.all(knots[: p + 1] == knots[0]) and knots[p + 1] > knots[0]):
            raise ValueError("first knot must repeat exactly p+1 times")
        if not (np.all(knots[-(p + 1):] == knots[-1]) and knots[-(p + 2)] < knots[-1]):
            raise ValueError("last knot must repeat exactly p+1 times")
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
    if t < a or t > b:
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


def _legendre_nodes(n_points: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if not 1 <= n_points <= MAX_GAUSS_POINTS:
        raise UnsupportedOrder(f"n_points={n_points} outside 1..{MAX_GAUSS_POINTS}")
    return np.polynomial.legendre.leggauss(n_points)


def _single_insertion(p: int, knots: np.ndarray, u: float):
    """Boehm insertion of one knot u strictly inside the domain.

    Returns the extended knot array and the (N+1) x N coefficient map.
    """
    n_old = len(knots) - p - 1
    k = int(np.searchsorted(knots, u, side="right") - 1)
    rows, cols, vals = [], [], []
    for i in range(n_old + 1):
        if i <= k - p:
            rows.append(i), cols.append(i), vals.append(1.0)
        elif i <= k:
            alpha = (u - knots[i]) / (knots[i + p] - knots[i])
            rows.append(i), cols.append(i), vals.append(alpha)
            rows.append(i), cols.append(i - 1), vals.append(1.0 - alpha)
        else:
            rows.append(i), cols.append(i - 1), vals.append(1.0)
    S = coo_to_csr(rows, cols, vals, shape=(n_old + 1, n_old))
    new_knots = np.insert(knots, k + 1, u)
    return new_knots, S


def insert_knots(kv: KnotVector, values) -> sp.csr_matrix:
    """Two-scale matrix of inserting the given knot values (strictly inside
    the domain) one by one.

    The matrix has shape (fine n_basis, coarse n_basis); a coarse spline with
    coefficients c is reproduced exactly on the refined knot vector by P @ c.
    """
    a, b = kv.domain
    values = np.sort(np.asarray(values, dtype=float))
    if values.size and (values[0] <= a or values[-1] >= b):
        raise OutOfDomain("inserted knots must lie strictly inside the domain")
    knots = kv.knots
    P = sp.identity(kv.n_basis, format="csr")
    for u in values:
        knots, S = _single_insertion(kv.p, knots, float(u))
        P = S @ P
    return P.tocsr()


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

    @cached_property
    def dof_runs(self) -> tuple[tuple[int, int, int], ...]:
        """Maximal runs of elements with consecutive first dofs, as
        (first element, end element, first dof); more than one run only
        where an interior knot repeats."""
        first = self.first_dof
        bounds = [0, *(np.flatnonzero(np.diff(first) != 1) + 1).tolist(), len(first)]
        return tuple((lo, hi, int(first[lo])) for lo, hi in zip(bounds[:-1], bounds[1:]))


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
