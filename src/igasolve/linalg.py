"""Dense and sparse linear-algebra kernels for assembly, multigrid and extrapolation.

Sparse matrices are assembled as coordinate triplets and finalized to scipy
CSR; solves are row sweeps on the finalized matrix. Duplicate triplets are
summed as scipy's COO ``sum_duplicates`` sums them, which keeps every
assembled matrix bit-for-bit the same as scipy would build it: in input
order, as the first term plus numpy's pairwise sum of the rest.
Dense QR is a ``(Q, R)`` pair from modified Gram-Schmidt with a
reorthogonalization pass; :func:`project_out` is that pass for one vector,
so an extrapolation window can project its newest difference against the Q
of the older ones without refactoring them.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# R[j,j] <= RANK_DROP_TOL * R[0,0] flags column j as numerically dependent.
RANK_DROP_TOL = 1e-13


class RankDeficient(Exception):
    """A QR column, or a triangular factor's diagonal entry, fell under the
    drop tolerance.

    Extrapolation callers react by shrinking the window.
    """

    def __init__(self, column: int):
        super().__init__(f"column {column} is numerically rank deficient")
        self.column = column


class SingularMatrix(Exception):
    """Dense LU met a numerically singular matrix."""


def project_out(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` in place off the orthonormal columns of ``Q`` by two
    modified Gram-Schmidt passes; returns the summed coefficients."""
    c = np.zeros(Q.shape[1])
    for _ in range(2):  # MGS pass + reorthogonalization pass
        s = Q.T @ v
        c += s
        v -= Q @ s
    return c


def qr_factor(M) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR ``(Q, R)`` of a rows >= cols matrix by modified Gram-Schmidt.

    R has a positive diagonal. A second orthogonalization pass against the
    previous columns keeps ``Q^T Q`` near identity for condition numbers up
    to ~1e8. A column whose remaining norm falls below ``RANK_DROP_TOL``
    relative to ``R[0,0]`` raises :class:`RankDeficient` with its index.
    """
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
        R[:j, j] = project_out(Q[:, :j], v)
        rjj = float(np.linalg.norm(v))
        lead = R[0, 0] if j > 0 else rjj
        if not np.isfinite(rjj) or rjj <= RANK_DROP_TOL * lead or rjj == 0.0:
            raise RankDeficient(j)
        R[j, j] = rjj
        Q[:, j] = v / rjj
    return Q, R


def _check_triangular_diag(R: np.ndarray) -> None:
    diag = np.abs(np.diag(R))
    bad = np.flatnonzero(diag <= RANK_DROP_TOL * diag.max(initial=0.0))
    if bad.size:
        raise RankDeficient(int(bad[0]))


def solve_upper_triangular(R, b) -> np.ndarray:
    """Back substitution for R x = b with R square upper triangular."""
    R = np.asarray(R, dtype=float)
    b = np.asarray(b, dtype=float)
    if R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    if R.shape[0] == 0:
        return np.zeros(0)
    _check_triangular_diag(R)
    return scipy.linalg.solve_triangular(R, b, lower=False)


def solve_normal_equations(R, rhs) -> np.ndarray:
    """Solve R^T R d = rhs by two triangular sweeps, never forming R^T R."""
    R = np.asarray(R, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if R.shape[0] == 0:
        return np.zeros(0)
    _check_triangular_diag(R)
    y = scipy.linalg.solve_triangular(R, rhs, lower=False, trans="T")
    return scipy.linalg.solve_triangular(R, y, lower=False)


class DenseLU:
    """Cached LU factorization for repeated coarsest-grid solves."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
        diag = np.abs(np.diag(lu))
        if not np.all(np.isfinite(lu)) or diag.min(initial=np.inf) <= 0.0:
            raise SingularMatrix("matrix is numerically singular")
        self._lu = (lu, piv)
        self.shape = A.shape

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = scipy.linalg.lu_solve(self._lu, b, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("solve produced non-finite entries")
        return x


def coo_to_csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """Finalize coordinate triplets to CSR, summing duplicate entries.

    One stable sort of the row-major keys orders the triplets, and
    ``np.add.reduceat`` sums each run of equal keys v0, ..., v_k as
    v0 + pairwise(v1, ..., v_k), not as (v0 + v1) + v2 + ...; numpy's
    pairwise sum goes left to right only below 8 terms. This is the
    permutation and the sum of scipy's ``coo_matrix.sum_duplicates``
    (``np.lexsort`` by row, then column), so the result is bit-for-bit what
    that call followed by ``tocsr()`` gives, index dtype included; ``tocsr()``
    alone sums left to right. Explicit zeros are kept. Raises ValueError for
    an index outside ``shape``.
    """
    n_rows, n_cols = (int(s) for s in shape)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
        raise ValueError("rows, cols and vals must be 1-D arrays of one length")
    if len(vals) == 0:
        return sp.csr_matrix((n_rows, n_cols), dtype=vals.dtype)
    for axis, (idx, size) in enumerate(((rows, n_rows), (cols, n_cols))):
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError(f"axis {axis} index outside [0, {size})")
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    data = np.add.reduceat(vals[order], run_start, dtype=vals.dtype)
    first = order[run_start]
    idx_dtype = np.int32 if max(n_rows, n_cols, len(data)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(rows[first], minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix((data, cols[first].astype(idx_dtype), indptr), shape=(n_rows, n_cols))
