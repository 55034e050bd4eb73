"""Dense and sparse linear-algebra kernels for assembly, multigrid and extrapolation.

Sparse matrices are assembled as coordinate triplets and finalized to scipy
CSR; solves are row sweeps on the finalized matrix. Duplicate triplets are
summed in input order, the order scipy's own COO finalisation uses, which
keeps every assembled matrix bit-for-bit the same as scipy would build it.
Dense QR uses modified Gram-Schmidt with a reorthogonalization pass, which
keeps column appends cheap when extrapolation windows grow one difference
vector at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# R[j,j] <= RANK_DROP_TOL * R[0,0] flags column j as numerically dependent.
RANK_DROP_TOL = 1e-13


class RankDeficient(Exception):
    """A QR column collapsed under the drop tolerance.

    Extrapolation callers react by shrinking the window.
    """

    def __init__(self, column: int):
        super().__init__(f"column {column} is numerically rank deficient")
        self.column = column


class SingularTriangular(Exception):
    """Zero or sub-tolerance diagonal entry in a triangular solve."""

    def __init__(self, index: int):
        super().__init__(f"triangular matrix has negligible diagonal at index {index}")
        self.index = index


class SingularMatrix(Exception):
    """Dense LU met a numerically singular matrix."""


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factors: Q has orthonormal columns, R is upper triangular
    with positive diagonal."""

    Q: np.ndarray
    R: np.ndarray


def qr_factor(M) -> QRFactors:
    """Thin QR of a rows >= cols matrix by modified Gram-Schmidt.

    A second orthogonalization pass against the previous columns keeps
    ``Q^T Q`` near identity for condition numbers up to ~1e8. A column whose
    remaining norm falls below ``RANK_DROP_TOL`` relative to ``R[0,0]``
    raises :class:`RankDeficient` with the offending column index.
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


def _check_triangular_diag(R: np.ndarray) -> None:
    diag = np.abs(np.diag(R))
    tol = RANK_DROP_TOL * diag.max(initial=0.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise SingularTriangular(int(bad[0]))


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


def lu_solve_dense(A, b) -> np.ndarray:
    """Direct dense solve A x = b via LU with partial pivoting."""
    return DenseLU(A).solve(b)


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
    ``np.add.reduceat`` sums each run of equal keys in input order. This is
    the permutation and the sum of scipy's ``coo_matrix.sum_duplicates``
    (``np.lexsort`` by row, then column), so the result is bit-for-bit what
    ``coo_matrix((vals, (rows, cols))).tocsr()`` gives, index dtype included.
    Explicit zeros are kept. Raises ValueError for an index outside ``shape``.
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


def symmetry_defect(A) -> float:
    """max |A - A^T| over stored entries, for symmetry assertions."""
    d = A - A.T
    if sp.issparse(d):
        return float(abs(d).max()) if d.nnz else 0.0
    return float(np.abs(d).max(initial=0.0))
