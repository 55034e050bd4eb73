"""Dense linear-algebra kernels for multigrid and extrapolation.

Dense QR is a ``(Q, R)`` pair from modified Gram-Schmidt with a
reorthogonalization pass; :func:`project_out` is that pass for one vector,
so an extrapolation window can project its newest difference against the Q
of the older ones without refactoring them. Triangular solves refuse a
rank-deficient factor, and :class:`DenseLU` keeps the factorisation of a
multigrid hierarchy's coarsest-grid matrix for repeated solves.

:class:`DenseLU` calls LAPACK's ``getrf`` and ``getrs`` directly. These are
the routines ``scipy.linalg.lu_factor`` and ``lu_solve`` call, used here
without those wrappers' per-call checks: the factors and solutions are
theirs byte for byte, and a solve on a coarsest grid of a few dozen
unknowns costs about the LAPACK call alone. The triangular solves keep
``scipy.linalg.solve_triangular``, whose bytes LAPACK's ``trtrs`` does not
give from n = 5 on, and the extrapolation's results are pinned to them.

Importing the module runs numpy's and scipy's BLAS on one thread
(:func:`pin_blas_to_one_thread`), so every result is the same bytes on
any host and under any ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

# The thread-count setter of the OpenBLAS that numpy's and scipy's wheels
# bundle in <package>.libs: numpy's is the 64-bit-integer build.
_BLAS_SETTERS = ((np, "scipy_openblas_set_num_threads64_"),
                 (scipy, "scipy_openblas_set_num_threads"))

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


def pin_blas_to_one_thread() -> None:
    """Set numpy's and scipy's BLAS to one thread, as ``threadpoolctl`` would.

    A threaded BLAS splits a dense LU or a long matrix-vector product
    between its threads, which changes the rounding: with two threads the
    coarsest-grid factor and the extrapolation QR of a 2D cell differ in
    their last bits. A BLAS without the bundled OpenBLAS's setter gets one
    line on stderr that names it.
    """
    for package, setter in _BLAS_SETTERS:
        name = package.__name__
        libs = Path(package.__file__).parent.parent / f"{name}.libs"
        found = [getattr(ctypes.CDLL(str(path)), setter, None)
                 for path in sorted(libs.glob("*openblas*"))]
        found = [fn for fn in found if fn is not None]
        for fn in found:
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(1)
        if not found:
            config = getattr(package, "__config__", None)
            blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
            print(f"igasolve: cannot set {name}'s BLAS ({blas.get('name', 'unknown')} "
                  f"{blas.get('version', '')}) to one thread; its results may depend on "
                  "the thread count", file=sys.stderr)


pin_blas_to_one_thread()


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
    """Cached LU factorization for repeated coarsest-grid solves.

    Factors with LAPACK's ``getrf`` and solves with ``getrs``, called
    directly: the routines ``scipy.linalg.lu_factor`` and ``lu_solve`` call,
    without those wrappers' per-call checks. The factor and pivots are
    read-only. A non-finite factor or a zero pivot raises
    :class:`SingularMatrix`, and so does a non-finite solution of a finite
    right-hand side.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if A.size:
            lu, piv, _ = dgetrf(A)  # its info > 0 is a zero pivot, checked below
        else:  # getrf rejects n = 0 and says so on stderr
            lu, piv = np.empty_like(A), np.arange(0, dtype=np.int32)
        diag = np.abs(np.diag(lu))
        if not np.all(np.isfinite(lu)) or diag.min(initial=np.inf) <= 0.0:
            raise SingularMatrix("matrix is numerically singular")
        self._lu = (lu, piv)
        for factor in self._lu:  # read-only: every holder of the hierarchy solves alike
            factor.setflags(write=False)
        self.shape = A.shape

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if not self.shape[0]:  # getrs rejects n = 0
            if b.shape[0]:
                raise ValueError(f"b has {b.shape[0]} rows, the matrix none")
            return np.empty_like(b)
        x = dgetrs(*self._lu, b)[0]
        # only a finite right-hand side shows the matrix at fault
        if not np.isfinite(x).all() and np.isfinite(b).all():
            raise SingularMatrix("solve produced non-finite entries")
        return x
