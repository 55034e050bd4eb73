"""Geometric multigrid over nested spline spaces.

The linear solver is one fixed method. Hierarchies are built by dyadic
element coarsening until every direction has at most ``direct_threshold``
interior dof (or an element count turns odd). Per direction, the transfer
operator is the B-spline two-scale (knot-insertion) matrix restricted to
interior dof; the 2D operator is their Kronecker product, and restriction
is R = P^T. Coarse operators are Galerkin products R A P. The V-cycle runs
one weighted-Jacobi sweep (omega = 2/3) before and one after the coarse
correction, with zero coarse initial error and a direct LU on the coarsest
level.

Each residual is formed once: the pre-smoother uses the residual its
caller already has (``b - A x0`` on the finest level, the restricted
residual itself on a coarser one, whose start is zero), and a cycle hands
its final residual on, to its report's norm and to the next cycle's
pre-smoother. A chain of n cycles costs 3n + 1 fine-level mat-vecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import iga
from .bspline import KnotVector, insert_knots
from .iga import SplineSpace, apply_dirichlet
from .linalg import DenseLU

# Jacobi damping: 2/3 minimises the largest amplification factor over the
# oscillatory half of the spectrum of the 1D Laplacian.
OMEGA = 2.0 / 3.0
# Largest coarsest level that is densified for the direct solve: 4096 dof
# is a 128 MiB dense matrix, and the LU factorisation makes a second copy.
# Shipped grids stop at 35^2 = 1225 dof; a 2D grid whose element count turns
# odd early (N=254 stops at N=127, 16129 dof, 2.1 GB) is refused instead.
MAX_COARSE_DOF = 4096
# Largest fine space a config may ask for. A 2D p=5 cell peaks at about
# 4.5 KB of resident memory per added dof (102, 161 and 388 MB at 4761,
# 17689 and 68121 dof), so 2^18 dof is about 1.2 GB; a grid the parser
# accepts must not exhaust the machine and take the whole sweep down with it.
MAX_FINE_DOF = 2**18
# Memory grows with the stiffness's nonzeros, about dof * (2p+1)^dims, more
# than with dof: the 388 MB peak above is 49 B per nonzero, so 2^25 nonzeros
# is about 1.6 GB. This keeps every p <= 5 grid under MAX_FINE_DOF and stops
# higher degrees earlier: 2D p=14 at N=448 would have 180M nonzeros. A 2D
# assembly chunk holds at least one x-element, N*(p+1)^4 triplets, and
# needs about 8 B of temporaries per triplet beside the matrix, so at p=14
# and the largest grid this allows (N=185) a chunk is 9M triplets and about
# 80 MB. Its run places index with intp (int64), which fancy indexing needs
# anyway; a chunk's dense (row, offset) band has at most MAX_FINE_NNZ cells.
MAX_FINE_NNZ = 2**25


class ZeroDiagonal(Exception):
    def __init__(self, row: int):
        super().__init__(f"zero diagonal at row {row}")
        self.row = row


@dataclass
class CycleReport:
    initial_residual_norm: float
    final_residual_norm: float
    n_cycles: int = 1
    converged: bool = True
    # b - A x of the returned x, whose norm is final_residual_norm
    final_residual: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class Level:
    """One grid in the hierarchy (operator on interior dof)."""

    A: sp.csr_matrix
    P: sp.csr_matrix | None = None  # prolongation to the next finer level
    R: sp.csr_matrix | None = None  # restriction from the next finer level
    inv_diag: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.A.diagonal()
        zero = np.flatnonzero(d == 0.0)
        if zero.size:
            raise ZeroDiagonal(int(zero[0]))
        self.inv_diag = 1.0 / d


class GridHierarchy:
    """Nested levels ordered coarse to fine, with a cached coarsest-grid LU."""

    def __init__(self, levels: list[Level]):
        self.levels = levels
        self._coarse_lu = DenseLU(levels[0].A.toarray())

    @property
    def fine(self) -> Level:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def _coarsen_kv(kv: KnotVector) -> KnotVector:
    """Every other interior breakpoint removed with all its copies."""
    return KnotVector(kv.p, kv.knots[~np.isin(kv.knots, kv.breakpoints[1:-1:2])])


def _interior_prolongation(coarse: SplineSpace, fine: SplineSpace) -> sp.csr_matrix:
    maps = []
    for kvc, kvf in zip(coarse.kvs, fine.kvs):
        inserted = kvf.knots[~np.isin(kvf.knots, kvc.knots)]
        maps.append(insert_knots(kvc, inserted)[1:-1, 1:-1])
    return maps[0] if len(maps) == 1 else sp.kron(maps[0], maps[1], format="csr")


def level_spaces(fine_space: SplineSpace, direct_threshold: int = 16) -> list[SplineSpace]:
    """The spaces of the hierarchy under ``fine_space``, fine to coarse.

    Each coarser level halves the element count per direction while the
    interior dof count per direction exceeds ``direct_threshold``, the
    element counts stay even and the coarser level keeps interior dof.
    Raises ValueError when the coarsest level would exceed
    ``MAX_COARSE_DOF``. Only knot vectors are built, so configs can be
    checked with it before anything is assembled.
    """
    spaces = [fine_space]  # fine -> coarse
    while True:
        kvs = spaces[-1].kvs
        if max(kv.n_basis - 2 for kv in kvs) <= direct_threshold:
            break
        if any(kv.n_elements % 2 for kv in kvs):
            break
        coarse = SplineSpace(tuple(_coarsen_kv(kv) for kv in kvs))
        if min(kv.n_basis - 2 for kv in coarse.kvs) < 1:
            break
        spaces.append(coarse)
    n_coarse = int(np.prod([kv.n_basis - 2 for kv in spaces[-1].kvs]))
    if n_coarse > MAX_COARSE_DOF:
        raise ValueError(f"{fine_space} coarsens only to {spaces[-1]} with {n_coarse} "
                         f"dof, above the direct-solve limit of {MAX_COARSE_DOF}")
    return spaces


def build_hierarchy(fine_space: SplineSpace, direct_threshold: int = 16,
                    A: sp.csr_matrix | None = None) -> GridHierarchy:
    """Build a V-cycle hierarchy on the levels :func:`level_spaces` chooses.

    ``A`` is the fine CSR operator on interior dof, assembled here if not
    given. The default threshold serves library calls and acceptance
    criterion 04; the Picard solver passes ``nonlinear.DIRECT_THRESHOLD``.
    """
    spaces = level_spaces(fine_space, direct_threshold)
    if A is None:
        interior, _ = apply_dirichlet(fine_space)
        A = iga.assemble_stiffness(fine_space)[interior][:, interior]
    levels = [Level(A=A)]
    for fine, coarse in zip(spaces, spaces[1:]):
        P = _interior_prolongation(coarse, fine)
        R = P.T.tocsr()
        levels.append(Level(A=R @ levels[-1].A @ P, P=P, R=R))
    return GridHierarchy(levels[::-1])


def _sweep(x: np.ndarray, r: np.ndarray, inv_diag: np.ndarray) -> np.ndarray:
    """One weighted-Jacobi sweep from ``x``, whose residual ``b - A x`` is ``r``."""
    return x + OMEGA * inv_diag * r


def smooth(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray, inv_diag: np.ndarray) -> np.ndarray:
    """One weighted-Jacobi sweep x + OMEGA D^-1 (b - A x), as a new array."""
    return _sweep(x, b - A @ x, inv_diag)


def _cycle(h: GridHierarchy, idx: int, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One V-cycle on level ``idx`` from ``x``, whose residual ``b - A x`` is ``r``."""
    if idx == 0:
        return h._coarse_lu.solve(b)
    lvl = h.levels[idx]
    below = h.levels[idx - 1]
    x = _sweep(x, r, lvl.inv_diag)
    rc = below.R @ (b - lvl.A @ x)
    # from zero the residual is rc itself: every row of A @ 0 is +0.0
    x = x + below.P @ _cycle(h, idx - 1, rc, np.zeros_like(rc), rc)
    return smooth(lvl.A, b, x, lvl.inv_diag)


def v_cycle(h: GridHierarchy, b: np.ndarray, x0: np.ndarray,
            r0: np.ndarray | None = None) -> tuple[np.ndarray, CycleReport]:
    """One V-cycle on the finest level of the hierarchy.

    ``r0`` is ``b - A x0`` if the caller has it, for example the previous
    cycle's ``final_residual``; it is computed otherwise.
    """
    A = h.fine.A
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if r0 is None:
        r0 = b - A @ x0
    x = _cycle(h, h.n_levels - 1, b, x0, r0)
    r1 = b - A @ x
    return x, CycleReport(float(np.linalg.norm(r0)), float(np.linalg.norm(r1)),
                          final_residual=r1)


def solve_to_tolerance(h: GridHierarchy, b: np.ndarray, x0: np.ndarray, tol: float = 1e-8,
                       maxiter: int = 100) -> tuple[np.ndarray, CycleReport]:
    """Repeat V-cycles until ||b - A x|| / ||b|| <= tol or maxiter cycles.

    With b = 0 the criterion degenerates to the absolute residual. Running out
    of cycles is non-fatal: the report returns converged=False. Each stopping
    test's residual starts the next cycle.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    A = h.fine.A
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    bnorm = float(np.linalg.norm(b))
    denom = bnorm if bnorm > 0.0 else 1.0
    r = b - A @ x
    r0 = res = float(np.linalg.norm(r))
    n = 0
    while res / denom > tol and n < maxiter:
        x = _cycle(h, h.n_levels - 1, b, x, r)
        r = b - A @ x
        res = float(np.linalg.norm(r))
        n += 1
    return x, CycleReport(r0, res, n_cycles=n, converged=res / denom <= tol, final_residual=r)
