"""Outer Picard drivers for the Bratu and Monge-Ampere problems.

A problem supplies its Dirichlet data ``g``, its ``load`` and the flag
``inner_to_tol``; one context makes the Picard map from them, in two parts.
The :class:`Discretisation` depends only on the space and ``g``, not on
lambda, the source, the method or the inner solver, so every solve on its
space can share it, read-only: the interior dof indices, the multigrid
hierarchy (its fine level is the stiffness restricted to them) with its
coarsest-grid LU, the Dirichlet lift (the interior rows of the full
stiffness times the boundary data) and the start vector. The context reads
it in place and adds one solve's own state: the source on the Gauss grid,
the phase timers, the frozen cycle count and, for ``inner="direct"``, the
sparse LU of the fine stiffness.
An inner solve is that LU or a fixed number of V-cycles:
one, or for ``vcycle_to_tol`` and ``inner_to_tol`` problems the count the
first solve needed to reach ``linear_tol``, at least one. The map
is driven by the restarted MPE/RRE loop or by the Anderson loop, whose
depth 0 is plain Picard. An iterate is its full coefficient vector, as the
map, its start vector and :func:`run_outer`'s result all are.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse.linalg as spla

from . import extrapolation, iga
from .history import IterationHistory, PhaseTimers
from .iga import SplineSpace, make_space
from .multigrid import GridHierarchy, build_hierarchy, solve_to_tolerance, v_cycle


@dataclass
class BratuProblem:
    """-lap u + lam e^u = f with homogeneous Dirichlet data."""

    lam: float
    f: object
    space: SplineSpace
    exact: object | None = None

    g: ClassVar[None] = None
    inner_to_tol: ClassVar[bool] = False

    def load(self, f_vals, x_full: np.ndarray) -> np.ndarray:
        return iga.bratu_load(self.space, f_vals, self.lam, x_full)

    @staticmethod
    def manufactured_1d(lam: float, p: int, n_elements: int) -> "BratuProblem":
        """u = sin(2 pi x) with the matching source term."""
        w = 2.0 * np.pi

        def u(x):
            return np.sin(w * x)

        def f(x):
            return w**2 * np.sin(w * x) + lam * np.exp(np.sin(w * x))

        return BratuProblem(lam=lam, f=f, exact=u, space=make_space(p, n_elements, dims=1))

    @staticmethod
    def manufactured_2d(lam: float, p: int, n_elements: int) -> "BratuProblem":
        """u = (x - x^2)(y - y^2) with the matching source term."""

        def u(x, y):
            return (x - x**2) * (y - y**2)

        def f(x, y):
            return 2.0 * (y - y**2) + 2.0 * (x - x**2) + lam * np.exp(u(x, y))

        return BratuProblem(lam=lam, f=f, exact=u, space=make_space(p, n_elements, dims=2))


@dataclass
class MongeAmpereProblem:
    """det H(u) = f with u = g on the boundary, solved via the Laplacian map."""

    f: object
    g: object
    space: SplineSpace
    exact: object | None = None

    inner_to_tol: ClassVar[bool] = True

    def __post_init__(self):
        if min(self.space.degrees) < 2:
            raise iga.DegreeTooLow("Monge-Ampere needs spline degree p >= 2")
        if self.space.dims != 2:
            raise ValueError("only the planar case d = 2 is implemented")

    @staticmethod
    def manufactured(p: int, n_elements: int) -> "MongeAmpereProblem":
        """Radially symmetric convex solution u = exp((x^2 + y^2)/2)."""

        def u(x, y):
            return np.exp(0.5 * (x**2 + y**2))

        def f(x, y):
            return (1.0 + x**2 + y**2) * np.exp(x**2 + y**2)

        return MongeAmpereProblem(f=f, g=u, exact=u, space=make_space(p, n_elements, dims=2))

    def load(self, f_vals, x_full: np.ndarray) -> np.ndarray:
        return iga.monge_ampere_load(self.space, f_vals, x_full)


# Coarsening stops at <= 36 interior dof per direction: grids up to N=32
# solve their inner systems directly, which the iteration-count
# reproduction bands require (weak Jacobi smoothing at p >= 5 makes deeper
# hierarchies measurably slower than the tables).
DIRECT_THRESHOLD = 36
# Most V-cycles one inner solve to linear_tol may take.
LINEAR_MAXITER = 200
# glibc's malloc_trim, which hands the heap's free pages back to the OS;
# None where the C library has no such call.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None


def _splu(A):
    """Sparse LU of ``A``. The factorisation is a cell's memory peak, so free
    heap is first handed back to the OS; how much of it stays resident
    otherwise depends on the heap's layout, which changes run to run.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    return spla.splu(A.tocsc())


@dataclass
class OuterConfig:
    """Outer-loop settings: accelerator, tolerances and the inner solver."""

    accelerator: str = "none"  # none | mpe | rre | anderson
    window: int = 5            # restart number q, or Anderson depth m
    tol: float = 1e-12
    maxiter: int = 1000
    inner: str = "one_vcycle"  # one_vcycle | vcycle_to_tol | direct
    linear_tol: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {self.maxiter}")
        if not 0.0 < self.linear_tol < np.inf:
            raise ValueError(f"linear_tol must be positive and finite, got {self.linear_tol}")
        if self.accelerator not in ("none", "mpe", "rre", "anderson"):
            raise ValueError(f"unknown accelerator {self.accelerator!r}")
        if self.inner not in ("one_vcycle", "vcycle_to_tol", "direct"):
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.accelerator != "none" and self.window < 1:
            raise ValueError(f"{self.accelerator} needs window >= 1, got {self.window}")


@dataclass(frozen=True, eq=False)
class Discretisation:
    """What a Picard map reads on one spline space and no solve changes.

    It depends only on the space and the Dirichlet data ``g``, not on
    lambda, the source, the method or the inner solver, so one serves every
    cell on its space. Its arrays are read-only, those of every hierarchy
    level's ``A``, ``P`` and ``R`` and the coarsest-grid LU included: a
    solve that wrote into one would change every later solve that shares it.
    """

    space: SplineSpace
    interior: np.ndarray     # flat indices of the interior dof
    hier: GridHierarchy      # its fine level's A is the stiffness on interior dof
    lift_vec: np.ndarray     # interior rows of the full stiffness times the boundary data
    x0: np.ndarray           # start vector: the harmonic lift of the boundary data
    build_s: float           # wall seconds the build took


def build_discretisation(space: SplineSpace, g=None) -> Discretisation:
    """The :class:`Discretisation` of ``space`` with Dirichlet data ``g``."""
    t0 = time.perf_counter()
    for kv in space.kvs:  # at p+1 the H1 map decouples the knot's two sides
        values, counts = np.unique(kv.knots[kv.p + 1:-kv.p - 1], return_counts=True)
        if np.any(counts > kv.p):
            raise ValueError(f"interior knot {values[counts > kv.p][0]} repeats {kv.p + 1} "
                             f"times; the Picard map needs multiplicity at most p = {kv.p}")
    interior, x0 = iga.apply_dirichlet(space, g)
    full = iga.assemble_stiffness(space)
    A = full[interior][:, interior].tocsr()
    hier = build_hierarchy(space, DIRECT_THRESHOLD, A)
    # the lift: interior columns meet exact zeros in x0
    lift_vec = (full @ x0)[interior]
    del full  # freed first: the lift's factorisation is the cell's memory peak
    if np.any(x0):  # the lift's LU is dropped at once
        x0[interior] = _splu(A).solve(-lift_vec)
    operators = [M for lvl in hier.levels for M in (lvl.A, lvl.P, lvl.R) if M is not None]
    for shared in (interior, lift_vec, x0, *(lvl.inv_diag for lvl in hier.levels),
                   *(a for M in operators for a in (M.data, M.indices, M.indptr))):
        shared.setflags(write=False)
    return Discretisation(space, interior, hier, lift_vec, x0, time.perf_counter() - t0)


class _PicardContext:
    """One outer solve's Picard map on full coefficient vectors.

    :meth:`step` assembles the load from the lagged iterate, lifts the
    boundary data and runs the inner solve warm started at the lagged
    interior coefficients. The discretisation is shared and read-only; the
    source values, the phase timers, the frozen cycle count and a direct
    solve's LU are the solve's own.
    """

    def __init__(self, problem, cfg: OuterConfig, disc: Discretisation | None = None):
        if disc is None:
            disc = build_discretisation(problem.space, problem.g)
        elif disc.space is not problem.space:
            raise ValueError("the discretisation is not on the problem's space")
        self.problem = problem
        self.cfg = cfg
        self.disc = disc
        # a direct solve's LU, the memory peak, before the source and its load plan
        self._lu = _splu(disc.hier.fine.A) if cfg.inner == "direct" else None
        self.timers = PhaseTimers()
        self._f_vals = iga.field_on_grid(disc.space, problem.f)
        # V-cycles per inner solve, None until the first solve to linear_tol
        # sets it: a data-dependent count makes the map discontinuous at the
        # stopping boundary and stalls the outer iteration near it
        to_tol = cfg.inner == "vcycle_to_tol" or problem.inner_to_tol
        self._n_cycles: int | None = None if to_tol else 1

    def initial_guess(self) -> np.ndarray:
        """Harmonic lift of the boundary data (zero for homogeneous problems).

        Interpolated boundary coefficients over a zero interior carry an
        O(1/h^2) spurious boundary layer in the Hessian, which poisons the
        first Monge-Ampere right-hand sides and stalls the outer iteration
        for dozens of grid-dependent iterations; the harmonic extension is
        layer-free.
        """
        return self.disc.x0.copy()

    def _solve(self, rhs_int: np.ndarray, x_int: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(rhs_int)
        if self._n_cycles is None:
            out, rep = solve_to_tolerance(self.disc.hier, rhs_int, x_int, tol=self.cfg.linear_tol,
                                          maxiter=LINEAR_MAXITER)
            self._n_cycles = max(rep.n_cycles, 1)
            if rep.n_cycles:  # else one cycle: an unchanged warm start reads as converged
                return out
        out, res = x_int, None
        for _ in range(self._n_cycles):
            out, rep = v_cycle(self.disc.hier, rhs_int, out, res)
            res = rep.final_residual
        return out

    def step(self, x_full: np.ndarray) -> np.ndarray:
        interior = self.disc.interior
        x_int = x_full[interior]
        t0 = time.perf_counter()
        rhs_int = self.problem.load(self._f_vals, x_full)[interior] - self.disc.lift_vec
        t1 = time.perf_counter()
        out_int = self._solve(rhs_int, x_int)
        t2 = time.perf_counter()
        self.timers.rhs_s += t1 - t0
        self.timers.mg_s += t2 - t1
        out = x_full.copy()
        out[interior] = out_int
        return out


def make_context(problem, cfg: OuterConfig, disc: Discretisation | None = None
                 ) -> _PicardContext:
    """The Picard map of ``problem`` under ``cfg``, on ``disc`` if given (built
    by :func:`build_discretisation` on ``problem.space`` and ``problem.g``),
    else on a discretisation built here."""
    return _PicardContext(problem, cfg, disc)


def run_outer(problem, cfg: OuterConfig, l2_every_step: bool = False,
              disc: Discretisation | None = None) -> tuple[np.ndarray, IterationHistory]:
    """Drive the selected accelerator around the problem's Picard map.

    Stops when ||U^n - U^{n-1}|| / ||U^n|| <= tol or after maxiter map
    applications. Returns the driver's full coefficient vector and its
    history, which records every application and carries the context's
    timers. When an exact solution is known, the L2 error is computed once,
    when the driver returns or raises, and stored on the last record. It is
    taken on the vector that record describes: the last map application, or
    the accepted extrapolant whose residual replaced that application's. This
    is the returned vector unless the solve stopped at maxiter right after a
    rejected prediction. On Diverged it is the blown-up iterate, or, after an
    overflow inside the map, the iterate the map was applied to. The other
    records hold NaN unless ``l2_every_step`` computes it on every record.
    ``disc`` is passed on to :func:`make_context`.
    """
    ctx = make_context(problem, cfg, disc)
    observer, last = None, []  # last: the observer's latest (record, vector)
    if problem.exact is not None:
        def observer(rec, x_full):
            if l2_every_step:
                rec.l2_error = iga.l2_error(problem.space, x_full, problem.exact)
            else:
                last[:] = rec, x_full

    x0 = ctx.initial_guess()
    acc = cfg.accelerator
    try:
        if acc in ("mpe", "rre"):
            return extrapolation.restarted_solve(ctx.step, x0, acc, cfg.window, cfg.tol,
                                                 cfg.maxiter, observer=observer,
                                                 timers=ctx.timers)
        # plain Picard is Anderson acceleration of depth 0
        m = cfg.window if acc == "anderson" else 0
        return extrapolation.anderson_solve(ctx.step, x0, m, cfg.tol, cfg.maxiter,
                                            observer=observer, timers=ctx.timers)
    finally:  # also on Diverged, whose history holds the record
        if last:
            rec, x_full = last
            rec.l2_error = iga.l2_error(problem.space, x_full, problem.exact)
