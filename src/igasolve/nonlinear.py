"""Outer Picard drivers for the Bratu and Monge-Ampere problems.

The Bratu fixed-point map applies one warm-started V-cycle to the lagged
linear system per outer step; the Monge-Ampere map solves its inner Poisson
problem with V-cycles to a per-grid tolerance. Either map can be wrapped by
the plain, MPE-, RRE- or Anderson-accelerated outer loops, stopping on the
relative residual between successive control-point vectors.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import extrapolation, iga
from .extrapolation import Diverged
from .history import IterationHistory, PhaseTimers
from .iga import SplineField, SplineSpace, make_space
from .multigrid import build_hierarchy, solve_to_tolerance, v_cycle


@dataclass
class BratuProblem:
    """-lap u + lam e^u = f with homogeneous Dirichlet data."""

    dims: int
    lam: float
    f: object
    space: SplineSpace
    exact: object | None = None

    @staticmethod
    def manufactured_1d(lam: float, p: int, n_elements: int) -> "BratuProblem":
        """u = sin(2 pi x) with the matching source term."""
        w = 2.0 * np.pi

        def u(x):
            return np.sin(w * x)

        def f(x):
            return w**2 * np.sin(w * x) + lam * np.exp(np.sin(w * x))

        return BratuProblem(dims=1, lam=lam, f=f, exact=u,
                            space=make_space(p, n_elements, dims=1))

    @staticmethod
    def manufactured_2d(lam: float, p: int, n_elements: int) -> "BratuProblem":
        """u = (x - x^2)(y - y^2) with the matching source term."""

        def u(x, y):
            return (x - x**2) * (y - y**2)

        def f(x, y):
            return 2.0 * (y - y**2) + 2.0 * (x - x**2) + lam * np.exp(u(x, y))

        return BratuProblem(dims=2, lam=lam, f=f, exact=u,
                            space=make_space(p, n_elements, dims=2))


@dataclass
class MongeAmpereProblem:
    """det H(u) = f with u = g on the boundary, solved via the Laplacian map."""

    f: object
    g: object
    space: SplineSpace
    exact: object | None = None

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

        return MongeAmpereProblem(f=f, g=u, exact=u,
                                  space=make_space(p, n_elements, dims=2))


# Coarsening stops at <= 36 interior dof per direction: grids up to N=32
# solve their inner systems directly, which the iteration-count
# reproduction bands require (weak Jacobi smoothing at p >= 5 makes deeper
# hierarchies measurably slower than the tables).
DIRECT_THRESHOLD = 36
# Most V-cycles one inner solve to linear_tol may take.
LINEAR_MAXITER = 200


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
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {self.maxiter}")
        if not self.linear_tol > 0.0:
            raise ValueError(f"linear_tol must be positive, got {self.linear_tol}")
        if self.accelerator not in ("none", "mpe", "rre", "anderson"):
            raise ValueError(f"unknown accelerator {self.accelerator!r}")
        if self.inner not in ("one_vcycle", "vcycle_to_tol", "direct"):
            raise ValueError(f"unknown inner solver {self.inner!r}")
        if self.accelerator != "none" and self.window < 1:
            raise ValueError(f"{self.accelerator} needs window >= 1, got {self.window}")


class _PicardContext:
    """Shared precomputation for one outer solve on full coefficient vectors.

    :meth:`step` is the problem's Picard map: assemble the load from the
    lagged iterate, lift the boundary data and run the inner solve warm
    started at the lagged interior coefficients.
    """

    def __init__(self, problem, cfg: OuterConfig):
        self.problem = problem
        self.cfg = cfg
        self.space = problem.space
        self.timers = PhaseTimers()
        g = getattr(problem, "g", None)
        self.layout = iga.apply_dirichlet(self.space, g)
        full = iga.assemble_stiffness(self.space)
        self.hier = build_hierarchy(self.space, direct_threshold=DIRECT_THRESHOLD,
                                    fine_matrix=full)
        self.A = self.hier.fine.A
        self._lift_vec = self.layout.coupling(full) @ self.layout.boundary_values
        self._direct = None
        if cfg.inner == "direct":
            self._direct = spla.splu(self.A.tocsc())

    def initial_guess(self) -> np.ndarray:
        """Harmonic lift of the boundary data (zero for homogeneous problems).

        Interpolated boundary coefficients over a zero interior carry an
        O(1/h^2) spurious boundary layer in the Hessian, which poisons the
        first Monge-Ampere right-hand sides and stalls the outer iteration
        for dozens of grid-dependent iterations; the harmonic extension is
        layer-free.
        """
        if np.any(self.layout.boundary_values != 0.0):
            u_int = spla.spsolve(self.A.tocsc(), -self._lift_vec)
            return self.layout.expand(u_int)
        return self.layout.expand(np.zeros(self.layout.n_interior))

    def l2(self, x_full: np.ndarray) -> float:
        if self.problem.exact is None:
            return float("nan")
        return iga.l2_error(SplineField(self.space, x_full), self.problem.exact)

    def _solve(self, rhs_int: np.ndarray, x_int: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.inner == "direct":
            return self._direct.solve(rhs_int)
        if cfg.inner == "one_vcycle":
            return v_cycle(self.hier, rhs_int, x_int)[0]
        return solve_to_tolerance(self.hier, rhs_int, x_int, tol=cfg.linear_tol,
                                  maxiter=LINEAR_MAXITER)[0]

    def step(self, x_full: np.ndarray) -> np.ndarray:
        interior = self.layout.interior
        x_int = x_full[interior]
        t0 = time.perf_counter()
        rhs_int = self._load(x_full)[interior] - self._lift_vec
        t1 = time.perf_counter()
        out_int = self._solve(rhs_int, x_int)
        t2 = time.perf_counter()
        self.timers.rhs_s += t1 - t0
        self.timers.mg_s += t2 - t1
        out = x_full.copy()
        out[interior] = out_int
        return out

    def _load(self, x_full: np.ndarray) -> np.ndarray:
        """Full load vector for the lagged iterate."""
        raise NotImplementedError


class BratuContext(_PicardContext):
    def __init__(self, problem: BratuProblem, cfg: OuterConfig):
        super().__init__(problem, cfg)
        self._f_vals = iga._call_on_grid(problem.f, self.space, self.space.tables(0, 1))

    def _load(self, x_full):
        return iga.bratu_load(self.space, self._f_vals, self.problem.lam, x_full)


class MongeAmpereContext(_PicardContext):
    """Monge-Ampere Picard map.

    The inner Poisson solves keep the V-cycle count frozen at whatever the
    first step needed to reach linear_tol: a data-dependent cycle count
    makes the composite map discontinuous at the stopping boundary and
    stalls the outer iteration near it.
    """

    def __init__(self, problem: MongeAmpereProblem, cfg: OuterConfig):
        if cfg.inner == "one_vcycle":
            cfg = dataclasses.replace(cfg, inner="vcycle_to_tol")
        super().__init__(problem, cfg)
        self._f_vals = iga._call_on_grid(problem.f, self.space, self.space.tables(0, 2))
        self._n_cycles: int | None = None

    def _solve(self, rhs_int, x_int):
        if self.cfg.inner != "vcycle_to_tol":
            return super()._solve(rhs_int, x_int)
        if self._n_cycles is None:
            out, rep = solve_to_tolerance(self.hier, rhs_int, x_int, tol=self.cfg.linear_tol,
                                          maxiter=LINEAR_MAXITER)
            self._n_cycles = max(rep.n_cycles, 1)
            return out
        out = x_int
        for _ in range(self._n_cycles):
            out, _ = v_cycle(self.hier, rhs_int, out)
        return out

    def _load(self, x_full):
        return iga.monge_ampere_load(self.space, self._f_vals, x_full)


def make_context(problem, cfg: OuterConfig):
    if isinstance(problem, BratuProblem):
        return BratuContext(problem, cfg)
    if isinstance(problem, MongeAmpereProblem):
        return MongeAmpereContext(problem, cfg)
    raise TypeError(f"unsupported problem type {type(problem).__name__}")


def run_outer(problem, cfg: OuterConfig) -> tuple[SplineField, IterationHistory]:
    """Drive the selected accelerator around the problem's Picard map.

    Stops when ||U^n - U^{n-1}|| / ||U^n|| <= tol or after maxiter map
    applications; the history records every application with phase timings
    and, when an exact solution is known, the L2 error.
    """
    ctx = make_context(problem, cfg)
    t_start = time.perf_counter()

    def observer(rec, x_full):
        rec.cpu_s = time.perf_counter() - t_start
        rec.rhs_s = ctx.timers.rhs_s
        rec.mg_s = ctx.timers.mg_s
        rec.extrapol_s = ctx.timers.extrapol_s
        rec.l2_error = ctx.l2(x_full)

    def G(x):
        try:
            return ctx.step(x)
        except iga.ExpOverflow as exc:
            raise Diverged(str(exc)) from exc

    x0 = ctx.initial_guess()
    acc = cfg.accelerator
    if acc == "none":
        x, hist = extrapolation.fixed_point_solve(G, x0, cfg.tol, cfg.maxiter,
                                                  observer=observer)
    elif acc in ("mpe", "rre"):
        x, hist = extrapolation.restarted_solve(G, x0, acc, cfg.window, cfg.tol,
                                                cfg.maxiter, observer=observer,
                                                timers=ctx.timers)
    else:
        x, hist = extrapolation.anderson_solve(G, x0, cfg.window, cfg.tol,
                                               cfg.maxiter, observer=observer,
                                               timers=ctx.timers)
    return SplineField(problem.space, x), hist
