"""Per-iteration records shared by the outer solvers and the benchmark CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseTimers:
    """Cumulative wall-clock spent in each solver phase."""

    rhs_s: float = 0.0
    mg_s: float = 0.0
    extrapol_s: float = 0.0


@dataclass
class IterationRecord:
    iteration: int
    relative_residual: float
    l2_error: float = float("nan")
    cpu_s: float = 0.0
    rhs_s: float = 0.0
    mg_s: float = 0.0
    extrapol_s: float = 0.0


@dataclass
class IterationHistory:
    """Record of every fixed-point map application in an outer solve."""

    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    def append(self, iteration: int, relative_residual: float) -> IterationRecord:
        rec = IterationRecord(iteration=iteration, relative_residual=relative_residual)
        self.records.append(rec)
        return rec

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0
