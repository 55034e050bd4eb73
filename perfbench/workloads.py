"""Cell sets of the igasolve benchmark.

Every cell comes from a shipped table config (``configs/table<n>.cfg``) and
runs with that config's tolerances, iteration limits and inner solver. A
cell is named by its config file and its (lambda, p, grid, method) tuple,
which is also its key in ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    config: str  # file name under configs/
    lam: float
    p: int
    n: int
    method: str

    @property
    def key(self) -> str:
        return f"{self.config}|{self.lam:g}|{self.p}|{self.n}|{self.method}"

    @property
    def tuple(self):
        return (self.lam, self.p, self.n, self.method)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]
    # Run once per worker process before timing; its spline space appears
    # in no measured cell, so no table or hierarchy it builds can be reused.
    warmup: Cell


def _table2_sweep() -> tuple[Cell, ...]:
    return tuple(Cell("table2.cfg", lam, p, n, "mpe(5)")
                 for lam in (1.0, 3.0, 5.0, 7.0)
                 for p in (1, 2, 3, 4, 5, 6)
                 for n in (16, 32, 64, 128))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bratu1d-sweep",
        why="all 96 cells of table 2: many small 1D solves where per-cell "
            "tabulation and knot insertion dominate",
        cells=_table2_sweep(),
        warmup=Cell("table2.cfg", 1.0, 2, 8, "mpe(5)"),
    ),
    Workload(
        name="bratu2d-lam17",
        why="2D Bratu at lambda=17, p=5: a 188-step Picard cell beside "
            "assembly-bound extrapolated cells at N=64 and N=128",
        cells=(
            Cell("table3.cfg", 17.0, 5, 64, "picard"),
            Cell("table3.cfg", 17.0, 5, 64, "rre(3)"),
            Cell("table3.cfg", 17.0, 5, 64, "aa(3)"),
            Cell("table4.cfg", 17.0, 5, 128, "mpe(5)"),
        ),
        warmup=Cell("table3.cfg", 3.0, 2, 8, "picard"),
    ),
    Workload(
        name="monge-ampere",
        why="Monge-Ampere from table 5: second-derivative RHS, V-cycles to "
            "tolerance and a harmonic lift of non-homogeneous boundary data",
        cells=(
            Cell("table5.cfg", 0.0, 4, 64, "picard"),
            Cell("table5.cfg", 0.0, 4, 64, "rre(5)"),
            Cell("table5.cfg", 0.0, 3, 128, "rre(5)"),
        ),
        warmup=Cell("table5.cfg", 0.0, 2, 8, "rre(5)"),
    ),
    # One tiny cell per problem kind, for the self-check in smoke.py only.
    Workload(
        name="smoke-bratu1d",
        why="self-check",
        cells=(Cell("table2.cfg", 3.0, 2, 16, "mpe(5)"),),
        warmup=Cell("table2.cfg", 1.0, 2, 8, "mpe(5)"),
    ),
    Workload(
        name="smoke-bratu2d",
        why="self-check",
        cells=(Cell("table3.cfg", 3.0, 2, 16, "rre(3)"),),
        warmup=Cell("table3.cfg", 3.0, 2, 8, "picard"),
    ),
    Workload(
        name="smoke-monge-ampere",
        why="self-check",
        cells=(Cell("table5.cfg", 0.0, 2, 16, "rre(5)"),),
        warmup=Cell("table5.cfg", 0.0, 2, 8, "rre(5)"),
    ),
)}


def cell_order(workload: Workload, seed: int, pass_index: int) -> list[Cell]:
    """The workload's cells in the order the seed gives for one pass."""
    cells = list(workload.cells)
    random.Random(f"{workload.name}:{seed}:{pass_index}").shuffle(cells)
    return cells
