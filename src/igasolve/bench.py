"""Benchmark harness: parameter sweeps, CSV emission and the ``bench`` CLI.

Experiments are described by plain-text key/value config files (one per
reproduced table, under ``configs/``). A sweep is the Cartesian product of
the lambda, degree and grid lists crossed with the method list; every cell
yields exactly one CSV row. Cell failures are recorded in the row, never
aborting the sweep. Cells on one (degree, grid) run one after another and
share their discretisation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .bspline import MAX_GAUSS_POINTS
from .history import Diverged, IterationHistory
from .extrapolation import MAX_MAXITER, MAX_WINDOW_VALUES
from .multigrid import MAX_FINE_DOF, MAX_FINE_NNZ, level_spaces
from .nonlinear import (DIRECT_THRESHOLD, BratuProblem, MongeAmpereProblem, OuterConfig,
                        build_discretisation, run_outer)

CSV_HEADER = [
    "problem", "method", "lambda", "p", "h", "iter", "relative_residual",
    "l2_err", "cpu_s", "rhs_time_s", "mg_time_s", "extrapol_time_s", "converged",
]
# Columns that differ from run to run; `bench compare` leaves them out.
TIMING_COLUMNS = ("cpu_s", "rhs_time_s", "mg_time_s", "extrapol_time_s")

_METHOD_RE = re.compile(r"^(picard|picard_slu)$|^(mpe|rre|aa)\((\d+)\)$")
# The L2 error is integrated with p+2 Gauss points per span.
MAX_DEGREE = MAX_GAUSS_POINTS - 2
# Each problem's dimension, the config key its cells never read, and its
# manufactured instance for (lambda, p, grid). Bratu cells run one V-cycle
# or the sparse LU, so no inner tolerance reaches them.
_PROBLEMS = {
    "bratu1d": (1, "inner_tol", BratuProblem.manufactured_1d),
    "bratu2d": (2, "inner_tol", BratuProblem.manufactured_2d),
    "monge_ampere": (2, "lambda", lambda lam, p, n: MongeAmpereProblem.manufactured(p, n)),
}


@dataclass
class ExperimentConfig:
    problem: str
    lambdas: list[float] = field(default_factory=lambda: [0.0])
    degrees: list[int] = field(default_factory=lambda: [2])
    grids: list[int] = field(default_factory=lambda: [16])
    methods: list[str] = field(default_factory=lambda: ["picard"])
    tol: float = 1e-12
    maxiter: int = 1000
    inner_tol: float = 1e-2
    inner_tol_overrides: dict[tuple[int, int], float] = field(default_factory=dict)

    def cells(self):
        return itertools.product(self.lambdas, self.degrees, self.grids, self.methods)

    def linear_tol_for(self, p: int, n: int) -> float:
        return self.inner_tol_overrides.get((p, n), self.inner_tol)


@dataclass
class ResultRow:
    problem: str
    method: str
    lam: float
    p: int
    n: int
    iter: int
    relative_residual: float
    l2_err: float
    cpu_s: float
    rhs_time_s: float
    mg_time_s: float
    extrapol_time_s: float
    converged: bool
    note: str = ""

    @property
    def h(self) -> float:
        return 1.0 / self.n


def parse_method(token: str) -> tuple[str, int]:
    m = _METHOD_RE.match(token.strip())
    if not m:
        raise ValueError(f"bad method {token!r}")
    if m.group(1):
        return m.group(1), 0
    return m.group(2), int(m.group(3))


# The sweep axes in cell-tuple order, each with the parser of its values:
# config lists, cells and --cell selectors compare values as parsed.
_AXES = {"lambda": float, "p": int, "grid": int, "method": parse_method}


def parse_config(path) -> ExperimentConfig:
    """Read a key = value config file; comma-separated values form lists.

    Values are checked by the objects the cells build, built here up front.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"config {path} is not UTF-8 text: {exc}") from None
    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        if key in kv:
            raise ValueError(f"duplicate config key {key!r}")
        kv[key] = val

    if "problem" not in kv:
        raise ValueError("config has no problem key")
    problem = kv.pop("problem")
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    cfg = ExperimentConfig(problem=problem)

    def axis_values(key, s):
        """An axis's comma-separated values as written and as parsed, unless
        two of them parse alike (one cell twice)."""
        written = [x.strip() for x in s.split(",") if x.strip()]
        parsed = [_AXES[key](x) for x in written]
        for i, v in enumerate(parsed):
            if v in parsed[:i]:
                raise ValueError(f"repeated value {written[i]}")
        return written, parsed

    def linear_tol(s):
        return OuterConfig(linear_tol=float(s)).linear_tol

    unread = _PROBLEMS[problem][1]
    override_keys: dict[tuple[int, int], str] = {}  # (p, grid) -> its inner_tol.pX.gY key
    for key, val in kv.items():
        try:
            if key in _AXES:
                written, parsed = axis_values(key, val)
            if key == "lambda":
                if not all(math.isfinite(v) for v in parsed):
                    raise ValueError("values must be finite")
                cfg.lambdas = parsed
            elif key in ("p", "grid"):
                if min(parsed, default=1) < 1:
                    raise ValueError("values must be at least 1")
                if key == "grid":
                    cfg.grids = parsed
                elif max(parsed, default=1) > MAX_DEGREE:
                    raise ValueError(f"values must be at most {MAX_DEGREE}")
                else:
                    cfg.degrees = parsed
            elif key == "method":
                for method in written:
                    _outer_config(method)
                cfg.methods = written
            elif key == "tol":
                cfg.tol = OuterConfig(tol=float(val)).tol
            elif key == "maxiter":
                cfg.maxiter = OuterConfig(maxiter=int(val)).maxiter
                if cfg.maxiter > MAX_MAXITER:
                    raise ValueError(f"maxiter must be at most {MAX_MAXITER}, got {cfg.maxiter}")
            elif key == "inner_tol":
                cfg.inner_tol = linear_tol(val)
            else:
                m = re.match(r"^inner_tol\.p(\d+)\.g(\d+)$", key)
                if not m:
                    raise ValueError("unknown config key")
                tol, pg = linear_tol(val), (int(m[1]), int(m[2]))
                if pg in override_keys:
                    raise ValueError(f"repeats {override_keys[pg]}")
                override_keys[pg] = key
                cfg.inner_tol_overrides[pg] = tol
            # checked after the value, so a bad value is reported as such
            if key.split(".")[0] == unread:
                raise ValueError(f"{problem} cells never read {unread}")
        except ValueError as exc:
            raise ValueError(f"{key} = {val}: {exc}") from None
    for (p, n), key in override_keys.items():  # the lists may follow an override
        if p not in cfg.degrees or n not in cfg.grids:
            raise ValueError(f"{key} = {kv[key]}: no cell has p = {p} and grid = {n}")
    if not (cfg.lambdas and cfg.degrees and cfg.grids and cfg.methods):
        raise ValueError("lambda, p, grid and method lists must be non-empty")

    dims, _, build = _PROBLEMS[cfg.problem]
    for p in cfg.degrees:
        for n in cfg.grids:
            # counted before the space exists: a huge grid's knots are big too
            dof = (n + p) ** dims
            nnz = dof * (2 * p + 1) ** dims
            try:
                if dof > MAX_FINE_DOF:
                    raise ValueError(f"{dof} dof, above the limit of {MAX_FINE_DOF}")
                if nnz > MAX_FINE_NNZ:
                    raise ValueError(f"about {nnz} stiffness nonzeros, above the limit of "
                                     f"{MAX_FINE_NNZ}")
                level_spaces(build(cfg.lambdas[0], p, n).space, DIRECT_THRESHOLD)
            except ValueError as exc:
                raise ValueError(f"p = {p}, grid = {n}: {exc}") from None
            for method in cfg.methods:
                window = min(parse_method(method)[1] + 1, dof + 1)
                if window * dof > MAX_WINDOW_VALUES:
                    raise ValueError(f"method = {kv['method']}: {method} at p = {p}, grid = {n} "
                                     f"keeps up to {window} differences of {dof} values, "
                                     f"above the limit of {MAX_WINDOW_VALUES}")
    return cfg


def _outer_config(method: str, **settings) -> OuterConfig:
    """The OuterConfig of one method token, with the given other settings."""
    kind, window = parse_method(method)
    acc = {"picard": "none", "picard_slu": "none", "aa": "anderson"}.get(kind, kind)
    inner = "direct" if kind == "picard_slu" else OuterConfig.inner
    return OuterConfig(accelerator=acc, window=window, inner=inner, **settings)


# The last cell's discretisation under its key (problem, p, grid), which the
# config fully determines: a run of cells on one space builds it once, also
# for callers that run cells one at a time. It holds one entry, released
# before the next one is built, so a sweep never keeps two discretisations
# at a time.
_held: dict = {}


def _problem_on_held_space(cfg: ExperimentConfig, lam: float, p: int, n: int):
    """The cell's problem, its discretisation and the build seconds to
    charge the cell: none when built here, on the cell's clock, else the
    held discretisation's build time."""
    key = (cfg.problem, p, n)
    disc = _held.pop(key, None)
    _held.clear()  # the old entry goes before anything is built
    problem = _PROBLEMS[cfg.problem][2](lam, p, n)
    if disc is None:
        disc, charged = build_discretisation(problem.space, problem.g), 0.0
    else:
        problem, charged = dataclasses.replace(problem, space=disc.space), disc.build_s
    _held[key] = disc  # only once built: a cell that raises here leaves no entry
    return problem, disc, charged


def run_cell(cfg: ExperimentConfig, cell, l2_every_step: bool = False
             ) -> tuple[ResultRow, IterationHistory]:
    """Run one (lambda, p, grid, method) cell; failures land in the row.
    ``l2_every_step`` puts the L2 error on every record, not only the last.

    The cell reuses the previous cell's discretisation when both have the
    same key; its ``cpu_s`` still counts that build, so it stays the time
    to solve the cell from scratch.
    """
    lam, p, n, method = cell
    t0 = time.perf_counter()
    hist = IterationHistory()
    note = ""
    charged = 0.0
    try:
        outer = _outer_config(method, tol=cfg.tol, maxiter=cfg.maxiter,
                              linear_tol=cfg.linear_tol_for(p, n))
        problem, disc, charged = _problem_on_held_space(cfg, lam, p, n)
        _, hist = run_outer(problem, outer, l2_every_step, disc)
    except Diverged as exc:
        note = f"diverged: {exc}"
        if exc.history is not None:
            hist = exc.history
    except Exception as exc:  # noqa: BLE001 - sweep must survive any cell
        note = f"error: {exc}"
    cpu = time.perf_counter() - t0 + charged
    last = hist.records[-1] if hist.records else None
    row = ResultRow(
        problem=cfg.problem, method=method, lam=lam, p=p, n=n,
        iter=hist.iterations,
        relative_residual=last.relative_residual if last else float("nan"),
        l2_err=last.l2_error if last else float("nan"),
        cpu_s=cpu,
        rhs_time_s=hist.timers.rhs_s,
        mg_time_s=hist.timers.mg_s,
        extrapol_time_s=hist.timers.extrapol_s,
        converged=hist.converged,
        note=note,
    )
    return row, hist


def _run_group(cfg: ExperimentConfig, cells) -> list[ResultRow]:
    return [run_cell(cfg, cell)[0] for cell in cells]


def run_experiment(cfg: ExperimentConfig, parallel: int = 1) -> list[ResultRow]:
    """Execute the sweep; rows come back in declaration order.

    Cells run in groups of one (p, grid), in declaration order within a
    group, so a group builds its discretisation once, released when the
    sweep ends; ``parallel`` worker processes take whole groups. Groups
    start largest first, by grid^2 (p+1)^2 times their number of cells, so
    the last group a worker takes is a small one.
    """
    cells = list(cfg.cells())
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (_, p, n, _) in enumerate(cells):
        groups.setdefault((p, n), []).append(i)
    order = sorted(groups, key=lambda key: (key[1] * (key[0] + 1)) ** 2 * len(groups[key]),
                   reverse=True)
    batches = [[cells[i] for i in groups[key]] for key in order]
    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_group, itertools.repeat(cfg), batches))
    else:
        results = [_run_group(cfg, batch) for batch in batches]
    _held.clear()
    rows: list = [None] * len(cells)
    for idx, got in zip((groups[key] for key in order), results):
        for i, row in zip(idx, got):
            rows[i] = row
    return rows


def _fmt(x: float) -> str:
    return f"{float(x):.5e}"


def _write_csv(path, what: str, header, rows) -> None:
    """Write a header and rows as RFC-4180 CSV; an OSError names the file."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def _check_writable(path: Path, what: str) -> None:
    """Open path as the writer will, but without truncating it, so an unusable
    output file fails before any cell runs; a file made here is removed."""
    existed = path.exists()  # follows a symlink, which open() also does
    try:
        open(path, "a").close()
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc.strerror or exc}") from None
    if not existed:
        path.resolve().unlink()  # the file made, not a symlink that led to it


def emit_csv(rows, path) -> None:
    """Write rows as RFC-4180 CSV with the pinned header."""
    _write_csv(path, "CSV", CSV_HEADER, ([
        r.problem, r.method, _fmt(r.lam), r.p, _fmt(r.h), r.iter,
        _fmt(r.relative_residual), _fmt(r.l2_err), _fmt(r.cpu_s),
        _fmt(r.rhs_time_s), _fmt(r.mg_time_s), _fmt(r.extrapol_time_s),
        "true" if r.converged else "false",
    ] for r in rows))


def emit_history(history: IterationHistory, path) -> None:
    """Write the per-iteration convergence history behind the semilog plots."""
    _write_csv(path, "history", ["iter", "relative_residual", "l2_err"],
               ([rec.iteration, _fmt(rec.relative_residual), _fmt(rec.l2_error)]
                for rec in history.records))


def _untimed_rows(path: Path) -> list[list[str]]:
    """A CSV's header and rows, as text, without the timing columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"no header row in {path}")
    timed = {i for i, name in enumerate(rows[0]) if name in TIMING_COLUMNS}
    return [[v for i, v in enumerate(row) if i not in timed] for row in rows]


def compare_csv(old: Path, new: Path) -> tuple[list[str], int]:
    """Compare two CSV files, or two directories of ``*.csv``, outside the
    timing columns: headers and rows in order, by exact text.

    Returns a line per difference (a file on one side only, or a header or
    row that differs or is missing on one side) and the number of data rows
    compared; raises ValueError for a file compared with a directory, for
    two directories with no CSV and for a file with no header row.
    """
    if old.is_dir() != new.is_dir():
        raise ValueError(f"cannot compare a file with a directory: {old}, {new}")
    diffs, n_rows = [], 0
    if old.is_dir():
        in_old, in_new = ({f.name for f in d.glob("*.csv")} for d in (old, new))
        if not in_old | in_new:
            raise ValueError(f"no *.csv in {old} or {new}")
        diffs += [f"only in {old / name}" for name in sorted(in_old - in_new)]
        diffs += [f"only in {new / name}" for name in sorted(in_new - in_old)]
        pairs = [(old / name, new / name) for name in sorted(in_old & in_new)]
    else:
        pairs = [(old, new)]
    for a, b in pairs:
        rows_a, rows_b = _untimed_rows(a), _untimed_rows(b)
        n_rows += max(len(rows_a), len(rows_b), 1) - 1
        for i, (ra, rb) in enumerate(itertools.zip_longest(rows_a, rows_b)):
            if ra != rb:
                where = "header" if i == 0 else f"row {i}"
                diffs += [f"{a} {where}: " + (",".join(ra) if ra is not None else "(none)"),
                          f"{b} {where}: " + (",".join(rb) if rb is not None else "(none)")]
    return diffs, n_rows


def find_table_config(n: int) -> Path:
    """Locate configs/table<n>.cfg relative to cwd or the repo checkout."""
    name = f"table{n}.cfg"
    candidates = [
        Path.cwd() / "configs" / name,
        Path(__file__).resolve().parents[2] / "configs" / name,
    ]
    for c in candidates:
        if c.is_file():
            return c
    raise FileNotFoundError(f"no {name} in " + " or ".join(str(c.parent) for c in candidates))


def _render(rows) -> str:
    lines = ["problem      method         lambda   p  grid  iter       rel_res       l2_err  conv"]
    for r in rows:
        mark = "" if r.converged else "^a"
        lines.append(
            f"{r.problem:<12} {r.method:<14} {r.lam:<8g} {r.p:<2d} {r.n:<5d} "
            f"{r.iter:<5d}{mark:<2} {r.relative_residual:>11.2e} {r.l2_err:>11.2e}  "
            f"{'yes' if r.converged else 'NO'}{('  [' + r.note + ']') if r.note else ''}"
        )
    return "\n".join(lines)


def parse_cell_selector(sel: str):
    """Parse 'method=rre(5),lambda=7,p=5,grid=64' into a cell filter.

    Raises ValueError for a part without '=', an unknown or repeated key or
    a value that does not parse, so a typo cannot silently select other cells.
    """
    want: dict[str, str] = {}
    for part in sel.split(","):
        part = part.strip()
        if not part:
            continue
        # method tokens contain parentheses, e.g. rre(5); only split on the first '='
        key, eq, val = part.partition("=")
        key, val = key.strip().lower(), val.strip()
        if not eq or key not in _AXES or key in want:
            raise ValueError(f"bad cell selector part {part!r}: expected each of "
                             + ", ".join(f"{k}=..." for k in _AXES) + " at most once")
        try:
            _AXES[key](val)
        except ValueError:
            raise ValueError(f"bad {key} value {val!r} in cell selector") from None
        want[key] = val
    return want


def _match_cell(cell, want) -> bool:
    return all(key not in want or parse(want[key]) == parse(value)
               for (key, parse), value in zip(_AXES.items(), cell))


def _worker_count(text: str) -> int:
    n = int(text)
    # the CPUs this process may run on, which a cpuset or taskset can narrow
    affinity = getattr(os, "sched_getaffinity", None)
    cap = len(affinity(0)) if affinity else os.cpu_count() or 1
    if not 1 <= n <= cap:
        raise argparse.ArgumentTypeError(f"must be between 1 and {cap}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench",
                                     description="Reproduce the solver benchmark tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."))
    p_run.add_argument("--parallel", type=_worker_count, default=1)

    p_table = sub.add_parser("table", help="run a checked-in table config")
    p_table.add_argument("number", type=int, choices=[1, 2, 3, 4, 5])
    p_table.add_argument("--out", type=Path, default=Path("."))
    p_table.add_argument("--parallel", type=_worker_count, default=1)

    p_hist = sub.add_parser("history", help="emit one cell's convergence history")
    p_hist.add_argument("--config", required=True, type=Path)
    p_hist.add_argument("--cell", required=True)
    p_hist.add_argument("--out", type=Path, default=None)

    p_cmp = sub.add_parser("compare", help="compare two CSVs, or two directories of "
                           "them, outside the timing columns; exit 1 if they differ")
    p_cmp.add_argument("old", type=Path)
    p_cmp.add_argument("new", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        try:
            diffs, n_rows = compare_csv(args.old, args.new)
        except (OSError, ValueError, csv.Error) as exc:
            print(exc, file=sys.stderr)
            return 2
        print("\n".join(diffs) if diffs else f"{n_rows} rows match")
        return 1 if diffs else 0
    try:
        cfg_path = find_table_config(args.number) if args.command == "table" else args.config
        cfg = parse_config(cfg_path)
        # a bad selector or unusable output file fails here, before any cell runs
        if args.command == "history":
            want = parse_cell_selector(args.cell)
            matches = [c for c in cfg.cells() if _match_cell(c, want)]
            if len(matches) != 1:
                raise ValueError(f"selector matches {len(matches)} cells, need exactly 1")
            lam, p, n, method = matches[0]
            safe = re.sub(r"[^A-Za-z0-9_.-]", "_", f"{cfg.problem}_{method}_l{lam}_p{p}_g{n}")
            out = args.out or Path(f"history_{safe}.csv")
        else:
            out = args.out / (Path(cfg_path).stem + ".csv")
        out.parent.mkdir(parents=True, exist_ok=True)
        _check_writable(out, "history" if args.command == "history" else "CSV")
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.command == "history":
        row, hist = run_cell(cfg, matches[0], l2_every_step=True)
        print(_render([row]))
        emit_history(hist, out)
    else:
        rows = run_experiment(cfg, parallel=args.parallel)
        print(_render(rows))
        emit_csv(rows, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
