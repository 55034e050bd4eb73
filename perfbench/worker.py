"""One timed pass of a benchmark workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --pass-index K
       --trace 0|1 [--spans PATH]

Pins BLAS to one thread before numpy loads, imports igasolve from the
checkout's ``src/``, runs one warm-up cell, then runs the workload's cells
in the order the seed gives through ``igasolve.bench.run_cell``. Prints one
JSON object with the per-cell times and outputs, the pass wall time, the
peak RSS and, with ``--trace 1``, the per-layer totals.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, install_layers, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cell_order  # noqa: E402

REFERENCE = HERE / "reference.json"
COMPARED_FIELDS = ("iter", "relative_residual", "l2_err", "converged")


def import_igasolve():
    import igasolve
    from igasolve import bench, extrapolation, iga, linalg, multigrid, nonlinear

    src = (ROOT / "src").resolve()
    if src not in Path(igasolve.__file__).resolve().parents:
        raise SystemExit(f"igasolve imported from {igasolve.__file__}, not from {src}")
    return types.SimpleNamespace(bench=bench, extrapolation=extrapolation, iga=iga,
                                 linalg=linalg, multigrid=multigrid, nonlinear=nonlinear)


class CellClock:
    """Marks the end of a cell's setup: the entry into the outer solver.

    Setup (problem and space build, tabulation, assembly, hierarchy,
    coarsest-grid factorisation, Dirichlet layout, initial guess) is what
    ``run_outer`` does before it hands the initial guess to one of the
    outer loops; one timer read per cell marks that moment.
    """

    def __init__(self, extrapolation_module):
        self.setup_end: float | None = None
        for name in ("fixed_point_solve", "restarted_solve", "anderson_solve"):
            self._wrap(extrapolation_module, name)

    def _wrap(self, module, name):
        fn = getattr(module, name)
        clock = self

        def marked(*args, **kwargs):
            if clock.setup_end is None:
                clock.setup_end = time.perf_counter()
            return fn(*args, **kwargs)

        setattr(module, name, marked)


def csv_fields(row) -> dict[str, str]:
    """The non-timing outputs of a cell, formatted as ``emit_csv`` writes them."""
    return {
        "iter": str(row.iter),
        "relative_residual": f"{float(row.relative_residual):.5e}",
        "l2_err": f"{float(row.l2_err):.5e}",
        "converged": "true" if row.converged else "false",
    }


def blas_info() -> dict[str, dict]:
    """Thread count and kernel of the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy

    found = {}
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            if threads is None or core is None:
                continue
            core.restype = ctypes.c_char_p
            found[pkg.__name__] = {"threads": int(threads()), "core": core().decode()}
    return found


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


def run_pass(workload_name: str, seed: int, pass_index: int, trace: bool,
             spans_path: str | None) -> dict:
    workload = WORKLOADS[workload_name]
    m = import_igasolve()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    configs = {}

    def config(cell):
        if cell.config not in configs:
            configs[cell.config] = m.bench.parse_config(ROOT / "configs" / cell.config)
        return configs[cell.config]

    tracer = None
    if trace:
        tracer = Tracer()
        install_layers(tracer, m)
    clock = CellClock(m.extrapolation)

    m.bench.run_cell(config(workload.warmup), workload.warmup.tuple)
    cells = cell_order(workload, seed, pass_index)
    for cell in cells:
        config(cell)
    if tracer is not None:
        tracer.reset()
    gc.collect()

    results = []
    t_pass = time.perf_counter()
    for cell in cells:
        if tracer is not None:
            tracer.cell = cell.key
        clock.setup_end = None
        t0 = time.perf_counter()
        row, _ = m.bench.run_cell(configs[cell.config], cell.tuple)
        t1 = time.perf_counter()
        t_setup = clock.setup_end if clock.setup_end is not None else t1
        results.append((cell, row, t_setup - t0, t1 - t_setup))
    wall = time.perf_counter() - t_pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_cells = []
    for cell, row, setup_s, solve_s in results:
        fields = csv_fields(row)
        ref = reference.get(cell.key)
        problems = []
        if row.note:
            problems.append(row.note)
        if ref is None:
            problems.append("no reference output")
        else:
            problems += [f"{k}={fields[k]} (reference {ref[k]})"
                         for k in COMPARED_FIELDS if fields[k] != ref[k]]
        out_cells.append({
            "key": cell.key, "setup_s": setup_s, "solve_s": solve_s,
            "iter": row.iter, "fields": fields, "problems": problems,
            "rhs_time_s": row.rhs_time_s, "mg_time_s": row.mg_time_s,
            "extrapol_time_s": row.extrapol_time_s,
        })

    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "cells": out_cells,
              "stamp": environment_stamp()}
    if tracer is not None:
        layers = layer_metrics(tracer)
        own, tot = tracer.self_s, tracer.total_s
        program = {k: sum(c[k] for c in out_cells)
                   for k in ("rhs_time_s", "mg_time_s", "extrapol_time_s")}
        traced = {
            "rhs_time_s": own["nonlinear.step"],
            "mg_time_s": tot["multigrid.v_cycle"] + tot["multigrid.solve_to_tolerance"],
            "extrapol_time_s": tot["extrapolation.extrapolate"]
            + tot["extrapolation.anderson_step"],
        }
        for name, key in (("rhs", "rhs_time_s"), ("mg", "mg_time_s"),
                          ("extrapol", "extrapol_time_s")):
            layers[f"crosscheck.{name}.gap_s"] = traced[key] - program[key]
        result["layers"] = layers
        result["crosscheck"] = {"traced": traced, "program": program}
        result["unwrapped"] = sorted(tracer.unwrapped)
        result["spans"] = len(tracer.spans)
        if spans_path:
            tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the pass's spans here as JSON lines")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.pass_index, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
