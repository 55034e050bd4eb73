"""igasolve benchmark: time-to-solution of fixed table cells, end to end and per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh worker process (perfbench/worker.py)
with BLAS pinned to one thread. Passes repeat while another one fits in
``--seconds``. Every time is the median over passes, and ``peak_rss_mb`` is
the largest pass. With ``--trace 0`` the passes are untraced and the
end-to-end metrics are reported. With ``--trace 1`` untraced and traced
passes alternate, and the per-layer metrics, the tracing overhead and the
trace/PhaseTimers gaps are reported.
Every cell's non-timing outputs are compared with reference.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
TRACES = HERE / "traces"
PROCESS_LIMIT_S = 170.0  # the whole run, warm-up and imports included

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "ms_per_iter": "ms",
    "outer_iters": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "bench.run_cell.s": "s",
    "nonlinear.make_context.s": "s",
    "nonlinear.initial_guess.s": "s",
    "nonlinear.step.calls": "count",
    "iga.rhs.s": "s",
    "iga.assemble_stiffness.self_s": "s",
    "iga.apply_dirichlet.s": "s",
    "iga.l2_error.s": "s",
    "iga.l2_error.calls": "count",
    "bspline.tabulate.s": "s",
    "bspline.tabulate.calls": "count",
    "bspline.insert_knots.s": "s",
    "multigrid.build_hierarchy.self_s": "s",
    "multigrid.v_cycle.s": "s",
    "multigrid.solve_to_tolerance.s": "s",
    "multigrid.cycles": "count",
    "multigrid.contraction.p50": "ratio",
    "multigrid.levels": "count",
    "multigrid.fine_nnz": "count",
    "multigrid.coarse_dof": "count",
    "linalg.coarse_factor.s": "s",
    "linalg.coarse_solve.s": "s",
    "extrapolation.extrapolate.s": "s",
    "extrapolation.anderson_step.s": "s",
    "extrapolation.accepted_frac": "ratio",
    "trace.overhead_s": "s",
    "crosscheck.rhs.gap_s": "s",
    "crosscheck.mg.gap_s": "s",
    "crosscheck.extrapol.gap_s": "s",
}


def check_checkout() -> str | None:
    """Why the benchmark cannot run in this directory, or None when it can."""
    for need in ("src/igasolve/__init__.py", "configs", "perfbench/reference.json"):
        if not (ROOT / need).exists():
            return f"{ROOT / need} is missing; run from a full igasolve checkout"
    return None


def run_worker(workload: str, seed: int, pass_index: int, trace: bool,
               timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(TRACES / f"{workload}-pass{pass_index}.jsonl")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker pass {pass_index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_metrics(p: dict) -> dict[str, float]:
    cells = p["cells"]
    setup = sum(c["setup_s"] for c in cells)
    solve = sum(c["solve_s"] for c in cells)
    iters = sum(c["iter"] for c in cells)
    return {
        "wall_s": p["wall_s"],
        "setup_s": setup,
        "solve_s": solve,
        "ms_per_iter": solve * 1000.0 / iters if iters else float("nan"),
        "outer_iters": iters,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    if trace:
        TRACES.mkdir(exist_ok=True)
    passes: list[tuple[bool, dict, float]] = []  # (traced, result, process seconds)
    # Traced runs alternate untraced and traced passes; the seed picks which comes first.
    modes = [bool((seed + k) % 2) for k in range(2)] if trace else [False]
    while True:
        traced = modes[len(passes) % len(modes)]
        t0 = time.perf_counter()
        budget = PROCESS_LIMIT_S - (t0 - t_start)
        result = run_worker(workload, seed, len(passes), traced, budget)
        passes.append((traced, result, time.perf_counter() - t0))
        elapsed = time.perf_counter() - t_start
        typical = median(s for _, _, s in passes)
        if len(passes) >= len(modes) and elapsed + typical > seconds:
            break
        if elapsed + max(s for _, _, s in passes) > PROCESS_LIMIT_S - 5.0:
            break

    untraced = [pass_metrics(r) for t, r, _ in passes if not t]
    cells = [c for _, r, _ in passes for c in r["cells"]]
    failures = [f"{c['key']}: {'; '.join(c['problems'])}" for c in cells if c["problems"]]
    summary = {k: median(p[k] for p in untraced) for k in END_TO_END_UNITS}
    # The workload's peak is the largest of its passes; a pass's peak depends
    # on its cell order, so a median would flip between heap layouts.
    summary["peak_rss_mb"] = max(p["peak_rss_mb"] for p in untraced)
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "untraced_passes": len(untraced),
        "attempted": len(cells), "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": summary,
        "end_to_end_quartiles": {k: spread([p[k] for p in untraced]) for k in END_TO_END_UNITS},
        "untraced_pass_metrics": untraced,
        "untraced_cell_times": [{c["key"]: [c["setup_s"], c["solve_s"]] for c in r["cells"]}
                                for t, r, _ in passes if not t],
        "stamp": passes[0][1]["stamp"],
    }
    if trace:
        traced = [r for t, r, _ in passes if t]
        layers = {k: median(r["layers"][k] for r in traced)
                  for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        layers["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - summary["wall_s"])
        report["per_layer"] = layers
        report["crosscheck"] = traced[0]["crosscheck"]
        report["unwrapped"] = sorted({u for r in traced for u in r["unwrapped"]})
        report["spans"] = [r["spans"] for r in traced]
    return report


def print_report(report: dict) -> None:
    n = report["untraced_passes"]
    print(f"# igasolve benchmark  workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} passes={report['passes']} cells={report['attempted']}")
    print(f"# env {json.dumps(report['stamp'], sort_keys=True)}")
    for name, unit in END_TO_END_UNITS.items():
        q1, q3 = report["end_to_end_quartiles"][name]
        how = "max" if name == "peak_rss_mb" else "median"
        print(f"{name:<14} {report['end_to_end'][name]:>14.6g} {unit:<6} "
              f"{how} of {n} untraced passes, quartiles {q1:.6g} .. {q3:.6g}")
    frac = report["failed"] / report["attempted"]
    print(f"{'failed_frac':<14} {frac:>14.6g} {'ratio':<6} "
          f"{report['failed']} of {report['attempted']} cells")
    cell_s = [sum(t) for p in report["untraced_cell_times"] for t in p.values()]
    if len(cell_s) >= 100:
        p90 = quantiles(cell_s, n=10)[-1]
        print(f"{'cell_s':<14} p50 {median(cell_s):.6g} s, p90 {p90:.6g} s "
              f"over {len(cell_s)} cells")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    if report["trace"]:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:<34} {report['per_layer'][name]:>14.6g} {unit}")
        cc = report["crosscheck"]
        for k in cc["program"]:
            print(f"# crosscheck {k}: traced {cc['traced'][k]:.6g} s, "
                  f"PhaseTimers {cc['program'][k]:.6g} s")
        if report["unwrapped"]:
            print(f"# not traced (missing in this version): {', '.join(report['unwrapped'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    print_report(report)
    if args.trace:
        metrics = {k: {"value": report["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
