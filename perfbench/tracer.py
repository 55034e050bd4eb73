"""Spans around igasolve's layers, recorded from outside the package.

Each layer function is replaced at the name its caller looks up (for
example ``igasolve.nonlinear.v_cycle`` rather than
``igasolve.multigrid.v_cycle``), so the package itself is unchanged. A
span records its name, start, end, parent span and the cell it belongs
to; spans stay in memory until ``dump`` writes them. Self time is the
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from statistics import median


def _lookup(owner, attr):
    if isinstance(owner, dict):
        return owner.get(attr)
    return getattr(owner, attr, None)


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.reset()
        self.unwrapped: set[str] = set()  # layers or result counts not found

    def reset(self):
        self.spans: list[tuple] = []  # (id, parent, name, cell, start, end)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.contraction: list[float] = []
        self.cell: str | None = None
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` (or ``owner[attr]``) by a span-recording wrapper."""
        fn = _lookup(owner, attr)
        if fn is None:
            self.unwrapped.add(name)
            return
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span = [tracer._next_id, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(name)
            if on_result is not None:
                try:
                    on_result(tracer, out)
                except (AttributeError, IndexError, TypeError):
                    # the layer changed the shape of its result: keep the
                    # span, report the count as missing
                    tracer.unwrapped.add(name + " result")
            return out

        _assign(owner, attr, wrapper)

    def _close(self, name: str):
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.spans.append((span_id, parent, name, self.cell, start, end))

    def dump(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, cell, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "cell": cell, "start": start, "end": end}) + "\n")


def _on_hierarchy(tracer: Tracer, hier):
    tracer.counts["multigrid.levels"] += hier.n_levels
    tracer.counts["multigrid.fine_nnz"] += hier.fine.A.nnz
    tracer.counts["multigrid.coarse_dof"] += hier.levels[0].A.shape[0]


def _ratio(report, cycles: int) -> float | None:
    if cycles < 1 or report.initial_residual_norm <= 0.0:
        return None
    return (report.final_residual_norm / report.initial_residual_norm) ** (1.0 / cycles)


def _on_v_cycle(tracer: Tracer, out):
    _, report = out
    tracer.counts["multigrid.cycles"] += 1
    r = _ratio(report, 1)
    if r is not None:
        tracer.contraction.append(r)


def _on_solve_to_tolerance(tracer: Tracer, out):
    _, report = out
    tracer.counts["multigrid.cycles"] += report.n_cycles
    r = _ratio(report, report.n_cycles)
    if r is not None:
        tracer.contraction.append(r)


def install_layers(tracer: Tracer, igasolve_modules) -> None:
    """Wrap every traced layer boundary of the imported igasolve package."""
    m = igasolve_modules
    nl, iga, mg, ex = m.nonlinear, m.iga, m.multigrid, m.extrapolation
    ctx = getattr(nl, "_PicardContext", None)
    w = tracer.wrap
    w(m.bench, "run_cell", "bench.run_cell")
    w(nl, "make_context", "nonlinear.make_context")
    w(ctx, "initial_guess", "nonlinear.initial_guess")
    w(ctx, "step", "nonlinear.step")
    for solver in ("fixed_point_solve", "restarted_solve", "anderson_solve"):
        w(ex, solver, "extrapolation.outer_loop")
    w(iga, "assemble_stiffness", "iga.assemble_stiffness")
    w(iga, "apply_dirichlet", "iga.apply_dirichlet")
    w(mg, "apply_dirichlet", "iga.apply_dirichlet")
    w(iga, "l2_error", "iga.l2_error")
    w(iga, "tabulate", "bspline.tabulate")
    w(mg, "insert_knots", "bspline.insert_knots")
    w(nl, "build_hierarchy", "multigrid.build_hierarchy", _on_hierarchy)
    w(nl, "v_cycle", "multigrid.v_cycle", _on_v_cycle)
    w(nl, "solve_to_tolerance", "multigrid.solve_to_tolerance", _on_solve_to_tolerance)
    w(getattr(m.linalg, "DenseLU", None), "solve", "linalg.coarse_solve")
    w(mg, "DenseLU", "linalg.coarse_factor")
    extrapolators = getattr(ex, "_EXTRAPOLATORS", {})
    for method in ("mpe", "rre"):
        w(extrapolators, method, "extrapolation.extrapolate")
    w(ex, "anderson_step", "extrapolation.anderson_step")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, named as in BENCHMARK.json."""
    tot, own, calls, counts = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    attempts = calls["extrapolation.extrapolate"]
    rejected = tracer.raised["extrapolation.extrapolate"]
    return {
        "bench.run_cell.s": tot["bench.run_cell"],
        "nonlinear.make_context.s": tot["nonlinear.make_context"],
        "nonlinear.initial_guess.s": tot["nonlinear.initial_guess"],
        "nonlinear.step.calls": calls["nonlinear.step"],
        "iga.rhs.s": own["nonlinear.step"],
        "iga.assemble_stiffness.self_s": own["iga.assemble_stiffness"],
        "iga.apply_dirichlet.s": tot["iga.apply_dirichlet"],
        "iga.l2_error.s": tot["iga.l2_error"],
        "iga.l2_error.calls": calls["iga.l2_error"],
        "bspline.tabulate.s": tot["bspline.tabulate"],
        "bspline.tabulate.calls": calls["bspline.tabulate"],
        "bspline.insert_knots.s": tot["bspline.insert_knots"],
        "multigrid.build_hierarchy.self_s": own["multigrid.build_hierarchy"],
        "multigrid.v_cycle.s": tot["multigrid.v_cycle"],
        "multigrid.solve_to_tolerance.s": tot["multigrid.solve_to_tolerance"],
        "multigrid.cycles": counts["multigrid.cycles"],
        "multigrid.contraction.p50": median(tracer.contraction) if tracer.contraction else 0.0,
        "multigrid.levels": counts["multigrid.levels"],
        "multigrid.fine_nnz": counts["multigrid.fine_nnz"],
        "multigrid.coarse_dof": counts["multigrid.coarse_dof"],
        "linalg.coarse_factor.s": tot["linalg.coarse_factor"],
        "linalg.coarse_solve.s": tot["linalg.coarse_solve"],
        "extrapolation.extrapolate.s": tot["extrapolation.extrapolate"],
        "extrapolation.anderson_step.s": tot["extrapolation.anderson_step"],
        "extrapolation.accepted_frac": (attempts - rejected) / attempts if attempts else 1.0,
    }
