"""The benchmark's tracer must find every layer it wraps, and its setup
marker must fire before the first Picard step.

``perfbench/tracer.py`` wraps igasolve functions by the names their callers
look up; a refactor that renames or deletes one leaves that layer's metric
at zero. ``perfbench/worker.py`` splits a cell into setup and solve time at
the entry into an outer driver. These tests load both files read-only and
undo every change loading them makes.
"""

import importlib.util
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from igasolve import bench, extrapolation, iga, linalg, multigrid, nonlinear
from igasolve.iga import make_space

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name, path):
    """Import ``path`` as module ``name``, registered until teardown."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in perfbench/
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return load(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py; what its import sets is put back at teardown."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the worker sets them to 1 itself
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("tracer", "workloads"):  # the worker's sibling imports
        load(monkeypatch, name, PERFBENCH / f"{name}.py")
    return load(monkeypatch, "perfbench_worker", PERFBENCH / "worker.py")


def test_every_traced_layer_resolves(tracer):
    class Resolver(tracer.Tracer):
        """Records the layers ``wrap`` could not find instead of wrapping."""

        def wrap(self, owner, attr, name, on_result=None):
            if tracer._lookup(owner, attr) is None:
                self.unwrapped.add(name)

    modules = types.SimpleNamespace(bench=bench, extrapolation=extrapolation, iga=iga,
                                    linalg=linalg, multigrid=multigrid, nonlinear=nonlinear)
    resolver = Resolver()
    tracer.install_layers(resolver, modules)
    assert resolver.unwrapped == set()


def test_traced_results_have_the_read_fields(tracer):
    t = tracer.Tracer()
    h = multigrid.build_hierarchy(make_space(2, 32), direct_threshold=8)
    b = np.ones(h.fine.A.shape[0])
    tracer._on_hierarchy(t, h)
    tracer._on_v_cycle(t, multigrid.v_cycle(h, b, np.zeros_like(b)))
    tracer._on_solve_to_tolerance(t, multigrid.solve_to_tolerance(h, b, np.zeros_like(b)))
    assert t.counts["multigrid.levels"] == h.n_levels == 3
    assert t.counts["multigrid.coarse_dof"] == h.levels[0].A.shape[0]
    assert t.counts["multigrid.cycles"] >= 2
    assert len(t.contraction) == 2


def test_setup_marker_precedes_first_step(worker, monkeypatch):
    for name in ("fixed_point_solve", "restarted_solve", "anderson_solve"):
        # CellClock replaces these; teardown puts the originals back
        monkeypatch.setattr(extrapolation, name, getattr(extrapolation, name))
    clock = worker.CellClock(extrapolation)
    marks = []
    step = nonlinear._PicardContext.step

    def marked_step(self, x):
        marks.append(clock.setup_end)
        return step(self, x)

    monkeypatch.setattr(nonlinear._PicardContext, "step", marked_step)
    cfg = bench.ExperimentConfig(problem="bratu1d", degrees=[2], grids=[8], tol=1e-8,
                                 methods=["picard", "aa(2)", "mpe(2)", "rre(2)"], maxiter=50)
    for cell in cfg.cells():
        clock.setup_end = None
        marks.clear()
        t0 = time.perf_counter()
        row, _ = bench.run_cell(cfg, cell)
        assert row.converged and not row.note
        assert marks[0] is not None and t0 < marks[0], cell


def test_picard_cell_enters_the_outer_loop_once(tracer, monkeypatch):
    class Undone(tracer.Tracer):
        """Wraps like the benchmark; teardown puts every wrapped name back."""

        def wrap(self, owner, attr, name, on_result=None):
            fn = tracer._lookup(owner, attr)
            if fn is not None:
                put = monkeypatch.setitem if isinstance(owner, dict) else monkeypatch.setattr
                put(owner, attr, fn)
            super().wrap(owner, attr, name, on_result)

    modules = types.SimpleNamespace(bench=bench, extrapolation=extrapolation, iga=iga,
                                    linalg=linalg, multigrid=multigrid, nonlinear=nonlinear)
    t = Undone()
    tracer.install_layers(t, modules)
    cfg = bench.ExperimentConfig(problem="bratu1d", degrees=[2], grids=[8], tol=1e-8,
                                 maxiter=50)
    row, _ = bench.run_cell(cfg, next(cfg.cells()))
    assert row.method == "picard" and row.converged
    assert t.calls["extrapolation.outer_loop"] == 1
