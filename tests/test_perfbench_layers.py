"""The benchmark's tracer must find every layer it wraps.

``perfbench/tracer.py`` wraps igasolve functions by the names their callers
look up; a refactor that renames or deletes one leaves that layer's metric
at zero. These tests load the tracer read-only and patch nothing.
"""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from igasolve import bench, extrapolation, iga, linalg, multigrid, nonlinear
from igasolve.iga import make_space

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
