import csv
import dataclasses
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from igasolve import bench, extrapolation, iga, nonlinear
from igasolve.bench import (
    CSV_HEADER,
    TIMING_COLUMNS,
    ExperimentConfig,
    ResultRow,
    compare_csv,
    emit_csv,
    emit_history,
    find_table_config,
    _match_cell,
    main,
    parse_cell_selector,
    parse_config,
    parse_method,
    run_cell,
    run_experiment,
)
from igasolve.extrapolation import MAX_MAXITER
from igasolve.history import IterationHistory
from igasolve.nonlinear import MongeAmpereProblem, OuterConfig, run_outer

TINY_CFG = """
problem = bratu1d
lambda = 1
p = 1, 2
grid = 8
method = picard, mpe(2)
tol = 1e-10
maxiter = 200
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return parse_config(path)


@pytest.fixture
def four_axes_cfg(tmp_path):
    """Two values on every sweep axis."""
    path = tmp_path / "four.cfg"
    path.write_text("problem = bratu1d\nlambda = 1, 3\np = 1, 2\ngrid = 8, 16\n"
                    "method = picard, mpe(2)\n")
    return parse_config(path)


class TestConfigParsing:
    def test_lists_and_scalars(self, tiny_cfg):
        assert tiny_cfg.problem == "bratu1d"
        assert tiny_cfg.lambdas == [1.0]
        assert tiny_cfg.degrees == [1, 2]
        assert tiny_cfg.grids == [8]
        assert tiny_cfg.methods == ["picard", "mpe(2)"]
        assert tiny_cfg.tol == 1e-10

    def test_method_grammar(self):
        assert parse_method("picard") == ("picard", 0)
        assert parse_method("picard_slu") == ("picard_slu", 0)
        assert parse_method("rre(5)") == ("rre", 5)
        assert parse_method("aa(3)") == ("aa", 3)
        with pytest.raises(ValueError):
            parse_method("newton")
        with pytest.raises(ValueError):
            parse_method("mpe(x)")

    def test_inner_tol_overrides(self, tmp_path):
        path = tmp_path / "ma.cfg"
        path.write_text(
            "problem = monge_ampere\np = 2\ngrid = 8, 16\nmethod = picard\n"
            "inner_tol = 1e-2\ninner_tol.p2.g16 = 1e-4\n"
        )
        cfg = parse_config(path)
        assert cfg.linear_tol_for(2, 8) == 1e-2
        assert cfg.linear_tol_for(2, 16) == 1e-4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = bratu1d\nsmoothing = 3\n")
        with pytest.raises(ValueError):
            parse_config(path)

    @pytest.mark.parametrize("text", [
        "p = 2\n",
        "problem = bratu1d\ninner = vcycle\n",
        "problem = bratu1d\nmethod = mpe(0)\n",
        "problem = bratu1d\ngrid = 0\n",
        "problem = bratu1d\np = 0\n",
        "problem = bratu1d\ngrid = 8\ngrid = 16\n",
        "problem = bratu1d\nseed = 0\n",
        "problem = bratu1d\np = 2, 15\n",
        "problem = bratu1d\ntol = -1\n",
        "problem = bratu1d\ninner_tol = 0\n",
        "problem = bratu1d\ninner_tol.p2.g16 = 0\n",
        "problem = bratu1d\nmaxiter = 0\n",
        "problem = bratu2d\np = 2\ngrid = 64, 254\n",
        "problem = monge_ampere\np = 3\ngrid = 254\n",
        "problem = bratu1d\nlambda = 1, nan\n",
        "problem = bratu1d\nlambda = inf\n",
        "problem = bratu1d\ntol = inf\n",
        "problem = bratu1d\ninner_tol = inf\n",
        "problem = bratu1d\ninner_tol.p2.g16 = inf\n",
        "problem = monge_ampere\np = 1, 2\ngrid = 8\n",
        "problem = bratu1d\nk = 1\n",
        "problem = bratu1d\ninner = one_vcycle\n",
        "problem = bratu1d\np = 2\ninner_tol.p3.g64 = 0\n",
        "problem = bratu2d\np = 5\ngrid = 4096\n",
        "problem = bratu1d\ngrid = 1048576\n",
        # 213444 dof, under MAX_FINE_DOF, but about 180M stiffness nonzeros
        "problem = bratu2d\np = 14\ngrid = 448\n",
        "problem = monge_ampere\nlambda = 1, 2\n",
        "problem = bratu1d\ninner_tol = 1e-3\n",
        "problem = bratu1d\ninner_tol.p2.g8 = 1e-3\n",
        "problem = bratu2d\ninner_tol = 1e-3\n",
        "problem = monge_ampere\np = 2\ngrid = 8\ninner_tol.p2.g16 = 1e-3\n",
        "problem = monge_ampere\ninner_tol.p3.g16 = 1e-3\np = 2\ngrid = 16\n",
        "problem = bratu1d\nlambda = 1, 1.0\nmethod = mpe(2)\n",
        "problem = bratu1d\np = 2, 3, 2\n",
        "problem = bratu1d\ngrid = 8, 08\n",
        "problem = bratu1d\nmethod = mpe(2), picard, mpe(2)\n",
        "problem = bratu1d\nmethod = rre(3), rre(03)\n",
        "problem = monge_ampere\np = 2\ngrid = 8\ninner_tol.p2.g8 = 1e-3\n"
        "inner_tol.p02.g08 = 1e-5\n",
    ], ids=["no-problem", "inner", "window-0", "grid-0", "p-0", "duplicate", "seed",
            "p-15", "tol-negative", "inner-tol-0", "inner-tol-override-0", "maxiter-0",
            "2d-coarsest-too-large", "monge-ampere-coarsest-too-large", "lambda-nan",
            "lambda-inf", "tol-inf", "inner-tol-inf", "inner-tol-override-inf",
            "monge-ampere-p-1", "k", "inner-key", "inner-tol-override-outside-sweep-0",
            "2d-grid-4096", "1d-grid-1048576", "2d-p14-nonzeros", "monge-ampere-lambda",
            "bratu-inner-tol", "bratu-inner-tol-override", "bratu2d-inner-tol",
            "inner-tol-override-grid-outside-sweep", "inner-tol-override-p-outside-sweep",
            "repeated-lambda", "repeated-p", "repeated-grid", "repeated-method",
            "repeated-method-window", "repeated-inner-tol-override"])
    def test_bad_config_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError):
            parse_config(path)

    def test_repeated_inner_tol_override_names_the_first(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = monge_ampere\np = 2\ngrid = 8\ninner_tol.p2.g8 = 1e-3\n"
                        "inner_tol.p02.g08 = 1e-5\n")
        with pytest.raises(ValueError) as ei:
            parse_config(path)
        assert str(ei.value) == "inner_tol.p02.g08 = 1e-5: repeats inner_tol.p2.g8"

    @pytest.mark.parametrize("key, value", [
        ("inner_tol", "0"), ("inner_tol.p2.g16", "0"), ("inner_tol", "inf"),
    ], ids=["inner-tol-0", "inner-tol-override-0", "inner-tol-inf"])
    def test_bad_inner_tol_names_its_key(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = bratu1d\np = 2\ngrid = 16\n{key} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{key} = {value}")):
            parse_config(path)

    @pytest.mark.parametrize("problem, line, reason", [
        ("bratu1d", "tol = abc", "could not convert string to float"),
        ("bratu1d", "maxiter = 1.5", "invalid literal for int()"),
        ("bratu1d", "lambda = x", "could not convert string to float"),
        ("bratu1d", "grid = 8, x", "invalid literal for int()"),
        ("bratu1d", "p = 2, 15", "values must be at most 14"),
        ("bratu1d", "smoothing = 3", "unknown config key"),
        ("bratu1d", "inner_tol = 1e-3", "bratu1d cells never read inner_tol"),
        ("bratu2d", "inner_tol.p2.g8 = 1e-3", "bratu2d cells never read inner_tol"),
        ("monge_ampere", "lambda = 1", "monge_ampere cells never read lambda"),
        ("monge_ampere", "inner_tol.p2.g17 = 1e-3", "no cell has p = 2 and grid = 17"),
        ("bratu1d", "method = picard, foo", "bad method 'foo'"),
        ("bratu1d", "method = mpe(0)", "mpe needs window >= 1, got 0"),
        ("bratu1d", "tol = nan", "tol must be positive and finite, got nan"),
        ("bratu1d", "maxiter = 0", "maxiter must be at least 1, got 0"),
        ("bratu1d", "maxiter = 1000001", "maxiter must be at most 1000000, got 1000001"),
        ("bratu1d", f"maxiter = {10**12}", f"maxiter must be at most 1000000, got {10**12}"),
        ("bratu1d", "lambda = 1, 1.0", "repeated value 1.0"),
        ("bratu1d", "p = 2, 3, 2", "repeated value 2"),
        ("bratu1d", "method = mpe(2), mpe(2)", "repeated value mpe(2)"),
    ], ids=["tol-abc", "maxiter-1.5", "lambda-x", "grid-x", "p-15", "unknown-key",
            "bratu-inner-tol", "bratu-inner-tol-override", "monge-ampere-lambda",
            "inner-tol-override-outside-sweep", "method-foo", "method-mpe-0", "tol-nan",
            "maxiter-0", "maxiter-1000001", "maxiter-1e12", "repeated-lambda", "repeated-p",
            "repeated-method"])
    def test_parse_error_names_key_and_value(self, tmp_path, problem, line, reason):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = {problem}\n{line}\n")
        with pytest.raises(ValueError) as ei:
            parse_config(path)
        assert str(ei.value).startswith(f"{line}: {reason}")

    def test_wide_window_rejected(self, tmp_path):
        # 66564 dof: restarted_solve would keep 66565 differences, 35 GB a copy
        path = tmp_path / "bad.cfg"
        path.write_text("problem = bratu2d\np = 2\ngrid = 256\nmethod = mpe(100000), aa(100000)\n"
                        "maxiter = 1000000\ntol = 1e-300\n")
        with pytest.raises(ValueError) as ei:
            parse_config(path)
        assert str(ei.value).startswith("method = mpe(100000), aa(100000): mpe(100000) ")

    @pytest.mark.parametrize("text, message", [
        ("problem = monge_ampere\np = 2, 1\ngrid = 8\n",
         "p = 1, grid = 8: Monge-Ampere needs spline degree p >= 2"),
        ("problem = bratu2d\np = 2\ngrid = 16, 254\n",
         "p = 2, grid = 254: SplineSpace(p=(2, 2), n_el=(254, 254)) coarsens only to "),
    ], ids=["monge-ampere-p-1", "coarsest-too-large"])
    def test_cell_object_check_names_its_cell(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as ei:
            parse_config(path)
        assert str(ei.value).startswith(message)

    def test_largest_maxiter_accepted(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(f"problem = bratu1d\nmaxiter = {MAX_MAXITER}\n")
        assert parse_config(path).maxiter == MAX_MAXITER == 10**6

    def test_window_capped_by_dof_accepted(self, tmp_path):
        # a window wider than n+1 differences of n values is never kept
        path = tmp_path / "ok.cfg"
        path.write_text("problem = bratu1d\np = 2\ngrid = 16\nmethod = mpe(100000)\n")
        assert parse_config(path).methods == ["mpe(100000)"]

    def test_largest_p5_grid_accepted(self, tmp_path):
        # 251001 dof, near MAX_FINE_DOF, coarsening to 34^2 interior dof
        path = tmp_path / "ok.cfg"
        path.write_text("problem = bratu2d\np = 5\ngrid = 496\n")
        assert parse_config(path).grids == [496]

    def test_1d_grid_with_odd_halving_accepted(self, tmp_path):
        # 1D N=254 also stops coarsening at N=127, but that is 127 dof
        path = tmp_path / "ok.cfg"
        path.write_text("problem = bratu1d\np = 2\ngrid = 254\n")
        assert parse_config(path).grids == [254]

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = burgers\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# heading\n\nproblem = bratu1d  # trailing\np = 1\n")
        cfg = parse_config(path)
        assert cfg.degrees == [1]

    def test_byte_order_mark_ignored(self, tmp_path):
        # some editors save UTF-8 with a byte-order mark before the first key
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffproblem = bratu1d\np = 1\n".encode())
        assert parse_config(path).problem == "bratu1d"

    def test_cells_in_nested_loop_order(self, four_axes_cfg):
        assert list(four_axes_cfg.cells()) == [
            (lam, p, n, method) for lam in (1.0, 3.0) for p in (1, 2) for n in (8, 16)
            for method in ("picard", "mpe(2)")]

    def test_checked_in_tables_parse(self):
        for n in range(1, 6):
            cfg = parse_config(find_table_config(n))
            assert cfg.methods


class TestRunExperiment:
    def test_cartesian_product_row_order(self, tiny_cfg):
        rows = run_experiment(tiny_cfg)
        assert len(rows) == 2 * 2  # p x method
        assert [(r.p, r.method) for r in rows] == [
            (1, "picard"), (1, "mpe(2)"), (2, "picard"), (2, "mpe(2)")]
        assert all(r.converged for r in rows)

    def test_cell_failure_recorded_not_raised(self):
        # monge_ampere at p=1 violates the degree requirement per cell; the
        # parser refuses it, so the config is built directly
        cfg = ExperimentConfig(problem="monge_ampere", degrees=[1, 2], grids=[8],
                               tol=1e-8, maxiter=50)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert not rows[0].converged and rows[0].note.startswith("error")
        assert rows[1].converged

    def test_monge_ampere_one_vcycle_runs_to_tolerance(self):
        # a config names no inner solver, yet Monge-Ampere cells run V-cycles
        # to inner_tol; at p=2, N=64 is the smallest grid whose hierarchy has
        # more than one level, so one V-cycle per step would differ
        cfg = ExperimentConfig(problem="monge_ampere", degrees=[2], grids=[64],
                               methods=["rre(3)"], tol=1e-6, maxiter=50)
        row, _ = run_cell(cfg, (0.0, 2, 64, "rre(3)"))
        _, hist = run_outer(MongeAmpereProblem.manufactured(2, 64),
                            OuterConfig(accelerator="rre", window=3, tol=1e-6, maxiter=50,
                                        inner="vcycle_to_tol", linear_tol=cfg.inner_tol))
        last = hist.records[-1]
        assert row.converged and not row.note
        assert (row.iter, row.relative_residual, row.l2_err) == \
               (hist.iterations, last.relative_residual, last.l2_error)

    def test_monge_ampere_grid_with_greville_roundoff_runs(self):
        # unclipped, the last Greville abscissa at p=2, N=7 rounds past the
        # domain end and the boundary interpolation raises in every cell
        cfg = ExperimentConfig(problem="monge_ampere", degrees=[2], grids=[7], tol=1e-8,
                               maxiter=100)
        row, _ = run_cell(cfg, (0.0, 2, 7, "picard"))
        assert row.converged and not row.note

    def test_timing_columns_are_phase_totals(self):
        cfg = ExperimentConfig(problem="bratu2d", lambdas=[1.0], degrees=[2], grids=[16],
                               methods=["picard", "rre(3)", "aa(3)"], tol=1e-8, maxiter=100)
        for cell in cfg.cells():
            row, _ = run_cell(cfg, cell)
            assert row.converged and not row.note
            assert row.rhs_time_s > 0.0 and row.mg_time_s > 0.0
            assert row.rhs_time_s + row.mg_time_s + row.extrapol_time_s <= row.cpu_s
            if row.method != "picard":
                assert row.extrapol_time_s > 0.0

    def test_anderson_window_wider_than_iterate(self):
        # 3 dof at p=1, N=2: aa(5) reaches more difference columns than rows
        cfg = ExperimentConfig(problem="bratu1d", lambdas=[7.0], degrees=[1], grids=[2],
                               methods=["aa(5)"])
        row, _ = run_cell(cfg, next(cfg.cells()))
        assert row.converged and not row.note and row.iter > 4

    def test_parallel_matches_sequential(self, tiny_cfg):
        seq = run_experiment(tiny_cfg, parallel=1)
        par = run_experiment(tiny_cfg, parallel=2)
        for a, b in zip(seq, par):
            assert (a.method, a.p, a.iter, a.converged) == (b.method, b.p, b.iter, b.converged)
            assert a.relative_residual == b.relative_residual
            assert a.l2_err == b.l2_err


def untimed(row):
    """A row's fields outside the timing columns."""
    return {k: v for k, v in dataclasses.asdict(row).items() if k not in TIMING_COLUMNS}


@pytest.fixture
def builds(monkeypatch):
    """The spaces of every discretisation ``run_cell`` builds, in order."""
    built = []

    def spy(space, *args, **kwargs):
        built.append(space)
        return build(space, *args, **kwargs)

    build = bench.build_discretisation
    monkeypatch.setattr(bench, "build_discretisation", spy)
    return built


class TestDiscretisationReuse:
    """Consecutive cells on one (p, grid) share one discretisation, and every
    cell's history is the one a fresh process would give it."""

    GROUPS = (
        ExperimentConfig(problem="bratu2d", lambdas=[1.0, 6.0], degrees=[2], grids=[64],
                         methods=["picard", "picard_slu", "rre(2)", "aa(2)"], tol=1e-8,
                         maxiter=100),
        ExperimentConfig(problem="monge_ampere", degrees=[2], grids=[64], inner_tol=1e-3,
                         methods=["picard", "rre(3)", "mpe(3)"], tol=1e-8, maxiter=100),
    )

    @staticmethod
    def histories(cfg, cells, fresh):
        out = {}
        for cell in cells:
            if fresh:
                bench._held.clear()
            row, hist = run_cell(cfg, cell)
            assert row.converged and not row.note, cell
            out[cell] = repr((hist.records, hist.converged))
        return out

    @pytest.mark.parametrize("cfg", GROUPS, ids=lambda c: c.problem)
    def test_any_order_gives_the_fresh_histories(self, cfg, builds):
        cells = list(cfg.cells())
        fresh = self.histories(cfg, cells, fresh=True)
        assert len(builds) == len(cells)
        builds.clear()
        assert self.histories(cfg, cells, fresh=False) == fresh
        assert len(builds) < len(cells)
        builds.clear()
        assert self.histories(cfg, cells[::-1], fresh=False) == fresh
        assert len(builds) < len(cells)

    def test_group_builds_once_and_charges_the_build(self, builds):
        cfg = self.GROUPS[1]
        rows = [run_cell(cfg, cell)[0] for cell in cfg.cells()]
        (disc,) = bench._held.values()
        assert builds == [disc.space]
        # a reusing cell's cpu_s counts the build it skipped
        assert all(row.cpu_s > disc.build_s for row in rows[1:])

    def test_second_cell_starts_from_the_first_cells_start_vector(self, builds, monkeypatch):
        starts = []
        initial_guess = nonlinear._PicardContext.initial_guess

        def spy(ctx):
            x0 = initial_guess(ctx)
            starts.append(x0.tobytes())
            return x0

        monkeypatch.setattr(nonlinear._PicardContext, "initial_guess", spy)
        cfg = self.GROUPS[1]
        for cell in list(cfg.cells())[:2]:
            run_cell(cfg, cell)
        assert len(builds) == 1 and len(starts) == 2
        assert starts[0] == starts[1] and any(np.frombuffer(starts[0]))

    def test_direct_and_multigrid_cells_share(self, builds):
        cfg = self.GROUPS[0]
        cells = [(1.0, 2, 64, method)
                 for method in ("picard_slu", "picard_slu", "rre(2)", "picard", "picard_slu")]
        fresh = self.histories(cfg, cells, fresh=True)
        bench._held.clear()
        builds.clear()
        for cell in cells:  # a cell that repeats reuses the discretisation too
            assert self.histories(cfg, [cell], fresh=False) == {cell: fresh[cell]}
        assert len(builds) == 1

    def test_cell_that_raises_during_setup_leaves_no_entry(self, monkeypatch):
        cfg = self.GROUPS[0]
        run_cell(cfg, (1.0, 2, 64, "picard"))
        assert len(bench._held) == 1

        def broken(*args, **kwargs):
            raise ValueError("no hierarchy")

        monkeypatch.setattr(nonlinear, "build_hierarchy", broken)
        row, _ = run_cell(cfg, (1.0, 2, 16, "picard"))
        assert row.note == "error: no hierarchy"
        assert bench._held == {}

    def test_new_key_releases_the_old_entry_before_assembly(self, monkeypatch):
        cfg = self.GROUPS[0]
        run_cell(cfg, (1.0, 2, 64, "picard"))
        (disc,) = bench._held.values()
        old_A = weakref.ref(disc.hier.fine.A)
        del disc
        released = []

        def spy(space):
            released.append(old_A() is None)
            return assemble(space)

        assemble = iga.assemble_stiffness
        monkeypatch.setattr(iga, "assemble_stiffness", spy)
        row, _ = run_cell(cfg, (1.0, 2, 16, "picard"))
        assert row.converged and released == [True]

    def test_serial_sweep_releases_its_last_discretisation(self, builds):
        cfg = ExperimentConfig(problem="bratu1d", degrees=[2], grids=[8, 16],
                               methods=["picard", "picard_slu"], tol=1e-8, maxiter=100)
        rows = run_experiment(cfg)
        assert all(r.converged and not r.note for r in rows)
        assert len(builds) == 2 and bench._held == {}

    def test_parallel_groups_return_the_serial_rows_in_declaration_order(self):
        cfg = ExperimentConfig(problem="bratu2d", lambdas=[1.0, 3.0], degrees=[2],
                               grids=[8, 16], methods=["picard", "rre(2)"], tol=1e-8,
                               maxiter=100)
        serial = run_experiment(cfg)
        parallel = run_experiment(cfg, parallel=2)
        assert [(r.lam, r.p, r.n, r.method) for r in parallel] == list(cfg.cells())
        assert [untimed(r) for r in parallel] == [untimed(r) for r in serial]
        assert all(r.converged and not r.note for r in serial)

    def test_largest_groups_start_first_and_rows_keep_declaration_order(self, monkeypatch):
        cfg = ExperimentConfig(problem="bratu1d", lambdas=[1.0], degrees=[1, 2],
                               grids=[8, 16], methods=["picard", "rre(2)"], tol=1e-8,
                               maxiter=100)
        started = []

        def spy(cfg, cells):
            started.append(cells[0][1:3])
            return run_group(cfg, cells)

        run_group = bench._run_group
        monkeypatch.setattr(bench, "_run_group", spy)
        rows = run_experiment(cfg)
        # grid^2 (p+1)^2: 2304, 1024, 576, 256
        assert started == [(2, 16), (1, 16), (2, 8), (1, 8)]
        assert [(r.lam, r.p, r.n, r.method) for r in rows] == list(cfg.cells())
        assert all(r.converged and not r.note for r in rows)


class TestL2Calls:
    # at lambda = 1e6 the second map application overflows exp: a diverged row
    CFG = ExperimentConfig(problem="bratu1d", lambdas=[7.0, 1e6], degrees=[3], grids=[32],
                           methods=["picard", "mpe(3)", "rre(3)", "aa(3)"], tol=1e-10,
                           maxiter=200)

    @pytest.fixture
    def l2_calls(self, monkeypatch):
        calls = []
        l2_error = nonlinear.iga.l2_error

        def spy(*args):
            calls.append(args)
            return l2_error(*args)

        monkeypatch.setattr(nonlinear.iga, "l2_error", spy)
        return calls

    @pytest.fixture
    def observer_calls(self, monkeypatch):
        calls = []

        def counting(driver):
            def wrapper(*args, observer, **kwargs):
                def counted(rec, x):
                    calls.append(rec.iteration)
                    observer(rec, x)
                return driver(*args, observer=counted, **kwargs)
            return wrapper

        for name in ("restarted_solve", "anderson_solve"):
            monkeypatch.setattr(extrapolation, name, counting(getattr(extrapolation, name)))
        return calls

    @pytest.mark.parametrize("cell", list(CFG.cells()), ids=str)
    def test_one_call_per_cell_by_default(self, cell, l2_calls, observer_calls):
        row, hist = run_cell(self.CFG, cell)
        assert len(l2_calls) == 1 and len(observer_calls) >= hist.iterations >= 1
        assert np.isfinite(row.l2_err)

    @pytest.mark.parametrize("cell", list(CFG.cells()), ids=str)
    def test_one_call_per_observer_call_on_every_step(self, cell, l2_calls, observer_calls):
        row, hist = run_cell(self.CFG, cell, l2_every_step=True)
        assert len(l2_calls) == len(observer_calls) >= hist.iterations
        default, _ = run_cell(self.CFG, cell)
        assert (row.iter, row.relative_residual, row.converged, row.note) == \
               (default.iter, default.relative_residual, default.converged, default.note)
        assert repr(row.l2_err) == repr(default.l2_err)


class TestEmitCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_HEADER)]

    def test_roundtrip_single_row(self, tmp_path):
        row = ResultRow(problem="bratu1d", method="mpe(5)", lam=7.0, p=5, n=16,
                        iter=25, relative_residual=1.5e-13, l2_err=6.8e-8,
                        cpu_s=0.5, rhs_time_s=0.1, mg_time_s=0.2,
                        extrapol_time_s=0.001, converged=True)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        got = rows[0]
        assert got["problem"] == "bratu1d"
        assert got["method"] == "mpe(5)"
        assert float(got["h"]) == pytest.approx(1.0 / 16)
        assert got["iter"] == "25"
        assert got["relative_residual"] == "1.50000e-13"
        assert got["converged"] == "true"

    def test_six_significant_digits(self, tmp_path):
        row = ResultRow(problem="x", method="picard", lam=1 / 3, p=1, n=8, iter=1,
                        relative_residual=np.pi, l2_err=float("nan"), cpu_s=0,
                        rhs_time_s=0, mg_time_s=0, extrapol_time_s=0, converged=False)
        path = tmp_path / "f.csv"
        emit_csv([row], path)
        body = path.read_text().splitlines()[1]
        assert "3.14159e+00" in body
        assert "nan" in body
        assert body.endswith("false")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")


class TestEmitHistory:
    def test_converged_run_last_residual_below_tol(self, tmp_path):
        cfg = ExperimentConfig(problem="bratu1d", lambdas=[1.0], degrees=[2],
                               grids=[8], methods=["rre(2)"], tol=1e-10, maxiter=200)
        row, hist = run_cell(cfg, (1.0, 2, 8, "rre(2)"))
        assert row.converged
        path = tmp_path / "h.csv"
        emit_history(hist, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iter"] == "1"
        assert float(rows[-1]["relative_residual"]) <= 1e-10

    def test_extrapolated_history_below_plain_after_start(self):
        cfg = ExperimentConfig(problem="bratu1d", lambdas=[7.0], degrees=[5],
                               grids=[8], methods=["picard", "rre(5)"],
                               tol=1e-12, maxiter=60)
        _, plain = run_cell(cfg, (7.0, 5, 8, "picard"))
        _, accel = run_cell(cfg, (7.0, 5, 8, "rre(5)"))
        k = min(len(plain.records), len(accel.records))
        worse = sum(accel.records[i].relative_residual >= plain.records[i].relative_residual
                    for i in range(10, k))
        assert worse == 0  # strictly below from iteration 10 on


GOLDEN = Path(__file__).parent / "golden"


def _assert_matches_golden(table: int, n_rows: int) -> list[ResultRow]:
    """Run a table config, compare it with ``golden/table<n>_golden.csv``
    and return its rows.

    Exact match on the structural and iteration columns; the error columns
    are compared as floats (converged L2 errors tightly, stalled residuals
    loosely, and roundoff-floor residuals by magnitude only). L2 errors
    below about 1e-12 are pinned by magnitude only.
    """
    with open(GOLDEN / f"table{table}_golden.csv", newline="") as fh:
        golden = list(csv.DictReader(fh))
    rows = run_experiment(parse_config(find_table_config(table)))
    assert len(rows) == len(golden) == n_rows
    for row, want in zip(rows, golden):
        assert row.problem == want["problem"]
        assert row.method == want["method"]
        assert f"{row.lam:.5e}" == want["lambda"]
        assert row.p == int(want["p"])
        assert f"{row.h:.5e}" == want["h"]
        assert row.iter == int(want["iter"])
        assert ("true" if row.converged else "false") == want["converged"]
        # golden values carry 6 significant digits; compare above that
        l2_ref = float(want["l2_err"])
        assert row.l2_err == pytest.approx(l2_ref, rel=1e-5)
        res_ref = float(want["relative_residual"])
        if not row.converged:
            assert row.relative_residual == pytest.approx(res_ref, rel=1e-5)
        else:
            # converged residuals sit near roundoff; pin the magnitude
            assert row.relative_residual <= 10 * res_ref + 1e-15
    return rows


def _assert_golden_bytes(table: int, n_rows: int, tmp_path) -> None:
    """Run a table config, write its CSV and check that ``bench compare``
    finds it equal to ``golden/table<n>_golden.csv`` outside the timing
    columns."""
    out = tmp_path / f"table{table}.csv"
    emit_csv(run_experiment(parse_config(find_table_config(table))), out)
    assert compare_csv(GOLDEN / f"table{table}_golden.csv", out) == ([], n_rows)


class TestGoldenTable1:
    def test_table1_matches_checked_in_golden(self, builds, monkeypatch, tmp_path):
        """Slow regression pin: the full table-1 sweep against the golden CSV,
        which predates byte-level goldens, and by bytes against
        ``table1_bytes.csv``. Its five grids build one discretisation each,
        shared by the grid's picard_slu cell, which factorises the one sparse
        LU of the grid."""
        splu_calls = []

        def spy(A):
            splu_calls.append(A.shape)
            return splu(A)

        splu = nonlinear._splu
        monkeypatch.setattr(nonlinear, "_splu", spy)
        rows = _assert_matches_golden(1, 35)
        emit_csv(rows, tmp_path / "table1.csv")
        assert compare_csv(GOLDEN / "table1_bytes.csv", tmp_path / "table1.csv") == ([], 35)
        assert len(builds) == len(splu_calls) == 5 and bench._held == {}


class TestGoldenTable2:
    def test_table2_matches_checked_in_golden(self, tmp_path):
        """The 96 MPE(5) cells of table 2 (p 1-6, every lambda and grid)."""
        _assert_golden_bytes(2, 96, tmp_path)


class TestGoldenHistories:
    @pytest.mark.parametrize("table, cell, golden", [
        (4, "lambda=17,p=2,grid=64", "history_table4_l17_p2_g64.csv"),
        (5, "method=rre(5),p=2,grid=64", "history_table5_rre5_p2_g64.csv"),
    ], ids=["bratu2d", "monge-ampere"])
    def test_history_matches_checked_in_golden(self, tmp_path, table, cell, golden):
        """Every step's relative residual and 2D L2 error of one cell, by bytes."""
        out = tmp_path / golden
        assert main(["history", "--config", str(find_table_config(table)),
                     "--cell", cell, "--out", str(out)]) == 0
        assert compare_csv(GOLDEN / golden, out) == ([], 18)


# Tables 3-5 take minutes, so they run only under `pytest -m slow`.
@pytest.mark.slow
class TestGoldenTable3:
    def test_table3_matches_checked_in_golden(self, tmp_path):
        """The 21 method cells of 2D Bratu at p=5, N=64."""
        _assert_golden_bytes(3, 21, tmp_path)


@pytest.mark.slow
class TestGoldenTable4:
    def test_table4_matches_checked_in_golden(self, tmp_path):
        """The 80 MPE(5) cells of 2D Bratu, L2 errors down to 1e-17."""
        _assert_golden_bytes(4, 80, tmp_path)


@pytest.mark.slow
class TestGoldenTable5:
    def test_table5_matches_checked_in_golden(self, tmp_path):
        """The 45 Monge-Ampere cells."""
        _assert_golden_bytes(5, 45, tmp_path)


class TestCli:
    def test_run_command(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        produced = out / "tiny.csv"
        assert produced.is_file()
        with open(produced, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_history_command(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "hist.csv"
        rc = main(["history", "--config", str(cfg),
                   "--cell", "method=mpe(2),p=2", "--out", str(out)])
        assert rc == 0
        assert out.is_file()

    def test_history_has_the_l2_error_on_every_row(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "hist.csv"
        assert main(["history", "--config", str(cfg),
                     "--cell", "method=mpe(2),p=2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 1 and all(np.isfinite(float(r["l2_err"])) for r in rows)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "tiny.csv", newline="") as fh:
            (cell,) = [r for r in csv.DictReader(fh) if (r["method"], r["p"]) == ("mpe(2)", "2")]
        assert (cell["iter"], cell["l2_err"]) == (rows[-1]["iter"], rows[-1]["l2_err"])

    def test_run_out_is_a_file_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("igasolve.bench.run_experiment", no_sweep)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "taken" in capsys.readouterr().err

    def test_history_out_is_a_directory_exits_2_before_any_cell(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("igasolve.bench.run_cell", no_cell)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["history", "--config", str(cfg), "--cell", "method=mpe(2),p=2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "taken" in err
        assert list(out.iterdir()) == []

    def test_run_csv_is_a_directory_exits_2_before_any_cell(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("igasolve.bench.run_experiment", no_sweep)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        (out / "tiny.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "tiny.csv" in err

    def test_output_check_leaves_a_dangling_symlink_dangling(self, tmp_path, monkeypatch):
        def failing_sweep(*args, **kwargs):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr("igasolve.bench.run_experiment", failing_sweep)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.csv"
        (out / "tiny.csv").symlink_to(target)
        with pytest.raises(RuntimeError):
            main(["run", "--config", str(cfg), "--out", str(out)])
        assert (out / "tiny.csv").is_symlink() and not target.exists()

    def test_output_error_without_errno_keeps_its_message(self, tmp_path, capsys,
                                                          monkeypatch):
        def refusing_open(*args, **kwargs):
            raise OSError("refused")

        monkeypatch.setattr("igasolve.bench.open", refusing_open, raising=False)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().endswith("tiny.csv: refused")

    def test_history_into_missing_directory(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "new" / "hist.csv"
        assert main(["history", "--config", str(cfg),
                     "--cell", "method=picard,p=1", "--out", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("command", ["run", "history"])
    @pytest.mark.parametrize("text", ["problem = bratu1d\ntol = inf\n", None],
                             ids=["rejected", "missing"])
    def test_bad_config_exits_2(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
        extra = ["--out", str(tmp_path)] if command == "run" else ["--cell", "p=2"]
        assert main([command, "--config", str(cfg), *extra]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert ("tol" if text else "bad.cfg") in err
        assert list(tmp_path.iterdir()) == ([cfg] if text else [])

    @pytest.mark.parametrize("command", ["run", "history"])
    def test_config_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, command):
        # as Notepad's "Unicode" saves it: UTF-16 with a byte order mark
        cfg = tmp_path / "u16.cfg"
        cfg.write_text(TINY_CFG, encoding="utf-16")
        extra = ["--out", str(tmp_path)] if command == "run" else ["--cell", "p=2"]
        assert main([command, "--config", str(cfg), *extra]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and str(cfg) in err and "UTF-8" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_history_ambiguous_selector(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["history", "--config", str(cfg), "--cell", "method=picard"]) == 2

    def test_selector_parsing(self):
        want = parse_cell_selector("method=rre(5),lambda=7,p=5,grid=64")
        assert want == {"method": "rre(5)", "lambda": "7", "p": "5", "grid": "64"}

    def test_selector_with_every_key_picks_one_cell(self, four_axes_cfg):
        # out of tuple order, spelled unlike the config, compared as parsed
        want = parse_cell_selector("grid=16,method=mpe(02),p=2,lambda=3.0")
        assert [c for c in four_axes_cfg.cells() if _match_cell(c, want)] == [
            (3.0, 2, 16, "mpe(2)")]

    def test_history_selector_compares_parsed_method(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("problem = bratu1d\np = 1\ngrid = 8\nmethod = mpe(02), picard\n")
        assert main(["history", "--config", str(cfg), "--cell", "method=mpe(2)",
                     "--out", str(tmp_path / "hist.csv")]) == 0

    @pytest.mark.parametrize("selector", ["p5", "lambda=x", "lam=7", "grid=1.5", "p=1,p=2",
                                          "method=foo"],
                             ids=["no-equals", "lambda-not-a-number", "unknown-key",
                                  "grid-not-an-int", "repeated-key", "method-foo"])
    def test_bad_selector_rejected(self, tmp_path, capsys, selector):
        with pytest.raises(ValueError):
            parse_cell_selector(selector)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["history", "--config", str(cfg), "--cell", selector]) == 2
        assert "selector" in capsys.readouterr().err

    def test_render_marks_unconverged_with_a(self, tmp_path, capsys):
        cfg = tmp_path / "z.cfg"
        cfg.write_text("problem = bratu1d\nlambda = 7\np = 2\ngrid = 8\n"
                       "method = picard, rre(3)\ntol = 1e-12\nmaxiter = 40\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if " picard " in l or " rre(3) " in l]
        assert any("^a" in l and "picard" in l for l in lines)
        assert all("^a" not in l for l in lines if "rre(3)" in l)

    @pytest.mark.parametrize("workers", [0, (os.cpu_count() or 1) + 1])
    def test_parallel_out_of_range_rejected(self, tmp_path, workers):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path),
                  "--parallel", str(workers)])
        assert exc.value.code == 2

    def test_parallel_capped_by_cpu_affinity(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path), "--parallel", "2"])
        assert exc.value.code == 2

    def test_table_config_lookup(self):
        path = find_table_config(1)
        assert path.name == "table1.cfg"
        with pytest.raises(FileNotFoundError):
            find_table_config(9)


GOLDEN_HEAD = """problem,method,lambda,p,h,iter,relative_residual,l2_err,converged
bratu1d,picard,1.00000e+00,1,1.25000e-01,24,6.33519e-11,4.40346e-03,true
bratu1d,mpe(2),1.00000e+00,1,1.25000e-01,12,8.21187e-12,4.40346e-03,true
"""
TIMED_HEAD = """problem,method,lambda,p,h,iter,relative_residual,l2_err,cpu_s,rhs_time_s,\
mg_time_s,extrapol_time_s,converged
bratu1d,picard,1.00000e+00,1,1.25000e-01,24,6.33519e-11,4.40346e-03,1.1e-02,1e-3,2e-3,3e-6,true
bratu1d,mpe(2),1.00000e+00,1,1.25000e-01,12,8.21187e-12,4.40346e-03,9.0e-03,1e-3,2e-3,3e-4,true
"""


class TestCompare:
    """`bench compare OLD NEW`: exact text outside the timing columns."""

    def _compare(self, tmp_path, old_text, new_text):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text(old_text)
        new.write_text(new_text)
        return main(["compare", str(old), str(new)])

    def test_equal_inputs(self, tmp_path, capsys):
        assert self._compare(tmp_path, TIMED_HEAD, TIMED_HEAD) == 0
        assert capsys.readouterr().out == "2 rows match\n"

    def test_changed_iter(self, tmp_path, capsys):
        assert self._compare(tmp_path, TIMED_HEAD, TIMED_HEAD.replace(",12,", ",13,")) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and all("row 2: bratu1d,mpe(2)," in line for line in out)
        assert ",12," in out[0] and ",13," in out[1]

    def test_timing_columns_ignored(self, tmp_path):
        # the goldens carry no timing columns; a rerun does, with other values
        assert self._compare(tmp_path, GOLDEN_HEAD, TIMED_HEAD) == 0
        assert self._compare(tmp_path, TIMED_HEAD, TIMED_HEAD.replace("9.0e-03", "8.0e-03")) == 0

    def test_missing_row(self, tmp_path, capsys):
        assert self._compare(tmp_path, TIMED_HEAD, TIMED_HEAD.rsplit("bratu1d", 1)[0]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("old.csv row 2: " + GOLDEN_HEAD.splitlines()[2])
        assert out[1].endswith("new.csv row 2: (none)")

    def test_header_mismatch(self, tmp_path, capsys):
        assert self._compare(tmp_path, GOLDEN_HEAD, GOLDEN_HEAD.replace("l2_err", "l2")) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and "header" in out[0] and out[1].endswith(",l2,converged")

    def test_directories_pair_files_by_name(self, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        for d, names in ((old, ["table1.csv", "table2.csv"]), (new, ["table1.csv", "table3.csv"])):
            d.mkdir()
            for name in names:
                (d / name).write_text(GOLDEN_HEAD)
        assert main(["compare", str(old), str(new)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"only in {old / 'table2.csv'}", f"only in {new / 'table3.csv'}"]
        (new / "table3.csv").unlink()
        (new / "table2.csv").write_text(TIMED_HEAD)
        assert main(["compare", str(old), str(new)]) == 0
        assert capsys.readouterr().out == "4 rows match\n"

    def test_directories_without_csv_exit_2(self, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir()
        new.mkdir()
        (old / "notes.txt").write_text(GOLDEN_HEAD)
        assert main(["compare", str(old), str(new)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and str(old) in err and str(new) in err

    @pytest.mark.parametrize("old_text,new_text", [("", ""), (GOLDEN_HEAD, ""), ("", GOLDEN_HEAD)],
                             ids=["both-empty", "new-empty", "old-empty"])
    def test_file_without_header_exits_2(self, tmp_path, capsys, old_text, new_text):
        assert self._compare(tmp_path, old_text, new_text) == 2
        err = capsys.readouterr().err.strip()
        empty = "old.csv" if not old_text else "new.csv"
        assert len(err.splitlines()) == 1 and err.endswith(str(tmp_path / empty))

    @pytest.mark.parametrize("which", ["missing", "file-and-directory"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, which):
        old = tmp_path / "old.csv"
        old.write_text(GOLDEN_HEAD)
        new = tmp_path / ("none.csv" if which == "missing" else "")
        assert main(["compare", str(old), str(new)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and str(new) in err
