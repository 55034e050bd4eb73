import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

from igasolve.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    emit_csv,
    emit_history,
    find_table_config,
    main,
    parse_cell_selector,
    parse_config,
    parse_method,
    run_cell,
    run_experiment,
)
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
        ("bratu1d", "lambda = 1, 1.0", "repeated value 1.0"),
        ("bratu1d", "p = 2, 3, 2", "repeated value 2"),
        ("bratu1d", "method = mpe(2), mpe(2)", "repeated value mpe(2)"),
    ], ids=["tol-abc", "maxiter-1.5", "lambda-x", "grid-x", "p-15", "unknown-key",
            "bratu-inner-tol", "bratu-inner-tol-override", "monge-ampere-lambda",
            "inner-tol-override-outside-sweep", "method-foo", "method-mpe-0", "tol-nan",
            "maxiter-0", "repeated-lambda", "repeated-p", "repeated-method"])
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
                        "maxiter = 100000000\ntol = 1e-300\n")
        with pytest.raises(ValueError) as ei:
            parse_config(path)
        assert str(ei.value).startswith("method = mpe(100000), aa(100000): mpe(100000) ")

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


def _assert_matches_golden(table: int, n_rows: int, l2_abs: float = 1e-12) -> None:
    """Run a table config and compare it with ``golden/table<n>_golden.csv``.

    Exact match on the structural and iteration columns; the error columns
    are compared as floats (converged L2 errors tightly, stalled residuals
    loosely, and roundoff-floor residuals by magnitude only). L2 errors
    below about ``l2_abs`` are pinned by magnitude only.
    """
    from igasolve.bench import run_experiment
    golden_path = Path(__file__).parent / "golden" / f"table{table}_golden.csv"
    with open(golden_path, newline="") as fh:
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
        assert row.l2_err == pytest.approx(l2_ref, rel=1e-5, abs=l2_abs)
        res_ref = float(want["relative_residual"])
        if not row.converged:
            assert row.relative_residual == pytest.approx(res_ref, rel=1e-5)
        else:
            # converged residuals sit near roundoff; pin the magnitude
            assert row.relative_residual <= 10 * res_ref + 1e-15


class TestGoldenTable1:
    def test_table1_matches_checked_in_golden(self):
        """Slow regression pin: the full table-1 sweep against the golden CSV."""
        _assert_matches_golden(1, 35)


class TestGoldenTable2:
    def test_table2_matches_checked_in_golden(self):
        """The 96 MPE(5) cells of table 2 (p 1-6, every lambda and grid)."""
        _assert_matches_golden(2, 96)


# Tables 3-5 take minutes, so they run only under `pytest -m slow`.
@pytest.mark.slow
class TestGoldenTable3:
    def test_table3_matches_checked_in_golden(self):
        """The 21 method cells of 2D Bratu at p=5, N=64."""
        _assert_matches_golden(3, 21, l2_abs=1e-14)


@pytest.mark.slow
class TestGoldenTable4:
    def test_table4_matches_checked_in_golden(self):
        """The 80 MPE(5) cells of 2D Bratu, L2 errors down to 1e-17."""
        _assert_matches_golden(4, 80, l2_abs=1e-14)


@pytest.mark.slow
class TestGoldenTable5:
    def test_table5_matches_checked_in_golden(self):
        """The 45 Monge-Ampere cells."""
        # their L2 errors near 1e-10 move by up to 3.4e-13 with the BLAS thread count
        _assert_matches_golden(5, 45)


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

    def test_history_ambiguous_selector(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert main(["history", "--config", str(cfg), "--cell", "method=picard"]) == 2

    def test_selector_parsing(self):
        want = parse_cell_selector("method=rre(5),lambda=7,p=5,grid=64")
        assert want == {"method": "rre(5)", "lambda": "7", "p": "5", "grid": "64"}

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

    @pytest.mark.parametrize("which", ["missing", "file-and-directory"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, which):
        old = tmp_path / "old.csv"
        old.write_text(GOLDEN_HEAD)
        new = tmp_path / ("none.csv" if which == "missing" else "")
        assert main(["compare", str(old), str(new)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and str(new) in err
