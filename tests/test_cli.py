"""Tests for the experiment runner: flags, config files, exit codes, output."""

import json
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from mmdlab import ParameterError, UsageError, gaussian
from mmdlab.cli import main
from mmdlab.config import (
    ExperimentConfig,
    build_config,
    kernel_from_descriptor,
    load_config_file,
    measure_from_rows,
)
from mmdlab.presets import PRESETS, preset_table

from helpers import measure_to_rows


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestList:
    def test_eight_rows(self, capsys):
        assert main(["list"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 8

    def test_rows_carry_claims_and_expectations(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "flaw_counterexample" in out
        assert "center_invariance" in out
        assert "weak_converges=false" in out
        assert len(preset_table()) == len(PRESETS) == 8


class TestRun:
    def test_metrize_demo_succeeds_at_nmax_64(self, tmp_path, capsys):
        code = main(
            ["run", "--preset", "metrize_demo", "--nmax", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["status"] == "ok"
        for verdict in (
            "mmd_converges",
            "weak_rkhs_converges",
            "vague_converges",
            "weak_converges",
        ):
            assert summary[f"actual_{verdict}"] == "true"
        assert summary["actual_mass_escapes"] == "false"
        assert (tmp_path / "trace.csv").exists()

    def test_flaw_counterexample_pattern(self, tmp_path):
        code = main(
            ["run", "--preset", "flaw_counterexample", "--nmax", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["actual_mmd_converges"] == "true"
        assert summary["actual_weak_converges"] == "false"
        assert summary["actual_mass_escapes"] == "true"
        assert float(summary["identity_max_residual"]) <= 1e-10

    def test_nmax_one_is_usage_error(self, tmp_path):
        code = main(
            ["run", "--preset", "metrize_demo", "--nmax", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert main(["run", "--preset", "bogus", "--out", str(tmp_path)]) == 2

    def test_missing_preset_is_usage_error(self):
        assert main(["run"]) == 2

    def test_verdict_mismatch_exits_one_with_diff(self, tmp_path, capsys):
        # at n_max=4 the final MMD of the shrinking-Dirac trace is ~0.25,
        # far above the settling threshold, so the expectation fails
        code = main(
            ["run", "--preset", "metrize_demo", "--nmax", "4", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "expected" in err and "actual" in err
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["status"] == "verdict_mismatch"

    def test_rejected_parameter_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a ParameterError or MeasureError raised inside a preset is bad
        # input, not a verdict mismatch
        from mmdlab.errors import MeasureError, ParameterError

        for exc in (ParameterError("bad radius"), MeasureError("not a probability")):

            def run(cfg, exc=exc):
                raise exc

            monkeypatch.setitem(
                PRESETS, "metrize_demo", replace(PRESETS["metrize_demo"], run=run)
            )
            code = main(["run", "--preset", "metrize_demo", "--out", str(tmp_path)])
            assert code == 2
            assert capsys.readouterr().err == f"error: {exc}\n"

    def test_usage_error_quoting_a_line_break_stays_one_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "metrize_demo", "thresholds": {"a\nb\fc": 1}}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown threshold keys: a b c\n"

    def test_overflowing_distances_print_no_warning(self, tmp_path, capsys):
        # squared distances past the ball of radius 1e300 overflow to inf; the
        # ray's candidates all round to one point, so the search fails
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "escape_demo", "n_max": 4, "radii": [1e300]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 4 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("construction failed: ") and len(err.splitlines()) == 1

    def test_grid_search_inside_a_huge_ball_fails_fast(self, tmp_path, capsys):
        # every grid shell the budget reaches lies inside the ball of radius
        # 1e300 + 1; the shells are counted against the budget, not walked
        cfg_path = tmp_path / "cfg.json"
        config = {"preset": "escape_demo", "strategy": "grid", "n_max": 4, "radii": [1e300]}
        cfg_path.write_text(json.dumps(config))
        start = time.monotonic()
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 4 and time.monotonic() - start < 10.0
        err = capsys.readouterr().err
        assert "after scanning 200000 of at most 200000 candidates" in err

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        # a crash is neither a verdict mismatch (1) nor a usage error (2)
        def run(cfg):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(PRESETS, "metrize_demo", replace(PRESETS["metrize_demo"], run=run))
        code = main(["run", "--preset", "metrize_demo", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blocked", ["out", "out/trace.csv"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, blocked):
        # an --out that is a file, or a trace.csv that is a directory
        target = tmp_path / blocked
        target.parent.mkdir(parents=True, exist_ok=True)
        if blocked == "out":
            target.write_text("not a directory")
        else:
            target.mkdir()
        code = main(["run", "--preset", "metrize_demo", "--nmax", "16", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    def test_unwritable_output_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        def run(cfg):
            raise AssertionError("the preset ran")

        monkeypatch.setitem(PRESETS, "metrize_demo", replace(PRESETS["metrize_demo"], run=run))
        target = tmp_path / "out"
        target.write_text("not a directory")
        assert main(["run", "--preset", "metrize_demo", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert target.read_text() == "not a directory"

    def test_a_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def run(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(PRESETS, "metrize_demo", replace(PRESETS["metrize_demo"], run=run))
        out = tmp_path / "a" / "b" / "out"
        assert main(["run", "--preset", "metrize_demo", "--out", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_failed_construction_exits_four(self, tmp_path, capsys):
        # beta = 0.01 decays too slowly for 1/4 between grid points of step 1
        config = {
            "preset": "escape_demo",
            "dim": 2,
            "n_max": 4,
            "strategy": "grid",
            "kernel": {"family": "inverse_multiquadric", "c": 1.0, "beta": 0.01, "dim": 2},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("construction failed: could not place point 2 of 2 ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file ") and err.count("\n") == 1

    def test_summary_names_claim_and_thresholds(self, tmp_path):
        main(["run", "--preset", "escape_demo", "--out", str(tmp_path)])
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["preset"] == "escape_demo"
        assert len(summary["claim"]) > 10
        assert "threshold_final_tol" in summary
        assert "wall_time_ms" in summary


class TestConfigFile:
    def test_file_drives_run(self, tmp_path):
        cfg = {
            "preset": "metrize_demo",
            "n_max": 64,
            "seed": 3,
            "out": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_flags_override_file(self, tmp_path):
        cfg = {"preset": "metrize_demo", "n_max": 64}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o2"
        code = main(
            ["run", "--config", str(cfg_path), "--preset", "escape_demo", "--out", str(out)]
        )
        assert code == 0
        assert read_summary(out / "summary.txt")["preset"] == "escape_demo"

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "metrize_demo", "bogus_key": 1}))
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "radii", [[], [-1], [0], [2.0, float("inf")], ["wide"], 5], ids=repr
    )
    def test_bad_radii_are_usage_errors(self, tmp_path, capsys, radii):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "escape_demo", "radii": radii}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "radii" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "key, value",
        [
            ("pairs", 2.5),
            ("pairs", "3"),
            ("pairs", True),
            ("n_max", 64.5),
            ("n_max", 64.0),
            ("n_max", "64"),
            ("n_max", False),
            ("seed", 1.5),
            ("seed", "1"),
            ("seed", True),
            ("seed", -1),
            ("dim", 1.0),
            ("dim", "1"),
            ("dim", True),
            ("radii", [True, "4"]),
            ("radii", [2.0, True]),
            ("radii", ["4"]),
            ("radii", "48"),
            ("radii", {"2": 1}),
            ("xi", [True]),
            ("xi", ["0"]),
            ("xi", "0"),
            ("xi", 0.0),
            ("xi", [1e999]),
            ("xi2", [False]),
            ("xi2", ["nan"]),
            ("xi2", [float("nan")]),
            ("xi2", [1.0, None]),
        ],
        ids=repr,
    )
    def test_mistyped_values_are_usage_errors(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        preset = "center_invariance" if key == "pairs" else "dirac_null_witness"
        cfg_path.write_text(json.dumps({"preset": preset, key: value}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_non_numeric_measure_rows_are_usage_errors(self, tmp_path, capsys):
        kernel = {
            "op": "center",
            "p": [["a", 1]],
            "child": {"family": "gaussian", "sigma": 1.0, "dim": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "metrize_demo", "kernel": kernel}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed measure rows" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "p", [[[["0.5"], "1"]], [[[True], 1]], [[[0.5], False]], [[["0.5", 1.0], 1]]], ids=repr
    )
    def test_text_and_bools_in_measure_rows_are_usage_errors(self, tmp_path, capsys, p):
        # numpy would read "0.5" as 0.5 and true as 1.0
        kernel = {"op": "center", "p": p, "child": {"family": "gaussian", "sigma": 1.0, "dim": 1}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "metrize_demo", "kernel": kernel}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed measure rows" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {
                "preset": "center_invariance",
                "kernel": {"op": "center", "p": [[[0.5, 1.0], 1]], "child": {"family": "gaussian"}},
            },
            {
                "preset": "metrize_demo",
                "kernel": {
                    "op": "scale",
                    "g": "c0_bump_at",
                    "xi": [0.0, 1.0],
                    "child": {"family": "gaussian"},
                },
            },
            {
                "preset": "flaw_counterexample",
                "kernel": {
                    "op": "scale",
                    "field": {"g": "c0_null_at", "xis": [[0.0, 0.0]]},
                    "child": {"family": "gaussian"},
                },
            },
        ],
        ids=["center-2d-atom", "scale-2d-xi", "scale-2d-xis"],
    )
    def test_dimension_errors_are_usage_errors(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimension" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "preset, kernel",
        [
            # 2 sigma^2 and c^2 overflow: Python's ** raised OverflowError
            ("metrize_demo", {"family": "gaussian", "sigma": 1e160}),
            ("metrize_demo", {"family": "inverse_multiquadric", "c": 1e160}),
            # sigma^2 underflows to 0, so k(x, x) = exp(-0 / 0) is nan
            ("shift_invariance", {"family": "gaussian", "sigma": 1e-170}),
            ("metrize_demo", {"family": "inverse_multiquadric", "c": 1e-170}),
        ],
        ids=repr,
    )
    def test_base_constants_out_of_range_are_usage_errors(
        self, tmp_path, capsys, preset, kernel
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": preset, "kernel": kernel}))
        code = main(["run", "--config", str(cfg_path), "--nmax", "16", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad kernel descriptor: ")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kernel",
        [
            {"family": "gaussian", "sigma": True},
            {"family": "gaussian", "sigma": 1.0, "dim": True},
            {"family": "gaussian", "dim": 1.0},
            {"family": "gaussian", "sigma": "1.0"},
            {"family": "gaussian", "sigma": None},
            {"family": "gaussian", "sigma": [1.0]},
            {"family": "gaussian", "sigma": float("nan")},
            {"family": "laplacian", "gamma": True},
            {"family": "inverse_multiquadric", "c": True},
            {"family": "inverse_multiquadric", "beta": "0.5"},
            {"op": "shift", "c": True, "child": {"family": "gaussian"}},
            {"op": "shift", "c": "1", "child": {"family": "gaussian"}},
            {"op": "center", "a": True, "p": [[[0.0], 1.0]], "child": {"family": "gaussian"}},
            {"op": "center", "a": "0", "p": [[[0.0], 1.0]], "child": {"family": "gaussian"}},
            {"op": "scale", "g": "c0_bump_at", "xi": [True], "child": {"family": "gaussian"}},
            {"op": "scale", "g": "c0_bump_at", "xi": ["0.5"], "child": {"family": "gaussian"}},
            {
                "op": "scale",
                "field": {"g": "c0_null_at", "xis": [[False]]},
                "child": {"family": "gaussian"},
            },
            # a field that is no mapping, ragged field points, and a
            # dimension below 1 under a recentring with no atoms
            {"op": "scale", "field": -1, "child": {"family": "gaussian"}},
            {
                "op": "scale",
                "field": {"g": "c0_null_at", "xis": [[1.0, 2.0], [3.0]]},
                "child": {"family": "gaussian"},
            },
            {"op": "center", "child": {"family": "laplacian", "dim": -3}},
            {"family": "gaussian", "dim": 0},
        ],
        ids=repr,
    )
    def test_non_numbers_in_descriptors_are_usage_errors(self, tmp_path, capsys, kernel):
        # JSON true would be read as 1, "0.5" as 0.5
        with pytest.raises(ParameterError):
            kernel_from_descriptor(kernel)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "metrize_demo", "kernel": kernel}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad kernel descriptor: ")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_unknown_scaler_is_usage_error(self, tmp_path, capsys):
        # refused by the config, before any preset reads it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "metrize_demo", "scaler": "bogus"}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown scaler 'bogus'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["flaw_counterexample", "dirac_null_witness"])
    def test_saturating_scaler_is_usage_error(self, tmp_path, capsys, preset):
        # a field that does not vanish at infinity cannot build a null kernel
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": preset, "scaler": "saturating_at"}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: scaling field must vanish at infinity (is_c0=True); "
            "got field {'g': 'saturating_at', 'xi': [0.0]}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["flaw_counterexample", "dirac_null_witness"])
    def test_c0_null_at_scaler_in_two_dimensions(self, tmp_path, preset):
        # xi is one point of R^2, not two points of R
        cfg_path = tmp_path / "cfg.json"
        config = {"preset": preset, "dim": 2, "n_max": 64, "pairs": 20, "scaler": "c0_null_at"}
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "rows",
        [[["a", 1]], [[[0.0], "w"]], [[[0.0, 1.0], 1.0], [[0.0], 1.0]], [[[0.0]]]],
        ids=repr,
    )
    def test_malformed_measure_rows_raise_parameter_error(self, rows):
        with pytest.raises(ParameterError, match="malformed measure rows"):
            measure_from_rows(rows, 1)

    def test_integers_and_number_lists_are_normalized(self):
        cfg = build_config(
            {"preset": "escape_demo", "radii": [2, 4.5], "xi": [0], "xi2": [1]},
            n_max=np.int64(16),
        )
        assert cfg.radii == (2.0, 4.5) and cfg.xi == (0.0,) and cfg.xi2 == (1.0,)
        assert all(type(v) is float for v in cfg.radii + cfg.xi + cfg.xi2)
        assert type(cfg.n_max) is int and cfg.n_max == 16

    @pytest.mark.parametrize(
        "thresholds",
        [
            '{"final_tol": "abc"}',
            '{"final_tol": "0.1"}',
            '{"final_tol": true}',
            '{"final_tol": null}',
            '{"final_tol": [0.1]}',
            '{"final_tol": NaN}',
            '{"final_tol": Infinity}',
            '{"slack": -Infinity}',
            '{"final_tol": 1e999}',
            '{"final_tol": 1' + "0" * 400 + "}",
            '{"bogus": 0.1}',
            "[0.1]",
            "0.1",
        ],
    )
    def test_bad_thresholds_are_usage_errors(self, tmp_path, capsys, thresholds):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"preset": "flaw_counterexample", "thresholds": {thresholds}}}')
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threshold" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_numeric_thresholds_reach_the_report(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        thresholds = {"final_tol": 1, "slack": 0.25}
        cfg_path.write_text(
            json.dumps({"preset": "metrize_demo", "n_max": 16, "thresholds": thresholds})
        )
        cfg = build_config(load_config_file(cfg_path))
        assert cfg.thresholds == {"final_tol": 1.0, "slack": 0.25}
        assert all(type(v) is float for v in cfg.thresholds.values())
        # the default final_tol of 0.02 fails metrize_demo at n_max 16
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = read_summary(tmp_path / "o" / "summary.txt")
        assert summary["threshold_final_tol"] == "1.0"
        assert summary["threshold_slack"] == "0.25"


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["flaw_counterexample", "dirac_null_witness"])
    def test_same_seed_byte_identical_csv(self, tmp_path, preset):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(
                ["run", "--preset", preset, "--seed", "7", "--out", str(out)]
            )
            assert code == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestDescriptors:
    def test_nested_descriptor_parses_and_evaluates(self):
        desc = {
            "op": "shift",
            "c": 1.0,
            "child": {
                "op": "scale",
                "field": {"g": "c0_bump_at", "xi": [0.0]},
                "child": {"family": "gaussian", "sigma": 1.0, "dim": 1},
            },
        }
        k = kernel_from_descriptor(desc)
        assert k.dim == 1
        assert k(0.0, 5.0) == 1.0  # field zero at xi + shift
        assert not k.claims_c0

    def test_inline_scale_field_keys_accepted(self):
        desc = {
            "op": "scale",
            "g": "c0_bump_at",
            "xi": [0.0],
            "child": {"family": "gaussian", "sigma": 1.0, "dim": 1},
        }
        k = kernel_from_descriptor(desc)
        assert k(0.0, 1.0) == 0.0
        assert k.claims_c0

    def test_center_descriptor_roundtrip(self):
        from mmdlab import center_kernel, dirac

        k = center_kernel(gaussian(1.0), dirac(0.5), 1.0)
        k2 = kernel_from_descriptor(k.descriptor)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.uniform(-2, 2, 2)
            assert k(x, y) == k2(x, y)

    def test_bad_descriptor_rejected(self):
        with pytest.raises(Exception):
            kernel_from_descriptor({"op": "warp"})

    def test_config_kernel_dim_must_match(self):
        cfg = ExperimentConfig(
            preset="metrize_demo",
            dim=2,
            kernel={"family": "gaussian", "sigma": 1.0, "dim": 1},
        )
        with pytest.raises(UsageError):
            cfg.make_kernel()

    def test_measure_rows_roundtrip(self):
        from mmdlab import SignedDiscreteMeasure

        mu = SignedDiscreteMeasure(
            np.array([[0.0, 1.0], [2.0, -1.0]]), [0.5, -0.25], 2
        )
        rows = measure_to_rows(mu)
        back = measure_from_rows(rows)
        assert np.array_equal(back.atoms, mu.atoms)
        assert np.array_equal(back.weights, mu.weights)


class TestBuildConfig:
    def test_requires_preset(self):
        with pytest.raises(UsageError):
            build_config({})

    def test_flag_overrides_merge(self):
        cfg = build_config({"preset": "metrize_demo", "n_max": 8}, n_max=16, seed=None)
        assert cfg.n_max == 16
        assert cfg.seed == 0

    def test_presets_are_read_from_the_registry(self, monkeypatch):
        # entries replaced or added in place are seen, so no copy is kept
        monkeypatch.setitem(PRESETS, "extra", replace(PRESETS["metrize_demo"], name="extra"))
        assert build_config({"preset": "extra"}).preset == "extra"

    def test_every_config_field_is_a_file_key(self, tmp_path):
        values = {
            "preset": "escape_demo", "dim": 1, "n_max": 8, "seed": 1, "out": "o",
            "kernel": {"family": "laplacian", "gamma": 1.0, "dim": 1},
            "thresholds": {"final_tol": 0.5}, "radii": [1.0], "xi": [0.0], "xi2": [1.0],
            "pairs": 3, "strategy": "grid", "scaler": "c0_null_at",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        cfg = build_config(load_config_file(cfg_path))
        assert {f.name for f in fields(ExperimentConfig)} == set(values)
        assert cfg.strategy == "grid" and cfg.scaler == "c0_null_at"

    def test_default_kernel_is_in_the_config(self):
        cfg = build_config({"preset": "metrize_demo", "dim": 2})
        assert cfg.kernel == {"family": "gaussian", "sigma": 1.0, "dim": 2}
        assert cfg.make_kernel().descriptor == cfg.kernel

    def test_default_out_dir_derives_from_preset(self):
        cfg = build_config({"preset": "escape_demo"})
        assert cfg.out.endswith("escape_demo")
