"""Config parsing, CLI commands, output determinism and provenance."""

import ast
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import spinfridge
from spinfridge import series
from spinfridge.cli import main
from spinfridge.config import (
    ConfigError,
    dump_canonical,
    parse_config,
)
from spinfridge.series import TimeGrid


def fridge_params():
    return {
        "epsilon": [1, 2, 1],
        "bath_energy": [2, 4, 2],
        "coupling": [0.5, 0.4, 0.3],
        "g": 0.05,
        "n_bath": [1, 1, 1],
        "temperature": [1, 1, 2],
    }


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    def test_temperature_converted_to_beta(self):
        cfg = parse_config({"mode": "evolve", "params": fridge_params()})
        assert cfg.refrigerator.beta == pytest.approx((1.0, 1.0, 0.5))

    def test_beta_and_temperature_mutually_exclusive(self):
        bad = fridge_params()
        bad["beta"] = [1, 1, 0.5]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"mode": "evolve", "params": bad})

    def test_missing_field_names_path(self):
        bad = fridge_params()
        del bad["epsilon"]
        with pytest.raises(ConfigError, match="params.epsilon"):
            parse_config({"mode": "evolve", "params": bad})

    def test_non_finite_rejected_with_path(self):
        bad = fridge_params()
        bad["g"] = float("nan")
        with pytest.raises(ConfigError, match="params.g"):
            parse_config({"mode": "evolve", "params": bad})

    def test_bad_triple_rejected(self):
        bad = fridge_params()
        bad["epsilon"] = [1, 2]
        with pytest.raises(ConfigError, match="params.epsilon"):
            parse_config({"mode": "evolve", "params": bad})

    def test_mode_mismatch(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "evolve", "params": fridge_params()}, mode="single")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config({"mode": "simulate"})

    def test_step_must_be_positive(self):
        with pytest.raises(ConfigError, match="step"):
            parse_config({
                "mode": "evolve",
                "params": fridge_params(),
                "time_grid": {"start": 0, "stop": 1, "step": 0},
            })

    @pytest.mark.parametrize("grid, message", [
        ({"step": 0}, "time_grid.step: must be positive"),
        ({"step": -0.1}, "time_grid.step: must be positive"),
        ({"start": 1, "stop": 1}, "time_grid.stop: must exceed time_grid.start"),
        ({"start": 2, "stop": 1}, "time_grid.stop: must exceed time_grid.start"),
        ({"start": -0.5}, "time_grid.start: must be nonnegative, got -0.5"),
    ])
    def test_bad_grid_is_exit_1_with_its_field(self, tmp_path, capsys, grid, message):
        cfg = write_config(tmp_path, "evolve.json", {
            "mode": "evolve", "params": fridge_params(), "time_grid": grid,
        })
        assert main(["evolve", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_scaling_needs_n_list(self):
        with pytest.raises(ConfigError, match="n_list"):
            parse_config({"mode": "scaling", "params": fridge_params()})

    def test_canonical_round_trip(self):
        cfg = parse_config({"mode": "evolve", "params": fridge_params()})
        rebuilt = parse_config(json.loads(dump_canonical(cfg)))
        assert dump_canonical(rebuilt) == dump_canonical(cfg)

    @pytest.mark.parametrize("mode", ["evolve", "markov"])
    def test_params_must_be_an_object(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, "bad.json", {"mode": mode, "params": 5})
        assert main([mode, cfg]) == 1
        assert capsys.readouterr().err == "config error: params: expected an object\n"

    @pytest.mark.parametrize("mode, path", [
        ("evolve", "prune_tl"),
        ("evolve", "time_grid.stpe"),
        ("evolve", "params.cuopling"),
        ("evolve", "output.pth"),
        ("evolve", "action"),
        ("optimize", "optimization.budjet"),
        ("optimize", "n_list"),
        ("single", "params.g"),
        ("markov", "params.n_bath"),
    ])
    def test_unread_field_is_exit_1_with_its_path(self, tmp_path, capsys, mode, path):
        # a misspelled field must not run on its default
        params = {
            "single": {"epsilon": 1, "bath_energy": 2, "n_bath": 3, "temperature": 1},
            "markov": {"epsilon": [1, 2, 1], "temperature": [1, 1, 2]},
        }.get(mode, fridge_params())
        data = {"mode": mode, "params": params, "time_grid": {"stop": 0.5, "step": 0.1},
                "output": {"path": str(tmp_path / "never")}}
        section, _, name = path.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = 0.1
        cfg = write_config(tmp_path, "typo.json", data)
        assert main([mode, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: unknown field for {mode!r}, expected "), err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("mode", ["single", "evolve", "optimize", "scaling", "validate",
                                      "markov evolve", "markov optimize"])
    def test_every_canonical_config_parses_back(self, mode):
        mode, _, action = mode.partition(" ")
        data = {"mode": mode, "params": {
            "single": {"epsilon": 1, "bath_energy": 2, "n_bath": 3, "temperature": 1},
            "markov": {"epsilon": [1, 2, 1], "alpha": [1e-5, 0, 0], "temperature": [1, 1, 2]},
        }.get(mode, fridge_params())}
        if action:
            data["action"] = action
        if mode == "scaling":
            data["n_list"] = [2, 3]
        cfg = parse_config(data)
        assert dump_canonical(parse_config(json.loads(dump_canonical(cfg)))) == dump_canonical(cfg)


class TestCliCommands:
    def test_missing_config_file_is_exit_1(self, capsys):
        assert main(["evolve", "/nonexistent.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["evolve", str(path)]) == 1

    def test_evolve_csv_columns_and_determinism(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, "evolve.json", {
            "mode": "evolve",
            "params": fridge_params(),
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
            "output": {"path": str(out)},
        })
        assert main(["evolve", cfg]) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0].startswith("# spinfridge ")
        assert lines[1].startswith("# config: ")
        assert lines[2].split(",") == [
            "t", "T1", "T2", "T3", "r1", "r2", "r3",
            "QdotS1", "QdotS2", "QdotS3", "QdotB1", "QdotB2", "QdotB3",
        ]
        assert len(lines) == 3 + 11
        assert main(["evolve", cfg]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("mode", ["evolve", "single"])
    def test_evolve_makes_one_grid_pass(self, tmp_path, monkeypatch, mode):
        # temperatures, populations and heat currents share one kernel pass
        passes = []
        kernel = series._grid_pass
        monkeypatch.setattr(series, "_grid_pass",
                            lambda *args: passes.append(args) or kernel(*args))
        params = fridge_params() if mode == "evolve" else {
            "epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5, "n_bath": 3, "beta": 1.0,
        }
        cfg = write_config(tmp_path, "run.json", {
            "mode": mode,
            "params": params,
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
            "output": {"path": str(tmp_path / "run.csv")},
        })
        assert main([mode, cfg]) == 0
        pairs = len(fridge_params()["epsilon"]) if mode == "evolve" else 1
        assert [(len(a[0]), len(a[1])) for a in passes] == [(pairs, pairs)]

    def test_evolve_times_are_the_grid_points(self, tmp_path):
        # a grid that does not start at 0: the t column is TimeGrid.points()
        out = tmp_path / "run.csv"
        cfg = write_config(tmp_path, "evolve.json", {
            "mode": "evolve",
            "params": fridge_params(),
            "time_grid": {"start": 0.3, "stop": 2.0, "step": 0.01},
            "output": {"path": str(out)},
        })
        assert main(["evolve", cfg]) == 0
        column = [line.split(",", 1)[0] for line in out.read_text().splitlines()[3:]]
        assert column == [repr(float(t)) for t in TimeGrid(0.3, 2.0, 0.01).points()]

    @pytest.mark.parametrize("mode", ["evolve", "single"])
    def test_provenance_header_reproduces_run(self, tmp_path, mode):
        out = tmp_path / "run.csv"
        params = fridge_params() if mode == "evolve" else {
            "epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5, "n_bath": 3, "temperature": 2.0,
        }
        cfg = write_config(tmp_path, "run.json", {
            "mode": mode,
            "params": params,
            "time_grid": {"start": 0, "stop": 0.5, "step": 0.1},
            "output": {"path": str(out)},
        })
        assert main([mode, cfg]) == 0
        first = out.read_bytes()
        header = json.loads(first.decode().splitlines()[1].split("# config: ", 1)[1])
        if mode == "single":  # one pair in its scalar schema, as it was written
            assert header["params"] == {"epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5,
                                        "n_bath": 3, "beta": 0.5}
        replay = write_config(tmp_path, "replay.json", header)
        assert main([mode, replay]) == 0
        assert out.read_bytes() == first

    def test_single_command(self, tmp_path):
        out = tmp_path / "single.csv"
        cfg = write_config(tmp_path, "single.json", {
            "mode": "single",
            "params": {
                "epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5,
                "n_bath": 3, "beta": 1.0,
            },
            "time_grid": {"start": 0, "stop": 2, "step": 0.5},
            "output": {"path": str(out)},
        })
        assert main(["single", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",") == ["t", "T1", "r1", "QdotS1", "QdotB1"]
        first_row = [float(v) for v in lines[3].split(",")]
        assert first_row[1] == pytest.approx(1.0, abs=1e-9)  # starts thermal

    def test_validate_command(self, tmp_path):
        out = tmp_path / "validate.json"
        cfg = write_config(tmp_path, "validate.json.in", {
            "mode": "validate",
            "params": fridge_params(),
            "output": {"path": str(out)},
        })
        assert main(["validate", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["passed"] is True
        assert report["results"]["max_deviation"] < 1e-9
        assert report["version"]

    def test_optimize_command(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path, "opt.json.in", {
            "mode": "optimize",
            "params": fridge_params(),
            "time_grid": {"start": 0, "stop": 10, "step": 0.05},
            "optimization": {"budget": 40, "seed": 3},
            "output": {"path": str(out)},
        })
        assert main(["optimize", cfg]) == 0
        report = json.loads(out.read_text())
        results = report["results"]
        assert results["best_t1"] < 1.0
        assert results["evaluations"] <= 40
        assert len(results["best_coupling"]) == 3

    def test_markov_evolve_command(self, tmp_path):
        out = tmp_path / "markov.csv"
        cfg = write_config(tmp_path, "markov.json", {
            "mode": "markov",
            "params": {
                "epsilon": [1, 2, 1], "g": 0.08,
                "alpha": [1e-5, 2e-5, 3e-5], "temperature": [1, 1, 2],
            },
            "time_grid": {"start": 0, "stop": 5, "step": 1.0},
            "output": {"path": str(out)},
        })
        assert main(["markov", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",") == ["t", "T1", "T2", "T3", "r1", "r2", "r3"]

    def test_markov_optimize_command(self, tmp_path):
        out = tmp_path / "mopt.json"
        cfg = write_config(tmp_path, "mopt.json.in", {
            "mode": "markov",
            "action": "optimize",
            "params": {
                "epsilon": [1, 2, 1], "g": 0.0,
                "alpha": [0, 0, 0], "temperature": [1, 1, 2],
            },
            "time_grid": {"start": 0, "stop": 20, "step": 0.1},
            "optimization": {"budget": 40, "seed": 0, "alpha_range": [0, 1e-4]},
            "output": {"path": str(out)},
        })
        assert main(["markov", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["best_t1"] < 1.0

    def test_markov_optimize_default_path_is_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "mopt.in", {
            "mode": "markov",
            "action": "optimize",
            "params": {
                "epsilon": [1, 2, 1], "g": 0.0,
                "alpha": [0, 0, 0], "temperature": [1, 1, 2],
            },
            "time_grid": {"start": 0, "stop": 2, "step": 0.1},
            "optimization": {"budget": 4, "g_range": [0.005, 0.1]},
        })
        assert main(["markov", cfg]) == 0
        report = json.loads((tmp_path / "markov-out.json").read_text())
        assert report["config"]["output"] == {"format": "json", "path": "markov-out.json"}
        assert not (tmp_path / "markov-out.csv").exists()

    @pytest.mark.parametrize("mode, extra, fmt", [
        ("optimize", {}, "csv"),
        ("evolve", {}, "json"),
        ("markov", {"action": "optimize"}, "csv"),
        ("markov", {}, "json"),
    ])
    def test_format_other_than_the_command_writes_is_exit_1(
            self, tmp_path, capsys, mode, extra, fmt):
        params = fridge_params() if mode != "markov" else {
            "epsilon": [1, 2, 1], "g": 0.08,
            "alpha": [1e-5, 2e-5, 3e-5], "temperature": [1, 1, 2],
        }
        cfg = write_config(tmp_path, "bad.json", {
            "mode": mode, **extra, "params": params,
            "output": {"path": str(tmp_path / f"never.{fmt}"), "format": fmt},
        })
        assert main([mode, cfg]) == 1
        assert "output.format" in capsys.readouterr().err
        assert not (tmp_path / f"never.{fmt}").exists()

    def test_scaling_command(self, tmp_path):
        out = tmp_path / "scaling.json"
        cfg = write_config(tmp_path, "scaling.json.in", {
            "mode": "scaling",
            "params": {
                "epsilon": [1, 2, 1], "bath_energy": [2, 4, 2],
                "n_bath": [1, 1, 1], "temperature": [1, 1, 2],
            },
            "n_list": [1, 2, 3, 4],
            "time_grid": {"start": 0, "stop": 6, "step": 0.05},
            "optimization": {"budget": 30, "seed": 5},
            "output": {"path": str(out)},
        })
        assert main(["scaling", cfg]) == 0
        report = json.loads(out.read_text())
        results = report["results"]
        assert len(results["sweep"]) == 4
        assert "neville_t1" in results
        assert "extrapolated" in results["neville_t1"]

    @pytest.mark.parametrize("field, value", [
        ("optimization.seed", 1.5),
        ("optimization.seed", -1),
        ("n_list", [1]),
        ("n_list", [1, 1]),
        ("n_list", [1, 2, 2, 3]),
    ])
    def test_bad_seed_or_n_list_is_exit_1(self, tmp_path, capsys, field, value):
        data = {
            "mode": "scaling",
            "params": fridge_params(),
            "n_list": [1, 2],
            "optimization": {"budget": 4},
            "output": {"path": str(tmp_path / "never.json")},
        }
        if field == "n_list":
            data["n_list"] = value
        else:
            data["optimization"]["seed"] = value
        assert main(["scaling", write_config(tmp_path, "bad.json", data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert not (tmp_path / "never.json").exists()

    def test_scaling_grid_below_three_points_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scaling.json", {
            "mode": "scaling",
            "params": fridge_params(),
            "n_list": [1, 2],
            "time_grid": {"start": 0, "stop": 1, "step": 0.8},
            "output": {"path": str(tmp_path / "never.json")},
        })
        assert main(["scaling", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: time_grid: ")
        assert "at least three time points, got 2" in err
        assert not (tmp_path / "never.json").exists()

    def test_scaling_uses_configured_prune_tol(self, tmp_path, monkeypatch):
        import spinfridge.cli as cli

        seen = []
        real = cli.scaling_sweep

        def spy(*args, **kwargs):
            seen.append(kwargs["prune_tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "scaling_sweep", spy)
        monkeypatch.setenv("SPINFRIDGE_WORKERS", "1")
        cfg = write_config(tmp_path, "scaling.json", {
            "mode": "scaling",
            "params": fridge_params(),
            "n_list": [1, 2],
            "prune_tol": 1e-11,
            "time_grid": {"start": 0, "stop": 2, "step": 0.1},
            "optimization": {"budget": 4},
            "output": {"path": str(tmp_path / "out.json")},
        })
        assert main(["scaling", cfg]) == 0
        assert seen == [1e-11]

    def test_scaling_searches_the_configured_box(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINFRIDGE_WORKERS", "1")
        out = tmp_path / "scaling.json"
        cfg = write_config(tmp_path, "scaling.json.in", {
            "mode": "scaling",
            "params": fridge_params(),
            "n_list": [1, 3],
            "time_grid": {"start": 0, "stop": 4, "step": 0.05},
            "optimization": {"budget": 12, "seed": 5, "coupling_range": [0, 0.2],
                             "g_range": [0, 0.01]},
            "output": {"path": str(out)},
        })
        assert main(["scaling", cfg]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["optimization"]["coupling_range"] == [0.0, 0.2]
        for row in report["results"]["sweep"]:
            assert max(row["best_coupling"]) <= 0.2
            assert row["best_g"] <= 0.01

    @pytest.mark.parametrize("mode, name", [
        ("optimize", "coupling_range"),
        ("scaling", "g_range"),
        ("markov", "alpha_range"),
    ])
    def test_negative_range_bound_is_exit_1(self, tmp_path, capsys, mode, name):
        params = fridge_params()
        if mode == "markov":
            params = {"epsilon": [1, 2, 1], "temperature": [1, 1, 2]}
        cfg = write_config(tmp_path, "bad.json", {
            "mode": mode, "action": "optimize", "params": params, "n_list": [1, 2],
            "optimization": {"budget": 4, name: [-1, 1]},
            "output": {"path": str(tmp_path / "never.json")},
        })
        assert main([mode, cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: optimization.{name}[0]: must be nonnegative, got -1.0\n"
        assert not (tmp_path / "never.json").exists()

    def test_failed_fit_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        from spinfridge import analysis

        # no step allowed: the fit cannot converge, and must not discard
        # the sweep that ran
        monkeypatch.setattr(analysis, "_FIT_MAX_STEPS", 0)
        monkeypatch.setenv("SPINFRIDGE_WORKERS", "1")
        out = tmp_path / "scaling.json"
        cfg = write_config(tmp_path, "scaling.json.in", {
            "mode": "scaling",
            "params": fridge_params(),
            "n_list": [1, 3, 6, 10],
            "time_grid": {"start": 0, "stop": 6, "step": 0.05},
            "optimization": {"budget": 12, "seed": 5},
            "output": {"path": str(out)},
        })
        assert main(["scaling", cfg]) == 0
        results = json.loads(out.read_text())["results"]
        assert len(results["sweep"]) == 4
        # every local-minimum time lies above its extrapolation, so that fit runs
        assert "did not converge" in results["local_min_time_fit"]["error"]

    def test_markov_g_range_reaching_min_epsilon_is_exit_1(self, tmp_path, capsys):
        # at g >= min(epsilon) a dressed frequency eps_i - g is nonpositive
        cfg = write_config(tmp_path, "mopt.json", {
            "mode": "markov",
            "action": "optimize",
            "params": {"epsilon": [1, 2, 1], "alpha": [0, 0, 0], "temperature": [1, 1, 2]},
            "time_grid": {"start": 0, "stop": 4, "step": 0.1},
            "optimization": {"budget": 12, "seed": 0, "g_range": [0.005, 1.5]},
            "output": {"path": str(tmp_path / "never.json")},
        })
        assert main(["markov", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "optimization.g_range" in err
        assert not (tmp_path / "never.json").exists()

    @pytest.mark.parametrize("mode", ["evolve", "optimize", "markov"])
    def test_zero_qubit_gap_is_exit_1(self, tmp_path, capsys, mode):
        # evolve and optimize used to write T1 = 0 and Markov to exit 2 mid-run
        params = dict(fridge_params(), epsilon=[0, 2, 1])
        if mode == "markov":
            params = {"epsilon": [0, 1, 1], "alpha": [1e-5, 2e-5, 3e-5],
                      "temperature": [1, 1, 2]}
        cfg = write_config(tmp_path, "zero.json", {
            "mode": mode, "params": params,
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
            "optimization": {"budget": 4, "seed": 0},
            "output": {"path": str(tmp_path / "never.out")},
        })
        assert main([mode, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: params: epsilon must be"), err
        assert not (tmp_path / "never.out").exists()

    def test_numerical_failure_is_exit_2(self, tmp_path, capsys):
        # qubit energy below g makes a dressed transition frequency negative
        cfg = write_config(tmp_path, "bad_markov.json", {
            "mode": "markov",
            "params": {
                "epsilon": [0.05, 2, 1], "g": 0.08,
                "alpha": [1e-5, 2e-5, 3e-5], "temperature": [1, 1, 2],
            },
            "output": {"path": str(tmp_path / "never.csv")},
        })
        assert main(["markov", cfg]) == 2
        assert "nonpositive frequency" in capsys.readouterr().err

    def test_negative_excited_population_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # a p_1 below the rounding of its series reads negative: optimize
        # reports it as every other command does
        from spinfridge import analysis

        monkeypatch.setattr(analysis, "_best_time_on_series", lambda terms, grid: (0.5, -3e-17))
        out = tmp_path / "never.json"
        cfg = write_config(tmp_path, "opt.json", {
            "mode": "optimize",
            "params": fridge_params(),
            "time_grid": {"start": 0, "stop": 1, "step": 0.1},
            "optimization": {"budget": 4, "seed": 0},
            "output": {"path": str(out)},
        })
        assert main(["optimize", cfg]) == 2
        err = capsys.readouterr().err
        assert "excited population reads -3e-17, below the rounding of its series" in err
        assert not out.exists()

    def test_output_override(self, tmp_path):
        target = tmp_path / "override.csv"
        cfg = write_config(tmp_path, "evolve.json", {
            "mode": "evolve",
            "params": fridge_params(),
            "time_grid": {"start": 0, "stop": 0.2, "step": 0.1},
            "output": {"path": str(tmp_path / "ignored.csv")},
        })
        assert main(["evolve", cfg, "--output", str(target)]) == 0
        assert target.exists()


class TestLowTemperatureCommands:
    """beta = 40: r = 1 - p rounds to 1, so every T is read from p."""

    COLD = {
        "epsilon": [1, 2, 1], "bath_energy": [2, 4, 2],
        "coupling": [0.4, 0.6, 0.5], "g": 0.05, "beta": [40, 40, 20],
    }

    def test_optimize_matches_dense_oracle(self, tmp_path):
        from dense_reference import dense_evolve_and_trace
        from spinfridge import oracle
        from spinfridge.engine import RefrigeratorParams
        from spinfridge.spinstar import temperature_from_excited

        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path, "opt.json.in", {
            "mode": "optimize",
            "params": dict(self.COLD, n_bath=[2, 2, 2]),
            "prune_tol": 0.0,
            "time_grid": {"start": 0, "stop": 10, "step": 0.05},
            "optimization": {"budget": 12, "seed": 0},
            "output": {"path": str(out)},
        })
        assert main(["optimize", cfg]) == 0
        best = json.loads(out.read_text())["results"]
        params = RefrigeratorParams(
            epsilon=(1, 2, 1), bath_energy=(2, 4, 2),
            coupling=tuple(best["best_coupling"]), g=best["best_g"],
            n_bath=(2, 2, 2), beta=(40, 40, 20),
        )
        rho1 = dense_evolve_and_trace(oracle.build_dense(params), best["best_time"], 0)
        p_exc = rho1[1, 1].real
        assert 0.0 < p_exc < 1e-8
        assert best["best_t1"] == pytest.approx(
            float(temperature_from_excited(p_exc, 1.0)), rel=1e-10
        )

    def test_markov_evolve_starts_at_bath_temperatures(self, tmp_path):
        out = tmp_path / "markov.csv"
        cfg = write_config(tmp_path, "markov.json", {
            "mode": "markov",
            "params": {
                "epsilon": [1, 2, 1], "g": 0.08,
                "alpha": [1e-5, 2e-5, 3e-5], "beta": [40, 40, 20],
            },
            "time_grid": {"start": 0, "stop": 5, "step": 1.0},
            "output": {"path": str(out)},
        })
        assert main(["markov", cfg]) == 0
        first = [float(v) for v in out.read_text().splitlines()[3].split(",")]
        assert first[1:4] == pytest.approx([1 / 40, 1 / 40, 1 / 20], rel=1e-12)

    def test_single_starts_at_bath_temperature(self, tmp_path):
        out = tmp_path / "single.csv"
        cfg = write_config(tmp_path, "single.json", {
            "mode": "single",
            "params": {
                "epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5,
                "n_bath": 5, "beta": 40.0,
            },
            "time_grid": {"start": 0, "stop": 2, "step": 0.5},
            "output": {"path": str(out)},
        })
        assert main(["single", cfg]) == 0
        first = [float(v) for v in out.read_text().splitlines()[3].split(",")]
        assert first[1] == pytest.approx(1 / 40, rel=1e-12)

    def test_single_rows_do_not_depend_on_prune_tol(self, tmp_path):
        # one pair has no interacting sector to prune: its ladder carries
        # every row weight at any prune_tol
        config = {
            "mode": "single",
            "params": {
                "epsilon": 1.0, "bath_energy": 2.0, "coupling": 0.5,
                "n_bath": 5, "beta": 40.0,
            },
            "time_grid": {"start": 0, "stop": 1, "step": 0.5},
        }
        outputs = []
        for prune_tol in (0.0, 1e-3):
            out = tmp_path / f"single-{prune_tol}.csv"
            cfg = write_config(tmp_path, "single.json", dict(
                config, prune_tol=prune_tol, output={"path": str(out)}))
            assert main(["single", cfg]) == 0
            lines = out.read_text().splitlines()
            assert f'"prune_tol":{prune_tol}' in lines[1]  # the header records it
            outputs.append(lines[2:])
        assert outputs[0] == outputs[1]

    def test_cold_config_reads_every_temperature(self, tmp_path):
        # prune_tol 1e-9 folds the sectors holding the excitation of qubits 1
        # and 2 into the ladders, where they still carry it: every
        # temperature reads as the unpruned run's (p_k measured within 2.9e-15)
        temperatures = []
        for prune_tol in (1e-9, 0.0):
            out = tmp_path / f"cold-{prune_tol}.csv"
            cfg = write_config(tmp_path, "evolve.json", {
                "mode": "evolve",
                "params": dict(self.COLD, n_bath=[30, 30, 30]),
                "prune_tol": prune_tol,
                "time_grid": {"start": 0, "stop": 1, "step": 0.5},
                "output": {"path": str(out)},
            })
            assert main(["evolve", cfg]) == 0
            rows = out.read_text().splitlines()[3:]
            temperatures.append(np.array([[float(v) for v in row.split(",")[1:4]]
                                          for row in rows]))
        assert temperatures[0][0] == pytest.approx([1 / 40, 1 / 40, 1 / 20], rel=1e-12)
        assert np.all(temperatures[1] > 0.0)
        assert np.max(np.abs(temperatures[0] / temperatures[1] - 1.0)) <= 1e-12


class TestHeapPolicy:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
    def test_sets_thresholds_on_linux(self, monkeypatch):
        import spinfridge.cli as cli

        for name in cli._MALLOC_SETTINGS:
            monkeypatch.delenv(name, raising=False)
        assert cli._keep_freed_blocks()

    @pytest.mark.parametrize("name", ["MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"])
    def test_user_setting_wins(self, monkeypatch, name):
        import spinfridge.cli as cli

        monkeypatch.setenv(name, "131072" if name.startswith("MALLOC") else "")
        assert not cli._keep_freed_blocks()


class TestBlasThreadPolicy:
    @staticmethod
    def _threads_after_import(preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spinfridge.__file__))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, spinfridge; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return done.stdout.strip()

    def test_import_defaults_to_one_thread(self):
        assert self._threads_after_import(None) == "1"

    def test_user_setting_wins(self):
        assert self._threads_after_import("2") == "2"

    def test_sweep_workers_run_one_thread_after_numpy_first(self):
        # numpy loads OpenBLAS before spinfridge sets its default; the sweep
        # pool's initializer must still give each forked worker one thread
        code = textwrap.dedent("""
            import numpy
            from spinfridge import analysis

            def threads(job):
                return [f() for f in analysis._openblas_functions("get_num_threads")]

            analysis._sweep_point = threads
            print(analysis.scaling_sweep(None, [1, 2]))
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["SPINFRIDGE_WORKERS"] = "2"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spinfridge.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        rows = ast.literal_eval(done.stdout.strip().splitlines()[-1])
        assert len(rows) == 2
        assert all(count == 1 for row in rows for count in row)
