"""The runtime needs numpy only: no SciPy, and no import inside a run."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import spinfridge

# The scaling pool's fork start method and its call queue's locks.
POOL_MODULES = {"multiprocessing.popen_fork", "multiprocessing.synchronize"}

_FRIDGE = {"epsilon": [1, 2, 1], "bath_energy": [2, 4, 2], "coupling": [0.5, 0.4, 0.3],
           "g": 0.05, "n_bath": [2, 2, 2], "temperature": [1, 1, 2]}
_GRID = {"start": 0, "stop": 1, "step": 0.05}
_RUNS = [
    (None, {"mode": "evolve", "params": _FRIDGE, "time_grid": _GRID}),
    (None, {"mode": "single", "params": {"epsilon": 1, "bath_energy": 2, "coupling": 0.5,
                                         "n_bath": 3, "temperature": 1},
            "time_grid": _GRID}),
    (None, {"mode": "validate", "params": dict(_FRIDGE, n_bath=[1, 1, 1])}),
    (None, {"mode": "optimize", "params": _FRIDGE, "time_grid": _GRID,
            "optimization": {"budget": 12, "seed": 1}}),
    ("1", {"mode": "scaling", "params": _FRIDGE, "time_grid": _GRID, "n_list": [1, 2, 3, 4],
           "optimization": {"budget": 6, "seed": 1}}),
    ("2", {"mode": "scaling", "params": _FRIDGE, "time_grid": _GRID, "n_list": [1, 2, 3, 4],
           "optimization": {"budget": 6, "seed": 1}}),
    (None, {"mode": "markov", "action": "optimize",
            "params": {"epsilon": [1, 2, 1], "g": 0.0, "alpha": [0, 0, 0],
                       "temperature": [1, 1, 2]},
            "time_grid": {"start": 0, "stop": 4, "step": 0.1},
            "optimization": {"budget": 6, "seed": 1, "g_range": [0.005, 0.1]}}),
]

# Records every attempt to import scipy (found or not), then runs each
# config through cli.main, recording the modules each cli.run call adds.
_DRIVER = textwrap.dedent("""
    import json, os, sys

    attempts = []

    class Recorder:
        @staticmethod
        def find_spec(name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                attempts.append(name)
            return None

    sys.meta_path.insert(0, Recorder)
    from spinfridge import cli

    at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    added, codes, run = [], [], cli.run

    def recording_run(config):
        before = set(sys.modules)
        run(config)
        added.append(sorted(set(sys.modules) - before))

    cli.run = recording_run
    for k, (workers, config) in enumerate(json.loads(sys.argv[1])):
        if workers is not None:
            os.environ["SPINFRIDGE_WORKERS"] = workers
        with open(f"config-{k}.json", "w") as fh:
            json.dump(config, fh)
        codes.append(cli.main([config["mode"], f"config-{k}.json", "--output", f"out-{k}"]))
    print(json.dumps({
        "attempts": attempts, "at_import": at_import, "codes": codes, "added": added,
        "scipy_loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    }))
""")


def test_runs_load_no_scipy_and_import_nothing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spinfridge.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(_RUNS)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(_RUNS)
    assert report["attempts"] == report["at_import"] == report["scipy_loaded"] == []
    assert len(report["added"]) == len(_RUNS)
    for added in report["added"]:
        assert set(added) <= POOL_MODULES, added


# The spinfridge modules each command loads: those ``import spinfridge.cli``
# loads, and the ones its run needs.
_CLI_MODULES = {"spinfridge", "spinfridge.cli", "spinfridge.config", "spinfridge.engine",
                "spinfridge.series", "spinfridge.spinstar"}
_COMMAND_MODULES = {
    "evolve": {"thermo"},
    "single": {"thermo"},
    "validate": {"oracle"},
    "optimize": {"analysis"},
    "scaling": {"analysis"},
    "markov": {"analysis", "markov"},
}
# Loaded only with spinfridge.analysis: the scaling pool's executor, and
# numpy.random, which numpy 1.x imports with numpy itself.
_NUMPY_2 = int(np.__version__.split(".")[0]) >= 2
_SEARCH_ONLY = {"concurrent.futures"} | ({"numpy.random"} if _NUMPY_2 else set())

# Imports spinfridge.cli and, given a config, runs its command through
# cli.main; prints the exit code and the spinfridge and search-only modules loaded.
_MODULES_DRIVER = textwrap.dedent("""
    import json, sys

    from spinfridge import cli

    watched = set(json.loads(sys.argv[1]))
    code = cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
    print(json.dumps({"code": code, "modules": sorted(
        m for m in sys.modules if m.split(".")[0] == "spinfridge" or m in watched)}))
""")


def _loaded_modules(tmp_path, argv=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spinfridge.__file__))
    env["SPINFRIDGE_WORKERS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_DRIVER, json.dumps(sorted(_SEARCH_ONLY)), *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    return set(report["modules"])


def test_importing_the_cli_loads_no_command(tmp_path):
    assert _loaded_modules(tmp_path) == _CLI_MODULES


@pytest.mark.parametrize("mode", sorted(_COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(tmp_path, mode):
    config = next(config for _, config in _RUNS if config["mode"] == mode)
    (tmp_path / "config.json").write_text(json.dumps(config))
    loaded = _loaded_modules(tmp_path, (mode, "config.json", "--output", "out"))
    runs = {f"spinfridge.{name}" for name in _COMMAND_MODULES[mode]}
    assert {m for m in loaded if m.startswith("spinfridge")} == _CLI_MODULES | runs
    if "spinfridge.analysis" not in runs:
        assert not loaded & _SEARCH_ONLY
