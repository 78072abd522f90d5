"""Output checks: digests of CLI outputs compared with stored references.

Tolerances, stated once here:

- ``best_t1`` of optimize, scaling (every N) and markov-optimize reports
  must match the reference within ``T1_ATOL`` absolute.
- evolve CSVs must have the reference header and row count, and every
  column must match the reference at nine evenly spaced rows within
  ``CSV_ATOL + CSV_RTOL * |ref|``, and in its sum and its sum of absolute
  values within ``rows * CSV_ATOL + CSV_RTOL * sum|ref|``.
- evolve inputs must also conserve trace and energy on the engine the
  program builds: ``|Tr rho(t) - 1|`` and ``|d<H>/dt|`` at five times
  stay below ``RESIDUAL_ATOL``.
"""

from __future__ import annotations

import json

import numpy as np

T1_ATOL = 1e-6
CSV_ATOL = 1e-9
CSV_RTOL = 1e-9
RESIDUAL_ATOL = 1e-9
CSV_SAMPLE_ROWS = 9


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def digest(mode: str, path: str) -> dict:
    """The checked part of one command's output."""
    if mode == "evolve":
        header, data = read_csv(path)
        rows = np.linspace(0, len(data) - 1, CSV_SAMPLE_ROWS).round().astype(int)
        return {
            "header": header,
            "rows": len(data),
            "columns": {
                name: {
                    "at": [float(v) for v in data[rows, k]],
                    "sum": float(np.sum(data[:, k])),
                    "abs_sum": float(np.sum(np.abs(data[:, k]))),
                }
                for k, name in enumerate(header)
            },
        }
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    if mode == "scaling":
        return {
            "n": [row["n"] for row in results["sweep"]],
            "best_t1": [row["best_t1"] for row in results["sweep"]],
        }
    return {"best_t1": results["best_t1"]}


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between a digest and its reference beyond the tolerances."""
    errors = []
    if "columns" in ref:
        if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
            return [f"csv shape {got['header']} x {got['rows']} differs from reference"]
        for name, want in ref["columns"].items():
            have = got["columns"][name]
            at_have, at_want = np.array(have["at"]), np.array(want["at"])
            if not np.all(np.abs(at_have - at_want) <= CSV_ATOL + CSV_RTOL * np.abs(at_want)):
                errors.append(f"column {name} differs from reference at sampled rows")
            for key in ("sum", "abs_sum"):
                limit = ref["rows"] * CSV_ATOL + CSV_RTOL * want["abs_sum"]
                if not abs(have[key] - want[key]) <= limit:
                    errors.append(f"column {name} {key} {have[key]!r} != {want[key]!r}")
        return errors
    if got.get("n", []) != ref.get("n", []):
        return [f"sweep sizes {got['n']} differ from reference {ref['n']}"]
    have = np.atleast_1d(np.asarray(got["best_t1"], dtype=float))
    want = np.atleast_1d(np.asarray(ref["best_t1"], dtype=float))
    if not np.all(np.abs(have - want) <= T1_ATOL):
        errors.append(f"best_t1 {have.tolist()} differs from reference {want.tolist()}")
    return errors


def evolve_residuals(config: dict) -> dict:
    """Largest trace and energy-balance residuals of an evolve config's engine."""
    from spinfridge import thermo
    from spinfridge.config import parse_config
    from spinfridge.engine import RefrigeratorEngine

    run = parse_config(config, "evolve")
    engine = RefrigeratorEngine(run.refrigerator, prune_tol=run.prune_tol)
    times = np.linspace(run.time_grid.start, run.time_grid.stop, 5)
    return {
        "trace": max(abs(engine.total_trace(t) - 1.0) for t in times),
        "energy_balance": max(abs(thermo.energy_balance(engine, t)) for t in times),
    }


def residual_errors(residuals: dict) -> list[str]:
    return [
        f"{name} residual {value:.3e} exceeds {RESIDUAL_ATOL:.0e}"
        for name, value in residuals.items()
        if not value <= RESIDUAL_ATOL
    ]
