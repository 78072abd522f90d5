"""Command-line interface: config-driven runs emitting CSV/JSON with provenance.

Commands: single, evolve, optimize, scaling, markov, validate.  Every output
carries the fully resolved configuration and the library version; identical
configs (and seeds) produce byte-identical files.  Exit codes: 0 success,
1 configuration error, 2 numerical or physics failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .analysis import (
    PLATEAU_MIN_N,
    fit_power_law,
    neville_extrapolate,
    neville_lower_diagonal_diffs,
    optimize_t1,
    scaling_sweep,
)
from .config import ConfigError, RunConfig, dump_canonical, load_config
from .engine import RefrigeratorEngine, RefrigeratorParams
from .markov import (
    excited_populations,
    integrate_gksl,
    markov_optimize,
    thermal_product_state,
)
from .oracle import build_dense, dense_evolve, partial_trace
from .spinstar import temperature_from_excited
from . import thermo

ORACLE_TOLERANCE = 1e-9


def _provenance_lines(config: RunConfig) -> list[str]:
    return [f"# spinfridge {__version__}", f"# config: {dump_canonical(config)}"]


def _write_csv(path: str, config: RunConfig, header: list[str], columns) -> None:
    lines = _provenance_lines(config)
    lines.append(",".join(header))
    lines.extend(",".join(map(repr, row)) for row in np.column_stack(columns).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, config: RunConfig, results: dict) -> None:
    payload = {
        "version": __version__,
        "config": json.loads(dump_canonical(config)),
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _qubit_columns(excited, epsilon) -> list:
    """The T_i columns, then the r_i = 1 - p_i columns, of excited populations
    p_i (one row per qubit) at qubit energies epsilon_i."""
    return ([temperature_from_excited(p, eps) for p, eps in zip(excited, epsilon)]
            + list(1.0 - excited))


def _run_evolve(config: RunConfig) -> None:
    """Time series of every qubit (the refrigerator's three, a single star's one):
    T_i and r_i from the excited populations p_i the heat currents flow from."""
    engine = RefrigeratorEngine(config.refrigerator, prune_tol=config.prune_tol)
    qubits = range(1, engine.params.pairs + 1)
    currents = thermo.heat_current_series(engine, config.time_grid)
    header = ["t"] + [
        f"{name}{i}" for name in ("T", "r", "QdotS", "QdotB") for i in qubits
    ]
    columns = (
        [currents.time]
        + _qubit_columns(currents.excited, engine.params.epsilon)
        + list(currents.qdot_s)
        + list(currents.qdot_b)
    )
    _write_csv(config.output_path, config, header, columns)


def _coupling_ranges(config: RunConfig) -> tuple:
    """The configured search box of (A1, A2, A3, g)."""
    opt = config.optimization
    return (opt.coupling_range,) * 3 + (opt.g_range,)


def _run_optimize(config: RunConfig) -> None:
    opt = config.optimization
    result = optimize_t1(
        config.refrigerator,
        config.prune_tol,
        ranges=_coupling_ranges(config),
        budget=opt.budget,
        seed=opt.seed,
        time_grid=config.time_grid,
    )
    _write_json(config.output_path, config, {
        "best_coupling": [float(v) for v in result.best_params[:3]],
        "best_g": float(result.best_params[3]),
        "best_time": result.best_time,
        "best_t1": result.best_t1,
        "best_ground_population": result.best_ground_population,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
    })


def _run_scaling(config: RunConfig) -> None:
    opt = config.optimization
    sweep = scaling_sweep(
        config.refrigerator,
        config.n_list,
        per_n_budget=opt.budget,
        seed=opt.seed,
        prune_tol=config.prune_tol,
        time_grid=config.time_grid,
        ranges=_coupling_ranges(config),
    )
    ns = np.array([row.n for row in sweep], dtype=float)
    t1 = np.array([row.best_t1 for row in sweep])
    tl = np.array([row.local_min_time for row in sweep])
    rows = [
        {
            "n": row.n,
            "best_coupling": [float(v) for v in row.best_params[:3]],
            "best_g": float(row.best_params[3]),
            "best_time": row.best_time,
            "best_t1": row.best_t1,
            "local_min_time": row.local_min_time,
            "local_min_t1": row.local_min_t1,
            "evaluations": row.evaluations,
        }
        for row in sweep
    ]
    results: dict = {"sweep": rows}
    h = 1.0 / ns
    tab = neville_extrapolate(h, t1, 0.0)
    results["neville_t1"] = {
        "h": list(h),
        "values": list(t1),
        "extrapolated": tab.extrapolated,
        "d_chain": [float(v) for v in neville_lower_diagonal_diffs(tab)],
        "stability_warning": tab.stability_warning,
    }
    tab_tl = neville_extrapolate(h, tl, 0.0)
    results["neville_local_min_time"] = {
        "extrapolated": tab_tl.extrapolated,
        "stability_warning": tab_tl.stability_warning,
    }
    if len(ns) >= 4:
        try:
            t_inf = "plateau" if np.any(ns >= PLATEAU_MIN_N) else tab.extrapolated
            fit = fit_power_law(ns, t1, t_inf=t_inf)
            results["t1_fit"] = asdict(fit)
        except ValueError as exc:
            results["t1_fit"] = {"error": str(exc)}
        try:
            fit_tl = fit_power_law(ns, tl, t_inf=tab_tl.extrapolated)
            results["local_min_time_fit"] = asdict(fit_tl)
        except ValueError as exc:
            results["local_min_time_fit"] = {"error": str(exc)}
    _write_json(config.output_path, config, results)


def _run_markov(config: RunConfig) -> None:
    params = config.markov
    if config.markov_action == "optimize":
        opt = config.optimization
        result = markov_optimize(
            params,
            alpha_range=opt.alpha_range,
            g_range=opt.g_range,
            budget=opt.budget,
            seed=opt.seed,
            time_grid=config.time_grid,
        )
        _write_json(config.output_path, config, {
            "best_alpha": [float(v) for v in result.best_params[:3]],
            "best_g": float(result.best_params[3]),
            "best_time": result.best_time,
            "best_t1": result.best_t1,
            "evaluations": result.evaluations,
            "restarts": result.restarts,
        })
        return
    traj = integrate_gksl(params, thermal_product_state(params), config.time_grid)
    _write_csv(
        config.output_path,
        config,
        ["t", "T1", "T2", "T3", "r1", "r2", "r3"],
        [traj.time] + _qubit_columns(excited_populations(traj.diagonal).T, params.epsilon),
    )


def _oracle_deviation(params: RefrigeratorParams, times) -> tuple[float, int]:
    """Largest deviation of every qubit state and bath population from the dense
    oracle at ``times``, and the oracle's dimension.

    The dense state is evolved once per time and compared with the engine's
    qubit states diag(1 - p_i, p_i).  Qubit q is its subsystem 2(q - 1) and
    its bath 2q - 1, for one pair (a single star) as for three.
    """
    model = build_dense(params)
    spectrum = model.spectrum()
    engine = RefrigeratorEngine(params, prune_tol=0.0)
    qubits = range(1, params.pairs + 1)
    excited = engine.excited_terms(qubits).at(times)
    worst = 0.0
    for t, p_at in zip(times, excited.T):
        rho = dense_evolve(model, t, spectrum=spectrum)
        for q, p in zip(qubits, p_at):
            dev_q = np.max(np.abs(partial_trace(rho, model.dims, 2 * (q - 1))
                                  - np.diag([1.0 - p, p])))
            dev_b = np.max(np.abs(
                np.diag(partial_trace(rho, model.dims, 2 * q - 1)).real
                - engine.reduced_bath_populations(q, t)
            ))
            worst = max(worst, float(dev_q), float(dev_b))
    return worst, model.dimension


def _run_validate(config: RunConfig) -> None:
    report: dict = {"tolerance": ORACLE_TOLERANCE}
    stars = [RefrigeratorParams(epsilon=(eps,), bath_energy=(bath_e,), coupling=(0.5,),
                                g=0.0, n_bath=(n,), beta=(1.0,))
             for n in (1, 2, 3) for eps, bath_e in ((1.0, 2.0), (2.0, 1.0))]
    single = max(_oracle_deviation(star, (0.0, 0.7, 3.1))[0] for star in stars)
    fridge, dimension = _oracle_deviation(config.refrigerator, (0.0, 2.0, 5.0))
    report["single_star_max_deviation"] = single
    report["refrigerator_max_deviation"] = fridge
    report["refrigerator_dense_dimension"] = dimension
    worst = max(single, fridge)
    report["max_deviation"] = worst
    report["passed"] = bool(worst < ORACLE_TOLERANCE)
    _write_json(config.output_path, config, report)
    if not report["passed"]:
        raise RuntimeError(
            f"oracle validation failed: max deviation {worst:.3e} "
            f"exceeds {ORACLE_TOLERANCE:.1e}"
        )


_RUNNERS = {
    "single": _run_evolve,
    "evolve": _run_evolve,
    "optimize": _run_optimize,
    "scaling": _run_scaling,
    "markov": _run_markov,
    "validate": _run_validate,
}


def run(config: RunConfig) -> None:
    """Execute one validated configuration."""
    _RUNNERS[config.mode](config)


# glibc's mallopt parameters, and the largest freed block kept for reuse.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 32 << 20
_MALLOC_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _keep_freed_blocks() -> bool:
    """Let glibc serve freed blocks up to 32 MB again instead of unmapping them.

    glibc maps every block above its mmap threshold (128 kB at start) afresh
    and unmaps it when freed, raising the threshold only as larger blocks
    are freed, and returns free heap above its trim threshold to the
    system, so freed temporaries cost fresh page faults.  After import, on
    2 vCPUs, an N=30 ``optimize`` of 60 evaluations took 520 minor faults
    with both thresholds set here against 743 without, at the same wall
    time (0.24 s); three N=30 ``evolve`` runs took 1698 against 4160.  In
    paired benchmark runs without this call (6 alternating pairs per
    workload, 6 s each, 2 vCPUs) evolve-exact's wall time rose from
    0.1097 to 0.1136 s, slower in 6 of 6 pairs, and scaling-sweep's from
    0.2885 to 0.3051 s, slower in 5 of 6; optimize-n30 was mixed, its peak
    RSS reaching 42.1 MB against at most 41.4 MB with the call, and
    markov-optimize did not change.  Linux only; a process that sets
    glibc's malloc tunables itself is left alone.  Returns whether the
    thresholds were set.
    """
    if not sys.platform.startswith("linux") or any(v in os.environ for v in _MALLOC_SETTINGS):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_KEEP_BYTES))


def main(argv=None) -> int:
    _keep_freed_blocks()
    parser = argparse.ArgumentParser(
        prog="spinfridge",
        description="Spin-star absorption refrigerator simulations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("single", "single qubit-bath pair time series"),
        ("evolve", "three-qubit refrigerator time series"),
        ("optimize", "minimize the cold-qubit temperature over couplings"),
        ("scaling", "optimal temperature versus bath size, fit and extrapolation"),
        ("markov", "Markovian master-equation baseline"),
        ("validate", "compare sector dynamics against the dense brute-force model"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("config", help="path to the JSON run configuration")
        cmd.add_argument("--output", help="override output.path from the config")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.command)
        if args.output == "":
            raise ConfigError("--output: expected a nonempty path")
        if args.output is not None:
            config = replace(config, output_path=args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/physics failures map to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {config.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
