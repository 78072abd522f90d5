"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.

One profile, the paper's: the bath-size sweep runs N up to 50, and the
fit and extrapolation of criteria 6 and 7 are held to the tight
tolerances.
"""

from dataclasses import replace

import numpy as np
import pytest

from dense_reference import (
    charge,
    dense_evolve_and_trace,
    grid_temperatures,
    qubit_state,
    star,
    total_energy,
)
from spinfridge import oracle, thermo
from spinfridge.analysis import (
    DEFAULT_TIME_GRID,
    fit_power_law,
    neville_extrapolate,
    neville_lower_diagonal_diffs,
    optimize_t1,
    scaling_sweep,
)
from spinfridge.engine import RefrigeratorEngine, RefrigeratorParams
from spinfridge.markov import (
    MarkovParams,
    excited_populations,
    integrate_gksl,
    markov_optimize,
    thermal_product_state,
)
from spinfridge.series import TimeGrid
from spinfridge.spinstar import temperature_from_excited

SEED = 20260809


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def paper_fridge(n, coupling=(0.0, 0.0, 0.0), g=0.0):
    return RefrigeratorParams(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=coupling,
        g=g,
        n_bath=(n, n, n),
        beta=(1.0, 1.0, 0.5),
    )


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fig1_run():
    """Optimized N=30 refrigerator: engine, temperatures, currents."""
    base = paper_fridge(30)
    result = optimize_t1(base, 1e-9, budget=2000, seed=SEED % 1000)
    x = [float(v) for v in result.best_params]
    engine = RefrigeratorEngine(replace(base, coupling=tuple(x[:3]), g=x[3]), prune_tol=1e-12)
    temperatures = grid_temperatures(engine, (1, 2, 3), DEFAULT_TIME_GRID)
    currents = thermo.heat_current_series(engine, DEFAULT_TIME_GRID)
    return {
        "result": result,
        "engine": engine,
        "times": currents.time,
        "temperatures": temperatures,
        "currents": currents,
    }


@pytest.fixture(scope="session")
def sweep_run():
    """Bath-size scaling sweep, N up to 50."""
    return scaling_sweep(
        paper_fridge(2),
        [2, 4, 7, 10, 14, 20, 30, 40, 50],
        per_n_budget=2500,
        seed=SEED % 100,
        prune_tol=1e-9,
    )


def column(rows, name):
    """One field of every sweep row, as an array in n_list order."""
    return np.array([getattr(row, name) for row in rows], dtype=float)


# ---------------------------------------------------------------------------
# Criterion 1: single-star oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_single_star_oracle():
    worst = 0.0
    for n in range(1, 7):
        for eps in (0.5, 1.0, 2.0):
            for bath_e in (0.5, 1.0, 2.0):
                for a in (0.1, 0.5):
                    for beta in (0.5, 1.0):
                        p = star(eps, bath_e, a, n, beta)
                        engine = RefrigeratorEngine(p, prune_tol=0.0)
                        model = oracle.build_dense(p)
                        spectrum = model.spectrum()
                        for t in (0.0, 0.7, 3.1):
                            spin = dense_evolve_and_trace(
                                model, t, 0, spectrum=spectrum
                            )
                            dev = np.max(np.abs(
                                spin - qubit_state(engine, 1, t)
                            ))
                            bath = dense_evolve_and_trace(
                                model, t, 1, spectrum=spectrum
                            )
                            dev_b = np.max(np.abs(
                                np.diag(bath).real
                                - engine.reduced_bath_populations(1, t)
                            ))
                            worst = max(worst, float(dev), float(dev_b))
    ok = worst < 1e-9
    report("criterion 1 (single-star oracle equivalence)",
           ok, f"max deviation {worst:.3e} < 1e-9 over N=1..6 grid")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: three-qubit oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_refrigerator_oracle():
    autonomous = dict(
        epsilon=(1.0, 2.0, 1.0), bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.5, 0.4, 0.3), g=0.05, beta=(1.0, 1.0, 0.5),
    )
    tilted = dict(
        epsilon=(1.0, 1.7, 0.8), bath_energy=(2.0, 3.0, 1.5),
        coupling=(0.3, 0.6, 0.2), g=0.08, beta=(0.8, 1.2, 0.6),
    )
    worst = 0.0
    for n in ((1, 1, 1), (2, 1, 1)):
        for kw in (autonomous, tilted):
            p = RefrigeratorParams(n_bath=n, **kw)
            engine = RefrigeratorEngine(p, prune_tol=0.0)
            model = oracle.build_dense(p)
            spectrum = model.spectrum()
            for t in (0.0, 2.0, 5.0):
                for qubit in (1, 2, 3):
                    dev_q = np.max(np.abs(
                        dense_evolve_and_trace(
                            model, t, 2 * (qubit - 1), spectrum=spectrum
                        )
                        - qubit_state(engine, qubit, t)
                    ))
                    dev_b = np.max(np.abs(
                        np.diag(dense_evolve_and_trace(
                            model, t, 2 * qubit - 1, spectrum=spectrum
                        )).real
                        - engine.reduced_bath_populations(qubit, t)
                    ))
                    worst = max(worst, float(dev_q), float(dev_b))
    ok = worst < 1e-9
    report("criterion 2 (refrigerator oracle equivalence)",
           ok, f"max deviation {worst:.3e} < 1e-9 at N=(1,1,1) and (2,1,1)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: conservation and pruning soundness at N=(10,10,10)
# ---------------------------------------------------------------------------

def test_criterion_3_conservation_suite():
    rng = np.random.default_rng(SEED)
    p = RefrigeratorParams(
        epsilon=tuple(rng.uniform(0.5, 2.0, 3)),
        bath_energy=tuple(rng.uniform(0.5, 3.0, 3)),
        coupling=tuple(rng.uniform(0.1, 1.0, 3)),
        g=float(rng.uniform(0.01, 0.1)),
        n_bath=(10, 10, 10),
        beta=tuple(rng.uniform(0.5, 2.0, 3)),
    )
    full = RefrigeratorEngine(p, prune_tol=0.0)
    pruned = RefrigeratorEngine(p, prune_tol=1e-12)
    times = np.linspace(0.0, 10.0, 11)
    energy0 = total_energy(full, 0.0)
    charges0 = [charge(full, i, 0.0) for i in (1, 2, 3)]
    trace_dev = charge_dev = energy_dev = 0.0
    for t in times:
        trace_dev = max(trace_dev, abs(full.total_trace(t) - 1.0))
        energy_dev = max(energy_dev, abs(total_energy(full, t) - energy0))
        for i in (1, 2, 3):
            charge_dev = max(
                charge_dev, abs(charge(full, i, t) - charges0[i - 1])
            )
    grid = DEFAULT_TIME_GRID
    prune_dev = float(np.max(np.abs(
        full.series_terms((("pop", 1),)).on_grid(grid.start, grid.step, len(grid))
        - pruned.series_terms((("pop", 1),)).on_grid(grid.start, grid.step, len(grid))
    )))
    ok = (
        trace_dev < 1e-12 and charge_dev < 1e-10
        and energy_dev < 1e-10 and prune_dev < 1e-10
    )
    report(
        "criterion 3 (conservation suite)",
        ok,
        f"trace {trace_dev:.2e} < 1e-12, charge drift {charge_dev:.2e} < 1e-10, "
        f"energy drift {energy_dev:.2e} < 1e-10, pruning shift {prune_dev:.2e} < 1e-10",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: transient cooling of the optimized N=30 refrigerator
# ---------------------------------------------------------------------------

def test_criterion_4_transient_cooling(fig1_run):
    t1_min = float(fig1_run["temperatures"][0].min())
    t2 = fig1_run["temperatures"][1]
    t3 = fig1_run["temperatures"][2]
    t2_dips = float(t2.min()) < t2[0] - 1e-3
    t3_dips = float(t3.min()) < t3[0] - 1e-3
    evals = fig1_run["result"].evaluations
    ok = t1_min <= 0.55 and t2_dips and t3_dips
    report(
        "criterion 4 (transient cooling, N=30)",
        ok,
        f"min T1 = {t1_min:.4f} <= 0.55 after {evals} evaluations; "
        f"min T2 = {t2.min():.4f} < {t2[0]:.3f}, min T3 = {t3.min():.4f} < {t3[0]:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: heat-current signs during cooling
# ---------------------------------------------------------------------------

def test_criterion_5_heat_current_signs(fig1_run):
    times = fig1_run["times"]
    temperature = fig1_run["temperatures"][0]
    currents = fig1_run["currents"]
    dt1 = np.gradient(temperature, times)
    cooling = dt1 < 0.0
    agree = (
        (currents.qdot_s[0][cooling] < 0.0) & (currents.qdot_b[0][cooling] > 0.0)
    ).mean()
    all_positive = np.any(
        (currents.qdot_b[0] > 0) & (currents.qdot_b[1] > 0) & (currents.qdot_b[2] > 0)
    )
    ok = agree >= 0.95 and bool(all_positive)
    report(
        "criterion 5 (heat-current signs)",
        ok,
        f"sign agreement on cooling stretches {100 * agree:.2f}% >= 95%; "
        f"simultaneous positive bath currents: {bool(all_positive)}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 6 and 7: scaling of the optimal temperature and its timing
# ---------------------------------------------------------------------------

LADDER_N = [2, 4, 7, 14, 50]  # the sweep sizes the Neville ladder uses


def test_criterion_6_scaling_asymptote(sweep_run):
    ns, t1 = column(sweep_run, "n"), column(sweep_run, "best_t1")
    sel = [int(np.where(ns == n)[0][0]) for n in LADDER_N]
    tab = neville_extrapolate(1.0 / ns[sel], t1[sel], 0.0)
    chain = neville_lower_diagonal_diffs(tab)
    fit = fit_power_law(ns, t1)
    ok = (
        abs(fit.t_inf - 0.457) <= 0.01
        and abs(fit.b - 1.089) <= 0.2
        and abs(tab.extrapolated - 0.454) <= 0.01
        and 2e-4 <= abs(chain[0]) <= 2e-2
        and abs(fit.t_inf - tab.extrapolated) <= 0.01
    )
    report(
        "criterion 6 (scaling asymptote)",
        ok,
        f"fit t_inf = {fit.t_inf:.4f} (0.457 +- 0.01), b = {fit.b:.3f} "
        f"(1.089 +- 0.2); Neville = {tab.extrapolated:.4f} (0.454 +- 0.01), "
        f"D[1,4] = {chain[0]:.2e} (order 2e-3); estimators agree within 0.01",
    )
    assert ok


def test_criterion_7_timing_scaling(sweep_run):
    ns, tl = column(sweep_run, "n"), column(sweep_run, "local_min_time")
    sel = [int(np.where(ns == n)[0][0]) for n in LADDER_N]
    tab = neville_extrapolate(1.0 / ns[sel], tl[sel], 0.0)
    fit = fit_power_law(ns, tl, t_inf=tab.extrapolated)
    ok = abs(fit.b - 0.62) <= 0.15 and abs(tab.extrapolated - 0.10) <= 0.05
    report(
        "criterion 7 (timing scaling)",
        ok,
        f"t_l fit exponent y = {fit.b:.3f} (0.62 +- 0.15), "
        f"t_l_inf = {tab.extrapolated:.4f} (0.10 +- 0.05)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: Markovian baseline and the non-Markovian advantage
# ---------------------------------------------------------------------------

def test_criterion_8_markov_baseline(sweep_run):
    params = MarkovParams(
        epsilon=(1.0, 2.0, 1.0),
        g=0.0999197,
        alpha=(7.98e-6, 2.67e-5, 3.13e-5),
        beta=(1.0, 1.0, 0.5),
    )
    traj = integrate_gksl(params, thermal_product_state(params), TimeGrid(0.0, 40.0, 0.05))
    t1 = temperature_from_excited(excited_populations(traj.diagonal)[:, 0], params.epsilon[0])
    k = int(np.argmin(t1))
    t1_min, t_min = float(t1[k]), float(traj.time[k])
    value_ok = abs(t1_min - 0.842) <= 0.01
    time_ok = abs(t_min - 15.2) <= 0.5 + 1e-9  # grid minimum sits on the edge

    optimum = markov_optimize(
        MarkovParams(epsilon=(1.0, 2.0, 1.0), g=0.0, alpha=(0.0, 0.0, 0.0),
                     beta=(1.0, 1.0, 0.5)),
        alpha_range=(0.0, 1e-4),
        g_range=(0.0, 0.1),
        budget=200,
        seed=SEED % 500,
        time_grid=TimeGrid(0.0, 25.0, 0.05),
    )
    opt_ok = optimum.best_t1 <= 0.852

    t1, tl = column(sweep_run, "best_t1"), column(sweep_run, "local_min_time")
    advantage_ok = bool(np.all(t1 < 0.842) and np.all(tl < 15.2 / 2.0))

    ok = value_ok and time_ok and opt_ok and advantage_ok
    report(
        "criterion 8 (Markov baseline)",
        ok,
        f"fixed-parameter min T1 = {t1_min:.4f} (0.842 +- 0.01) at grid "
        f"t = {t_min:.2f} (15.2 +- 0.5); optimizer best T1 = "
        f"{optimum.best_t1:.4f} <= 0.852; spin-star sweep beats 0.842 at every N "
        f"with t_l below {15.2 / 2:.1f}: {advantage_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: Neville unit correctness
# ---------------------------------------------------------------------------

def test_criterion_9_neville_unit():
    xs = np.array([0.5, 0.25, 1 / 7, 1 / 14, 0.02])
    linear = 1.0 + 2.0 * xs
    tab_linear = neville_extrapolate(xs, linear, 0.0)
    linear_ok = abs(tab_linear.extrapolated - 1.0) < 1e-12

    rng = np.random.default_rng(SEED)
    ys = rng.normal(size=5)
    tab = neville_extrapolate(xs, ys, 0.0)
    recursion_dev = 0.0
    for m in range(1, 5):
        for i in range(5 - m):
            rebuilt = (
                (0.0 - xs[i + m]) * tab.tableau[m - 1][i]
                + (xs[i] - 0.0) * tab.tableau[m - 1][i + 1]
            ) / (xs[i] - xs[i + m])
            recursion_dev = max(
                recursion_dev,
                abs(tab.tableau[m][i] - rebuilt) / max(1.0, abs(rebuilt)),
            )
    recursion_ok = recursion_dev < 1e-14
    ok = linear_ok and recursion_ok
    report(
        "criterion 9 (Neville unit correctness)",
        ok,
        f"linear-data error {abs(tab_linear.extrapolated - 1.0):.2e} < 1e-12; "
        f"parent-recursion residual {recursion_dev:.2e} < 1e-14",
    )
    assert ok
