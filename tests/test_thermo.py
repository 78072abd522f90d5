"""Heat currents: exact commutator route, balances, sign structure."""

import numpy as np
import pytest

from dense_reference import dense_evolve_and_trace, excited_at, grid_temperatures
from spinfridge import oracle, thermo
from spinfridge.engine import RefrigeratorEngine, RefrigeratorParams
from spinfridge.series import TimeGrid


def fridge(n=(2, 1, 1), **kw):
    defaults = dict(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.5, 0.4, 0.3),
        g=0.05,
        beta=(1.0, 1.0, 0.5),
    )
    defaults.update(kw)
    return RefrigeratorParams(n_bath=n, **defaults)


def currents_at(engine, t):
    """(qdot_s, qdot_b) at one time, evaluated directly, not on a grid."""
    keys = tuple(("exc", i) for i in range(1, engine.params.pairs + 1))
    rates = engine.series_terms(keys).at([t], derivative=True)[1][:, 0]
    return np.array(engine.params.epsilon) * rates, -np.array(engine.params.bath_energy) * rates


@pytest.fixture(scope="module")
def engine():
    return RefrigeratorEngine(fridge(), prune_tol=0.0)


class TestHeatCurrents:
    def test_stationary_state_has_zero_currents(self):
        eng = RefrigeratorEngine(fridge(coupling=(0, 0, 0), g=0.0), prune_tol=0.0)
        qdot_s, qdot_b = currents_at(eng, 1.3)
        assert np.max(np.abs(qdot_s)) == 0.0
        assert np.max(np.abs(qdot_b)) == 0.0

    def test_initial_product_state_has_zero_currents(self, engine):
        # the diagonal initial state commutes entrywise with any diagonal
        # observable, so every current starts at exactly zero
        qdot_s, qdot_b = currents_at(engine, 0.0)
        assert np.max(np.abs(qdot_s)) < 1e-14
        assert np.max(np.abs(qdot_b)) < 1e-14

    def test_qubit_current_is_population_derivative(self, engine):
        h = 1e-6
        for t in (0.4, 2.2, 7.0):
            qdot_s, _ = currents_at(engine, t)
            for i in (1, 2, 3):
                dpdt = (excited_at(engine, i, t + h) - excited_at(engine, i, t - h)) / (2 * h)
                eps = engine.params.epsilon[i - 1]
                assert qdot_s[i - 1] == pytest.approx(eps * dpdt, abs=1e-8)

    def test_bath_current_from_level_motion(self, engine):
        # every exchanged quantum moves one bath rung: Qdot_B = -(E/eps) Qdot_S
        for t in (0.7, 3.3):
            qdot_s, qdot_b = currents_at(engine, t)
            for i in (1, 2, 3):
                ratio = (
                    engine.params.bath_energy[i - 1] / engine.params.epsilon[i - 1]
                )
                assert qdot_b[i - 1] == pytest.approx(
                    -ratio * qdot_s[i - 1], abs=1e-12
                )

    def test_series_matches_pointwise(self, engine):
        grid = TimeGrid(0.0, 1.95, 0.05)
        times = grid.points()
        series = thermo.heat_current_series(engine, grid)
        for k in (3, 17, 30):
            qdot_s, qdot_b = currents_at(engine, float(times[k]))
            assert np.allclose(series.qdot_s[:, k], qdot_s, atol=1e-11)
            assert np.allclose(series.qdot_b[:, k], qdot_b, atol=1e-11)


class TestEnergyBalance:
    def test_total_energy_flow_vanishes(self, engine):
        for t in (0.0, 1.0, 5.0):
            assert abs(thermo.energy_balance(engine, t)) < 1e-9

    def test_decoupled_pairs_balance_independently(self):
        eng = RefrigeratorEngine(fridge(g=0.0), prune_tol=0.0)
        for t in (0.9, 4.1):
            for i in (1, 2, 3):
                qdot_s, qdot_b = currents_at(eng, t)
                closed = (
                    qdot_s[i - 1]
                    + qdot_b[i - 1]
                    + eng.series_terms((("hsb", i),)).at([t], derivative=True)[1][0, 0]
                )
                assert abs(closed) < 1e-10

    def test_residual_against_oracle_energy_drift(self):
        params = fridge(n=(1, 1, 1))
        eng = RefrigeratorEngine(params, prune_tol=0.0)
        model = oracle.build_dense(params)
        spectrum = model.spectrum()
        step = 1e-5
        for t in (0.5, 2.0):
            upper = np.trace(
                oracle.dense_evolve(model, t + step, spectrum=spectrum)
                @ model.hamiltonian
            ).real
            lower = np.trace(
                oracle.dense_evolve(model, t - step, spectrum=spectrum)
                @ model.hamiltonian
            ).real
            oracle_drift = (upper - lower) / (2 * step)
            assert abs(thermo.energy_balance(eng, t) - oracle_drift) < 1e-9

    def test_qubit_current_against_oracle(self):
        params = fridge(n=(1, 1, 1))
        eng = RefrigeratorEngine(params, prune_tol=0.0)
        model = oracle.build_dense(params)
        spectrum = model.spectrum()
        step = 1e-5
        for t in (0.8, 3.0):
            r_up = dense_evolve_and_trace(model, t + step, 0, spectrum=spectrum)
            r_dn = dense_evolve_and_trace(model, t - step, 0, spectrum=spectrum)
            drdt = (r_up[0, 0] - r_dn[0, 0]).real / (2 * step)
            qdot_s, _ = currents_at(eng, t)
            assert qdot_s[0] == pytest.approx(-1.0 * drdt, abs=1e-7)


class TestSignStructure:
    def test_cooling_correlates_with_current_signs(self):
        # when T1 falls, heat leaves the cold qubit and enters its bath
        eng = RefrigeratorEngine(
            fridge(n=(4, 4, 4), coupling=(0.9, 0.8, 0.5), g=0.1), prune_tol=1e-12
        )
        grid = TimeGrid(0.0, 9.99, 0.01)
        (temperature,) = grid_temperatures(eng, (1,), grid)
        currents = thermo.heat_current_series(eng, grid)
        dt_dt = np.gradient(temperature, grid.points())
        cooling = dt_dt < -1e-6
        assert cooling.sum() > 100
        agree_s = (currents.qdot_s[0][cooling] < 0).mean()
        agree_b = (currents.qdot_b[0][cooling] > 0).mean()
        assert agree_s > 0.95
        assert agree_b > 0.95
