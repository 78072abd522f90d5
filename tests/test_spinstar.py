"""Single qubit-bath pair: its sector table, its dynamics on the one-pair
engine, reduced states and the temperature read-out."""

import math

import numpy as np
import pytest

from dense_reference import (
    dense_evolve_and_trace,
    excited_at,
    fridge,
    pair_block,
    pair_table,
    qubit_state,
    star as make,
)
from spinfridge import oracle, thermo
from spinfridge.engine import RefrigeratorEngine, sector_layout
from spinfridge.series import SeriesTerms, TimeGrid
from spinfridge.spinstar import sector_log_weights, temperature_from_excited


def star(p):
    """The unpruned one-pair engine of a single star."""
    return RefrigeratorEngine(p, prune_tol=0.0)


def row(table, two_m):
    """Index of sector two_m in a ``sector_arrays`` table."""
    return int(np.flatnonzero(table["two_m"] == two_m)[0])


def sector_gap(p, two_m):
    """Level splitting 2*theta of interior sector two_m on the engine's ladder."""
    eng = star(p)
    return eng.ladders[0].gap[row(eng.layout.pairs[0], two_m)]


def ground_population(p, t):
    return 1.0 - excited_at(star(p), 1, t)


class TestSectors:
    def test_smallest_bath_labels(self):
        table = pair_table(make(n=1))
        assert table["two_m"].tolist() == [-2, 0, 2]  # m in {-1, 0, 1}
        assert table["dim"].tolist() == [1, 2, 1]

    def test_label_count_is_n_plus_2(self):
        assert len(pair_table(make(n=2))["two_m"]) == 4
        assert len(pair_table(make(n=30))["two_m"]) == 32

    def test_block_fields_match_definitions(self):
        # epsilon = E = 1, N = 2, m = 1/2: levels degenerate, ladder factor
        # u = sqrt(2), coupling A*u
        p = make(eps=1.0, bath_e=1.0, a=0.7, n=2)
        table = pair_table(p)
        j = row(table, 1)
        assert table["dim"][j] == 2
        assert table["b_minus"][j] - table["b_plus"][j] == pytest.approx(0.0, abs=1e-15)
        assert table["u"][j] == pytest.approx(math.sqrt(2.0))
        assert 0.5 * sector_gap(p, 1) == pytest.approx(0.7 * math.sqrt(2.0))

    def test_level_difference_is_bath_minus_qubit_gap(self):
        table = pair_table(make(eps=1.0, bath_e=2.0, n=4))
        for two_m in (-3, -1, 1, 3):
            j = row(table, two_m)
            assert table["b_minus"][j] - table["b_plus"][j] == pytest.approx(1.0)

    def test_decoupled_limit(self):
        p = make(eps=1.0, bath_e=2.0, a=0.0, n=3)
        ladder = star(p).ladders[0]
        assert not ladder.shift.any() and not ladder.live.any()  # no row exchanges population
        assert 0.5 * sector_gap(p, 0) == pytest.approx(0.5)  # |E - eps| / 2

    def test_edge_sectors_expose_single_level(self):
        table = pair_table(make(eps=1.0, bath_e=2.0, n=2))
        top, bottom = row(table, 3), row(table, -3)
        assert table["dim"][top] == table["dim"][bottom] == 1
        assert table["b_plus"][top] == pytest.approx(0.5 * 1.0 + 2.0 * 1.0)
        assert table["b_minus"][bottom] == pytest.approx(-0.5 * 1.0 - 2.0 * 1.0)

    def test_weights_reproduce_partition_functions(self):
        eps, bath_e, n, beta = 0.7, 1.3, 4, 0.9
        labels, logw = sector_log_weights(eps, bath_e, n, beta)
        z_qubit = 2.0 * math.cosh(0.5 * beta * eps)
        j = np.arange(n + 1) - 0.5 * n
        z_bath = np.exp(-beta * bath_e * j).sum()
        assert np.exp(logw).sum() == pytest.approx(z_qubit * z_bath, rel=1e-13)
        layout = sector_layout((eps,), (bath_e,), (n,), (beta,), 0.0)
        (w,) = layout.marginals
        assert layout.interacting is None
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert len(labels) == len(w) == n + 2
        assert np.all(w > 0)


class TestSectorEvolution:
    def test_initial_state_is_sector_thermal(self):
        p = make(eps=1.0, bath_e=2.0, beta=1.3)
        p_g, p_e = pair_table(p)["p_level"]
        assert p_g == pytest.approx(1.0 / (1.0 + math.exp(1.3)), abs=1e-12)
        assert p_g + p_e == pytest.approx(1.0, abs=1e-13)
        p_row = star(p).ladders[0].p_row
        assert p_row[1:-1].tolist() == [[p_g, p_e]] * (p.n_bath[0])
        assert p_row[[0, -1]].tolist() == [[1.0, 0.0], [0.0, 1.0]]  # the edges' one level

    def test_decoupled_sector_is_stationary(self):
        terms = star(make(a=0.0)).series_terms((("exc", 1),))
        assert np.all(terms.amps == 0.0)

    def test_resonant_sector_rabi(self):
        # pure ground start on resonance flips with sin^2(u t); brute-force
        # matrix evolution is the reference
        p = make(eps=1.5, bath_e=1.5, a=0.4, n=2)
        table = pair_table(p)
        j = row(table, 1)
        for t in (0.3, 1.1, 2.9):
            rho = oracle.evolve_density(pair_block(table, j, 0.4), np.diag([1.0, 0.0]), t)
            assert rho[1, 1].real == pytest.approx(
                math.sin(0.4 * table["u"][j] * t) ** 2, abs=1e-12
            )


class TestReducedStates:
    def test_thermal_ground_population_at_t0(self):
        p = make(eps=1.0, beta=1.0)
        r = ground_population(p, 0.0)
        assert r == pytest.approx(math.exp(0.5) / (2 * math.cosh(0.5)), abs=1e-12)
        assert r == pytest.approx(0.7311, abs=1e-4)

    def test_frozen_dynamics_without_coupling(self):
        p = make(a=0.0)
        r0 = ground_population(p, 0.0)
        for t in (1.0, 5.0):
            assert ground_population(p, t) == pytest.approx(r0, abs=1e-13)
            assert np.allclose(
                star(p).reduced_bath_populations(1, t),
                star(p).reduced_bath_populations(1, 0.0),
                atol=1e-13,
            )

    def test_bath_thermal_at_t0(self):
        p = make(1.0, 1.0, 0.5, 1, 1.0)
        pops = star(p).reduced_bath_populations(1, 0.0)
        expected = np.array([math.exp(0.5), math.exp(-0.5)])
        expected /= expected.sum()
        assert np.allclose(pops, expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        p = make(eps=1.0, bath_e=2.0, a=0.5, n=2, beta=1.0)
        eng = star(p)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for t in (0.0, 1.0, 3.1):
            spin = dense_evolve_and_trace(model, t, 0, spectrum=spectrum)
            assert np.max(np.abs(spin - qubit_state(eng, 1, t))) < 1e-9
            bath = dense_evolve_and_trace(model, t, 1, spectrum=spectrum)
            assert np.max(np.abs(
                np.diag(bath).real - eng.reduced_bath_populations(1, t)
            )) < 1e-9

    def test_conserved_total_z(self):
        p = make(n=4, beta=0.7)
        eng = star(p)
        m_bath = 0.5 * np.arange(-p.n_bath[0], p.n_bath[0] + 1, 2)

        def charge(t):
            qubit = excited_at(eng, 1, t) - 0.5
            return qubit + m_bath @ eng.reduced_bath_populations(1, t)

        ref = charge(0.0)
        for t in (0.9, 4.2, 8.8):
            assert charge(t) == pytest.approx(ref, abs=1e-10)

    def test_series_matches_pointwise(self):
        p = make(n=3)
        grid = TimeGrid(0.0, 4.0, 4.0 / 22)
        (series,) = star(p).excited_terms((1,)).on_grid(grid.start, grid.step, len(grid))
        assert len(series) == 23
        direct = [excited_at(star(p), 1, float(t)) for t in grid.points()]
        assert np.allclose(series, direct, atol=1e-12)

    def test_uniform_grid_matches_direct_evaluation(self, monkeypatch):
        # 4001 grid times take the grid kernel; SeriesTerms.at is the reference
        p = make(n=50)
        eng = star(p)
        grid = TimeGrid(0.0, 40.0, 0.01)
        times = grid.points()

        def direct_only(*args):
            raise AssertionError("a uniform grid must not be evaluated pointwise")

        monkeypatch.setattr(SeriesTerms, "at", direct_only)
        excited = eng.excited_terms((1,)).on_grid(grid.start, grid.step, len(times))[0]
        currents = thermo.heat_current_series(eng, grid)
        monkeypatch.undo()
        exc = eng.series_terms((("exc", 1),))
        values, rates = exc.at(times, derivative=True)
        sizes = np.abs(exc.amps).sum(), np.abs(exc.amps * exc.omegas).sum()
        for direct, size, scale, got in (
            (values, sizes[0], 1.0, excited),
            (rates, sizes[1], p.epsilon[0], currents.qdot_s[0]),
            (rates, sizes[1], -p.bath_energy[0], currents.qdot_b[0]),
        ):
            assert np.max(np.abs(got - scale * direct[0])) <= 1e-12 * abs(scale) * size

    def test_cold_excited_population_matches_dense_oracle(self):
        # r = 1 - p rounds to 1 at beta = 40; p keeps its relative precision.
        # Three scattered times are evaluated directly, 41 uniform ones on
        # the grid kernel.
        p = make(n=3, beta=40.0)
        eng = star(p)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        terms = eng.excited_terms((1,))
        scattered, grid = np.array([0.0, 0.7, 3.1]), TimeGrid(0.0, 4.0, 0.1)
        for times, series in ((scattered, terms.at(scattered)[0]),
                              (grid.points(), terms.on_grid(grid.start, grid.step, len(grid))[0])):
            for k, t in enumerate(times):
                dense = dense_evolve_and_trace(model, t, 0, spectrum=spectrum)
                assert 0.0 < dense[1, 1].real < 1e-16
                assert series[k] == pytest.approx(dense[1, 1].real, rel=1e-10)
            assert temperature_from_excited(series[0], 1.0) == pytest.approx(
                1 / 40, rel=1e-12
            )

    def test_heat_currents_match_population_derivative(self):
        p = make(n=3)
        currents = thermo.heat_current_series(star(p), TimeGrid(0.4, 2.8, 1.2))
        qdot_s, qdot_b = currents.qdot_s[0], currents.qdot_b[0]
        h = 1e-6
        for k, t in enumerate(currents.time):
            drdt = (
                ground_population(p, t + h) - ground_population(p, t - h)
            ) / (2 * h)
            assert qdot_s[k] == pytest.approx(-p.epsilon[0] * drdt, abs=1e-8)
            assert qdot_b[k] == pytest.approx(p.bath_energy[0] * drdt, abs=1e-8)


def thermal_temperature(r, epsilon):
    """Reference read-out epsilon / ln(r/(1 - r)) from the ground population r."""
    return epsilon / math.log(r / (1.0 - r))


class TestLocalTemperature:
    def test_inverse_of_thermal_population(self):
        p = np.array([1.0 / (1.0 + math.e)])
        assert temperature_from_excited(p, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert temperature_from_excited(p, 2.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_pure_ground_limit(self):
        assert 0.0 < temperature_from_excited(np.array([1e-12]), 1.0)[0] < 0.04

    def test_half_population_is_infinite(self):
        assert temperature_from_excited(np.array([0.5]), 1.0)[0] == np.inf

    def test_excited_population_form(self):
        p = np.array([0.3, 0.7])
        expected = [thermal_temperature(1.0 - x, 2.0) for x in p]
        assert np.allclose(temperature_from_excited(p, 2.0), expected, rtol=1e-14)
        # r = 1 - p rounds to 1 here, but p keeps its precision
        assert temperature_from_excited(np.array([math.exp(-40.0)]), 1.0)[0] == (
            pytest.approx(1.0 / 40.0, rel=1e-14)
        )
        assert temperature_from_excited(np.array([0.0]), 1.0)[0] == 0.0
        for bad in (-1e-20, 1.0):
            with pytest.raises(ValueError):
                temperature_from_excited(np.array([bad]), 1.0)


class TestParamValidation:
    def test_rejects_bad_parameters(self):
        # one message per field, checked in this order within a pair
        for bad, message in (
            (dict(n=0), "n_bath must be a positive integer"),
            (dict(a=-0.5), "coupling must be nonnegative"),
            (dict(beta=0.0), "beta must be positive"),
            (dict(eps=math.inf), "epsilon must be finite"),
            (dict(n=0, a=-0.5, beta=0.0), "n_bath"),
            (dict(a=-0.5, beta=-1.0), "coupling"),
            (dict(beta=-1.0, eps=math.nan), "beta"),
        ):
            with pytest.raises(ValueError, match=message):
                make(**{**dict(eps=1.0, bath_e=1.0, a=0.5, n=2, beta=1.0), **bad})

    def test_rejects_a_zero_gap(self):
        # a qubit without a gap has no temperature: it used to read T = 0
        with pytest.raises(ValueError, match="epsilon must be nonzero, got 0.0"):
            make(eps=0.0)
        with pytest.raises(ValueError, match="epsilon must be nonzero"):
            fridge(epsilon=(1.0, 0.0, 1.0))
        assert make(eps=-1.0).epsilon == (-1.0,)

    def test_rejects_a_bad_second_pair(self):
        with pytest.raises(ValueError, match="coupling must be nonnegative, got -0.4"):
            fridge(coupling=(0.5, -0.4, 0.3))
        with pytest.raises(ValueError, match="bath_energy must be finite"):
            fridge(bath_energy=(2.0, math.nan, 2.0))
        with pytest.raises(ValueError, match="n_bath must be a positive integer, got 0"):
            fridge(n=(1, 0, 1))
