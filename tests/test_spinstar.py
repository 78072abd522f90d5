"""Single qubit-bath pair: sectors, exact evolution, reduced states, temperature."""

import math
import warnings

import numpy as np
import pytest

from spinfridge import oracle
from spinfridge.linalg import evolve_density
from spinfridge.spinstar import (
    PopulationInversionWarning,
    SectorCoupling,
    SectorLevel,
    SingleStarParams,
    evolve_sector,
    excited_population_series,
    ground_population,
    heat_current_series,
    local_temperature,
    reduced_bath_populations,
    reduced_spin_state,
    sector_dim,
    sector_hamiltonian,
    sector_initial_populations,
    sector_labels,
    sector_state_analytic,
    sector_weights,
    temperature_from_excited,
)


def make(eps=1.0, bath_e=2.0, a=0.5, n=2, beta=1.0):
    return SingleStarParams(eps, bath_e, a, n, beta)


class TestSectors:
    def test_smallest_bath_labels(self):
        p = make(n=1)
        assert sector_labels(p) == [-2, 0, 2]  # m in {-1, 0, 1}
        assert sector_dim(p, -2) == 1
        assert sector_dim(p, 2) == 1
        assert sector_dim(p, 0) == 2

    def test_label_count_is_n_plus_2(self):
        assert len(sector_labels(make(n=2))) == 4
        assert len(sector_labels(make(n=30))) == 32

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            sector_dim(make(n=2), 2)  # parity mismatch for even N
        with pytest.raises(ValueError):
            sector_hamiltonian(make(n=2), 99)

    def test_block_fields_match_definitions(self):
        # epsilon = E = 1, N = 2, m = 1/2: levels degenerate, u = A*sqrt(2)
        p = make(eps=1.0, bath_e=1.0, a=0.7, n=2)
        block = sector_hamiltonian(p, 1)
        assert isinstance(block, SectorCoupling)
        assert block.b_minus - block.b_plus == pytest.approx(0.0, abs=1e-15)
        assert block.u == pytest.approx(0.7 * math.sqrt(2.0))
        assert block.theta == pytest.approx(0.7 * math.sqrt(2.0))

    def test_level_difference_is_bath_minus_qubit_gap(self):
        p = make(eps=1.0, bath_e=2.0, n=4)
        for two_m in (-3, -1, 1, 3):
            block = sector_hamiltonian(p, two_m)
            assert block.b_minus - block.b_plus == pytest.approx(1.0)

    def test_decoupled_limit(self):
        p = make(eps=1.0, bath_e=2.0, a=0.0, n=3)
        block = sector_hamiltonian(p, 0)
        assert block.u == 0.0
        assert block.theta == pytest.approx(0.5)  # |E - eps| / 2

    def test_edge_sectors_expose_single_level(self):
        p = make(eps=1.0, bath_e=2.0, n=2)
        top = sector_hamiltonian(p, 3)
        bottom = sector_hamiltonian(p, -3)
        assert isinstance(top, SectorLevel)
        assert top.energy == pytest.approx(0.5 * 1.0 + 2.0 * 1.0)
        assert bottom.energy == pytest.approx(-0.5 * 1.0 - 2.0 * 1.0)

    def test_weights_reproduce_partition_functions(self):
        p = make(eps=0.7, bath_e=1.3, n=4, beta=0.9)
        labels, w = sector_weights(p)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert len(labels) == p.n_bath + 2
        assert np.all(w > 0)


class TestSectorEvolution:
    def test_initial_state_is_sector_thermal(self):
        p = make(eps=1.0, bath_e=2.0, beta=1.3)
        state = evolve_sector(p, 1, 0.0)
        assert state.c_gg == pytest.approx(1.0 / (1.0 + math.exp(1.3)), abs=1e-12)
        assert state.c_gg + state.c_ee == pytest.approx(1.0, abs=1e-13)
        assert abs(state.c_ge) < 1e-14

    def test_decoupled_sector_is_stationary(self):
        p = make(a=0.0)
        ref = evolve_sector(p, 1, 0.0)
        for t in (0.5, 2.0, 9.0):
            state = evolve_sector(p, 1, t)
            assert state.c_gg == pytest.approx(ref.c_gg, abs=1e-12)
            assert abs(state.c_ge) < 1e-14

    def test_resonant_sector_rabi(self):
        # pure ground start on resonance flips with sin^2(u t); brute-force
        # matrix evolution is the reference
        p = make(eps=1.5, bath_e=1.5, a=0.4, n=2)
        block = sector_hamiltonian(p, 1)
        for t in (0.3, 1.1, 2.9):
            rho = evolve_density(block.matrix(), np.diag([1.0, 0.0]), t)
            assert rho[1, 1].real == pytest.approx(
                math.sin(block.u * t) ** 2, abs=1e-12
            )

    def test_per_sector_trace_is_one_at_all_times(self):
        p = make(n=5, beta=0.6)
        for two_m in sector_labels(p):
            for t in (0.0, 0.7, 3.1, 12.0):
                state = evolve_sector(p, two_m, t)
                assert state.c_gg + state.c_ee == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_closed_form_matches_eigendecomposition(self, n):
        for eps in (0.5, 1.0, 2.0):
            for bath_e in (0.5, 1.0, 2.0):
                for a in (0.1, 0.5):
                    for beta in (0.5, 1.0):
                        p = make(eps, bath_e, a, n, beta)
                        for two_m in sector_labels(p):
                            for t in (0.0, 0.7, 3.1):
                                routed = evolve_sector(p, two_m, t)
                                closed = sector_state_analytic(p, two_m, t)
                                assert routed.c_gg == pytest.approx(
                                    closed.c_gg, abs=1e-10
                                )
                                assert routed.c_ee == pytest.approx(
                                    closed.c_ee, abs=1e-10
                                )
                                assert abs(routed.c_ge - closed.c_ge) < 1e-10

    def test_coherence_hermiticity(self):
        p = make(n=3, beta=0.8)
        state = evolve_sector(p, 0, 1.7)
        block = sector_hamiltonian(p, 0)
        rho = evolve_density(
            block.matrix(),
            np.diag(sector_initial_populations(p, 0)).astype(complex),
            1.7,
        )
        assert rho[1, 0] == pytest.approx(np.conj(state.c_ge), abs=1e-14)


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
                reduced_bath_populations(p, t),
                reduced_bath_populations(p, 0.0),
                atol=1e-13,
            )

    def test_bath_thermal_at_t0(self):
        p = SingleStarParams(1.0, 1.0, 0.5, 1, 1.0)
        pops = reduced_bath_populations(p, 0.0)
        expected = np.array([math.exp(0.5), math.exp(-0.5)])
        expected /= expected.sum()
        assert np.allclose(pops, expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        p = make(eps=1.0, bath_e=2.0, a=0.5, n=2, beta=1.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for t in (0.0, 1.0, 3.1):
            spin = oracle.dense_evolve_and_trace(model, t, 0, spectrum=spectrum)
            assert np.max(np.abs(spin - reduced_spin_state(p, t))) < 1e-9
            bath = oracle.dense_evolve_and_trace(model, t, 1, spectrum=spectrum)
            assert np.max(np.abs(
                np.diag(bath).real - reduced_bath_populations(p, t)
            )) < 1e-9

    def test_conserved_total_z(self):
        p = make(n=4, beta=0.7)
        labels, w = sector_weights(p)

        def charge(t):
            total = 0.0
            for two_m, weight in zip(labels, w):
                state = evolve_sector(p, int(two_m), t)
                total += weight * 0.5 * two_m * (state.c_gg + state.c_ee)
            return total

        ref = charge(0.0)
        for t in (0.9, 4.2, 8.8):
            assert charge(t) == pytest.approx(ref, abs=1e-10)

    def test_series_matches_pointwise(self):
        p = make(n=3)
        times = np.linspace(0.0, 4.0, 23)
        series = 1.0 - excited_population_series(p, times)
        direct = [ground_population(p, float(t)) for t in times]
        assert np.allclose(series, direct, atol=1e-12)

    def test_vectorized_terms_match_scalar_sectors(self):
        from spinfridge.spinstar import _sector_population_terms

        for p in (make(n=4), make(eps=2.0, bath_e=1.0, n=3, beta=3.0), make(a=0.0)):
            labels, const, amp, omega = _sector_population_terms(p)
            for t in (0.0, 0.8, 2.9):
                scalar = [sector_state_analytic(p, int(m), t).c_ee for m in labels]
                assert np.allclose(const + amp * np.cos(omega * t), scalar,
                                   rtol=1e-13, atol=1e-15)

    def test_cold_excited_population_matches_dense_oracle(self):
        # r = 1 - p rounds to 1 at beta = 40; p keeps its relative precision
        p = make(n=3, beta=40.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        times = np.array([0.0, 0.7, 3.1])
        series = excited_population_series(p, times)
        for k, t in enumerate(times):
            dense = oracle.dense_evolve_and_trace(model, t, 0, spectrum=spectrum)
            assert 0.0 < dense[1, 1].real < 1e-16
            assert series[k] == pytest.approx(dense[1, 1].real, rel=1e-10)
        assert temperature_from_excited(series[0], 1.0) == pytest.approx(1 / 40, rel=1e-12)

    def test_heat_currents_match_population_derivative(self):
        p = make(n=3)
        times = np.array([0.4, 1.3, 2.8])
        qdot_s, qdot_b = heat_current_series(p, times)
        h = 1e-6
        for k, t in enumerate(times):
            drdt = (
                ground_population(p, t + h) - ground_population(p, t - h)
            ) / (2 * h)
            assert qdot_s[k] == pytest.approx(-p.epsilon * drdt, abs=1e-8)
            assert qdot_b[k] == pytest.approx(p.bath_energy * drdt, abs=1e-8)


class TestLocalTemperature:
    def test_inverse_of_thermal_population(self):
        r = math.e / (1.0 + math.e)
        assert local_temperature(r, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert local_temperature(r, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_pure_ground_limit(self):
        assert local_temperature(1.0 - 1e-12, 1.0) < 0.04
        assert local_temperature(1.0 - 1e-12, 1.0) > 0.0

    def test_half_population_is_infinite(self):
        assert math.isinf(local_temperature(0.5, 1.0))
        assert temperature_from_excited(np.array([0.5]), 1.0)[0] == np.inf

    def test_inversion_flagged_negative(self):
        with pytest.warns(PopulationInversionWarning):
            t = local_temperature(0.3, 1.0)
        assert t < 0

    @pytest.mark.parametrize("r", [-0.1, 0.0, 1.0, 1.7])
    def test_domain_errors(self, r):
        with pytest.raises(ValueError):
            local_temperature(r, 1.0)

    def test_excited_population_form(self):
        p = np.array([0.3, 0.5, 0.7])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PopulationInversionWarning)
            expected = [local_temperature(1.0 - x, 2.0) for x in p]
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
        with pytest.raises(ValueError):
            SingleStarParams(1.0, 1.0, 0.5, 0, 1.0)
        with pytest.raises(ValueError):
            SingleStarParams(1.0, 1.0, -0.5, 2, 1.0)
        with pytest.raises(ValueError):
            SingleStarParams(1.0, 1.0, 0.5, 2, 0.0)
        with pytest.raises(ValueError):
            SingleStarParams(math.inf, 1.0, 0.5, 2, 1.0)
