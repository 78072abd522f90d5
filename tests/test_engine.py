"""Triple-sector engine: enumeration, pruning, assembly, reduced dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinfridge import oracle
from spinfridge.engine import (
    RefrigeratorEngine,
    RefrigeratorParams,
    build_sector_hamiltonian,
    enumerate_triple_sectors,
    initial_sector_state,
    trig_series_at,
    trig_series_uniform,
)
from spinfridge.spinstar import (
    SectorCoupling,
    sector_hamiltonian,
    temperature_from_excited,
)


def fridge(n=(1, 1, 1), **kw):
    defaults = dict(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.5, 0.4, 0.3),
        g=0.05,
        beta=(1.0, 1.0, 0.5),
    )
    defaults.update(kw)
    return RefrigeratorParams(n_bath=n, **defaults)


class TestParams:
    def test_autonomous_condition(self):
        assert fridge().is_autonomous()
        assert not fridge(epsilon=(1.0, 1.7, 0.8)).is_autonomous()

    def test_validation(self):
        with pytest.raises(ValueError):
            fridge(g=-0.1)
        with pytest.raises(ValueError):
            fridge(epsilon=(1.0, 2.0))
        with pytest.raises(ValueError):
            fridge(n=(0, 1, 1))

    def test_pair_extraction(self):
        p = fridge()
        pair2 = p.pair(2)
        assert pair2.epsilon == 2.0
        assert pair2.bath_energy == 4.0
        assert pair2.coupling == 0.4


class TestEnumeration:
    def test_counts_without_pruning(self):
        assert len(enumerate_triple_sectors(fridge(), 0.0).labels) == 27
        big = enumerate_triple_sectors(fridge(n=(30, 30, 30)), 0.0)
        assert len(big.labels) == 32768
        assert big.total_labels == 32768
        assert big.retained_fraction == 1.0

    def test_weights_are_normalized_fractions(self):
        sectors = enumerate_triple_sectors(fridge(n=(2, 2, 2)), 0.0)
        total = sum(label.weight for label in sectors.labels)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pruning_drops_low_weight_sectors(self):
        p = fridge(n=(6, 6, 6))
        pruned = enumerate_triple_sectors(p, 1e-9)
        assert len(pruned.labels) < 8 ** 3
        assert pruned.retained_fraction >= 1.0 - 1e-9

    def test_pruning_perturbs_population_below_budget(self):
        p = fridge(n=(6, 6, 6))
        full = RefrigeratorEngine(p, prune_tol=0.0)
        pruned = RefrigeratorEngine(p, prune_tol=1e-12)
        for t in (0.0, 2.0, 5.0):
            assert abs(
                full.ground_population(1, t) - pruned.ground_population(1, t)
            ) < 1e-10

    def test_pruning_at_production_size(self):
        # N=(30,30,30): pruning keeps a small fraction of the 32768 labels
        # while retaining all but 1e-12 of the weight, and the cold-qubit
        # population moves by less than the conservation budget
        p = fridge(n=(30, 30, 30), coupling=(0.6, 0.5, 0.4), g=0.08)
        pruned_set = enumerate_triple_sectors(p, 1e-12)
        assert len(pruned_set.labels) < 32768
        assert pruned_set.retained_fraction >= 1.0 - 1e-12
        full = RefrigeratorEngine(p, prune_tol=0.0)
        pruned = RefrigeratorEngine(p, prune_tol=1e-12)
        assert abs(
            full.ground_population(1, 5.0) - pruned.ground_population(1, 5.0)
        ) < 1e-10

    def test_dims_flag_edges(self):
        labels = {
            tuple(label.two_m): label.dims
            for label in enumerate_triple_sectors(fridge(), 0.0).labels
        }
        assert labels[(-2, -2, -2)] == (1, 1, 1)
        assert labels[(0, 0, 0)] == (2, 2, 2)
        assert labels[(2, 0, -2)] == (1, 2, 1)

    def test_prune_tol_validation(self):
        with pytest.raises(ValueError):
            enumerate_triple_sectors(fridge(), 1.5)


class TestSectorAssembly:
    def test_decoupled_blocks_are_kron_sums(self):
        p = fridge(g=0.0, n=(2, 2, 2))
        pairs = [p.pair(i) for i in (1, 2, 3)]
        for label in enumerate_triple_sectors(p, 0.0).labels:
            system = build_sector_hamiltonian(p, label)
            addends = []
            for k in range(3):
                block = sector_hamiltonian(pairs[k], label.two_m[k])
                addends.append(
                    block.matrix() if isinstance(block, SectorCoupling)
                    else np.array([[block.energy]])
                )
            expected = sorted(
                a + b + c
                for a in np.linalg.eigvalsh(addends[0])
                for b in np.linalg.eigvalsh(addends[1])
                for c in np.linalg.eigvalsh(addends[2])
            )
            assert np.allclose(system.spectrum.eigenvalues, expected, atol=1e-12)

    def test_autonomous_interaction_states_degenerate(self):
        p = fridge(n=(3, 3, 3), g=0.07)
        assert p.is_autonomous()
        for label in enumerate_triple_sectors(p, 0.0).labels:
            if label.dims != (2, 2, 2):
                continue
            h = build_sector_hamiltonian(p, label).hamiltonian
            assert h[2, 2] == pytest.approx(h[5, 5], abs=1e-12)
            assert h[2, 5] == pytest.approx(p.g)

    def test_interaction_absent_in_edge_sectors(self):
        # sectors missing a basis bit carry no collective coupling: their
        # blocks are identical with and without g
        p = fridge(n=(1, 1, 1), g=0.3)
        p_free = fridge(n=(1, 1, 1), g=0.0)
        touched = 0
        for label in enumerate_triple_sectors(p, 0.0).labels:
            h = build_sector_hamiltonian(p, label).hamiltonian
            h_free = build_sector_hamiltonian(p_free, label).hamiltonian
            if label.dims == (2, 2, 2):
                assert np.max(np.abs(h - h_free)) == pytest.approx(0.3)
            else:
                assert np.max(np.abs(h - h_free)) == 0.0
                touched += 1
        assert touched == 26  # all but the single full sector at N=(1,1,1)

    def test_initial_sector_state_normalized(self):
        p = fridge(n=(2, 2, 2))
        for label in enumerate_triple_sectors(p, 0.0).labels:
            rho = initial_sector_state(p, label)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_flat_initial_state_when_gaps_vanish(self):
        p = fridge(epsilon=(1.0, 2.0, 1.0), bath_energy=(1.0, 2.0, 1.0))
        label = [
            lab for lab in enumerate_triple_sectors(p, 0.0).labels
            if lab.dims == (2, 2, 2)
        ][0]
        rho = initial_sector_state(p, label)
        assert np.allclose(np.diag(rho).real, 1.0 / 8.0, atol=1e-12)

    def test_weight_reassembly_reproduces_product_state(self):
        # weighted embedding of all sector initial states rebuilds the
        # dense thermal product state exactly
        p = fridge(n=(1, 1, 1))
        model = oracle.build_dense(p)
        rebuilt = np.zeros_like(model.initial_state)
        for label in enumerate_triple_sectors(p, 0.0).labels:
            idx = oracle.sector_basis_indices(p, label.two_m)
            rho = initial_sector_state(p, label)
            rebuilt[np.ix_(idx, idx)] += label.weight * rho
        assert np.max(np.abs(rebuilt - model.initial_state)) < 1e-14


class TestReducedDynamics:
    def test_thermal_populations_at_t0(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        for i, (eps, beta) in enumerate(zip((1.0, 2.0, 1.0), (1.0, 1.0, 0.5)), 1):
            expected = math.exp(beta * eps / 2) / (2 * math.cosh(beta * eps / 2))
            assert eng.ground_population(i, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_frozen_without_couplings(self):
        eng = RefrigeratorEngine(fridge(coupling=(0, 0, 0), g=0.0, n=(2, 2, 2)))
        for i in (1, 2, 3):
            r0 = eng.ground_population(i, 0.0)
            assert eng.ground_population(i, 7.3) == pytest.approx(r0, abs=1e-12)

    @pytest.mark.parametrize("n", [(1, 1, 1), (2, 1, 1)])
    @pytest.mark.parametrize("autonomous", [True, False])
    def test_matches_dense_oracle(self, n, autonomous):
        if autonomous:
            p = fridge(n=n)
        else:
            p = fridge(
                n=n, epsilon=(1.0, 1.7, 0.8), bath_energy=(2.0, 3.0, 1.5),
                coupling=(0.3, 0.6, 0.2), g=0.08, beta=(0.8, 1.2, 0.6),
            )
            assert not p.is_autonomous()
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for t in (0.0, 2.0, 5.0):
            for qubit in (1, 2, 3):
                dense_q = oracle.dense_evolve_and_trace(
                    model, t, 2 * (qubit - 1), spectrum=spectrum
                )
                assert np.max(np.abs(
                    dense_q - eng.reduced_qubit_state(qubit, t)
                )) < 1e-9
                dense_b = oracle.dense_evolve_and_trace(
                    model, t, 2 * qubit - 1, spectrum=spectrum
                )
                assert np.max(np.abs(
                    np.diag(dense_b).real - eng.reduced_bath_populations(qubit, t)
                )) < 1e-9

    def test_temperature_series_starts_at_bath_temperature(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        for i, beta in zip((1, 2, 3), (1.0, 1.0, 0.5)):
            series = eng.temperature_series(i, np.array([0.0, 0.1, 0.2]))
            assert series.temperature[0] == pytest.approx(1.0 / beta, abs=1e-9)

    def test_conservation(self):
        eng = RefrigeratorEngine(fridge(n=(3, 2, 2), g=0.09), prune_tol=0.0)
        e0 = eng.total_energy(0.0)
        charges0 = [eng.conserved_charge(i, 0.0) for i in (1, 2, 3)]
        for t in (1.1, 4.4, 9.7):
            assert eng.total_trace(t) == pytest.approx(1.0, abs=1e-12)
            assert eng.total_energy(t) == pytest.approx(e0, abs=1e-10)
            for i in (1, 2, 3):
                assert eng.conserved_charge(i, t) == pytest.approx(
                    charges0[i - 1], abs=1e-10
                )

    def test_series_matches_single_time_queries(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        times = np.arange(0.0, 3.0, 0.01)
        series = eng.series_terms(("pop", 1), "cos").evaluate(times)
        for k in (0, 117, 250):
            assert series[k] == pytest.approx(
                eng.ground_population(1, float(times[k])), abs=1e-11
            )

    def test_nonuniform_grid_accepted(self):
        eng = RefrigeratorEngine(fridge(n=(1, 1, 1)))
        times = np.array([0.0, 0.3, 1.0, 2.7])
        series = eng.series_terms(("pop", 1), "cos").evaluate(times)
        assert series.shape == (4,)

    def test_amplitude_compression_bounds_error(self):
        p = fridge(n=(4, 4, 4))
        exact = RefrigeratorEngine(p, prune_tol=0.0)
        squeezed = RefrigeratorEngine(p, prune_tol=0.0, series_amp_tol=1e-8)
        times = np.arange(0.0, 10.0, 0.1)
        gap = np.max(np.abs(
            exact.series_terms(("pop", 1), "cos").evaluate(times)
            - squeezed.series_terms(("pop", 1), "cos").evaluate(times)
        ))
        assert gap < 1e-7


class TestTrigSeries:
    def test_recurrence_matches_direct(self):
        rng = np.random.default_rng(2)
        omegas = rng.uniform(0.0, 20.0, size=300)
        amps = rng.normal(size=300)
        scale = 1.0 + np.sum(np.abs(amps))
        grid = trig_series_uniform(0.3, amps, omegas, 0.0, 0.01, 500, "cos")
        times = np.arange(500) * 0.01
        direct = trig_series_at(0.3, amps, omegas, times, "cos")
        assert np.max(np.abs(grid - direct)) < 1e-13 * scale
        grid_sin = trig_series_uniform(0.0, amps, omegas, 0.5, 0.02, 400, "sin")
        direct_sin = trig_series_at(0.0, amps, omegas, 0.5 + np.arange(400) * 0.02, "sin")
        assert np.max(np.abs(grid_sin - direct_sin)) < 1e-13 * scale

    def test_multi_row_amplitudes(self):
        omegas = np.array([1.0, 2.0])
        amps = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = trig_series_uniform([0.0, 0.0], amps, omegas, 0.0, 0.1, 50, "cos")
        assert out.shape == (2, 50)
        assert out[0] == pytest.approx(np.cos(np.arange(50) * 0.1), abs=1e-12)

    def test_empty_series_is_constant(self):
        out = trig_series_uniform(0.7, np.empty(0), np.empty(0), 0.0, 0.1, 5, "cos")
        assert np.allclose(out, 0.7)


@st.composite
def _series_case(draw):
    """Grid, frequencies and (rows, m) amplitudes, with omega = 0 and omega*dt near pi."""
    n = draw(st.sampled_from([1, 2, 3, 49, 53]))
    dt = draw(st.floats(0.05, 0.5))
    t0 = draw(st.floats(-3.0, 3.0))
    near_pi = st.floats(-1e-6, 1e-6).map(lambda d: math.pi / dt * (1.0 + d))
    omega = st.one_of(st.just(0.0), st.floats(0.0, 20.0), near_pi)
    omegas = np.array(draw(st.lists(omega, max_size=40)), dtype=float)
    rows = draw(st.integers(1, 3))
    amp = st.floats(-1.0, 1.0)
    amps = np.array(draw(st.lists(
        st.lists(amp, min_size=omegas.size, max_size=omegas.size),
        min_size=rows, max_size=rows,
    )), dtype=float).reshape(rows, omegas.size)
    const = np.array(draw(st.lists(amp, min_size=rows, max_size=rows)))
    return n, dt, t0, omegas, amps, const


class TestGridKernelProperty:
    @settings(max_examples=150, deadline=None)
    @given(_series_case(), st.sampled_from(["cos", "sin"]))
    def test_matches_direct_evaluation(self, case, kind):
        n, dt, t0, omegas, amps, const = case
        grid = trig_series_uniform(const, amps, omegas, t0, dt, n, kind)
        direct = trig_series_at(const, amps, omegas, t0 + np.arange(n) * dt, kind)
        assert grid.shape == direct.shape == (amps.shape[0], n)
        bound = 1e-12 * (np.abs(amps).sum(axis=1) + np.abs(const))
        assert np.all(np.abs(grid - direct) <= bound[:, None])
        single = trig_series_uniform(const[0], amps[0], omegas, t0, dt, n, kind)
        assert np.all(np.abs(single - direct[0]) <= bound[0])


class TestMultiKeySeries:
    def test_rows_equal_single_key_terms(self):
        eng = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=0.0)
        keys = (("exc", 1), ("pop", 2), ("hs", 3), ("hb", 1))
        for kind in ("cos", "sin"):
            multi = eng.series_terms(keys, kind)
            assert multi.amps.shape[0] == len(keys)
            for row, key in enumerate(keys):
                single = eng.series_terms(key, kind)
                assert multi.const[row] == single.const
                assert np.array_equal(multi.amps[row], single.amps)
                assert np.array_equal(multi.omegas, single.omegas)

    def test_rows_with_absent_observables_evaluate_equal(self):
        # hsb of an edge pair and hint outside full sectors contribute no
        # terms on their own, so the shared gaps carry zero amplitudes there
        eng = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=0.0)
        keys = (("hsb", 1), ("hint",), ("hs", 2))
        times = np.linspace(0.0, 5.0, 37)
        multi = eng.series_terms(keys, "sin")
        for row, key in enumerate(keys):
            single = eng.series_terms(key, "sin")
            assert np.allclose(multi.evaluate(times)[row], single.evaluate(times),
                               rtol=0.0, atol=1e-14)
            assert np.allclose(multi.at([1.7])[row], single.at([1.7]), rtol=0.0, atol=1e-14)

    def test_compression_bounds_each_row_by_total_magnitude(self):
        p = fridge(n=(4, 4, 4))
        tol = 1e-6
        keys = (("exc", 1), ("exc", 2), ("exc", 3))
        exact = RefrigeratorEngine(p, prune_tol=0.0).series_terms(keys, "cos")
        squeezed = RefrigeratorEngine(p, prune_tol=0.0, series_amp_tol=tol)
        terms = squeezed.series_terms(keys, "cos")
        assert terms.omegas.size < exact.omegas.size
        times = np.arange(0.0, 10.0, 0.1)
        gap = np.abs(terms.evaluate(times) - exact.evaluate(times))
        assert np.max(gap) <= tol * np.abs(exact.amps).sum() + 1e-14


class TestLowTemperature:
    COLD = dict(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.4, 0.6, 0.5),
        g=0.05,
        beta=(40.0, 40.0, 20.0),
    )

    def test_cold_production_config_runs(self):
        # the sectors kept at prune_tol=1e-9 hold no excited population of
        # qubits 1 and 2, so their temperature is a pruning error, not T = 0
        p = RefrigeratorParams(n_bath=(30, 30, 30), **self.COLD)
        eng = RefrigeratorEngine(p, prune_tol=1e-9)
        times = np.arange(0.0, 10.0 + 0.0025, 0.005)
        for qubit in (1, 2):
            message = f"qubit {qubit} .* prune_tol=1e-09 dropped 32766 of 32768 sectors"
            with pytest.raises(ValueError, match=message):
                eng.temperature_series(qubit, times)
            with pytest.raises(ValueError, match=message):
                eng.temperature(qubit, 1.0)
        with pytest.raises(ValueError, match="qubit 1 "):
            eng.qubit_series((1, 2, 3), times)
        assert eng.temperature_series(3, times).temperature[0] == pytest.approx(0.05, abs=1e-9)

    def test_cold_small_bath_matches_dense_oracle(self):
        p = RefrigeratorParams(n_bath=(2, 2, 2), **self.COLD)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        times = np.array([0.0, 2.0, 5.0])
        for series in eng.qubit_series((1, 2, 3), times):
            qubit = series.qubit
            eps = p.epsilon[qubit - 1]
            assert series.temperature[0] == pytest.approx(1.0 / p.beta[qubit - 1], rel=1e-12)
            for k, t in enumerate(times):
                dense = oracle.dense_evolve_and_trace(
                    model, t, 2 * (qubit - 1), spectrum=spectrum
                )
                p_exc = dense[1, 1].real
                assert 0.0 < p_exc < 1e-8
                assert eng.temperature(qubit, t) == pytest.approx(series.temperature[k], rel=1e-12)
                assert series.temperature[k] == pytest.approx(
                    temperature_from_excited(p_exc, eps), rel=1e-10
                )
