"""GKSL baseline: jump channels, rates, exact master-equation propagation."""

import copy
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from dense_reference import (
    JUMP_OPERATORS,
    jump_channels,
    liouvillian_matrix,
    system_hamiltonian,
)
from spinfridge import markov
from spinfridge.cli import main
from spinfridge.config import parse_config
from spinfridge.markov import (
    MarkovParams,
    WeakCouplingError,
    WeakCouplingWarning,
    bose_occupation,
    decay_rate,
    excited_populations,
    integrate_gksl,
    markov_optimize,
    rate_matrix,
    spectral_density,
    thermal_product_state,
)
from spinfridge.series import TimeGrid
from spinfridge.spinstar import temperature_from_excited


def temperatures(p: MarkovParams, traj) -> np.ndarray:
    """T_i along a trajectory, shape (3, n), read from its excited populations."""
    excited = excited_populations(traj.diagonal).T
    return np.stack([temperature_from_excited(excited[k], p.epsilon[k]) for k in range(3)])


def params(**kw):
    defaults = dict(
        epsilon=(1.0, 2.0, 1.0),
        g=0.08,
        alpha=(1e-5, 2e-5, 3e-5),
        beta=(1.0, 1.0, 0.5),
    )
    defaults.update(kw)
    return MarkovParams(**defaults)


def ket(bits):
    v = np.zeros(8)
    v[int(bits, 2)] = 1.0
    return v


# dressed kets as columns: |+-> = (|101> +- |010>)/sqrt(2) in the places of |101>, |010>
DRESS = np.eye(8)
DRESS[:, 0b101] = (ket("101") + ket("010")) / math.sqrt(2.0)
DRESS[:, 0b010] = (ket("101") - ket("010")) / math.sqrt(2.0)


def full_states(traj):
    """Computational-basis density matrices from the dressed populations and rho_{+-}."""
    dressed = np.zeros((len(traj.time), 8, 8), dtype=complex)
    dressed[:, range(8), range(8)] = traj.populations
    dressed[:, 0b101, 0b010] = traj.coherence
    dressed[:, 0b010, 0b101] = traj.coherence.conj()
    return DRESS @ dressed @ DRESS.T


def oracle_states(p, rho0, times):
    """expm of the 64x64 Liouvillian applied to the initial state."""
    lv = liouvillian_matrix(p)
    return np.array([(expm(lv * t) @ rho0.ravel()).reshape(8, 8) for t in times])


class TestChannels:
    def test_channel_count_and_pairing(self):
        # each reference operator lowers the energy by its frequency, is the
        # table's channel in the dressed basis, and its adjoint runs the
        # channel's moves backwards at the detailed-balance rate
        p = params()
        h = system_hamiltonian(p)
        channels = jump_channels(p)
        assert len(JUMP_OPERATORS) == len(markov._CHANNELS) == 9 and len(channels) == 18
        for (qubit, sign, op), (table_qubit, table_sign, moves), down, up in zip(
                JUMP_OPERATORS, markov._CHANNELS, channels[::2], channels[1::2]):
            assert (qubit, sign) == (table_qubit, table_sign)
            frequency = p.epsilon[qubit - 1] + sign * p.g
            assert frequency > 0
            assert np.max(np.abs(h @ op - op @ h + frequency * op)) < 1e-15
            expected = np.zeros((8, 8))
            for source, target in moves:
                expected[target, source] = 0.5 if sign else 1.0
            assert np.max(np.abs((DRESS.T @ op @ DRESS) ** 2 - expected)) < 1e-15
            assert np.max(np.abs((DRESS.T @ op.T @ DRESS) ** 2 - expected.T)) < 1e-15
            assert down[1] is op and np.array_equal(up[1], op.T)
            assert up[0] / down[0] == pytest.approx(
                math.exp(-p.beta[qubit - 1] * frequency), rel=1e-12)

    def test_bare_channel_maps_states(self):
        qubit, sign, l1 = JUMP_OPERATORS[0]  # qubit 1 at frequency eps_1
        assert (qubit, sign) == (1, 0)
        image = l1 @ ket("011")
        assert np.allclose(image, ket("111"))
        assert np.allclose(l1 @ ket("000"), ket("100"))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.5, 2.0), st.floats(0.5, 2.0),
        st.one_of(st.just(0.0), st.floats(0.005, 0.4)),
        st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1e-5))] * 3),
        st.tuples(*[st.floats(0.2, 40.0)] * 3), st.floats(1.0, 1e3),
    )
    # a subnormal alpha: the relative bound alone underflows below one ulp
    @example(1.0, 2.0, 0.0, (0.0, 0.0, 2.2250738585e-313), (1.0, 1.0, 1.0), 1.0)
    def test_rate_matrix_is_the_reference_channels_in_the_dressed_basis(
            self, eps1, eps3, g, alpha, beta, cutoff):
        p = MarkovParams((eps1, eps1 + eps3, eps3), g, alpha, beta, cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            w = rate_matrix(p)
        expected = sum(rate * (DRESS.T @ op @ DRESS) ** 2 for rate, op in jump_channels(p))
        off = ~np.eye(8, dtype=bool)
        bound = 1e-15 * np.abs(w).max() + 64 * np.finfo(float).smallest_subnormal
        assert np.max(np.abs(w - expected)[off]) <= bound
        column_sums = np.where(off, w, 0.0).sum(axis=0)
        assert np.max(np.abs(np.diag(w) + column_sums)) <= bound

    def test_rate_value_against_independent_scalar(self):
        # independent evaluation: J = alpha*w*exp(-w/cutoff), f Bose-Einstein
        alpha, omega, beta, cutoff = 1.0, 1.0, 1.0, 1000.0
        j = alpha * omega * math.exp(-omega / cutoff)
        f = 1.0 / (math.e - 1.0)
        expected = j * (1.0 + f)
        assert expected == pytest.approx(1.5803955207, abs=1e-9)
        assert decay_rate(omega, alpha, beta, cutoff) == pytest.approx(
            expected, abs=1e-14
        )

    def test_zero_temperature_kills_absorption(self):
        assert bose_occupation(1.0, 1e6) == 0.0
        assert decay_rate(-1.0, 1.0, 1e6, 1000.0) == 0.0

    def test_detailed_balance_ratio(self):
        for omega, beta in ((1.0, 1.0), (2.08, 0.5)):
            down = decay_rate(omega, 1.0, beta, 1000.0)
            up = decay_rate(-omega, 1.0, beta, 1000.0)
            assert up / down == pytest.approx(math.exp(-beta * omega), abs=1e-12)

    def test_sigma_x_reconstruction(self):
        for qubit in (1, 2, 3):
            total = sum(op + op.T for q, _, op in JUMP_OPERATORS if q == qubit)
            expected = np.zeros((8, 8))
            for idx in range(8):
                expected[idx ^ (1 << (3 - qubit)), idx] = 1.0
            assert np.max(np.abs(total - expected)) < 1e-10

    def test_negative_transition_frequency_rejected(self):
        with pytest.raises(ValueError, match="nonpositive frequency"):
            rate_matrix(params(epsilon=(0.05, 2.0, 1.0), g=0.08))

    @pytest.mark.parametrize("epsilon", [(0.0, 1.0, 1.0), (-1.0, 2.0, 3.0), (1.0, 1.0, 0.0)])
    def test_nonpositive_gap_rejected_up_front(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            params(epsilon=epsilon)

    @pytest.mark.parametrize("name, value", [
        ("epsilon", (math.nan, 2.0, 1.0)), ("epsilon", (1.0, math.inf, 1.0)),
        ("g", math.nan), ("g", math.inf),
        ("alpha", (math.nan, 0.0, 0.0)), ("alpha", (0.0, 0.0, math.inf)),
        ("beta", (1.0, math.nan, 1.0)), ("beta", (math.inf, 1.0, 1.0)),
        ("cutoff", math.nan), ("cutoff", math.inf),
    ])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            params(**{name: value})

    def test_non_autonomous_gaps_rejected(self, tmp_path, capsys):
        bad = params(epsilon=(1.0, 2.5, 1.0), g=0.05, beta=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"eps2 = eps1 \+ eps3"):
            rate_matrix(bad)
        cfg = tmp_path / "markov.json"
        cfg.write_text(json.dumps({
            "mode": "markov",
            "params": {"epsilon": [1, 2.5, 1], "g": 0.05,
                       "alpha": [1e-5, 1e-5, 1e-5], "beta": [1, 1, 1]},
            "time_grid": {"start": 0, "stop": 1, "step": 0.5},
            "output": {"path": str(tmp_path / "never.csv")},
        }))
        assert main(["markov", str(cfg)]) == 2
        assert "eps2 = eps1 + eps3" in capsys.readouterr().err

    def test_weak_coupling_warning_and_error(self):
        with pytest.warns(WeakCouplingWarning):
            rate_matrix(params(alpha=(8e-4, 0.0, 0.0)))
        with pytest.raises(ValueError, match="weak coupling"):
            rate_matrix(params(alpha=(0.05, 0.0, 0.0)))

    def test_spectral_density_shape(self):
        assert spectral_density(2.0, 0.5, 1000.0) == pytest.approx(
            1.0 * math.exp(-0.002)
        )


class TestDetailedBalance:
    # alpha is kept off zero: the spectral gap of L, and with it the
    # conditioning of its null vector, closes as the rates vanish
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.02, 0.1),
        st.tuples(*[st.floats(1e-6, 1e-5)] * 3), st.floats(0.2, 5.0),
    )
    def test_common_temperature_steady_state_is_gibbs(self, eps1, eps3, g, alpha, beta):
        p = params(epsilon=(eps1, eps1 + eps3, eps3), g=g, alpha=alpha, beta=(beta,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WeakCouplingWarning)
            rate_matrix(p)
            lv = liouvillian_matrix(p)
        steady = np.linalg.svd(lv)[2][-1].conj().reshape(8, 8)
        steady /= np.trace(steady)
        w, v = np.linalg.eigh(system_hamiltonian(p))
        boltzmann = np.exp(-beta * (w - w.min()))
        gibbs = (v * boltzmann) @ v.T / boltzmann.sum()
        assert np.max(np.abs(steady - gibbs)) < 1e-8


class TestHamiltonian:
    def test_interaction_couples_degenerate_pair(self):
        h = system_hamiltonian(params(epsilon=(1.0, 2.0, 1.0), g=0.07))
        assert h[0b010, 0b101] == pytest.approx(0.07)
        assert h[0b010, 0b010] == pytest.approx(h[0b101, 0b101], abs=1e-14)

    def test_thermal_state_prefers_lower_level(self):
        rho = thermal_product_state(params())
        r = 1.0 - excited_populations(rho.diagonal().real)
        assert r[0] == pytest.approx(math.exp(0.5) / (2 * math.cosh(0.5)), abs=1e-12)
        assert np.all(r > 0.5)


class TestIntegration:
    def test_zero_coupling_keeps_dressed_populations(self):
        p = params(alpha=(0.0, 0.0, 0.0))
        h = system_hamiltonian(p)
        w, v = np.linalg.eigh(h)
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 20.0, 2.5)
        times = grid.points()
        traj = integrate_gksl(p, rho0, grid)
        pops0 = np.diag(v.T @ rho0.real @ v)
        for state in full_states(traj):
            pops = np.diag(v.T @ state.real @ v)
            assert np.allclose(pops, pops0, atol=1e-8)
        # frozen dressed populations; rho_{+-} only rotates, at E+ - E- = 2g
        assert np.array_equal(traj.populations, np.tile(traj.populations[0], (9, 1)))
        rotation = np.exp(-2j * p.g * times)
        assert np.max(np.abs(traj.coherence - traj.coherence[0] * rotation)) < 1e-15
        assert np.max(np.abs(full_states(traj) - oracle_states(p, rho0, times))) < 1e-12

    def test_single_bath_relaxation_to_thermal(self):
        p = params(g=0.0, alpha=(5e-4, 0.0, 0.0))
        cold_start = thermal_product_state(params(g=0.0, beta=(2.0, 1.0, 0.5)))
        grid = TimeGrid(0.0, 30000.0, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            traj = integrate_gksl(p, cold_start, grid)
        r_end = 1.0 - excited_populations(traj.diagonal[-1])[0]
        expected = math.exp(0.5) / (2.0 * math.cosh(0.5))
        assert r_end == pytest.approx(expected, abs=1e-6)

    def test_trace_and_hermiticity_preserved(self):
        p = params()
        grid = TimeGrid(0.0, 50.0, 2.0)
        traj = integrate_gksl(p, thermal_product_state(p), grid)
        for state in full_states(traj):
            assert abs(np.trace(state) - 1.0) < 1e-8
            assert np.max(np.abs(state - state.conj().T)) < 1e-8
            assert np.linalg.eigvalsh(state)[0] > -1e-7

    def test_generator_norm_envelope_decays(self):
        # stronger (still weak) coupling so the decay is visible within a
        # short horizon; the envelope over one swap period must decrease
        # along a log-spaced tail
        p = params(alpha=(1e-3, 2e-3, 3e-3), g=0.09)
        grid = TimeGrid(0.0, 2000.0, 5.0)
        times = grid.points()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            lv = liouvillian_matrix(p)
            traj = integrate_gksl(p, thermal_product_state(p), grid)
        window = max(2, int(35.0 / (times[1] - times[0])))
        norms = np.array([
            np.linalg.norm(lv @ s.ravel()) for s in full_states(traj)
        ])
        checkpoints = np.unique(
            np.geomspace(len(times) // 10, len(times) - window - 1, 5).astype(int)
        )
        envelope = [norms[k:k + window].max() for k in checkpoints]
        assert all(b < a for a, b in zip(envelope, envelope[1:]))

    def test_bad_initial_state_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="8x8"):
            integrate_gksl(p, np.eye(4) / 4.0, TimeGrid(0.0, 1.0, 0.25))
        with pytest.raises(ValueError, match="trace"):
            integrate_gksl(p, np.eye(8), TimeGrid(0.0, 1.0, 0.25))

    def test_dressed_coherences_other_than_plus_minus_rejected(self):
        p = params()
        rho0 = thermal_product_state(p)
        rho0[0b000, 0b001] = rho0[0b001, 0b000] = 1e-3
        with pytest.raises(ValueError, match=r"coherence other than rho_\{\+-\}"):
            integrate_gksl(p, rho0, TimeGrid(0.0, 1.0, 0.25))
        rho0 = thermal_product_state(p)
        rho0[0b000, 0b001] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            integrate_gksl(p, rho0, TimeGrid(0.0, 1.0, 0.25))
        # a coherence between |101> and |010> is one in rho_{+-} and P+ - P-
        rho0 = thermal_product_state(p)
        rho0[0b101, 0b010] = 0.01 + 0.02j
        rho0[0b010, 0b101] = 0.01 - 0.02j
        grid = TimeGrid(0.0, 40.0, 5.0)
        times = grid.points()
        traj = integrate_gksl(p, rho0, grid)
        assert np.max(np.abs(full_states(traj) - oracle_states(p, rho0, times))) < 1e-12

    def test_every_sample_is_checked(self, monkeypatch):
        import spinfridge.markov as markov

        real = markov._propagate

        def drifting(*args, **kwargs):
            pops, coherence, segments = real(*args, **kwargs)
            if len(pops) > 2:
                pops[1, 0] += 1e-6  # trace error at the second sample only
            return pops, coherence, segments

        monkeypatch.setattr(markov, "_propagate", drifting)
        p = params()
        with pytest.raises(RuntimeError, match="t=0.25"):
            integrate_gksl(p, thermal_product_state(p), TimeGrid(0.0, 1.0, 0.25))

    @pytest.mark.parametrize("where", ["populations", "coherence"])
    def test_nan_sample_is_caught(self, monkeypatch, where):
        real = markov._propagate

        def poisoned(*args, **kwargs):
            pops, coherence, segments = real(*args, **kwargs)
            if len(pops) > 3:  # NaN at the fourth sample only
                if where == "populations":
                    pops[3, 4] = math.nan
                else:
                    coherence[3] = math.nan
            return pops, coherence, segments

        monkeypatch.setattr(markov, "_propagate", poisoned)
        p = params()
        with pytest.raises(RuntimeError, match="t=0.75"):
            integrate_gksl(p, thermal_product_state(p), TimeGrid(0.0, 1.0, 0.25))

    def test_one_broken_coherence_is_caught(self, monkeypatch):
        import spinfridge.markov as markov

        real = markov._propagate

        def skewed(*args, **kwargs):
            pops, coherence, segments = real(*args, **kwargs)
            if len(pops) > 2:
                coherence[2] += 0.5  # |rho_{+-}|^2 > P+ P- at the third sample only
            return pops, coherence, segments

        monkeypatch.setattr(markov, "_propagate", skewed)
        p = params()
        with pytest.raises(RuntimeError, match="positivity at t=0.5"):
            integrate_gksl(p, thermal_product_state(p), TimeGrid(0.0, 1.0, 0.25))

    def test_polish_point_at_grid_time_equals_sample(self):
        p = params()
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 10.0, 1.0)
        traj = integrate_gksl(p, rho0, grid)
        sampled = excited_populations(traj.diagonal)
        initial = excited_populations(rho0.diagonal().real)
        between = excited_populations(np.diagonal(oracle_states(p, rho0, [5.37])[0]).real)
        for qubit in (1, 2, 3):
            assert traj.excited_at(5.0, qubit) == sampled[5, qubit - 1]
            assert traj.excited_at(0.0, qubit) == initial[qubit - 1]
            assert abs(traj.excited_at(5.37, qubit) - between[qubit - 1]) < 1e-14
        with pytest.raises(ValueError, match="precedes"):
            traj.excited_at(-0.1, 1)
        with pytest.raises(ValueError, match="follows"):
            traj.excited_at(10.1, 1)


def mp_reference(p, rho0, times):
    """Dressed populations and rho_{+-} at ``times`` from ``rho0`` at t = 0, by
    mpmath.expm of the same float W at 40 digits: 120 digits move no entry
    by more than 1e-40 relative, down to the 1e-61 of |000> at beta 40."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        w = rate_matrix(p)
    with mpmath.workdps(40):
        w = mpmath.matrix(w.tolist())
        bare = [mpmath.mpf(float(v)) for v in rho0.diagonal().real]
        pops0 = mpmath.matrix(bare)
        pops0[0b101] = pops0[0b010] = (bare[0b101] + bare[0b010]) / 2
        coherence0 = (bare[0b101] - bare[0b010]) / 2
        rate = (w[0b101, 0b101] + w[0b010, 0b010]) / 2 - 2j * mpmath.mpf(p.g)
        out = []
        for t in times:
            t = mpmath.mpf(float(t))
            pops = mpmath.expm(w * t) * pops0
            out.append(([pops[i] for i in range(8)], coherence0 * mpmath.exp(rate * t)))
        return out


def mp_excited(pops, coherence, qubit):
    """(p, scale): qubit's excited population from a reference state, and the
    sum of the magnitudes it is formed from, P and |Re rho_{+-}|."""
    sign = {1: -1, 2: 1, 3: -1}[qubit]  # rho_101 holds qubit 2 up, rho_010 qubits 1 and 3
    bare = list(pops)
    bare[0b101] = bare[0b010] = (pops[0b101] + pops[0b010]) / 2
    total = sum(bare[i] for i in range(8) if not (i >> (3 - qubit)) & 1)
    return total + sign * mpmath.re(coherence), total + abs(mpmath.re(coherence))


class TestExactPropagation:
    def test_low_temperature_regression(self):
        # p2 is about 6e-29 at t = 40: the old adaptive integrator read
        # T2(40) = 0.0339 here against expm's 0.0308
        p = params(beta=(40.0, 40.0, 20.0))
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 40.0, 0.05)
        traj = integrate_gksl(p, rho0, grid)
        temps = temperatures(p, traj)
        for k in range(3):
            assert temps[k, 0] == pytest.approx(1.0 / p.beta[k], rel=1e-12)
        ref = np.diagonal(oracle_states(p, rho0, [40.0])[0]).real
        t2_ref = p.epsilon[1] / math.log((1.0 - excited_populations(ref)[1])
                                         / excited_populations(ref)[1])
        assert temps[1, -1] == pytest.approx(t2_ref, rel=1e-9)
        assert temps[1, -1] == pytest.approx(0.0308, abs=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1e-4))] * 3),
        st.one_of(st.just(0.0), st.floats(0.005, 0.1)),
        st.tuples(*[st.floats(0.5, 40.0)] * 3),
        st.lists(st.floats(0.0, 40.0, exclude_max=True), min_size=1, max_size=4),
    )
    def test_matches_liouvillian_exponential(self, alpha, g, beta, between):
        p = params(alpha=alpha, g=g, beta=beta)
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 40.0, 10.0)
        times = grid.points()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            traj = integrate_gksl(p, rho0, grid)
            ref = oracle_states(p, rho0, times)
            ref_between = excited_populations(
                np.diagonal(oracle_states(p, rho0, between), axis1=1, axis2=2).real)
        # between samples, excited_at is exact from the sample before; at a
        # sample it is that sample
        sampled = excited_populations(traj.diagonal)
        for qubit in (1, 2, 3):
            for t, expected in zip(between, ref_between):
                assert abs(traj.excited_at(t, qubit) - expected[qubit - 1]) < 1e-14
            for k, t in enumerate(times):
                assert traj.excited_at(t, qubit) == sampled[k, qubit - 1]
        assert np.max(np.abs(traj.diagonal - np.diagonal(ref, axis1=1, axis2=2).real)) < 1e-12
        assert np.max(np.abs(full_states(traj) - ref)) < 1e-12
        assert np.max(np.abs(traj.diagonal.sum(axis=1) - 1.0)) < 1e-12
        assert traj.populations.min() >= 0.0
        # rho_101, rho_010 = (P+ + P-)/2 +- Re rho_{+-}: where no rotation
        # mixes the pair (g = 0), the smaller keeps the larger's rounding only
        assert traj.diagonal.min() >= -1e-15

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(0.1, 40.0, exclude_max=True), min_size=1, max_size=4))
    def test_low_temperature_keeps_relative_precision(self, times):
        # p2 stays between 1e-35 and 1e-26: an absolute bound would pass any
        # value of it.  Times start at 0.1, where rho_101 has risen well
        # above its initial 1.8e-35 (see the next test)
        p = params(beta=(40.0, 40.0, 20.0))
        rho0 = thermal_product_state(p)
        traj = integrate_gksl(p, rho0, TimeGrid(0.0, 40.0, 10.0))
        ref = excited_populations(np.diagonal(oracle_states(p, rho0, times), axis1=1,
                                              axis2=2).real)
        for t, expected in zip(times, ref):
            assert traj.excited_at(t, 2) == pytest.approx(expected[1], rel=1e-9, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="rho_101 = (P+ + P-)/2 + Re rho_{+-} cancels "
                       "to 1.8e-35 from 4.4e-27 and keeps only the rounding of the larger")
    def test_low_temperature_relative_precision_right_after_the_start(self):
        p = params(beta=(40.0, 40.0, 20.0))
        rho0 = thermal_product_state(p)
        traj = integrate_gksl(p, rho0, TimeGrid(0.0, 40.0, 10.0))
        ref = excited_populations(np.diagonal(oracle_states(p, rho0, [1e-6])[0]).real)
        assert traj.excited_at(1e-6, 2) == pytest.approx(ref[1], rel=1e-9, abs=0.0)

    @settings(max_examples=12, deadline=None)
    @given(
        st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 3e-4))] * 3),
        st.one_of(st.just(0.0), st.floats(0.03, 0.1)),
        st.tuples(*[st.floats(0.5, 40.0)] * 3),
        st.floats(1.0, 3000.0), st.integers(2, 400), st.floats(0.0, 0.5),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
    )
    # repeated products of exp(W dt) lost 1e-13 over 800 steps
    @example((1e-5, 2e-5, 3e-5), 0.08, (40.0, 40.0, 20.0), 40.0, 800, 0.0, [0.37])
    @example((3e-4, 2e-4, 3e-4), 0.09, (40.0, 40.0, 20.0), 3000.0, 1500, 0.2, [0.5, 0.99])
    def test_matches_high_precision_exponential(self, alpha, g, beta, stop, steps, start,
                                                 between):
        # entrywise relative: populations of 1e-61 count as much as ones of 1
        p = params(alpha=alpha, g=g, beta=beta)
        rho0 = thermal_product_state(p)
        grid = TimeGrid(start * stop, stop, stop / steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            traj = integrate_gksl(p, rho0, grid)
        assert all(c.min() >= 0.0 for c in traj.coefficients)
        picks = np.unique(np.linspace(0, traj.time.size - 1, 4).astype(int))
        for k, (pops, _) in zip(picks, mp_reference(p, rho0, traj.time[picks])):
            for value, expected in zip(traj.populations[k], pops):
                assert abs(value - expected) <= 1e-14 * expected
        times = traj.time[0] + np.array(between) * (traj.time[-1] - traj.time[0])
        for t, (pops, coherence) in zip(times, mp_reference(p, rho0, times)):
            for qubit in (1, 2, 3):
                # rho_101 = (P+ + P-)/2 + Re rho_{+-} cancels at low temperature
                # (the strict xfail above), so the bound is on the summed magnitudes
                expected, scale = mp_excited(pops, coherence, qubit)
                assert abs(traj.excited_at(t, qubit) - expected) <= 1e-14 * scale

    def test_segments_agree_with_one(self, monkeypatch):
        p = params(alpha=(5e-5, 1e-4, 1.5e-4))
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 40.0, 0.25)
        one = integrate_gksl(p, rho0, grid)
        monkeypatch.setattr(markov, "_SEGMENT_REACH", 1e-3)
        many = integrate_gksl(p, rho0, grid)
        assert len(one.coefficients) == 1 and len(many.coefficients) == 28
        for a, b in ((many.populations, one.populations), (many.coherence, one.coherence),
                     (many.diagonal, one.diagonal)):
            assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))
        # on every segment boundary, just off it on either side, and between
        boundaries = many.segment * np.arange(1, 28)
        reads = np.concatenate([boundaries, np.nextafter(boundaries, 0.0),
                                np.nextafter(boundaries, 40.0), boundaries + 0.5 * many.segment])
        for t in reads[reads < 40.0]:
            for qubit in (1, 2, 3):
                expected = one.excited_at(t, qubit)
                assert abs(many.excited_at(t, qubit) - expected) <= 1e-14 * expected

    def test_reads_leave_the_trajectory_unchanged(self):
        p = params()
        traj = integrate_gksl(p, thermal_product_state(p), TimeGrid(0.0, 4.0, 0.05))
        before = {name: copy.deepcopy(value) for name, value in vars(traj).items()}
        reads = [[traj.excited_at(t, qubit) for t in (1.01, 1.02, 1.05, 3.999)]
                 for qubit in (1, 2, 3)]
        assert [[traj.excited_at(t, qubit) for t in (1.01, 1.02, 1.05, 3.999)]
                for qubit in (1, 2, 3)] == reads
        assert vars(traj).keys() == before.keys()
        for name, value in before.items():
            after = getattr(traj, name)
            if isinstance(value, tuple):
                assert len(after) == len(value)
                assert all(np.array_equal(a, b) for a, b in zip(after, value))
            else:
                assert np.array_equal(after, value), name

    @pytest.mark.parametrize("g", [0.0, 1.0 - 1e-9])
    def test_degenerate_edges_match_liouvillian_exponential(self, g):
        # g = 0: |+> and |-> are degenerate; g -> eps1 from below: the e-g
        # channels of qubits 1 and 3 approach zero frequency
        p = params(g=g, alpha=(1e-5, 0.0, 3e-5))
        rho0 = thermal_product_state(p)
        grid = TimeGrid(0.0, 40.0, 5.0)
        times = grid.points()
        traj = integrate_gksl(p, rho0, grid)
        ref = oracle_states(p, rho0, times)
        assert np.max(np.abs(full_states(traj) - ref)) < 1e-12
        assert traj.populations.min() >= 0.0

    def test_clock_starts_at_zero_whatever_the_grid_start(self):
        # a grid from 0.5 samples the same trajectory as one from 0: the
        # state at 0.5 is the initial state propagated by 0.5, not the
        # initial state itself
        p = params()
        rho0 = thermal_product_state(p)
        from_zero = integrate_gksl(p, rho0, TimeGrid(0.0, 4.0, 0.05))
        later = integrate_gksl(p, rho0, TimeGrid(0.5, 4.0, 0.05))
        assert np.allclose(later.time, from_zero.time[10:], rtol=0.0, atol=1e-14)
        # the bare pair (P+ + P-)/2 +- Re rho_{+-} agrees only to the rounding
        # of its sum, the dressed state entrywise
        for a, b in ((later.populations, from_zero.populations[10:]),
                     (later.coherence, from_zero.coherence[10:])):
            assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))
        assert np.max(np.abs(later.diagonal - from_zero.diagonal[10:])) < 1e-14
        ref = np.diagonal(oracle_states(p, rho0, [0.5])[0]).real
        assert np.max(np.abs(later.diagonal[0] - ref)) < 1e-14
        assert np.max(np.abs(later.diagonal[0] - rho0.diagonal().real)) > 1e-7

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_one_point_grid(self, start):
        # from t = 0, t_end = 0 gives the propagation no segment length of its own
        p = params()
        rho0 = thermal_product_state(p)
        traj = integrate_gksl(p, rho0, TimeGrid(start, start + 0.01, 1.0))
        longer = integrate_gksl(p, rho0, TimeGrid(start, 4.0, 0.5))
        assert traj.time.tolist() == [start]
        assert np.all(np.abs(traj.populations[0] - longer.populations[0])
                      <= 1e-15 * longer.populations[0])
        if start == 0.0:
            assert np.array_equal(traj.diagonal[0], rho0.diagonal().real)

    def test_negative_start_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="time_grid.start"):
            integrate_gksl(p, thermal_product_state(p), TimeGrid(-0.5, 1.0, 0.5))


class TestEvolveTable:
    """Markov ``evolve``'s T_i and r_i columns are the trajectory's excited rows."""

    @staticmethod
    def run(tmp_path, start: float):
        out = tmp_path / f"markov-{start}.csv"
        config = {
            "mode": "markov", "action": "evolve",
            "params": {"epsilon": [1, 2, 1], "g": 0.08,
                       "alpha": [1e-5, 2e-5, 3e-5], "beta": [40, 40, 20]},
            "time_grid": {"start": start, "stop": 4, "step": 0.05},
            "output": {"path": str(out)},
        }
        cfg = tmp_path / f"markov-{start}.json"
        cfg.write_text(json.dumps(config))
        assert main(["markov", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "t,T1,T2,T3,r1,r2,r3"
        return parse_config(config, "markov"), np.array(
            [[float(v) for v in line.split(",")] for line in lines[3:]])

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_columns_are_the_excited_rows_bit_for_bit(self, tmp_path, start):
        config, table = self.run(tmp_path, start)
        p = config.markov
        traj = integrate_gksl(p, thermal_product_state(p), config.time_grid)
        excited, temps = excited_populations(traj.diagonal).T, temperatures(p, traj)
        assert table[0, 0] == start
        assert np.array_equal(table[:, 0], traj.time)
        for k in range(3):
            assert np.array_equal(table[:, 1 + k], temps[k])
            assert np.array_equal(table[:, 4 + k], 1.0 - excited[k])

    def test_later_start_samples_the_same_trajectory(self, tmp_path):
        # a start of 0.5 propagates the initial state there first
        _, from_zero = self.run(tmp_path, 0.0)
        _, later = self.run(tmp_path, 0.5)
        assert later.shape == (71, 7)
        assert np.max(np.abs(later - from_zero[10:])) <= 1e-12


class TestOptimize:
    def test_two_seeds_agree(self):
        p = params(alpha=(0.0, 0.0, 0.0), g=0.0)
        kwargs = dict(
            alpha_range=(0.0, 1e-4),
            g_range=(0.0, 0.1),
            budget=60,
            time_grid=TimeGrid(0.0, 20.0, 0.1),
        )
        first = markov_optimize(p, seed=1, **kwargs)
        second = markov_optimize(p, seed=12, **kwargs)
        assert first.best_t1 < 1.0
        assert abs(first.best_t1 - second.best_t1) < 2e-3

    def test_weak_coupling_probes_score_infeasible(self, tmp_path):
        # optimizer seed 0 at budget 80 probes the small-g corner of the
        # default box, where the largest rate exceeds 10% of g
        out = tmp_path / "mopt.json"
        cfg = tmp_path / "mopt.json.in"
        cfg.write_text(json.dumps({
            "mode": "markov",
            "action": "optimize",
            "params": {
                "epsilon": [1, 2, 1], "g": 0.0,
                "alpha": [0, 0, 0], "temperature": [1, 1, 2],
            },
            "time_grid": {"start": 0, "stop": 40, "step": 0.05},
            "optimization": {"budget": 80, "seed": 0},
            "output": {"path": str(out)},
        }))
        assert main(["markov", str(cfg)]) == 0
        best = json.loads(out.read_text())["results"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            rate_matrix(params(
                alpha=tuple(best["best_alpha"]), g=best["best_g"], beta=(1.0, 1.0, 0.5)
            ))

    def test_tiny_run_reproduces_recorded_result(self):
        # exact values of a seeded run: any change to the scoring or the
        # search shows here
        p = params(alpha=(0.0, 0.0, 0.0), g=0.0)
        result = markov_optimize(p, g_range=(0.005, 0.1), budget=12, seed=0,
                                 time_grid=TimeGrid(0.0, 4.0, 0.05))
        assert result.best_params == pytest.approx([
            5.0200249388813976e-05, 5.4888443037867535e-05,
            6.960237915068867e-05, 0.1,
        ], rel=1e-12)
        assert result.best_time == pytest.approx(4.0, rel=1e-12)
        assert result.best_t1 == pytest.approx(0.9732931325220329, rel=1e-12)
        assert (result.evaluations, result.restarts) == (12, 1)

    def test_box_without_weak_coupling_is_an_error(self):
        p = params(alpha=(0.0, 0.0, 0.0), g=0.0)
        with pytest.raises(WeakCouplingError, match="every one of 1"):
            markov_optimize(p, alpha_range=(1e-4, 1e-4), g_range=(1e-5, 1e-5),
                            budget=5, time_grid=TimeGrid(0.0, 1.0, 0.1))

    def test_vectorized_reduction_equals_per_state_sum(self):
        p = params()
        grid = TimeGrid(0.0, 5.0, 1.0)
        diagonal = integrate_gksl(p, thermal_product_state(p), grid).diagonal
        pops = excited_populations(diagonal)
        assert pops.shape == (6, 3)
        for n, diag in enumerate(diagonal):
            for k in range(3):
                upper = [idx for idx in range(8) if not (idx >> (2 - k)) & 1]
                assert pops[n, k] == pytest.approx(
                    sum(diag[idx] for idx in upper), abs=1e-15
                )
        assert np.array_equal(excited_populations(diagonal[2]), pops[2])

    def test_temperatures_follow_populations(self):
        p = params()
        grid = TimeGrid(0.0, 5.0, 1.0)
        traj = integrate_gksl(p, thermal_product_state(p), grid)
        temps = temperatures(p, traj)
        assert temps.shape == (3, 6)
        assert temps[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert temps[2, 0] == pytest.approx(2.0, abs=1e-9)
