"""Eigendecomposition and unitary-evolution contracts of the oracle's checked linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinfridge.oracle import (
    ConvergenceError,
    HermiticityError,
    eig_hermitian,
    evolve_density,
    require_density,
)


def test_scalar_matrix():
    spec = eig_hermitian(np.array([[5.0]]))
    assert spec.eigenvalues == pytest.approx([5.0])
    assert abs(abs(spec.eigenvectors[0, 0]) - 1.0) < 1e-14


def test_pauli_x_spectrum():
    spec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.eigenvalues == pytest.approx([-1.0, 1.0])
    v_minus = spec.eigenvectors[:, 0]
    assert abs(abs(v_minus @ np.array([1, -1]) / math.sqrt(2)) - 1.0) < 1e-12


def test_two_level_block_against_quadratic_formula():
    # independent oracle: characteristic polynomial roots by the quadratic formula
    b_lo, b_hi, u = 1.5, 1.5, 0.3
    half_sum = 0.5 * (b_lo + b_hi)
    radical = math.sqrt((0.5 * (b_lo - b_hi)) ** 2 + u * u)
    expected = sorted((half_sum - radical, half_sum + radical))
    spec = eig_hermitian(np.array([[b_lo, u], [u, b_hi]]))
    assert spec.eigenvalues == pytest.approx(expected, abs=1e-14)
    assert spec.eigenvalues == pytest.approx([1.2, 1.8])


def test_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3)))


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def _random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_spectrum_invariants_random():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8, 17):
        h = _random_hermitian(rng, n)
        w, v = eig_hermitian(h)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10 * max(np.max(np.abs(h)), 1.0)


def test_evolution_identity_at_t0():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 4)
    rho0 = _random_density(rng, 4)
    assert np.max(np.abs(evolve_density(h, rho0, 0.0) - rho0)) < 1e-12


def test_phase_rotation_flips_coherence():
    h = np.diag([0.0, 1.0])
    rho0 = 0.5 * np.ones((2, 2))
    rho_t = evolve_density(h, rho0, math.pi)
    assert rho_t[0, 1] == pytest.approx(-0.5, abs=1e-12)
    assert rho_t[0, 0] == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
def test_resonant_rabi_oscillation(t):
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho_t = evolve_density(h, rho0, t)
    assert rho_t[0, 0].real == pytest.approx(math.cos(t) ** 2, abs=1e-12)


def test_trace_and_positivity_preserved():
    rng = np.random.default_rng(11)
    h = _random_hermitian(rng, 6)
    rho0 = _random_density(rng, 6)
    for t in (0.1, 1.0, 10.0, 100.0):
        rho_t = evolve_density(h, rho0, t)
        assert abs(np.trace(rho_t) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho_t)[0] > -1e-10


def test_unitarity_of_propagator():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 8)
    w, v = eig_hermitian(h)
    for t in (0.0, 1.0, 37.5, 100.0):
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    t1=st.floats(-5.0, 5.0),
    t2=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_group_property(t1, t2, seed):
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, 3)
    rho0 = _random_density(rng, 3)
    spectrum = eig_hermitian(h)
    stepped = evolve_density(
        h, evolve_density(h, rho0, t1, spectrum=spectrum), t2, spectrum=spectrum
    )
    direct = evolve_density(h, rho0, t1 + t2, spectrum=spectrum)
    assert np.max(np.abs(stepped - direct)) < 1e-10


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve_density(np.eye(2), np.eye(3) / 3.0, 1.0)


def test_rejects_bad_density():
    h = np.eye(2)
    with pytest.raises(ValueError, match="trace"):
        evolve_density(h, np.eye(2), 1.0)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        require_density(np.diag([1.5, -0.5]))


def test_convergence_error_names_dimension():
    bad = np.full((3, 3), np.nan)
    with pytest.raises((ConvergenceError, HermiticityError), match="3x3|Hermiticity"):
        eig_hermitian(bad)
