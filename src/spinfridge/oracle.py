"""Brute-force dense evolution on the full symmetric-sector Hilbert space.

Independent validator for the sector-resolved solvers: builds the joint
Hamiltonian with collective ladder operators on the (N+1)-dimensional
symmetric bath ladder, evolves the exact thermal product state by dense
eigendecomposition, and partial-traces explicitly.  Dimensions are capped
at 1000; this module is for small baths only.

The eigendecomposition and the unitary evolution are checked: algebraic
identities are held to 1e-12, spectral reconstructions to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import RefrigeratorParams

DIMENSION_CAP = 1000
HERMITICITY_ATOL = 1e-12
SPECTRUM_ATOL = 1e-10
DENSITY_ATOL = 1e-10


class HermiticityError(ValueError):
    """Matrix expected to be Hermitian is not, within tolerance."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed or returned an unusable spectrum."""


class Spectrum(NamedTuple):
    """Eigenvalues (ascending) and the matrix whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(h, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Return ``h`` as an array, raising HermiticityError if h != h^dagger."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    deviation = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if deviation > atol:
        raise HermiticityError(
            f"matrix deviates from Hermiticity by {deviation:.3e} "
            f"(tolerance {atol:.1e})"
        )
    return h


def eig_hermitian(h) -> Spectrum:
    """Validated eigendecomposition of a Hermitian matrix.

    The returned eigenvector columns are orthonormal to 1e-10 and
    reconstruct the input to 1e-10 relative to its largest entry; a
    spectrum that fails either check raises ConvergenceError naming the
    matrix dimension.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed for a {n}x{n} matrix: {exc}"
        ) from exc
    ortho = float(np.max(np.abs(eigenvectors.conj().T @ eigenvectors - np.eye(n))))
    scale = max(float(np.max(np.abs(h))), 1.0)
    recon = float(np.max(np.abs((eigenvectors * eigenvalues) @ eigenvectors.conj().T - h)))
    if ortho > SPECTRUM_ATOL or recon > SPECTRUM_ATOL * scale:
        raise ConvergenceError(
            f"unreliable spectrum for a {n}x{n} matrix "
            f"(orthonormality {ortho:.3e}, reconstruction {recon:.3e})"
        )
    return Spectrum(eigenvalues, eigenvectors)


def require_density(rho, atol: float = DENSITY_ATOL) -> np.ndarray:
    """Check trace one, Hermiticity and positive semidefiniteness of a state."""
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, atol=atol)
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > atol:
        raise ValueError(f"density matrix trace {trace} differs from 1 beyond {atol:.1e}")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def evolve_density(h, rho0, t: float, *, spectrum: Spectrum | None = None) -> np.ndarray:
    """Unitary evolution rho(t) = U rho0 U^dagger with U = exp(-i h t).

    Pass a precomputed ``spectrum`` of ``h`` to amortize the
    eigendecomposition over many evaluation times; the evolution itself is
    exact up to the spectral factorization, so the trace is preserved to
    1e-12 and no step-size enters.
    """
    if spectrum is None:
        spectrum = eig_hermitian(h)
    eigenvalues, v = spectrum
    n = eigenvalues.shape[0]
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ValueError(f"dimension mismatch: state {rho0.shape} vs Hamiltonian ({n}, {n})")
    require_density(rho0)
    phased = v * np.exp(-1j * eigenvalues * t)
    return phased @ (v.conj().T @ rho0 @ v) @ phased.conj().T


@dataclass(frozen=True)
class DenseModel:
    """Full joint Hamiltonian and initial state, plus subsystem bookkeeping."""

    dims: tuple[int, ...]           # alternating (2, N1+1[, 2, N2+1, 2, N3+1])
    hamiltonian: np.ndarray
    initial_state: np.ndarray

    @property
    def dimension(self) -> int:
        return int(np.prod(self.dims))

    def spectrum(self) -> Spectrum:
        return eig_hermitian(self.hamiltonian)


def _collective_ladder(n_bath: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J^z, J^+, J^- on the symmetric ladder, levels ascending m_B = -N/2..N/2."""
    j = 0.5 * n_bath
    m = np.arange(-j, j + 1)
    jz = np.diag(m)
    raise_factors = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.diag(raise_factors, k=-1)  # |m+1><m| lives one row below the diagonal
    return jz, jp, jp.T


def _bath_shift(n_bath: int) -> np.ndarray:
    """Unit-element raising shift sum_m |m+1><m| on the bath ladder."""
    return np.eye(n_bath + 1, k=-1)


_SZ = np.diag([-0.5, 0.5])            # qubit levels ordered (ground, excited)
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])
_SM = _SP.T


def _kron_all(ops) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _embed(op: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    return _kron_all([op if k == slot else np.eye(d) for k, d in enumerate(dims)])


def _pair_hamiltonian(epsilon: float, bath_energy: float, coupling: float,
                      n_bath: int) -> np.ndarray:
    jz, jp, jm = _collective_ladder(n_bath)
    h = epsilon * np.kron(_SZ, np.eye(n_bath + 1))
    h += bath_energy * np.kron(np.eye(2), jz)
    h += coupling * (np.kron(_SP, jm) + np.kron(_SM, jp))
    return h


def _thermal_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def _pair_thermal_state(epsilon: float, bath_energy: float, n_bath: int,
                        beta: float) -> np.ndarray:
    qubit = _thermal_weights(epsilon * np.array([-0.5, 0.5]), beta)
    j = 0.5 * n_bath
    bath = _thermal_weights(bath_energy * np.arange(-j, j + 1), beta)
    return np.diag(np.kron(qubit, bath))


def _check_cap(dim: int) -> None:
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"dense model needs dimension {dim}, above the cap {DIMENSION_CAP}"
        )


def build_dense(params: RefrigeratorParams) -> DenseModel:
    """Dense model of one qubit-bath pair (a single star) or of the three-pair refrigerator."""
    dims = tuple(d for n in params.n_bath for d in (2, n + 1))
    dim = int(np.prod(dims))
    _check_cap(dim)
    pair_dims = tuple(2 * (n + 1) for n in params.n_bath)
    h = np.zeros((dim, dim))
    for k, pair in enumerate(zip(params.epsilon, params.bath_energy, params.coupling,
                                 params.n_bath)):
        h += _embed(_pair_hamiltonian(*pair), k, pair_dims)
    if params.pairs == 3:
        # Interaction: couples (qubit down, bath m+1/2) with (qubit up, bath
        # m-1/2) patterns across the three pairs, with unit bath matrix elements.
        lower = [np.kron(_SM, _bath_shift(n)) for n in params.n_bath]   # up -> down, bath +1
        raiser = [np.kron(_SP, _bath_shift(n).T) for n in params.n_bath]
        hop = _kron_all([lower[0], raiser[1], lower[2]])
        h += params.g * (hop + hop.T)
    rho0 = _kron_all([
        _pair_thermal_state(*pair)
        for pair in zip(params.epsilon, params.bath_energy, params.n_bath, params.beta)
    ])
    return DenseModel(dims, h, rho0)


def dense_evolve(model: DenseModel, t: float, *, spectrum: Spectrum | None = None) -> np.ndarray:
    if spectrum is None:
        spectrum = model.spectrum()
    return evolve_density(model.hamiltonian, model.initial_state, t, spectrum=spectrum)


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """Reduced density matrix of subsystem ``keep`` of a product-structured state."""
    n = len(dims)
    rho = rho.reshape(dims + dims)
    for slot in reversed([k for k in range(n) if k != keep]):
        rho = np.trace(rho, axis1=slot, axis2=slot + rho.ndim // 2)
    return rho

