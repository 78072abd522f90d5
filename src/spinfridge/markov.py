"""Global-GKSL Markovian three-qubit refrigerator baseline.

Works in the computational basis |q1 q2 q3> (index q1*4 + q2*2 + q3) in
which |1> is the *lower* level of each qubit: the local Hamiltonians are
(eps_i/2) * sigma_z_i with sigma_z = |0><0| - |1><1|, the three-body
interaction couples |010> and |101>, and the tabulated jump operators then
lower the dressed energy by exactly their labelled frequency.  That holds
only at the autonomous point eps2 = eps1 + eps3, where |010> and |101> are
degenerate; elsewhere the channels are an error.  Rates follow
the Ohmic spectral density J(w) = alpha * w * exp(-w/cutoff) with the
Bose-Einstein occupation, which is the unique choice obeying detailed
balance gamma(-w) = exp(-beta w) * gamma(w).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .analysis import OptimizationResult, minimize_t1
from .spinstar import temperature_from_excited

DEFAULT_CUTOFF = 1e3
DEFAULT_TIME_GRID = (0.0, 40.0, 0.05)
DEFAULT_ALPHA_RANGE = (0.0, 1e-4)
DEFAULT_G_RANGE = (0.0, 0.1)


class WeakCouplingWarning(UserWarning):
    """Largest decay rate above 1% of the smallest system scale."""


class WeakCouplingError(ValueError):
    """Largest decay rate at or above 10% of the smallest system scale."""


@dataclass(frozen=True)
class MarkovParams:
    """Qubit energies, three-body coupling, Ohmic strengths and bath temperatures."""

    epsilon: tuple[float, float, float]
    g: float
    alpha: tuple[float, float, float]
    beta: tuple[float, float, float]
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        for name in ("epsilon", "alpha", "beta"):
            value = tuple(getattr(self, name))
            if len(value) != 3:
                raise ValueError(f"{name} must have three entries, got {value}")
            object.__setattr__(self, name, value)
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if any(b <= 0 for b in self.beta):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")


@dataclass(frozen=True)
class JumpChannel:
    """One dissipation channel: qubit, transition frequency, operator, rate."""

    qubit: int
    frequency: float
    operator: np.ndarray
    rate: float


def _ket(bits: str) -> np.ndarray:
    v = np.zeros(8)
    v[int(bits, 2)] = 1.0
    return v


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b)


_PLUS = (_ket("101") + _ket("010")) / math.sqrt(2.0)
_MINUS = (_ket("101") - _ket("010")) / math.sqrt(2.0)


def _tabulated_operators() -> list[tuple[int, str, np.ndarray]]:
    """The nine positive-frequency jump operators in the dressed basis.

    Frequencies are tagged symbolically: "e" for eps_i, "e+g"/"e-g" for the
    dressed pair split by the interaction.
    """
    s = 1.0 / math.sqrt(2.0)
    return [
        (1, "e", _outer(_ket("111"), _ket("011")) + _outer(_ket("100"), _ket("000"))),
        (1, "e+g", s * (_outer(_ket("110"), _PLUS) + _outer(_MINUS, _ket("001")))),
        (1, "e-g", s * (_outer(_PLUS, _ket("001")) - _outer(_ket("110"), _MINUS))),
        (2, "e", _outer(_ket("110"), _ket("100")) + _outer(_ket("011"), _ket("001"))),
        (2, "e+g", s * (_outer(_ket("111"), _PLUS) - _outer(_MINUS, _ket("000")))),
        (2, "e-g", s * (_outer(_PLUS, _ket("000")) + _outer(_ket("111"), _MINUS))),
        (3, "e", _outer(_ket("111"), _ket("110")) + _outer(_ket("001"), _ket("000"))),
        (3, "e+g", s * (_outer(_ket("011"), _PLUS) + _outer(_MINUS, _ket("100")))),
        (3, "e-g", s * (_outer(_PLUS, _ket("100")) - _outer(_ket("011"), _MINUS))),
    ]


def spectral_density(omega: float, alpha: float, cutoff: float) -> float:
    """Ohmic density J(w) = alpha * w * exp(-w / cutoff) for w > 0."""
    return alpha * omega * math.exp(-omega / cutoff)


def bose_occupation(omega: float, beta: float) -> float:
    """Bose-Einstein occupation 1/(exp(beta*w) - 1)."""
    x = beta * omega
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def decay_rate(omega: float, alpha: float, beta: float, cutoff: float) -> float:
    """Rate gamma(w): emission J(w)(1+f) for w > 0, absorption J(|w|)f for w < 0."""
    if omega > 0:
        return spectral_density(omega, alpha, cutoff) * (
            1.0 + bose_occupation(omega, beta)
        )
    mag = abs(omega)
    return spectral_density(mag, alpha, cutoff) * bose_occupation(mag, beta)


def build_jump_channels(params: MarkovParams) -> list[JumpChannel]:
    """All 18 channels: nine tabulated operators plus their adjoints.

    Positive-frequency channels carry gamma(w) = J(w)(1+f); the adjoint
    (absorption) channels carry gamma(-w).  Any nonpositive transition
    frequency is an error, and so is |eps2 - (eps1 + eps3)| > 1e-12, where
    the operators are no eigenoperators of H; a largest rate above 10% of
    min(eps_i, g) is an error and above 1% a WeakCouplingWarning.
    """
    channels = []
    for qubit, tag, op in _tabulated_operators():
        eps = params.epsilon[qubit - 1]
        frequency = {"e": eps, "e+g": eps + params.g, "e-g": eps - params.g}[tag]
        if frequency <= 0:
            raise ValueError(
                f"channel (qubit {qubit}, {tag}) has nonpositive frequency "
                f"{frequency}"
            )
        alpha = params.alpha[qubit - 1]
        beta = params.beta[qubit - 1]
        channels.append(JumpChannel(
            qubit, frequency, op,
            decay_rate(frequency, alpha, beta, params.cutoff),
        ))
        channels.append(JumpChannel(
            qubit, -frequency, op.T.copy(),
            decay_rate(-frequency, alpha, beta, params.cutoff),
        ))
    eps1, eps2, eps3 = params.epsilon
    if abs(eps2 - (eps1 + eps3)) > 1e-12:  # RefrigeratorParams.is_autonomous's tolerance
        raise ValueError(
            f"the jump operators need eps2 = eps1 + eps3, got epsilon={params.epsilon}"
        )
    scale = min(min(params.epsilon), params.g) if params.g > 0 else min(params.epsilon)
    gamma_max = max(ch.rate for ch in channels)
    if gamma_max >= 0.1 * scale:
        raise WeakCouplingError(
            f"largest rate {gamma_max:.3e} breaks weak coupling "
            f"(>= 10% of the smallest system scale {scale:.3e})"
        )
    if gamma_max > 0.01 * scale:
        warnings.warn(
            f"largest rate {gamma_max:.3e} above 1% of the smallest system "
            f"scale {scale:.3e}; the weak-coupling description degrades",
            WeakCouplingWarning,
            stacklevel=2,
        )
    return channels


def system_hamiltonian(params: MarkovParams) -> np.ndarray:
    """Free part plus the three-body interaction g(|010><101| + h.c.)."""
    h = np.zeros((8, 8))
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        h[idx, idx] = sum(
            0.5 * params.epsilon[k] * (1.0 - 2.0 * bits[k]) for k in range(3)
        )
    h[0b010, 0b101] += params.g
    h[0b101, 0b010] += params.g
    return h


def thermal_product_state(params: MarkovParams) -> np.ndarray:
    """Tensor product of single-qubit thermal states (|1> the lower level)."""
    rho = np.ones(1)
    for k in range(3):
        z = 2.0 * math.cosh(0.5 * params.beta[k] * params.epsilon[k])
        upper = math.exp(-0.5 * params.beta[k] * params.epsilon[k]) / z
        rho = np.kron(rho, np.array([upper, 1.0 - upper]))
    return np.diag(rho).astype(complex)


def liouvillian_matrix(params: MarkovParams) -> np.ndarray:
    """The GKSL generator as a 64x64 matrix acting on vec(rho), row-major."""
    h = system_hamiltonian(params).astype(complex)
    eye = np.eye(8)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for ch in build_jump_channels(params):
        l_op = ch.operator.astype(complex)
        ld_l = l_op.conj().T @ l_op
        lv += ch.rate * (
            np.kron(l_op, l_op.conj())
            - 0.5 * np.kron(ld_l, eye)
            - 0.5 * np.kron(eye, ld_l.T)
        )
    return lv


@dataclass(frozen=True)
class MarkovTrajectory:
    """States sampled on a grid plus a continuous interpolant."""

    time: np.ndarray
    states: np.ndarray  # (n, 8, 8)
    _interpolant: object

    def state_at(self, t: float) -> np.ndarray:
        return np.asarray(self._interpolant(t)).reshape(8, 8)


_UPPER_ROWS, _UPPER_COLS = np.triu_indices(8, k=1)


def integrate_gksl(params: MarkovParams, initial_state, times) -> MarkovTrajectory:
    """Integrate the master equation with adaptive explicit Runge-Kutta.

    Tolerances rtol=1e-9 / atol=1e-12; the dynamics at weak rates is not
    stiff and the slowest relevant oscillation (the three-body swap, period
    about pi/g) is well resolved.  Trace and Hermiticity are checked at
    every requested sample time to 1e-8.
    """
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(initial_state, dtype=complex)
    if rho0.shape != (8, 8):
        raise ValueError(f"initial state must be 8x8, got {rho0.shape}")
    trace = complex(np.trace(rho0))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"initial state trace {trace} differs from 1")
    lv = liouvillian_matrix(params)

    def rhs(_t, y):
        return lv @ y

    solution = solve_ivp(
        rhs,
        (float(times[0]), float(times[-1])),
        rho0.ravel(),
        method="RK45",
        t_eval=times,
        rtol=1e-9,
        atol=1e-12,
        dense_output=True,
    )
    if not solution.success:
        raise RuntimeError(
            f"master-equation integration failed at t={solution.t[-1]:.6g}: "
            f"{solution.message}"
        )
    states = solution.y.T.reshape(-1, 8, 8)
    trace_err = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    # each strictly-upper element against its lower mirror, plus Im of the diagonal
    upper = states[:, _UPPER_ROWS, _UPPER_COLS]
    lower = states[:, _UPPER_COLS, _UPPER_ROWS]
    herm_err = np.maximum(
        np.abs(upper - lower.conj()).max(axis=1),
        2.0 * np.abs(np.diagonal(states, axis1=1, axis2=2).imag).max(axis=1),
    )
    bad = np.flatnonzero((trace_err > 1e-8) | (herm_err > 1e-8))
    if bad.size:
        raise RuntimeError(
            f"integrator lost trace or Hermiticity at t={times[bad[0]]:.6g}"
        )
    return MarkovTrajectory(times, states, solution.sol)


# _UPPER[k, idx] = 1 where basis state idx holds qubit k + 1 in its upper level |0>
_UPPER = np.array([[1.0 - ((idx >> (2 - k)) & 1) for idx in range(8)] for k in range(3)])


def excited_populations(states) -> np.ndarray:
    """Upper-level population of each qubit, shape (..., 8, 8) -> (..., 3)."""
    return np.diagonal(np.asarray(states), axis1=-2, axis2=-1).real @ _UPPER.T


def temperature_trajectories(params: MarkovParams, traj: MarkovTrajectory):
    """(r, T) arrays of shape (3, n) along the trajectory, T read from p = 1 - r."""
    p = excited_populations(traj.states).T
    temps = np.stack([
        temperature_from_excited(p[k], params.epsilon[k]) for k in range(3)
    ])
    return 1.0 - p, temps


def markov_optimize(base: MarkovParams, alpha_range=DEFAULT_ALPHA_RANGE,
                    g_range=DEFAULT_G_RANGE, budget: int = 300, seed: int = 0,
                    time_grid=DEFAULT_TIME_GRID) -> OptimizationResult:
    """Minimize the cold-qubit temperature over (alpha1..3, g) and time.

    Same search as the spin-star optimizer, through the same
    ``analysis.minimize_t1``, on the excited population of qubit 1 along
    each integrated trajectory; returns its ``OptimizationResult`` with
    ``best_params`` = (alpha1, alpha2, alpha3, g).  Weak-coupling warnings
    from exploratory parameter points are suppressed, and points whose
    rates break weak coupling (``WeakCouplingError``) score +inf, so the
    search avoids them instead of aborting; when every evaluated point
    does, ``WeakCouplingError`` is raised.
    """

    def excited(x, times):
        params = replace(
            base, alpha=(float(x[0]), float(x[1]), float(x[2])), g=float(x[3])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            try:
                traj = integrate_gksl(params, thermal_product_state(params), times)
            except WeakCouplingError:
                return None
        return (excited_populations(traj.states)[:, 0],
                lambda t: excited_populations(traj.state_at(t))[0],
                base.epsilon[0])

    bounds = [alpha_range, alpha_range, alpha_range, g_range]
    result = minimize_t1(excited, bounds, budget, seed, time_grid, refine_tol=1e-4)
    if not math.isfinite(result.best_t1):
        raise WeakCouplingError(
            f"every one of {result.evaluations} evaluated points breaks weak coupling"
        )
    return result
