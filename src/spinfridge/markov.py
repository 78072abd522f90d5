"""Global-GKSL Markovian three-qubit refrigerator baseline.

Works in the computational basis |q1 q2 q3> (index q1*4 + q2*2 + q3) in
which |1> is the *lower* level of each qubit: the local Hamiltonians are
(eps_i/2) * sigma_z_i with sigma_z = |0><0| - |1><1| and the three-body
interaction couples |010> and |101>.  The nine jump channels are one table
of transitions between dressed states (``_CHANNELS``), each lowering the
dressed energy by exactly its labelled frequency.  That holds only at the
autonomous point eps2 = eps1 + eps3, where |010> and |101> are degenerate;
elsewhere the channels are an error.  Rates follow the Ohmic spectral
density J(w) = alpha * w * exp(-w/cutoff) with the Bose-Einstein
occupation, which is the unique choice obeying detailed balance
gamma(-w) = exp(-beta w) * gamma(w).

In the dressed basis, the computational one with |101>, |010> replaced by
|+-> = (|101> +- |010>)/sqrt(2), each jump operator maps distinct states to
distinct states, so a channel is its moves alone.  The dressed populations
obey dP/dt = W P (``rate_matrix``), solved exactly by uniformization (Xue
and Ye, Math. Comp. 82, 1577 (2013)): from t = 0, on segments of q L <= 1,
each one polynomial of nonnegative terms that gives both the samples on the
grid and the reads between them (``_propagate``).  The one coherence a
state may carry, rho_{+-}, rotates at 2g and decays at (W++ + W--)/2.  The
tests hold it to the full 64x64 GKSL generator of the jump operators
themselves and the populations to a 40-digit matrix exponential of W.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (DEFAULT_BUDGET, DEFAULT_RANGES, DEFAULT_TIME_GRID, OptimizationResult,
                       _best_time_on_grid, _polynomial, minimize_t1)
from .engine import AUTONOMY_TOL
from .series import TimeGrid

DEFAULT_CUTOFF = 1e3
DEFAULT_ALPHA_RANGE = (0.0, 1e-4)


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
        for name in ("epsilon", "g", "alpha", "beta", "cutoff"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")
        if any(e <= 0 for e in self.epsilon):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if any(b <= 0 for b in self.beta):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")


# The nine emission channels: channel (i, s) lowers the dressed energy by
# eps_i + s g along its (from, to) moves in the dressed basis, the
# computational one with |+> = (|101> + |010>)/sqrt(2) at index 0b101 and
# |-> = (|101> - |010>)/sqrt(2) at 0b010; |<to|L|from>|^2 is 1 at s = 0 and
# 1/2 otherwise.  Each one's adjoint runs the moves backwards at gamma(-w).
_P, _M = 0b101, 0b010
_CHANNELS = (
    (1, 0, ((0b011, 0b111), (0b000, 0b100))),
    (1, 1, ((_P, 0b110), (0b001, _M))),
    (1, -1, ((0b001, _P), (_M, 0b110))),
    (2, 0, ((0b100, 0b110), (0b001, 0b011))),
    (2, 1, ((_P, 0b111), (0b000, _M))),
    (2, -1, ((0b000, _P), (_M, 0b111))),
    (3, 0, ((0b110, 0b111), (0b000, 0b001))),
    (3, 1, ((_P, 0b011), (0b100, _M))),
    (3, -1, ((0b100, _P), (_M, 0b011))),
)
_TAGS = {0: "e", 1: "e+g", -1: "e-g"}
# Dressed kets as columns, |+> and |-> in the places of |101> and |010>
_DRESS = np.eye(8)
_DRESS[np.ix_((_P, _M), (_P, _M))] = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


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
        return spectral_density(omega, alpha, cutoff) * (1.0 + bose_occupation(omega, beta))
    mag = abs(omega)
    return spectral_density(mag, alpha, cutoff) * bose_occupation(mag, beta)


def thermal_product_state(params: MarkovParams) -> np.ndarray:
    """Tensor product of single-qubit thermal states (|1> the lower level)."""
    rho = np.ones(1)
    for k in range(3):
        z = 2.0 * math.cosh(0.5 * params.beta[k] * params.epsilon[k])
        upper = math.exp(-0.5 * params.beta[k] * params.epsilon[k]) / z
        rho = np.kron(rho, np.array([upper, 1.0 - upper]))
    return np.diag(rho).astype(complex)


def rate_matrix(params: MarkovParams) -> np.ndarray:
    """Generator W of the dressed populations, dP/dt = W P.

    Channel (i, s) of ``_CHANNELS`` moves population at gamma(w), w = eps_i
    + s g, and back at gamma(-w), each move weighted by its |<to|L|from>|^2.
    Any nonpositive transition frequency is an error, and so is
    |eps2 - (eps1 + eps3)| > ``engine.AUTONOMY_TOL``, where the channels
    lower no energy of H; a largest rate above 10% of min(eps_i, g) is an
    error and above 1% a WeakCouplingWarning.
    """
    w = np.zeros((8, 8))
    gamma_max = 0.0
    for qubit, sign, moves in _CHANNELS:
        k = qubit - 1
        frequency = params.epsilon[k] + sign * params.g
        if frequency <= 0:
            raise ValueError(f"channel (qubit {qubit}, {_TAGS[sign]}) has nonpositive "
                             f"frequency {frequency}")
        bath = (params.alpha[k], params.beta[k], params.cutoff)
        down, up = decay_rate(frequency, *bath), decay_rate(-frequency, *bath)
        weight = 0.5 if sign else 1.0
        for source, target in moves:
            w[target, source] += weight * down
            w[source, target] += weight * up
        gamma_max = max(gamma_max, down, up)
    eps1, eps2, eps3 = params.epsilon
    if abs(eps2 - (eps1 + eps3)) > AUTONOMY_TOL:
        raise ValueError(
            f"the jump operators need eps2 = eps1 + eps3, got epsilon={params.epsilon}")
    scale = min(min(params.epsilon), params.g) if params.g > 0 else min(params.epsilon)
    if gamma_max >= 0.1 * scale:
        raise WeakCouplingError(f"largest rate {gamma_max:.3e} breaks weak coupling "
                                f"(>= 10% of the smallest system scale {scale:.3e})")
    if gamma_max > 0.01 * scale:
        warnings.warn(f"largest rate {gamma_max:.3e} above 1% of the smallest system "
                      f"scale {scale:.3e}; the weak-coupling description degrades",
                      WeakCouplingWarning, stacklevel=2)
    return w - np.diag(w.sum(axis=0))


def _bare(pops, coherence):
    """Bare populations from dressed ones and rho_{+-}, (..., 8) and (...) -> (..., 8).

    rho_101, rho_010 = (P+ + P-)/2 +- Re rho_{+-}; the other entries are P.
    """
    diagonal = np.array(pops, dtype=float)
    mean = 0.5 * (diagonal[..., _P] + diagonal[..., _M])
    diagonal[..., _P], diagonal[..., _M] = mean + np.real(coherence), mean - np.real(coherence)
    return diagonal


def _uniformized(w, q: float, pops, tau_max: float) -> np.ndarray:
    """s: exp(W x tau_max) pops = e^(-q x tau_max) sum_j s_j x^j for 0 <= x <= 1.

    s_j = ((W + qI) tau_max)^j pops / j!, q = max(-W_ii), every entry
    nonnegative.  Terms run until each is below 2^-53 of the sum in every
    entry at x = 1, which an entry first reached at order j fails at j; they
    fall factorially once j passes q tau_max, so the order cap
    2 q tau_max + 64 only ends a sum that overflowed.
    """
    a = (w + q * np.eye(8)) * tau_max
    terms = [np.asarray(pops, dtype=float)]
    total = terms[0]
    for j in range(1, 64 + math.ceil(2.0 * q * tau_max)):
        terms.append(a @ terms[-1] / j)
        total = total + terms[-1]
        if np.all(terms[-1] <= 2.0 ** -53 * total):
            break
    return np.array(terms)


# Largest q L of a segment of the propagation
_SEGMENT_REACH = 1.0


def _propagate(w, rate, pops0, coherence0, times):
    """Dressed populations and rho_{+-} at ``times`` from pops0, coherence0 at t = 0,
    and the segments (q, L, s): s[i] the ``_uniformized`` terms from iL.

    Time is cut into segments of length L from t = 0: one through times[-1]
    where q times[-1] <= ``_SEGMENT_REACH``, else L = ``_SEGMENT_REACH`` / q.
    A segment's samples are one Vandermonde product with its terms, and the
    next segment starts from its value at x = 1.
    """
    q = float(-w.diagonal().min())
    end = float(times[-1])
    # a grid of the one point t = 0 takes any length
    length = _SEGMENT_REACH / q if q * end > _SEGMENT_REACH else end or 1.0
    count = max(1, math.ceil(end / length))
    # segment i's samples are those from iL on, the last's all through times[-1]
    cuts = [0, *np.searchsorted(times, length * np.arange(1, count)).tolist(), times.size]
    pops, terms, start = np.empty((times.size, 8)), [], pops0
    for i in range(count):
        terms.append(_uniformized(w, q, start, length))
        tau = times[cuts[i]:cuts[i + 1]] - i * length
        pops[cuts[i]:cuts[i + 1]] = np.exp(-q * tau)[:, None] * (
            np.vander(tau / length, len(terms[-1]), increasing=True) @ terms[-1])
        start = math.exp(-q * length) * terms[-1].sum(axis=0)
    return pops, coherence0 * np.exp(rate * times), (q, length, terms)


@dataclass(frozen=True)
class MarkovTrajectory:
    """The state on a ``TimeGrid``'s points: dressed populations (|+> at index
    0b101, |-> at 0b010), rho_{+-} and the bare (computational) populations;
    ``excited_at`` reads a qubit's excited population between the points."""

    time: np.ndarray
    populations: np.ndarray  # (n, 8)
    coherence: np.ndarray  # (n,)
    diagonal: np.ndarray  # (n, 8)
    coherence_rate: complex
    decay: float  # q of ``_propagate``
    segment: float  # its L
    coefficients: tuple  # per segment, (3, terms): c_j of each qubit

    def excited_at(self, t: float, qubit: int) -> float:
        """Excited population of qubit 1, 2 or 3 at t in [time[0], time[-1]].

        Exact on the segment holding t, and sample k's own value at t =
        time[k].  In between, with tau = t - iL and x = tau / L on segment
        i, it is e^(-q tau) sum_j c_j x^j plus Re(rho_{+-}(time[k])
        e^(r (t - time[k]))), k the last sample before t, with the qubit's
        sign in ``_bare``: c_j = u . bare(s_j, 0), u the qubit's upper-level
        indicator and s_j the segment's terms, the ones its samples were
        formed from.  Every c_j is nonnegative, so the polynomial keeps
        relative precision at low temperature.
        """
        k = int(np.searchsorted(self.time, t, side="right")) - 1
        if k < 0:
            raise ValueError(f"t={t} precedes the trajectory's start {self.time[0]}")
        if t == self.time[k]:
            return float(excited_populations(self.diagonal[k])[qubit - 1])
        if k == self.time.size - 1:
            raise ValueError(f"t={t} follows the trajectory's end {self.time[-1]}")
        i = min(int(t // self.segment), len(self.coefficients) - 1)
        tau = t - i * self.segment
        value_at = _polynomial(self.coefficients[i][qubit - 1], 0.0)
        coherence = _COHERENCE_SIGN[qubit - 1] * complex(self.coherence[k])
        gap = t - float(self.time[k])
        turn = self.coherence_rate.imag * gap  # Re(coherence e^(r gap)) below
        coherent = math.exp(self.coherence_rate.real * gap) * (
            coherence.real * math.cos(turn) - coherence.imag * math.sin(turn))
        return math.exp(-self.decay * tau) * value_at(tau / self.segment) + coherent


def integrate_gksl(params: MarkovParams, initial_state, grid: TimeGrid) -> MarkovTrajectory:
    """Propagate the master equation exactly on ``grid``, from ``initial_state`` at t = 0.

    The initial state may carry no dressed-basis coherence but rho_{+-}.  A
    grid starting at t = 0 keeps the initial state's own bare populations
    there, as forming a rho_101 far below rho_010 (or the reverse) from the
    dressed pair would cancel.  Every sample is checked to be a density matrix: trace within
    1e-8 of 1, and, to rounding, P >= 0 and |rho_{+-}|^2 <= P+ P-.
    """
    if grid.start < 0:
        raise ValueError(f"time_grid.start: must be nonnegative, got {grid.start}")
    rho0 = np.asarray(initial_state, dtype=complex)
    if rho0.shape != (8, 8):
        raise ValueError(f"initial state must be 8x8, got {rho0.shape}")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError(f"initial state trace {complex(np.trace(rho0))} differs from 1")
    dressed = _DRESS.T @ rho0 @ _DRESS
    model = np.diag(dressed.diagonal().real).astype(complex)
    model[_P, _M], model[_M, _P] = dressed[_P, _M], np.conj(dressed[_P, _M])
    if np.abs(dressed - model).max() > 1e-12:
        raise ValueError("initial state is not Hermitian or has a dressed-basis "
                         "coherence other than rho_{+-}")
    times = grid.points()
    w = rate_matrix(params)
    rate = 0.5 * (w[_P, _P] + w[_M, _M]) - 2j * params.g
    pops, coherence, (q, length, terms) = _propagate(
        w, rate, model.diagonal().real, model[_P, _M], times)
    bad = np.flatnonzero(~(  # fails closed: a NaN sample passes no comparison
        (np.abs(pops.sum(axis=1) - 1.0) <= 1e-8) & (pops.min(axis=1) >= -1e-12)
        & (np.abs(coherence) ** 2 <= (1.0 + 1e-12) * pops[:, _P] * pops[:, _M])))
    if bad.size:
        raise RuntimeError(f"propagator lost trace or positivity at t={times[bad[0]]:.6g}")
    diagonal = _bare(pops, coherence)
    if grid.start == 0:
        diagonal[0] = rho0.diagonal().real
    coefficients = tuple(_UPPER @ _bare(s, 0.0).T for s in terms)
    return MarkovTrajectory(times, pops, coherence, diagonal, rate, q, length, coefficients)


# _UPPER[k, idx] = 1 where basis state idx holds qubit k + 1 in its upper level |0>
_UPPER = np.array([[1.0 - ((idx >> (2 - k)) & 1) for idx in range(8)] for k in range(3)])
# the sign of Re rho_{+-} in each qubit's excited population, from ``_bare``
_COHERENCE_SIGN = (_UPPER[:, _P] - _UPPER[:, _M]).tolist()


def excited_populations(diagonal) -> np.ndarray:
    """Upper-level population of each qubit from the bare populations, (..., 8) -> (..., 3)."""
    return np.einsum("...i,ki->...k", diagonal, _UPPER)


def markov_optimize(base: MarkovParams, alpha_range=DEFAULT_ALPHA_RANGE,
                    g_range=DEFAULT_RANGES[3], budget: int = DEFAULT_BUDGET, seed: int = 0,
                    time_grid: TimeGrid = DEFAULT_TIME_GRID) -> OptimizationResult:
    """Minimize the cold-qubit temperature over (alpha1..3, g) and time.

    Same search as the spin-star optimizer, through ``analysis.minimize_t1``,
    on qubit 1's excited population along each propagated trajectory: its
    least grid value (``analysis._best_time_on_grid``) is polished to 1e-4
    in time on ``MarkovTrajectory.excited_at``, one polynomial per grid
    step the golden-section search enters; ``best_params`` =
    (alpha1, alpha2, alpha3, g).  Weak-coupling warnings from exploratory
    points are suppressed, and points whose rates break weak coupling
    (``WeakCouplingError``) score +inf, so the search avoids them instead of
    aborting; when every evaluated point does, ``WeakCouplingError`` is raised.
    The budget and time grid default to ``analysis``'s, as ``optimize_t1``'s do.
    """

    rho0 = thermal_product_state(base)  # depends on beta and epsilon alone

    def best(x):
        params = replace(base, alpha=(float(x[0]), float(x[1]), float(x[2])), g=float(x[3]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            try:
                traj = integrate_gksl(params, rho0, time_grid)
            except WeakCouplingError:
                return None
        t_best, p_best = _best_time_on_grid(
            excited_populations(traj.diagonal)[:, 0],
            lambda t: traj.excited_at(t, 1), time_grid.points(), 1e-4,
        )
        return t_best, p_best, base.epsilon[0]

    bounds = [alpha_range, alpha_range, alpha_range, g_range]
    result = minimize_t1(best, bounds, budget, seed)
    if not math.isfinite(result.best_t1):
        raise WeakCouplingError(f"every one of {result.evaluations} evaluated points "
                                "breaks weak coupling")
    return result
