"""Exact dynamics of one qubit exchange-coupled to a finite spin-star bath.

The total z spin of the qubit and its bath is conserved, so the joint
Hilbert space (bath restricted to the fully symmetric ladder of N spin-1/2s)
splits into sectors of dimension at most two, labelled by the half-integer
m.  Half-integers are stored doubled (``two_m``) so sector arithmetic stays
exact.  Within a sector the Hamiltonian is the real symmetric block

    [[b_minus, u], [u, b_plus]]

in the basis {qubit down & bath level m+1/2, qubit up & bath level m-1/2},
and the full state is a Boltzmann-weighted sum of independently evolving
sector states.  Weighted reductions always run in ascending two_m order so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .linalg import evolve_density


class PopulationInversionWarning(UserWarning):
    """Ground population below one half: the assigned temperature is negative."""


@dataclass(frozen=True)
class SingleStarParams:
    """Qubit energy, bath level splitting, XY coupling, bath size and initial 1/T."""

    epsilon: float
    bath_energy: float
    coupling: float
    n_bath: int
    beta: float

    def __post_init__(self):
        if int(self.n_bath) != self.n_bath or self.n_bath < 1:
            raise ValueError(f"n_bath must be a positive integer, got {self.n_bath}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        for name in ("epsilon", "bath_energy", "coupling", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SectorCoupling:
    """Two-dimensional sector block of the pair Hamiltonian."""

    two_m: int
    b_minus: float
    b_plus: float
    u: float

    @property
    def theta(self) -> float:
        return math.hypot(self.u, 0.5 * (self.b_minus - self.b_plus))

    def matrix(self) -> np.ndarray:
        return np.array([[self.b_minus, self.u], [self.u, self.b_plus]])


@dataclass(frozen=True)
class SectorLevel:
    """One-dimensional edge sector: a single stationary level."""

    two_m: int
    energy: float


@dataclass(frozen=True)
class SectorState:
    """Populations and coherence of one sector state (unit trace)."""

    two_m: int
    c_gg: float
    c_ee: float
    c_ge: complex


def sector_labels(params: SingleStarParams) -> list[int]:
    """All conserved-charge labels, doubled: two_m from -(N+1) to N+1 in steps of 2."""
    n = params.n_bath
    return list(range(-(n + 1), n + 2, 2))


def sector_dim(params: SingleStarParams, two_m: int) -> int:
    """2 for interior sectors, 1 at the edges two_m = +-(N+1)."""
    _check_label(params, two_m)
    return 1 if abs(two_m) == params.n_bath + 1 else 2


def _check_label(params: SingleStarParams, two_m: int) -> None:
    n = params.n_bath
    if abs(two_m) > n + 1 or (two_m - (n + 1)) % 2 != 0:
        raise ValueError(f"two_m={two_m} is not a sector label for n_bath={n}")


def sector_hamiltonian(params: SingleStarParams, two_m: int):
    """Sector block of the Hamiltonian: SectorCoupling, or SectorLevel at the edges."""
    _check_label(params, two_m)
    eps, bath_e, a, n = params.epsilon, params.bath_energy, params.coupling, params.n_bath
    m = 0.5 * two_m
    if two_m == n + 1:
        return SectorLevel(two_m, 0.5 * eps + bath_e * (m - 0.5))
    if two_m == -(n + 1):
        return SectorLevel(two_m, -0.5 * eps + bath_e * (m + 0.5))
    b_minus = -0.5 * eps + bath_e * (m + 0.5)
    b_plus = 0.5 * eps + bath_e * (m - 0.5)
    u = a * math.sqrt((0.5 * n + m + 0.5) * (0.5 * n - m + 0.5))
    return SectorCoupling(two_m, b_minus, b_plus, u)


def sector_log_weights(params: SingleStarParams) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized weight of each sector, ascending two_m order.

    The weight is the Boltzmann factor exp(-beta*E*m) times the trace of the
    unnormalized in-sector thermal block, so summing exp() over sectors
    reproduces Z_qubit * Z_bath.  Kept in log space: for large beta*E*N the
    raw factors overflow double precision.
    """
    labels = np.array(sector_labels(params))
    m = 0.5 * labels
    beta, eps, bath_e, n = params.beta, params.epsilon, params.bath_energy, params.n_bath
    half_gap = 0.5 * beta * (eps - bath_e)
    log_trace = np.logaddexp(half_gap, -half_gap)  # interior sectors hold both levels
    logw = -beta * bath_e * m + log_trace
    logw[labels == -(n + 1)] = -beta * bath_e * m[0] + half_gap
    logw[labels == n + 1] = -beta * bath_e * m[-1] - half_gap
    return labels, logw


def sector_weights(params: SingleStarParams) -> tuple[np.ndarray, np.ndarray]:
    """Normalized sector weights (summing to one), ascending two_m order."""
    labels, logw = sector_log_weights(params)
    w = np.exp(logw - logw.max())
    return labels, w / w.sum()


def sector_initial_populations(params: SingleStarParams, two_m: int) -> np.ndarray:
    """Unit-trace thermal populations of one sector (ground first)."""
    dim = sector_dim(params, two_m)
    if dim == 1:
        return np.array([1.0])
    p_ground = expit(params.beta * (params.epsilon - params.bath_energy))
    return np.array([p_ground, 1.0 - p_ground])


def evolve_sector(params: SingleStarParams, two_m: int, t: float) -> SectorState:
    """Sector state at time t from the 2x2 eigendecomposition route."""
    block = sector_hamiltonian(params, two_m)
    if isinstance(block, SectorLevel):
        ground = 1.0 if two_m < 0 else 0.0
        return SectorState(two_m, ground, 1.0 - ground, 0j)
    rho0 = np.diag(sector_initial_populations(params, two_m)).astype(complex)
    rho_t = evolve_density(block.matrix(), rho0, t)
    return SectorState(two_m, rho_t[0, 0].real, rho_t[1, 1].real, complex(rho_t[0, 1]))


def sector_state_analytic(params: SingleStarParams, two_m: int, t: float) -> SectorState:
    """Closed-form sector state used to cross-check :func:`evolve_sector`.

    The populations follow the closed forms with the mixing-angle
    convention sin^2 = u^2/theta^2 (so the precession frequency theta and
    the mixing angle are distinct objects); the coherence is the expression
    the same 2x2 rotation algebra produces, with the conjugation symmetry
    c_eg = conj(c_ge).
    """
    block = sector_hamiltonian(params, two_m)
    if isinstance(block, SectorLevel):
        ground = 1.0 if two_m < 0 else 0.0
        return SectorState(two_m, ground, 1.0 - ground, 0j)
    theta = block.theta
    delta = 0.5 * (block.b_minus - block.b_plus)
    sin2_mix = (block.u / theta) ** 2 if theta > 0 else 0.0
    cos2_mix = 1.0 - sin2_mix
    p_g, p_e = sector_initial_populations(params, two_m)
    half_up = 0.5 * (1.0 + math.cos(2.0 * theta * t))
    half_dn = 0.5 * (1.0 - math.cos(2.0 * theta * t))
    c_gg = p_g * (half_up * sin2_mix + cos2_mix) + p_e * half_dn * sin2_mix
    c_ee = p_g * half_dn * sin2_mix + p_e * (half_up * sin2_mix + cos2_mix)
    if theta > 0:
        ratio = block.u / theta
        c_ge = (p_g - p_e) * ratio * (
            (delta / theta) * math.sin(theta * t) ** 2
            + 0.5j * math.sin(2.0 * theta * t)
        )
    else:
        c_ge = 0j
    return SectorState(two_m, c_gg, c_ee, c_ge)


def sector_arrays(p: SingleStarParams) -> dict:
    """Vectorized :func:`sector_hamiltonian` and weights of one pair, ascending two_m.

    ``p_level`` holds the in-sector thermal (ground, excited) populations,
    each from its own ``expit`` so neither rounds to 0 when the other nears 1.
    """
    two_m, logw = sector_log_weights(p)
    m = 0.5 * two_m
    n = p.n_bath
    b_minus = -0.5 * p.epsilon + p.bath_energy * (m + 0.5)
    b_plus = 0.5 * p.epsilon + p.bath_energy * (m - 0.5)
    inner = (0.5 * n + m + 0.5) * (0.5 * n - m + 0.5)
    x = p.beta * (p.epsilon - p.bath_energy)
    return {
        "two_m": two_m,
        "m": m,
        "dim": np.where(np.abs(two_m) == n + 1, 1, 2),
        "b_minus": b_minus,
        "b_plus": b_plus,
        "u": p.coupling * np.sqrt(np.clip(inner, 0.0, None)),
        "edge_energy": np.where(two_m > 0, b_plus, b_minus),
        "edge_state": np.where(two_m > 0, 1, 0),  # level surviving in an edge sector
        "logw": logw,
        "p_level": (float(expit(x)), float(expit(-x))),
    }


def _sector_population_terms(params: SingleStarParams):
    """Per-sector decomposition c_ee(t) = const + amp*cos(omega*t).

    Returns arrays (labels, const, amp, omega) for the qubit's excited
    population, with omega = 2*theta and theta = hypot(u, (b_minus -
    b_plus)/2); edge sectors carry amp = 0 and const = 1 for the upper
    edge, 0 for the lower.  This is the exact eigenstructure of the 2x2
    blocks, shared by the time-series and heat-current evaluations.
    """
    table = sector_arrays(params)
    u = table["u"]
    theta = np.hypot(u, 0.5 * (table["b_minus"] - table["b_plus"]))
    interior = table["dim"] == 2
    sin2_mix = np.divide(u * u, theta * theta, out=np.zeros_like(theta), where=theta > 0)
    p_g, p_e = table["p_level"]
    amp = np.where(interior, -0.5 * (p_g - p_e) * sin2_mix, 0.0)
    const = np.where(interior, p_e - amp, (table["two_m"] > 0).astype(float))
    omega = np.where(interior, 2.0 * theta, 0.0)
    return table["two_m"], const, amp, omega


def excited_population_series(params: SingleStarParams, times) -> np.ndarray:
    """Weighted excited population p(t) = 1 - r(t) of the central qubit."""
    times = np.asarray(times, dtype=float)
    _, w = sector_weights(params)
    _, const, amp, omega = _sector_population_terms(params)
    return (w * const).sum() + np.cos(np.outer(times, omega)) @ (w * amp)


def ground_population(params: SingleStarParams, t: float) -> float:
    """Weighted ground population r(t) of the central qubit."""
    return float(1.0 - excited_population_series(params, [t])[0])


def heat_current_series(params: SingleStarParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact (qubit, bath) heat currents along ``times``.

    d<rho>/dt = -i[H, rho] per sector gives dr/dt analytically; the qubit
    current is -epsilon*dr/dt and the bath current +E*dr/dt (each exchanged
    quantum moves one bath rung).
    """
    times = np.asarray(times, dtype=float)
    _, w = sector_weights(params)
    _, _, amp, omega = _sector_population_terms(params)
    r_dot = np.sin(np.outer(times, omega)) @ (w * amp * omega)
    return -params.epsilon * r_dot, params.bath_energy * r_dot


def reduced_spin_state(params: SingleStarParams, t: float) -> np.ndarray:
    """2x2 reduced density matrix of the qubit (diagonal by superselection)."""
    r = ground_population(params, t)
    return np.diag([r, 1.0 - r])


def reduced_bath_populations(params: SingleStarParams, t: float) -> np.ndarray:
    """Bath level populations over m_B = -N/2..N/2 (ascending).

    The qubit ground level pairs with bath level m + 1/2 and the excited
    level with m - 1/2, so sector populations scatter onto doubled bath
    labels two_m +- 1 (index (two_m_B + N) / 2).
    """
    labels, w = sector_weights(params)
    pops = np.zeros(params.n_bath + 1)
    for two_m, weight in zip(labels, w):
        state = evolve_sector(params, int(two_m), t)
        idx_ground = (int(two_m) + 1 + params.n_bath) // 2
        if 0 <= idx_ground <= params.n_bath:
            pops[idx_ground] += weight * state.c_gg
        idx_excited = (int(two_m) - 1 + params.n_bath) // 2
        if 0 <= idx_excited <= params.n_bath:
            pops[idx_excited] += weight * state.c_ee
    return pops


def local_temperature(r: float, epsilon: float) -> float:
    """Temperature read off a diagonal qubit state: epsilon / ln(r/(1-r)).

    r = 1/2 maps to +inf (infinite temperature); r below 1/2 yields a
    negative temperature and emits PopulationInversionWarning; r outside
    (0, 1) is a domain error.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"ground population {r} outside the open interval (0, 1)")
    if r == 0.5:
        return math.inf
    temperature = epsilon / math.log(r / (1.0 - r))
    if r < 0.5:
        warnings.warn(
            f"population inversion (r={r}): negative temperature",
            PopulationInversionWarning,
            stacklevel=2,
        )
    return temperature


def temperature_from_excited(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Vectorized temperature epsilon / ln((1 - p)/p) from the excited population.

    Every reported temperature is read here rather than from r = 1 - p,
    which rounds to 1 at low temperature while p keeps its relative
    precision.  p = 0 maps to 0 (the T -> 0+ limit) and p = 1/2 to +inf.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p >= 1.0):
        raise ValueError("excited population outside the interval [0, 1)")
    with np.errstate(divide="ignore"):
        return np.where(p == 0.5, np.inf, epsilon / np.log((1.0 - p) / p))
