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
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .series import SeriesTerms


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


def sector_log_weights(params: SingleStarParams) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized weight of each sector, ascending two_m order.

    The weight is the Boltzmann factor exp(-beta*E*m) times the trace of the
    unnormalized in-sector thermal block, so summing exp() over sectors
    reproduces Z_qubit * Z_bath.  Kept in log space: for large beta*E*N the
    raw factors overflow double precision.
    """
    beta, eps, bath_e, n = params.beta, params.epsilon, params.bath_energy, params.n_bath
    labels = np.arange(-(n + 1), n + 2, 2)  # two_m of every sector
    m = 0.5 * labels
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


def sector_arrays(p: SingleStarParams) -> dict:
    """Sector blocks and weights of one pair, ascending two_m.

    Interior sectors (``dim`` 2) hold the block [[b_minus, u], [u, b_plus]];
    an edge sector (``dim`` 1) holds the single level ``edge_energy``.
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
    """Sector weights w and the decomposition c_ee(t) = const + amp*cos(omega*t).

    Returns arrays (w, const, amp, omega), ascending two_m, for the qubit's
    excited population, with omega = 2*theta and theta = hypot(u, (b_minus -
    b_plus)/2); edge sectors carry amp = 0 and const = 1 for the upper
    edge, 0 for the lower.  This is the exact eigenstructure of the 2x2
    blocks, shared by the populations and heat currents.
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
    _, w = sector_weights(params)
    return w, const, amp, omega


def excited_population_series(params: SingleStarParams, times) -> np.ndarray:
    """Weighted excited population p(t) = 1 - r(t) of the central qubit."""
    w, const, amp, omega = _sector_population_terms(params)
    return SeriesTerms((w * const).sum(), w * amp, omega, "cos").evaluate(times)


def heat_current_series(params: SingleStarParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact (qubit, bath) heat currents along ``times``.

    d<rho>/dt = -i[H, rho] per sector gives dr/dt analytically; the qubit
    current is -epsilon*dr/dt and the bath current +E*dr/dt (each exchanged
    quantum moves one bath rung).
    """
    w, _, amp, omega = _sector_population_terms(params)
    r_dot = SeriesTerms(0.0, w * amp * omega, omega, "sin").evaluate(times)
    return -params.epsilon * r_dot, params.bath_energy * r_dot


def reduced_spin_state(params: SingleStarParams, t: float) -> np.ndarray:
    """2x2 reduced density matrix of the qubit (diagonal by superselection)."""
    p = excited_population_series(params, [t])[0]
    return np.diag([1.0 - p, p])


def reduced_bath_populations(params: SingleStarParams, t: float) -> np.ndarray:
    """Bath level populations over m_B = -N/2..N/2 (ascending).

    The qubit ground level pairs with bath level m + 1/2 and the excited
    level with m - 1/2, so sector j (two_m = 2j - N - 1) puts its weighted
    c_gg on bath index j and its c_ee on index j - 1.  The edge sectors'
    out-of-range shares are exactly zero.
    """
    w, const, amp, omega = _sector_population_terms(params)
    c_ee = w * (const + amp * np.cos(omega * t))
    c_gg = w - c_ee
    return c_gg[:-1] + c_ee[1:]


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
