"""One qubit exchange-coupled to a finite spin-star bath: its sector table,
and the temperature read-out of every qubit.

The total z spin of the qubit and its bath is conserved, so the joint
Hilbert space (bath restricted to the fully symmetric ladder of N spin-1/2s)
splits into sectors of dimension at most two, labelled by the half-integer
m.  Half-integers are stored doubled (``two_m``) so sector arithmetic stays
exact.  Within a sector the Hamiltonian is the real symmetric block

    [[b_minus, A u], [A u, b_plus]]

in the basis {qubit down & bath level m+1/2, qubit up & bath level m-1/2},
with A the XY coupling and u the sector's ladder factor,
and the full state is a Boltzmann-weighted sum of independently evolving
sector states.  The dynamics of one star or three live in ``engine``, which
builds its sectors from ``sector_arrays``.
"""

from __future__ import annotations

import math

import numpy as np


def sector_log_weights(epsilon: float, bath_energy: float, n_bath: int,
                       beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Log of the unnormalized weight of each sector of one pair, ascending two_m order.

    The weight is the Boltzmann factor exp(-beta*E*m) times the trace of the
    unnormalized in-sector thermal block, so summing exp() over sectors
    reproduces Z_qubit * Z_bath.  Kept in log space: for large beta*E*N the
    raw factors overflow double precision.
    """
    n = n_bath
    labels = np.arange(-(n + 1), n + 2, 2)  # two_m of every sector
    m = 0.5 * labels
    half_gap = 0.5 * beta * (epsilon - bath_energy)
    log_trace = np.logaddexp(half_gap, -half_gap)  # interior sectors hold both levels
    logw = -beta * bath_energy * m + log_trace
    logw[labels == -(n + 1)] = -beta * bath_energy * m[0] + half_gap
    logw[labels == n + 1] = -beta * bath_energy * m[-1] - half_gap
    return labels, logw


def sector_arrays(epsilon: float, bath_energy: float, n_bath: int, beta: float) -> dict:
    """Sector blocks and weights of one pair, ascending two_m.

    Interior sectors (``dim`` 2) hold the block [[b_minus, A u], [A u, b_plus]]
    for XY coupling A, where ``u`` is the bare ladder factor; an edge sector
    (``dim`` 1) holds the single level ``b_minus`` (the bottom row, qubit
    down) or ``b_plus`` (the top row, qubit up).
    ``p_level`` holds the in-sector thermal (ground, excited) populations,
    each from its own ``expit`` so neither rounds to 0 when the other nears 1.
    ``p_row`` holds every row's initial (ground, excited) populations:
    ``p_level`` in interior rows, the qubit's one level in an edge row.
    """
    two_m, logw = sector_log_weights(epsilon, bath_energy, n_bath, beta)
    m = 0.5 * two_m
    n = n_bath
    b_minus = -0.5 * epsilon + bath_energy * (m + 0.5)
    b_plus = 0.5 * epsilon + bath_energy * (m - 0.5)
    inner = (0.5 * n + m + 0.5) * (0.5 * n - m + 0.5)
    x = beta * (epsilon - bath_energy)
    p_level = (expit(x), expit(-x))
    p_row = np.tile(p_level, (len(two_m), 1))
    p_row[0], p_row[-1] = (1.0, 0.0), (0.0, 1.0)  # edge rows: qubit down, qubit up
    return {
        "two_m": two_m,
        "dim": np.where(np.abs(two_m) == n + 1, 1, 2),
        "b_minus": b_minus,
        "b_plus": b_plus,
        "u": np.sqrt(np.clip(inner, 0.0, None)),
        "logw": logw,
        "p_level": p_level,
        "p_row": p_row,
    }


def expit(x: float) -> float:
    """The logistic function 1 / (1 + e^-x) of a float, 0.0 where e^-x overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def temperature_from_excited(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Vectorized temperature epsilon / ln((1 - p)/p) from the excited population.

    Every reported temperature is read here rather than from r = 1 - p,
    which rounds to 1 at low temperature while p keeps its relative
    precision.  p = 0 maps to 0 (the T -> 0+ limit) and p = 1/2 to +inf.
    A p below 0 is an error: the true p then lies below the rounding of
    the series it was read from.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        raise ValueError(f"excited population reads {p.min():.3g}, "
                         "below the rounding of its series")
    if np.any(p >= 1.0):
        raise ValueError("excited population outside the interval [0, 1)")
    with np.errstate(divide="ignore"):
        return np.where(p == 0.5, np.inf, epsilon / np.log((1.0 - p) / p))
