"""Heat currents through the qubits and baths, plus energy-flow diagnostics.

Every sector conserves each pair's S^z_i + J^z_i (Breuer, Burgarth and
Petruccione, PRB 70, 045323 (2004)), so an excitation that leaves qubit i
lands one rung up its bath: Qdot_S,i = eps_i dp_i/dt and
Qdot_B,i = -E_i dp_i/dt exactly (units with hbar*K = 1), where p_i is the
qubit's excited population.  Both come from the derivative of the
engine's excited-population rows (``RefrigeratorEngine.excited_terms``),
read in the same grid pass as p_i itself; no finite differencing enters.
The coupling and interaction rows' derivatives complete d<H>/dt, which is
assembled and checked against zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RefrigeratorEngine, energy_keys
from .series import TimeGrid


@dataclass(frozen=True)
class HeatCurrentSeries:
    """Heat currents sampled along a time grid, with the excited populations
    p_i they flow from."""

    time: np.ndarray
    excited: np.ndarray  # (pairs, n)
    qdot_s: np.ndarray  # (pairs, n)
    qdot_b: np.ndarray  # (pairs, n)


def heat_current_series(engine: RefrigeratorEngine, grid: TimeGrid) -> HeatCurrentSeries:
    """Excited populations and heat currents on ``grid``, all from one grid
    pass of the excited rows and their derivative."""
    params = engine.params
    excited, rates = engine.excited_terms(range(1, params.pairs + 1)).on_grid(
        grid.start, grid.step, len(grid), derivative=True)
    return HeatCurrentSeries(grid.points(), excited,
                             np.array(params.epsilon)[:, None] * rates,
                             -np.array(params.bath_energy)[:, None] * rates)


def energy_balance(engine: RefrigeratorEngine, t: float) -> float:
    """Total d<H>/dt assembled from every energy-flow channel.

    The channels are each pair's qubit and bath levels, whose flows are
    (eps_i - E_i) dp_i/dt, each pair's coupling and, for three pairs, the
    collective interaction; unitary evolution conserves <H>, so the sum is
    a pure numerical residual.  Each coupling channel is its own one-row
    series: one series of all rows would hold a dense copy of every gap
    per row.
    """
    params = engine.params
    rates = engine.excited_terms(range(1, params.pairs + 1)).at([t], derivative=True)[1]
    levels = np.subtract(params.epsilon, params.bath_energy) @ rates
    return float(levels[0] + sum(
        engine.series_terms((key,)).at([t], derivative=True)[1][0, 0]
        for key in energy_keys(params.pairs)
    ))
