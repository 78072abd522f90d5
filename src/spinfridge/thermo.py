"""Heat currents through the qubits and baths, plus energy-flow diagnostics.

Currents are computed exactly from drho/dt = -i[H, rho] per sector (units
with hbar*K = 1), traced against the local qubit or bath Hamiltonian and
weight-reduced; no finite differencing enters.  The same machinery exposes
the coupling-energy and interaction-energy flows so the total d<H>/dt can
be assembled and checked against zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RefrigeratorEngine, energy_keys
from .series import TimeGrid


@dataclass(frozen=True)
class HeatCurrentSeries:
    """Heat currents sampled along a time grid."""

    time: np.ndarray
    qdot_s: np.ndarray  # (pairs, n)
    qdot_b: np.ndarray  # (pairs, n)


def heat_current_series(engine: RefrigeratorEngine, grid: TimeGrid) -> HeatCurrentSeries:
    """Heat currents on ``grid``, all of them from one pass of the sine series."""
    times = grid.points()
    pairs = engine.params.pairs
    heat_keys = energy_keys(pairs)[:2 * pairs]  # ("hs", i) then ("hb", i)
    values = engine.series_terms(heat_keys, "sin").on_grid(grid.start, grid.step, len(times))
    return HeatCurrentSeries(times, values[:pairs], values[pairs:])


def energy_balance(engine: RefrigeratorEngine, t: float) -> float:
    """Total d<H>/dt assembled from every energy-flow channel.

    The channels are each pair's local qubit, local bath and coupling terms,
    and for three pairs the collective interaction; unitary evolution
    conserves <H>, so the sum is a pure numerical residual.  Each channel is
    its own one-row series: one series of all rows would hold a dense copy
    of every gap per row.
    """
    return float(sum(
        engine.series_terms((key,), "sin").at([t])[0, 0]
        for key in energy_keys(engine.params.pairs)
    ))
