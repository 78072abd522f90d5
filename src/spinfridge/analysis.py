"""Cooling optimization, first-minimum timing, bath-size scaling and extrapolation.

The coupling search is a seeded quasi-random multistart with Nelder-Mead
simplex refinement; time is not a search dimension.  For each coupling set
the best time of qubit 1's excited population (whose minimum is the
cold-qubit temperature's) is found over the time grid and polished by
golden-section search, which removes the most oscillatory direction from
the simplex.  A spectral series is screened on its head, the terms that
carry all but a bounded tail of its amplitude: the head is sampled on
every grid point, the full series is read directly only at the points
within twice the tail's bound of the head's minimum, and its grid minimum
is polished on a local Taylor expansion (``_best_time_on_series``); a
sampled trajectory is searched on every grid point
(``_best_time_on_grid``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product as iter_product

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it on first use: at import, not in a run)

from .config import DEFAULT_BUDGET, DEFAULT_RANGES
from .engine import DEFAULT_PRUNE_TOL, RefrigeratorEngine, RefrigeratorParams
from .series import DEFAULT_TIME_GRID, SeriesTerms, TimeGrid
from .spinstar import temperature_from_excited

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Most iterations of ``golden_section_min``; it returns its best point then,
# tolerance met or not.
_GOLDEN_MAX_ITER = 200

WORKERS_ENV = "SPINFRIDGE_WORKERS"


def worker_count() -> int:
    """Worker processes for parallel sweeps, from SPINFRIDGE_WORKERS or else
    the cores this process may run on (all cores where that is unknown)."""
    raw = os.environ.get(WORKERS_ENV, "")
    if raw.strip():
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Scalar minimization helpers
# ---------------------------------------------------------------------------

def golden_section_min(f, a: float, b: float, tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [a, b]."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def first_local_min(values) -> int | None:
    """Grid index of the first local minimum of a sampled series, or None if
    the series is monotone.

    The first interior grid point k with values[k] < values[k-1] whose run
    of equal values k..j is followed by a rise, values[j+1] > values[k], or
    reaches the end of the series; unpolished.  A run followed by a further
    drop is a shoulder, not a minimum.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 3:
        raise ValueError("need at least three samples to locate a local minimum")
    for k in range(1, n - 1):
        if values[k] < values[k - 1]:
            j = k
            while j + 1 < n and values[j + 1] == values[k]:
                j += 1
            if j == n - 1 or values[j + 1] > values[k]:
                return k
    return None


def _best_time_on_grid(values, value_at, times, refine_tol: float = 1e-5
                       ) -> tuple[float, float]:
    """(time, value) of the minimum of a series sampled at ``times``.

    The sampled minimum, the first one on ties, is polished as in ``_polish``.
    """
    k = int(np.argmin(values))
    return _polish(values[k], value_at, times, k, refine_tol)


def _polish(value, value_at, times, k: int, tol: float) -> tuple[float, float]:
    """(time, value) of sample k, whose sampled value is ``value``, polished.

    Golden-section search of ``value_at`` on (times[k-1], times[k+1]); the
    polish never loses to the sample, and an end point of ``times`` keeps
    the sampled value.
    """
    t_best, v_best = float(times[k]), float(value)
    if 0 < k < len(times) - 1:
        t_gold, v_gold = golden_section_min(
            value_at, float(times[k - 1]), float(times[k + 1]), tol=tol
        )
        if v_gold <= v_best:
            t_best, v_best = t_gold, float(v_gold)
    return t_best, v_best


# Largest omega_max * dt of the Taylor expansion the series polish runs on:
# its degree is then at most 18 (``series._taylor_degree``) and its rounding
# stays within a few ulps times e * sum|a|.
_TAYLOR_REACH = 1.0
# Rounding slack of a grid value in the series time search, in units of
# sum|a|: the error bound the tests hold the grid kernel to.
_SCAN_SLACK = 1e-12
# The series time search screens grid points on a head of the series whose
# dropped tail sums to less than _HEAD_TOL sum|a| and so moves no value by
# more than that (``_series_head``).  The head's candidate count starts at
# _HEAD_START terms and doubles.
_HEAD_TOL = 1e-3
_HEAD_START = 256


def _series_head(terms, magnitude: np.ndarray, total: float):
    """(head, tau): the terms of largest ``magnitude``, in their order in the
    series, and the summed magnitude tau of the rest, below ``_HEAD_TOL``
    ``total``.

    ``np.argpartition`` picks the largest ``_HEAD_START`` magnitudes, then
    twice as many, until what the candidates leave out sums below the cut;
    a candidate count reaching the series' size keeps every term (tau 0).
    Ties at the partition's edge resolve the same way on every call.
    """
    count = _HEAD_START
    while count < magnitude.size:
        keep = np.sort(np.argpartition(magnitude, magnitude.size - count)[-count:])
        tail = total - float(magnitude[keep].sum())
        if tail < _HEAD_TOL * total:
            return SeriesTerms(terms.const, terms.amps[:, keep], terms.omegas[keep]), tail
        count *= 2
    return terms, 0.0


def _series_value(terms, t: float) -> float:
    """A one-row series at time t, by direct evaluation."""
    return float(terms.at([t])[0, 0])


def _polynomial(coef, centre: float):
    """t -> sum_k coef[k] (t - centre)^k, by Horner's rule."""
    reversed_coef = coef[::-1].tolist()

    def value(t: float) -> float:
        x, out = t - centre, 0.0
        for c in reversed_coef:
            out = out * x + c
        return out

    return value


def _polish_series_point(terms, grid: TimeGrid, k: int, value, tol: float
                         ) -> tuple[float, float]:
    """(time, value) of grid point k of a one-row series, whose grid value is
    ``value``, polished as in ``_polish``.

    An interior point is polished by golden-section search on the Taylor
    expansion about it, of radius dt, or on direct values where w_max dt
    exceeds ``_TAYLOR_REACH``; an end point is not polished.  The value
    returned is one direct evaluation at the time returned.
    """
    times = grid.points()
    t_best = float(times[k])
    if 0 < k < len(times) - 1:
        reach = (float(terms.omegas.max()) if terms.omegas.size else 0.0) * grid.step
        if reach <= _TAYLOR_REACH:
            value_at = _polynomial(terms.taylor([t_best], grid.step)[0, 0], t_best)
        else:
            value_at = partial(_series_value, terms)
        t_best, _ = _polish(value, value_at, times, k, tol)
    return t_best, _series_value(terms, t_best)


def _best_time_on_series(terms, grid: TimeGrid, refine_tol: float = 1e-5
                         ) -> tuple[float, float]:
    """(time, value) of the minimum of a one-row series over ``grid``.

    Finds the point ``_best_time_on_grid`` finds on the sampled series with
    a pointwise polish, sampling only a head of the series
    (``_series_head``), a few hundred of its thousands of terms, on every
    grid point.  The tail the head drops moves no value by more than tau,
    its summed amplitudes (0 when the head is the series), and the grid
    kernel rounds by less than ``_SCAN_SLACK`` sum|a|; so a point whose
    head value exceeds the head's grid minimum by more than
    2 (tau + ``_SCAN_SLACK`` sum|a|) cannot hold the series' grid minimum.
    The series is read directly at the other points (when tau is 0 the
    head's values are the series'), and its grid minimum, the first one on
    ties, is polished by ``_polish_series_point``.  The bound holds for the
    series itself, so the result does not depend on the head; only the work
    does.
    """
    times = grid.points()
    magnitude = np.abs(terms.amps).sum(axis=0)
    total = float(magnitude.sum())
    head, tail = _series_head(terms, magnitude, total)  # tail tau bounds |series - head|
    values = head.on_grid(grid.start, grid.step, len(times))[0]
    near = np.flatnonzero(values - values.min() <= 2.0 * (tail + _SCAN_SLACK * total))
    exact = terms.at(times[near])[0] if tail > 0.0 else values[near]
    j = int(np.argmin(exact))
    return _polish_series_point(terms, grid, int(near[j]), exact[j], refine_tol)


# ---------------------------------------------------------------------------
# Bound-constrained derivative-free minimization
# ---------------------------------------------------------------------------

# Joe and Kuo's primitive polynomials and initial direction numbers
# (SIAM J. Sci. Comput. 30, 2635 (2008), file new-joe-kuo-6.21201) of the
# first Sobol' dimensions; the first dimension is van der Corput's.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
                (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19))
_SOBOL_BITS = 30


@cache
def _sobol_directions(d: int) -> np.ndarray:
    """Direction numbers of the first d dimensions, (d, 30) uint32, column j
    holding bit 29 - j and below (Bratley and Fox's recurrence)."""
    if not 1 <= d <= len(_SOBOL_POLY):
        raise ValueError(f"Sobol' dimension must be in 1..{len(_SOBOL_POLY)}, got {d}")
    bits = _SOBOL_BITS
    table = [[1] * bits]
    for poly, vinit in zip(_SOBOL_POLY[1:d], _SOBOL_VINIT[1:d]):
        degree = len(vinit)
        v = list(vinit)
        for j in range(degree, bits):
            new = v[j - degree]
            for k in range(degree):
                if (poly >> (degree - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        table.append(v)
    return np.array(table, dtype=np.uint32) << np.arange(bits - 1, -1, -1, dtype=np.uint32)


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each 32-bit unsigned integer."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint32(shift))
    return x & np.uint32(1)


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of d-dimensional scrambled Sobol', (n, d) in [0, 1).

    Bit-identical to ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)
    .random(n)``: direction numbers under a linear matrix scramble and a
    digital shift, both drawn from ``np.random.default_rng(seed)``, and the
    points in Gray-code order, the shift first.
    """
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = np.dot(rng.integers(0, 2, size=(d, bits), dtype=np.uint32),
                   2 ** np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(0, 2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    weights = np.uint32(1) << np.arange(bits - 1, -1, -1, dtype=np.uint32)
    rows = (ltm * weights).sum(axis=2, dtype=np.uint32)  # row p of each matrix, bit 29 first
    # bit 29 - p of scrambled direction j is the parity of row p AND direction j
    mixed = _parity(rows[:, None, :] & _sobol_directions(d)[:, :, None])
    directions = (mixed * weights).sum(axis=2, dtype=np.uint32)  # (d, bits)
    k = np.arange(n, dtype=np.uint32)
    gray = (k ^ (k >> np.uint32(1)))[:, None] >> np.arange(bits, dtype=np.uint32) & np.uint32(1)
    quasi = np.bitwise_xor.reduce(
        np.where(gray[:, None, :] == 1, directions, np.uint32(0)), axis=2
    ) ^ shift
    return quasi * (1.0 / 2 ** bits)


class _MaxFevReached(Exception):
    pass


def _nelder_mead(func, sim: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 maxfev: int, xatol: float, fatol: float) -> None:
    """Nelder-Mead from the initial simplex ``sim``, every vertex clipped to [lo, hi].

    A port of SciPy's bounded ``_minimize_neldermead`` (non-adaptive, no
    iteration cap), step for step: vertices above ``hi`` are first reflected
    off it, at most ``maxfev`` calls are made, and the vertices are ordered
    by ``np.argsort`` after every step.  ``func`` reports the best point
    itself, so nothing is returned.
    """
    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = [0]

    def f(x):
        if calls[0] >= maxfev:
            raise _MaxFevReached
        calls[0] += 1
        return func(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFevReached:
        pass
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while calls[0] < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = f(sim[j])
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)


@dataclass
class _Budget:
    limit: int
    used: int = 0
    best_value: float = math.inf
    best_x: np.ndarray | None = None

    def spent(self) -> bool:
        return self.used >= self.limit


def minimize_box(func, bounds, budget: int, seed: int):
    """Seeded multistart minimization over a box.

    Scrambled Sobol' points (``_sobol``) probe the box, the best probes seed
    bounded Nelder-Mead refinements (``_nelder_mead``), and every function
    evaluation counts against ``budget``.  Both are in-house ports that
    reproduce SciPy's ``qmc.Sobol`` and ``minimize(method="Nelder-Mead")``
    call for call, so results do not depend on an installed SciPy.  The
    probes number at most budget - 1 (one for a one-call budget), and each
    refinement's ``maxfev`` is at most the budget left, so no call exceeds
    the budget.  Returns (x_best, f_best, evaluations, restarts).
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"invalid range ({lo}, {hi})")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    ndim = len(bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo

    tracker = _Budget(limit=budget)

    def wrapped(x):
        x = np.clip(x, lo, hi)
        value = float(func(x))
        tracker.used += 1
        if value < tracker.best_value:
            tracker.best_value = value
            tracker.best_x = x.copy()
        return value

    if np.all(span == 0.0):  # fully degenerate box: a single point
        wrapped(lo)
        return lo, tracker.best_value, tracker.used, 0

    n_starts = max(2, min(10, budget // 150))
    n_probe = min(max(2 * n_starts, budget // 8), max(budget - 1, 1))
    probes = lo + _sobol(ndim, n_probe, seed) * span
    # deterministic structural probes: box corners and center guard against
    # optima pinned to the bounds, which simplex refinement reaches slowly
    if n_probe >= 2 ** ndim + 1:
        corners = lo + span * np.array(
            list(iter_product((0.0, 1.0), repeat=ndim))
        )
        probes[: len(corners)] = corners
        probes[len(corners)] = lo + 0.5 * span
    probe_values = [wrapped(x) for x in probes]
    ranked = list(np.argsort(probe_values, kind="stable"))

    restarts = 0
    per_start = max((budget - tracker.used) // n_starts, 20)
    polished = False
    while not tracker.spent() and not polished:
        budget_left = budget - tracker.used
        if ranked and (budget_left >= per_start or restarts < n_starts):
            # refine the next best probe
            x0, scale = probes[ranked.pop(0)], 0.08
            options = {"maxfev": min(per_start, budget_left), "xatol": 1e-7, "fatol": 1e-12}
            restarts += 1
        elif tracker.best_x is not None:
            # no probe left, or not enough budget for a fresh start: spend
            # whatever remains tightening the incumbent
            x0, scale = tracker.best_x, 0.01
            options = {"maxfev": budget_left, "xatol": 1e-9, "fatol": 1e-13}
            polished = True
        else:
            break
        _nelder_mead(wrapped, _initial_simplex(x0, lo, hi, scale), lo, hi, **options)
    return tracker.best_x, tracker.best_value, tracker.used, restarts


def _initial_simplex(x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     scale: float = 0.08) -> np.ndarray:
    """Simplex spanning ``scale`` of each range, reflected away from the walls."""
    ndim = len(x0)
    simplex = np.tile(x0, (ndim + 1, 1))
    for k in range(ndim):
        step = scale * (hi[k] - lo[k])
        if step == 0.0:
            continue
        if x0[k] + step > hi[k]:
            step = -step
        simplex[k + 1, k] = np.clip(x0[k] + step, lo[k], hi[k])
    return simplex


# ---------------------------------------------------------------------------
# Cold-qubit temperature optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizationResult:
    """Best point of the search box, the best time, and search diagnostics.

    The point is (A1, A2, A3, g) for the spin-star refrigerator and
    (alpha1, alpha2, alpha3, g) for the Markov baseline.
    """

    best_params: np.ndarray
    best_time: float
    best_t1: float
    best_ground_population: float
    evaluations: int
    restarts: int


_INFEASIBLE = (math.inf, math.nan, math.nan)


def minimize_t1(best, bounds, budget: int, seed: int) -> OptimizationResult:
    """Minimize the qubit-1 temperature over the points x of a box and over time.

    ``best(x)`` returns, for point x, the time and value of the least
    excited population p1 of qubit 1 and qubit 1's gap, or None when x is
    infeasible, which scores +inf.  Minimizing p1 minimizes T1, as the map
    p -> T is strictly increasing, and T1 is read from p1 at the best
    time; the points are searched by ``minimize_box``.  Points are
    memoized by their coordinates rounded to 14 decimals, so the winner is
    not evaluated again.  When no evaluated point is feasible, ``best_t1``
    is +inf and the other values NaN.  Deterministic for a fixed seed.
    """
    memo: dict[tuple, tuple] = {}

    def score(x) -> tuple:
        x = np.asarray(x, dtype=float)
        key = tuple(np.round(x, 14))
        if key not in memo:
            found = best(x)
            if found is None:
                memo[key] = _INFEASIBLE
            else:
                t_best, p_best, epsilon = found
                memo[key] = (float(temperature_from_excited(p_best, epsilon)), t_best, p_best)
        return memo[key]

    x_best, _, evals, restarts = minimize_box(
        lambda x: score(x)[0], bounds, budget, seed
    )
    if x_best is None:  # no evaluated point was feasible
        x_best = np.full(len(bounds), math.nan)
        t1_value, t_best, p_best = _INFEASIBLE
    else:
        t1_value, t_best, p_best = score(x_best)
    return OptimizationResult(
        best_params=np.asarray(x_best, dtype=float),
        best_time=t_best,
        best_t1=t1_value,
        best_ground_population=1.0 - p_best,
        evaluations=evals,
        restarts=restarts,
    )


def _qubit1_series(base: RefrigeratorParams, x, prune_tol: float):
    """Qubit 1's excited-population series of ``base`` at the point
    x = (A1, A2, A3, g) of the search box, every term kept.

    The engine is dropped on return: a search needs only the series.
    """
    params = replace(base, coupling=(float(x[0]), float(x[1]), float(x[2])), g=float(x[3]))
    return RefrigeratorEngine(params, prune_tol).excited_terms((1,))


def optimize_t1(base: RefrigeratorParams, prune_tol: float, ranges=DEFAULT_RANGES,
                budget: int = DEFAULT_BUDGET, seed: int = 0,
                time_grid: TimeGrid = DEFAULT_TIME_GRID) -> OptimizationResult:
    """Minimize the cold-qubit temperature over couplings and time.

    Each point x = (A1, A2, A3, g) builds an engine on ``base`` at those
    couplings, whose exact qubit-1 excited-population series
    (``_qubit1_series``) is searched over time by ``_best_time_on_series``;
    the couplings are searched by seeded multistart Nelder-Mead
    (``minimize_t1``).  Deterministic for a fixed seed.
    """

    def best(x):
        terms = _qubit1_series(base, x, prune_tol)
        return _best_time_on_series(terms, time_grid) + (base.epsilon[0],)

    return minimize_t1(best, ranges, budget, seed)


# ---------------------------------------------------------------------------
# Bath-size scaling sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    """Optimization outcome for one bath size."""

    n: int
    best_params: np.ndarray
    best_time: float
    best_t1: float
    local_min_time: float
    local_min_t1: float
    evaluations: int


def _sweep_point(args) -> ScalingRow:
    (base, n, ranges, budget, seed, prune_tol, grid) = args
    params = replace(base, n_bath=(n, n, n))
    result = optimize_t1(params, prune_tol, ranges, budget, seed, grid)
    terms = _qubit1_series(params, result.best_params, prune_tol)
    eps = params.epsilon[0]
    times = grid.points()
    p1 = terms.on_grid(grid.start, grid.step, len(times))[0]
    k = first_local_min(temperature_from_excited(p1, eps))
    if k is None:  # no interior dip: fall back to the global best
        t_local, t1_local = result.best_time, result.best_t1
    else:  # polish p1, whose minima are T1's: T is strictly increasing in p
        t_local, p_local = _polish_series_point(terms, grid, k, p1[k], 1e-6)
        t1_local = float(temperature_from_excited(p_local, eps))
    return ScalingRow(
        n=n,
        best_params=result.best_params,
        best_time=result.best_time,
        best_t1=result.best_t1,
        local_min_time=t_local,
        local_min_t1=t1_local,
        evaluations=result.evaluations,
    )


def scaling_sweep(base: RefrigeratorParams, n_list, per_n_budget: int = DEFAULT_BUDGET,
                  seed: int = 0, prune_tol: float = DEFAULT_PRUNE_TOL,
                  time_grid: TimeGrid = DEFAULT_TIME_GRID,
                  ranges=DEFAULT_RANGES) -> list[ScalingRow]:
    """Optimize the cold-qubit temperature for each bath size N1=N2=N3=N.

    Every N searches the same box ``ranges`` of (A1, A2, A3, g).  Per-N
    optimizations run in ``worker_count()`` processes, at most one per N,
    largest N first, so the longest job does not start last; they are
    merged in n_list order, so the rows do not depend on scheduling.  Each
    N gets the deterministic seed ``seed + 7919 * index``.
    """
    jobs = [
        (base, int(n), ranges, per_n_budget, seed + 7919 * k, prune_tol, time_grid)
        for k, n in enumerate(n_list)
    ]
    # a pool starts all its workers at the first submit: no more than jobs
    workers = min(worker_count(), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            order = sorted(range(len(jobs)), key=lambda k: -jobs[k][1])
            rows = dict(zip(order, pool.map(_sweep_point, [jobs[k] for k in order])))
            return [rows[k] for k in range(len(jobs))]
    return [_sweep_point(job) for job in jobs]


# ---------------------------------------------------------------------------
# Power-law fit
# ---------------------------------------------------------------------------

PLATEAU_MIN_N = 35
# Newton steps the fit may take (the benchmark's sweeps need 3 to 5), and
# the relative size of the last one.
_FIT_MAX_STEPS = 100
_FIT_LAST_STEP = 1e-9


@dataclass(frozen=True)
class FitResult:
    """Power-law fit value = t_inf + a * N**(-b) with t_inf held fixed."""

    t_inf: float
    a: float
    b: float
    sigma: float
    n_points: int


def fit_power_law(ns, values, t_inf="plateau") -> FitResult:
    """Fit value(N) = t_inf + a*N^-b.

    ``t_inf`` is either an explicit float or "plateau", which averages all
    points with N >= 35 (the asymptotically flat region).  With t_inf
    fixed, b starts from linear least squares on ln(value - t_inf) versus
    ln N, and (a, b) are then the least-squares fit of the original model
    to machine precision (``_fit_exponent``); sigma**2 = sum of squared
    residuals / (d - p) with p = 2.

    An explicit t_inf at or above any data value is an error (the log-space
    seed has no non-positive residuals to take).  Under the plateau policy
    the averaged points straddle their own mean by construction, so the
    seed fit uses only the strictly positive residuals (at least two are
    required); the nonlinear fit always uses every point.  A fit that does
    not converge is a ValueError too.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) != len(values) or len(ns) < 4:
        raise ValueError("need at least four (N, value) points")
    if isinstance(t_inf, str):
        if t_inf != "plateau":
            raise ValueError(f"unknown t_inf policy {t_inf!r}")
        plateau = values[ns >= PLATEAU_MIN_N]
        if plateau.size == 0:
            raise ValueError(
                f"no points with N >= {PLATEAU_MIN_N}; pass an explicit t_inf"
            )
        t_inf_value = float(plateau.mean())
        positive = values - t_inf_value > 0.0
        if np.count_nonzero(positive) < 2:
            raise ValueError("fewer than two points above the plateau average")
    else:
        t_inf_value = float(t_inf)
        if np.any(values <= t_inf_value):
            raise ValueError(
                "every value must exceed the explicit t_inf "
                "(log of non-positive residual)"
            )
        positive = np.ones(len(ns), dtype=bool)
    residual = values - t_inf_value
    slope, _ = np.polyfit(np.log(ns[positive]), np.log(residual[positive]), 1)
    a, b = _fit_exponent(ns, residual, -float(slope))
    dof = len(ns) - 2
    sigma = math.sqrt(float(np.sum((t_inf_value + a * ns ** -b - values) ** 2)) / dof)
    return FitResult(t_inf_value, a, b, sigma, len(ns))


def _fit_exponent(ns, y, b: float) -> tuple[float, float]:
    """Least-squares (a, b) of y = a N^-b, by variable projection from ``b``.

    For fixed b the best a is (y.phi)/(phi.phi) with phi = N^-b, leaving the
    residual sum f(b) of one variable (Golub and Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)).  Newton steps on f, halved until f does not rise,
    run until a step moves b by at most ``_FIT_LAST_STEP`` relative: Newton
    converges quadratically, so b is then within rounding of the minimum,
    below which the steps only follow the rounding of f'.  Raises ValueError
    when that takes more than ``_FIT_MAX_STEPS`` steps, when N^-b underflows
    or overflows at every N (phi.phi zero or not finite), or when the
    Jacobian [N^-b, -a ln N N^-b] at the result is numerically
    rank-deficient, as when one N carries all of phi: a and b are then not
    both determined by the data.
    """
    logs = np.log(ns)

    def profile(b):
        with np.errstate(over="ignore"):
            phi = ns ** -b
        norm = float(phi @ phi)
        if not 0.0 < norm < math.inf:  # N^-b underflows or overflows everywhere
            raise ValueError(f"power-law fit diverged (b = {b!r})")
        a = float(y @ phi / norm)
        r = y - a * phi
        return a, phi, r, float(r @ r)

    a, phi, r, f = profile(b)
    for _ in range(_FIT_MAX_STEPS):
        lphi = logs * phi
        # f' = 2a r.(L phi), and f'' from a' = (2a phi.(L phi) - y.(L phi)) / phi.phi
        a_prime = (2.0 * a * float(lphi @ phi) - float(y @ lphi)) / float(phi @ phi)
        grad = 2.0 * a * float(r @ lphi)
        curv = (2.0 * a_prime * float(r @ lphi) - 2.0 * a * a_prime * float(lphi @ phi)
                + 2.0 * a * a * float(lphi @ lphi) - 2.0 * a * float(r @ (logs * lphi)))
        if grad == 0.0:
            break
        step = -grad / curv if curv > 0.0 else -math.copysign(0.5 * max(abs(b), 1.0), grad)
        if curv > 0.0 and abs(step) <= _FIT_LAST_STEP * max(abs(b), 1.0):
            b += step
            a, phi = profile(b)[:2]
            break
        trial = profile(b + step)
        while trial[3] > f and abs(step) > _FIT_LAST_STEP * max(abs(b), 1.0):
            step *= 0.5
            trial = profile(b + step)
        b += step
        a, phi, r, f = trial
    else:
        raise ValueError(f"power-law fit did not converge (b = {b!r})")
    # columns d/da and d/db of a N^-b: parallel when one N carries all of phi
    jac = np.stack([phi, -a * logs * phi], axis=1)
    scale = np.linalg.norm(jac, axis=0)
    if not np.all(scale > 0.0) or np.linalg.matrix_rank(jac / scale) < 2:
        raise ValueError(f"power-law fit is degenerate: a and b are not both "
                         f"determined at b = {b!r}, a = {a!r}")
    return a, b


# ---------------------------------------------------------------------------
# Neville extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NevilleTableau:
    """Full recursive interpolation tableau and its parent-difference chain.

    ``tableau[m][i]`` is the degree-m polynomial through points i..i+m
    evaluated at the target; ``d_diffs[m][i]`` is tableau[m][i] -
    tableau[m-1][i+1], the difference from the lower parent.  The apex
    tableau[n-1][0] is the extrapolated value.
    """

    tableau: list[np.ndarray]
    d_diffs: list[np.ndarray]
    extrapolated: float
    stability_warning: str | None


def neville_extrapolate(xs, ys, target: float = 0.0) -> NevilleTableau:
    """Neville's recursive polynomial extrapolation to ``target``.

    Points are used in the order given (the difference chain along the
    lower diagonal then tracks the points closest to the target when they
    are ordered with the closest last).  Duplicate x values are an error;
    a violated stability margin (extrapolation distance not smaller than
    half the minimum gap between points) attaches a warning to the result
    instead of failing.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    n = len(xs)
    if len(set(xs.tolist())) != n:
        raise ValueError("duplicate x values")
    tableau = [ys.astype(float).copy()]
    d_diffs: list[np.ndarray] = []
    for m in range(1, n):
        prev = tableau[m - 1]
        level = np.empty(n - m)
        for i in range(n - m):
            level[i] = (
                (target - xs[i + m]) * prev[i] + (xs[i] - target) * prev[i + 1]
            ) / (xs[i] - xs[i + m])
        tableau.append(level)
        d_diffs.append(level - prev[1:])
    distance = float(np.min(np.abs(xs - target)))
    gaps = np.abs(np.subtract.outer(xs, xs))[np.triu_indices(n, k=1)]
    warning = None
    if distance >= 0.5 * float(np.min(gaps)):
        warning = (
            f"extrapolation distance {distance:.4g} is not smaller than half "
            f"the minimum point gap {float(np.min(gaps)):.4g}; the result may "
            "be unstable"
        )
    return NevilleTableau(
        tableau=tableau, d_diffs=d_diffs,
        extrapolated=float(tableau[-1][0]), stability_warning=warning,
    )


def neville_lower_diagonal_diffs(tab: NevilleTableau) -> np.ndarray:
    """The parent-difference chain ending at the apex: D[m][last] for each level."""
    return np.array([level[-1] for level in tab.d_diffs])
