"""Trigonometric series const + sum_j a_j trig(omega_j t), and the time grid.

Every population of the exact engine, for one star or three, is such a
cosine series over spectral gaps, and every energy current is read from
its derivative (``SeriesTerms.derivative``).  ``SeriesTerms`` holds one or several
over shared gaps, one row each, and evaluates them with the blocked grid
kernel ``trig_series_uniform`` on a ``TimeGrid`` (with their derivative
from the same pass when asked), directly with
``trig_series_at`` at arbitrary times, or as local Taylor polynomials with
``trig_series_taylor``.  ``TimeGrid`` is the one uniform grid a run reads
every result on, from its configuration down to the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bytes of scratch one term chunk of the blocked grid kernel may use.
_CHUNK_BYTES = 1 << 20
# Doubling levels per direct cos/sin in the grid kernel; the levels between
# are squared (``_squared_phases``).
_ANCHOR_EVERY = 4
# Rows of a grid pass above which its blocks are twice as long.  For 18.6k
# terms on 2001 points the longer block lost at 2 rows (11.5 vs 12.2 ms),
# tied at 3 and 4, and won from 5 (20.7 vs 17.4 ms; 23.1 vs 19.5 at 6).
_LONG_BLOCK_ROWS = 4


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid start, start + step, ... through stop (to half a step)."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("time_grid.step: must be positive")
        if not self.stop > self.start:
            raise ValueError("time_grid.stop: must exceed time_grid.start")

    def points(self) -> np.ndarray:
        """The points start + k step, as the grid kernel evaluates them."""
        return self.start + self.step * np.arange(len(self))

    def __len__(self) -> int:
        """The length of numpy's ``arange(start, stop + step/2, step)``."""
        return math.ceil((self.stop + 0.5 * self.step - self.start) / self.step)


def _series_rows(const, amps):
    """(k,) constants and (k, m) amplitudes; one (m,) series is one row."""
    amps = np.atleast_2d(np.asarray(amps, dtype=float))
    return np.broadcast_to(np.asarray(const, dtype=float).ravel(), (amps.shape[0],)), amps


def _cis(x: np.ndarray) -> np.ndarray:
    """e^{ix} from a direct cos and sin."""
    out = np.empty(x.shape, dtype=complex)
    out.real = np.cos(x)
    out.imag = np.sin(x)
    return out


def _doubled(first: np.ndarray, factors: np.ndarray, count: int) -> np.ndarray:
    """Rows j < count of first * prod(factors[p] for each set bit p of j).

    With factors[p] = e^{iw 2^p s} this is the phase table
    e^{iw s j} * first, built by doubling: rows [2^p, 2^(p+1)) are rows
    [0, 2^p) times factors[p].  Every entry is a product of at most
    log2(count) + 1 given phases, so its rounding error grows with
    log(count), not with count.
    """
    table = np.empty((count,) + first.shape, dtype=complex)
    table[0] = first
    filled = 1
    for factor in factors[:(count - 1).bit_length()]:
        width = min(filled, count - filled)
        np.multiply(table[:width], factor, out=table[filled:filled + width])
        filled += width
    return table


def _squared_phases(steps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows e^{iw steps[p]} for steps[p] = 2^p dt, squared between anchors.

    Every ``_ANCHOR_EVERY``-th row is a direct cos/sin; each row in between
    is the square of the row before it, since (e^{iw 2^p dt})^2 =
    e^{iw 2^(p+1) dt}.  Squaring at most doubles the relative error of a
    row and adds an ulp, so rows stay within about 2^_ANCHOR_EVERY ulps of
    direct values, at a quarter of the transcendentals.
    """
    rows = np.empty((len(steps), w.size), dtype=complex)
    rows[::_ANCHOR_EVERY] = _cis(np.multiply.outer(steps[::_ANCHOR_EVERY], w))
    for p in range(len(steps)):
        if p % _ANCHOR_EVERY:
            np.square(rows[p - 1], out=rows[p])
    return rows


def _weighted(amps: np.ndarray, phases: np.ndarray, out: np.ndarray) -> None:
    """out[r, b] = amps[r] times phases[b], over interleaved (real, imag) pairs."""
    np.multiply(np.repeat(amps, 2, axis=1)[:, None, :], phases.view(float)[None, :, :], out=out)


def _grid_pass(cos_amps, sin_amps, omegas, t0: float, dt: float, n: int) -> np.ndarray:
    """sum_j a_j cos(w_j t) for each row of ``cos_amps``, then sum_j a_j sin(w_j t)
    for each row of ``sin_amps``, at t = t0 + k dt for k < n.

    The blocked kernel of ``trig_series_uniform``; both row groups share
    its phase tables and its matrix product.  A sine row is a cosine row
    whose block phase is turned a quarter period back,
    a sin(x + y) = Re[(-i a e^{ix}) e^{iy}], so its left block is
    (a sin, -a cos) against the same in-block phases (cos, -sin).
    """
    n_cos = cos_amps.shape[0]
    rows = n_cos + sin_amps.shape[0]
    if omegas.size == 0 or n == 0:
        return np.zeros((rows, n))
    block = (2 if rows > _LONG_BLOCK_ROWS else 1) << math.isqrt(n - 1).bit_length()
    n_blocks = -(-n // block)
    inner_levels = block.bit_length() - 1
    steps = dt * 2.0 ** np.arange(inner_levels + (n_blocks - 1).bit_length())
    tables = n_blocks * (2 if n_cos < rows else 1)
    per_term = 16 * (len(steps) + tables + block + rows * (n_blocks + 1))
    chunk = max(1, _CHUNK_BYTES // per_term)
    acc = np.zeros((rows * n_blocks, block))
    for start in range(0, omegas.size, chunk):
        sl = slice(start, start + chunk)
        w = omegas[sl]
        doubling = _squared_phases(steps, w)
        outer = _doubled(_cis(w * t0), doubling[inner_levels:], n_blocks)
        inner = _doubled(np.ones(w.size, dtype=complex), doubling, block)
        np.conjugate(inner, out=inner)
        left = np.empty((rows, n_blocks, 2 * w.size))
        if n_cos:
            _weighted(cos_amps[:, sl], outer, left[:n_cos])
        if n_cos < rows:
            _weighted(sin_amps[:, sl], outer * -1j, left[n_cos:])
        acc += left.reshape(rows * n_blocks, -1) @ inner.view(float).T
    return acc.reshape(rows, n_blocks * block)[:, :n]


def trig_series_uniform(const, amps, omegas, t0: float, dt: float, n: int,
                        kind: str = "cos") -> np.ndarray:
    """Evaluate const + sum_j amps[.,j]*trig(omegas[j]*t) on a uniform grid.

    The grid t = t0 + (b*B + q)*dt is cut into blocks of B points, B the
    power of two at or above sqrt(n), doubled for more than
    ``_LONG_BLOCK_ROWS`` rows (the weighted block phases grow with the rows,
    the shared tables do not; 22 -> 19 ms for six rows of 18.6k terms on
    2001 points).  Since
    e^{iwt} = e^{iw(t0 + bB dt)} e^{iwq dt}, one chunk of terms costs one
    real matrix product over interleaved (cos, sin) pairs: the
    amplitude-weighted block phases, (a cos, a sin) for cosines and
    (a sin, -a cos) for sines (rows: series x block), against the in-block
    phases (cos, -sin).  Both phase tables are doubled (``_doubled``) from
    the phases e^{iw 2^p dt}, of which only every ``_ANCHOR_EVERY``-th is a
    direct cos/sin and the others are squares (``_squared_phases``): 8
    instead of 24 transcendentals per term for n = 2001.  Chunks are sized
    so the scratch stays near ``_CHUNK_BYTES``.  Each doubling phase is
    within about 2^_ANCHOR_EVERY ulps and each table entry is a product of
    at most log2(n) + 1 of them, so the absolute error is a few tens of
    ulps times sum|amps| (measured: below 1e-14 sum|amps|, and 5e-14
    sum|amps| for w up to 500 on 2001 points, against direct evaluation of
    hundreds of terms).  The phase w t itself rounds relative to w|t|, in
    the kernel as in direct evaluation, so one term alone differs from its
    direct value by up to 3e-14 |a| at w|t| <= 64 and 1e-13 |a| at 500.
    (k, m) amplitudes evaluate k series over shared frequencies, of shape
    (k, n).  ``SeriesTerms.on_grid`` also reads a series' derivative in the
    same pass.
    """
    const_vec, amps = _series_rows(const, amps)
    omegas = np.asarray(omegas, dtype=float)
    none = amps[:0]
    values = _grid_pass(*((amps, none) if kind == "cos" else (none, amps)), omegas, t0, dt, n)
    return const_vec[:, None] + values


def trig_series_at(const, amps, omegas, times, kind: str = "cos") -> np.ndarray:
    """Direct evaluation of the trigonometric sum at arbitrary times.

    Like ``trig_series_uniform``, (k, m) amplitudes give a (k, len(times))
    result.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    const_vec, amps = _series_rows(const, amps)
    omegas = np.asarray(omegas, dtype=float)
    fun = np.cos if kind == "cos" else np.sin
    out = np.empty(times.shape + (amps.shape[0],))
    out[:] = const_vec
    if omegas.size:
        chunk = max(1, int(4e6) // max(len(times), 1))
        for start in range(0, len(omegas), chunk):
            sl = slice(start, start + chunk)
            out += fun(np.outer(times, omegas[sl])) @ amps[:, sl].T
    return out.T


def _taylor_degree(reach: float) -> int:
    """Smallest P with reach^(P+1)/(P+1)! <= 2^-53.

    With reach = omega_max * r, this bounds the remainder of a degree-P
    Taylor expansion of a trig series within r of its centre by an ulp
    times sum|a|.
    """
    degree, remainder = 0, reach
    while remainder > 2.0 ** -53:
        degree += 1
        remainder *= reach / (degree + 1)
    return degree


def trig_series_taylor(const, amps, omegas, centres, radius: float,
                       kind: str = "cos") -> np.ndarray:
    """Taylor coefficients of const + sum_j amps[.,j]*trig(omegas[j]*t) about each centre.

    Row c holds the expansion about centres[c]: the series at
    centres[c] + x is sum_k coef[c, k] x^k for |x| <= ``radius``.  The
    k-th derivative of trig(w t) is w^k trig(w t + k pi/2), so
    coef[c, k] is the real (cos) or imaginary (sin) part of
    i^k sum_j a_j w_j^k e^{i w_j centres[c]} / k!: one cos and one sin per
    term and centre, the powers of w by repeated products.  The degree is
    ``_taylor_degree(max(omegas) * radius)``, so the remainder stays within
    an ulp times sum|a|, and rounding adds a few ulps times
    sum|a| e^{max(omegas) radius}.  Terms are chunked as in the grid
    kernel.  (k, m) amplitudes give shape (k, len(centres), P + 1).
    """
    centres = np.atleast_1d(np.asarray(centres, dtype=float))
    const_vec, amps = _series_rows(const, amps)
    omegas = np.asarray(omegas, dtype=float)
    degree = _taylor_degree(float(omegas.max()) * radius if omegas.size else 0.0)
    moments = np.zeros((amps.shape[0], degree + 1, centres.size), dtype=complex)
    per_term = 8 * (3 * centres.size + amps.shape[0] * (degree + 1))
    chunk = max(1, _CHUNK_BYTES // per_term)
    for start in range(0, omegas.size, chunk):
        w = omegas[start:start + chunk]
        weighted = np.empty((amps.shape[0], degree + 1, w.size))
        weighted[:, 0] = amps[:, start:start + chunk]
        for k in range(degree):
            np.multiply(weighted[:, k], w, out=weighted[:, k + 1])
        phase = np.multiply.outer(w, centres)
        moments.real += weighted @ np.cos(phase)
        moments.imag += weighted @ np.sin(phase)
    order = np.arange(degree + 1)
    factorials = np.array([math.factorial(k) for k in order], dtype=float)
    moments *= (np.array([1, 1j, -1, -1j])[order % 4] / factorials)[:, None]
    coef = (moments.real if kind == "cos" else moments.imag).transpose(0, 2, 1).copy()
    coef[:, :, 0] += const_vec[:, None]
    return coef


@dataclass(frozen=True)
class SeriesTerms:
    """Aggregated trigonometric representation of k observables over shared gaps.

    ``const`` has shape (k,) and ``amps`` (k, m), one row per observable,
    and every evaluation returns one row per observable.
    """

    const: np.ndarray
    amps: np.ndarray
    omegas: np.ndarray
    kind: str

    def at(self, times) -> np.ndarray:
        return trig_series_at(self.const, self.amps, self.omegas, times, self.kind)

    def on_grid(self, t0: float, dt: float, n: int, derivative: bool = False):
        """Values on the grid (``trig_series_uniform``); with ``derivative``,
        (values, rates), the rates those of ``derivative()``, as the cosine
        and sine rows of one kernel pass (``_grid_pass``)."""
        if not derivative:
            return trig_series_uniform(self.const, self.amps, self.omegas, t0, dt, n,
                                       self.kind)
        const, amps = _series_rows(self.const, self.amps)
        rates = np.atleast_2d(self.derivative().amps)
        both = _grid_pass(amps, rates, self.omegas, t0, dt, n)
        return const[:, None] + both[:len(const)], both[len(const):]

    def taylor(self, centres, radius: float) -> np.ndarray:
        return trig_series_taylor(self.const, self.amps, self.omegas, centres, radius,
                                  self.kind)

    def derivative(self) -> SeriesTerms:
        """The time derivative of a cosine series: amplitudes -a w on sines."""
        if self.kind != "cos":
            raise ValueError("derivative: only of a cosine series")
        return SeriesTerms(np.zeros_like(self.const), -self.amps * self.omegas, self.omegas,
                           "sin")
