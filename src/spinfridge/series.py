"""Cosine series const + sum_j a_j cos(omega_j t), and the time grid.

Every population of the exact engine, for one star or three, is such a
cosine series over spectral gaps, and every energy current is read from
its rates, -sum_j a_j omega_j sin(omega_j t).  ``SeriesTerms`` holds one or
several over shared gaps, one row each, and is their one evaluator: on a
``TimeGrid`` by the blocked grid kernel ``_grid_pass`` (a pass with many
gaps sorts them into frequency bins and expands each bin about its
centre), directly at arbitrary times, or as local Taylor polynomials.  The
grid and the direct forms return the rates with the values when asked.
``TimeGrid`` is the one uniform grid a run reads every result on, from its
configuration down to the kernel.
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
# The largest |w - W| |x| of the binned grid kernel, for a gap w in the bin
# of centre W and a point at offset x from its block's midpoint; its Taylor
# degree is ``_taylor_degree(_BIN_REACH)`` = 14.
_BIN_REACH = 0.5
# Weight of the binned kernel's flop count against the direct kernel's: its
# elementwise products and small matrix products run slower per flop.  At
# a weighted ratio below 1 the binned pass was the faster in every measured
# shape (1 and 6 rows, 100-10k gaps, 127-8001 points, w_max dt 0.05-1, one
# BLAS thread and two).
_BIN_FLOP_WEIGHT = 3


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


def _binned_block(rows: int, m: int, n: int, dt: float, span: float) -> int:
    """Block length of the binned form of a grid pass, or 0 where the direct one is cheaper.

    From the pass's shape alone: ``rows`` series over m gaps spanning
    ``span``, on n points dt apart.  The binned form takes blocks of L =
    2B points (B the direct form's block); each block costs a row
    m (P + 1) multiply-adds for the moments and bins (P + 1) L for the
    table, with bins = span (L - 1) dt / (4 ``_BIN_REACH``) + 1 when the
    gaps fill their range, against m per point of the direct form.  The
    binned count, times ``_BIN_FLOP_WEIGHT``, must be the smaller.
    """
    block = 2 << math.isqrt(n - 1).bit_length()
    bins = span * 0.25 * (block - 1) * dt / _BIN_REACH + 1
    binned = rows * (_taylor_degree(_BIN_REACH) + 1) * -(-n // block) * (m + bins * block)
    return block if _BIN_FLOP_WEIGHT * binned < rows * m * n else 0


def _binned_pass(cos_amps, sin_amps, omegas, t0: float, dt: float, n: int,
                 block: int) -> np.ndarray:
    """``_grid_pass`` with the gaps sorted into bins, each expanded about its centre.

    Block b of ``block`` points has the midpoint T_b; its points lie at
    offsets |x| <= h = (block - 1) dt / 2 from it.  A gap w in the bin of
    centre W and half-width r = ``_BIN_REACH`` / h has
    e^{iw(T_b + x)} = e^{iw T_b} e^{iWx} sum_p (i u r x)^p / p!, with
    u = (w - W) / r in [-1, 1] and |u r x| <= ``_BIN_REACH``, so the
    degree P = ``_taylor_degree(_BIN_REACH)`` leaves a remainder below an
    ulp of sum|a|.  Each bin's moments sum_j a_j u_j^p e^{iw_j T_b}, over
    the block phases doubled as in the direct form, are one small real
    matrix product; the moments of the bins a chunk completes meet the
    table e^{iWx} (i r x)^p / p! of those bins in one more.  Gaps go in
    chunks, sorted by bin and gathered by that order; a bin cut by a
    chunk's end carries its moments into the next chunk, so the scratch
    stays near ``_CHUNK_BYTES`` per chunk of gaps and per group of bins.
    A sine row takes its moments turned a quarter period back, as in the
    direct form.
    """
    n_cos = cos_amps.shape[0]
    rows = n_cos + sin_amps.shape[0]
    n_blocks = -(-n // block)
    terms = _taylor_degree(_BIN_REACH) + 1
    half = 0.5 * (block - 1) * dt
    radius = _BIN_REACH / half
    offsets = (np.arange(block) - 0.5 * (block - 1)) * dt
    powers = np.empty((terms, block), dtype=complex)  # (i r x)^p / p!
    powers[0] = 1.0
    for p in range(1, terms):
        np.multiply(powers[p - 1], 1j * radius * offsets / p, out=powers[p])
    low = omegas.min()
    cell = np.floor((omegas - low) / (2.0 * radius))
    cell = cell.astype(np.min_scalar_type(int(cell.max())))  # small integers sort by radix
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    firsts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))  # bin starts
    centres = low + (cell[firsts] + 0.5) * (2.0 * radius)
    sorted_w = omegas[order]
    u = (sorted_w - np.repeat(centres, np.diff(firsts, append=omegas.size))) / radius
    steps = block * dt * 2.0 ** np.arange((n_blocks - 1).bit_length())
    per_term = 16 * (len(steps) + 2 * n_blocks) + 8 * (rows + 2) * terms
    per_bin = 32 * terms * (rows * n_blocks + block)
    chunk = min(omegas.size, max(1, _CHUNK_BYTES // per_term))
    most_bins = max(1, _CHUNK_BYTES // per_bin)
    # scratch reused by every chunk, its first ``size`` columns in use
    upow = np.empty((terms, chunk))
    weights = np.empty((rows, terms, chunk))  # a_j u_j^p
    phases = np.empty((2, n_blocks, chunk))  # (real, imag) of e^{iw_j T_b}
    acc = np.zeros((rows * n_blocks, block))
    carry = None
    start = 0
    while start < omegas.size:
        first_bin = int(np.searchsorted(firsts, start, "right")) - 1
        stop = min(start + chunk, *firsts[first_bin + most_bins:first_bin + most_bins + 1],
                   omegas.size)
        end_bin = int(np.searchsorted(firsts, stop))  # bins [first_bin, end_bin) meet the chunk
        cuts = np.concatenate(([start], firsts[first_bin + 1:end_bin], [stop])) - start
        size = stop - start
        w = sorted_w[start:stop]
        upow[0, :size] = 1.0
        for p in range(1, terms):
            np.multiply(upow[p - 1, :size], u[start:stop], out=upow[p, :size])
        idx = order[start:stop]
        for group, amps in ((slice(0, n_cos), cos_amps), (slice(n_cos, rows), sin_amps)):
            np.multiply(np.take(amps, idx, axis=1)[:, None, :], upow[:, :size],
                        out=weights[group, :, :size])
        outer = _doubled(_cis(w * (t0 + half)), _squared_phases(steps, w), n_blocks)
        phases[0, :, :size] = outer.real
        phases[1, :, :size] = outer.imag
        left_cols = weights.reshape(rows * terms, chunk)
        right_rows = phases.reshape(2 * n_blocks, chunk)
        # the moments sum_j a_j u_j^p e^{iw_j T_b} of each bin met: for each row
        # and p, the real parts over the blocks, then the imaginary parts
        moments = np.empty((len(cuts) - 1, rows * terms, 2 * n_blocks))
        for c in range(len(cuts) - 1):
            piece = slice(cuts[c], cuts[c + 1])
            np.matmul(left_cols[:, piece], right_rows[:, piece].T, out=moments[c])
        if carry is not None:
            moments[0] += carry
        done = len(moments)
        carry = None
        if stop < omegas.size and stop not in firsts[end_bin:end_bin + 1]:
            done -= 1
            carry = moments[done]
        if done:
            mom = moments[:done].reshape(done, rows, terms, 2, n_blocks).transpose(1, 4, 0, 2, 3)
            left = np.empty(mom.shape)  # (rows, blocks, bins, terms, real/imag)
            left[:n_cos] = mom[:n_cos]
            left[n_cos:, ..., 0] = mom[n_cos:, ..., 1]
            np.negative(mom[n_cos:, ..., 0], out=left[n_cos:, ..., 1])
            table = (_cis(np.multiply.outer(centres[first_bin:first_bin + done], offsets))
                     [:, None, :] * powers)
            right = np.empty((done, terms, 2, block))
            right[:, :, 0] = table.real
            np.negative(table.imag, out=right[:, :, 1])
            acc += left.reshape(rows * n_blocks, -1) @ right.reshape(-1, block)
        start = stop
    return acc.reshape(rows, n_blocks * block)[:, :n]


def _grid_pass(cos_amps, sin_amps, omegas, t0: float, dt: float, n: int) -> np.ndarray:
    """sum_j a_j cos(w_j t) for each row of ``cos_amps``, then sum_j a_j sin(w_j t)
    for each row of ``sin_amps``, at t = t0 + k dt for k < n.

    The blocked kernel of ``SeriesTerms.on_grid``, whose sine rows are the
    rates of its cosine rows; both row groups share the phase tables and
    the matrix products.  The grid t = t0 + (b*B + q)*dt is cut into
    blocks of B points, B the power of two at or above sqrt(n).  In the
    direct form, since e^{iwt} = e^{iw(t0 + bB dt)} e^{iwq dt}, one chunk
    of terms costs one real matrix product over interleaved (cos, sin)
    pairs: the amplitude-weighted block phases (rows: series x block)
    against the in-block phases (cos, -sin).  A cosine row's left block is
    (a cos, a sin); a sine row is a cosine row whose block phase is turned
    a quarter period back, a sin(x + y) = Re[(-i a e^{ix}) e^{iy}], so its
    left block is (a sin, -a cos).  Both phase tables are doubled
    (``_doubled``) from the phases e^{iw 2^p dt}, of which only every
    ``_ANCHOR_EVERY``-th is a direct cos/sin and the others are squares
    (``_squared_phases``): 8 instead of 24 transcendentals per term for
    n = 2001.  Chunks are sized so the scratch stays near ``_CHUNK_BYTES``.
    Each doubling phase is within about 2^_ANCHOR_EVERY ulps and each table
    entry is a product of at most log2(n) + 1 of them, so the absolute
    error is a few tens of ulps times sum|a| (measured: below 1e-14 sum|a|,
    and 5e-14 sum|a| for w up to 500 on 2001 points, against direct
    evaluation of hundreds of terms).  The phase w t itself rounds relative
    to w|t|, in the kernel as in direct evaluation, so one term alone
    differs from its direct value by up to 3e-14 |a| at w|t| <= 64 and
    1e-13 |a| at 500.

    A pass whose direct cost k m n dominates takes the binned form instead
    (``_binned_pass``): blocks of 2B points, each expanded about its
    midpoint, the gaps sorted into bins whose half-width times the half
    block is ``_BIN_REACH``, and each gap expanded about its bin's centre
    to the Taylor degree P whose remainder ``_BIN_REACH``^(P+1)/(P+1)! is
    below 2^-53 (P = 14).  A row and block then cost
    m (P + 1) + bins (P + 1) 2B instead of 2B m.  ``_binned_block`` picks
    the form from the flop counts of the pass's shape (rows, m, n, the
    gaps' span times dt), with no option: six rows of 8.6k gaps on 2001
    points (``evolve`` at N = 30) bin, and run in 6.7-10.6 instead of
    17-26 ms (one BLAS thread, 2 vCPUs); one row of 256 gaps on 2001
    points (a search's head) stays direct.  Its error is the direct
    form's: at most 1.5e-14 sum|a| against direct evaluation for those
    six rows, where the direct form reaches 1.6e-14.
    """
    n_cos = cos_amps.shape[0]
    rows = n_cos + sin_amps.shape[0]
    if omegas.size == 0 or n == 0:
        return np.zeros((rows, n))
    binned = _binned_block(rows, omegas.size, n, dt, float(omegas.max() - omegas.min()))
    if binned:
        return _binned_pass(cos_amps, sin_amps, omegas, t0, dt, n, binned)
    block = 1 << math.isqrt(n - 1).bit_length()
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


@dataclass(frozen=True)
class SeriesTerms:
    """const[r] + sum_j amps[r, j] cos(omegas[j] t): k observables over shared gaps.

    ``const`` has shape (k,) and ``amps`` (k, m), one row per observable,
    and every evaluation returns one row per observable.  The rates of row
    r are its time derivative, -sum_j amps[r, j] omegas[j] sin(omegas[j] t).
    """

    const: np.ndarray
    amps: np.ndarray
    omegas: np.ndarray

    def on_grid(self, t0: float, dt: float, n: int, derivative: bool = False):
        """Values at t = t0 + k dt for k < n, shape (k, n), by the grid kernel
        (``_grid_pass``); with ``derivative``, (values, rates), as the cosine
        and sine rows of one kernel pass."""
        rows = len(self.const)
        rates = -self.amps * self.omegas if derivative else self.amps[:0]
        both = _grid_pass(self.amps, rates, self.omegas, t0, dt, n)
        values = self.const[:, None] + both[:rows]
        return (values, both[rows:]) if derivative else values

    def at(self, times, derivative: bool = False):
        """Values at arbitrary ``times`` by direct summation, shape
        (k, len(times)); with ``derivative``, (values, rates).  Terms are
        chunked so that a chunk's phases and their cosines stay near
        ``_CHUNK_BYTES``."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.empty(times.shape + self.const.shape)
        values[:] = self.const
        if derivative:
            slopes = -self.amps * self.omegas
            rates = np.zeros(values.shape)
        chunk = max(1, _CHUNK_BYTES // (16 * max(len(times), 1)))
        for start in range(0, self.omegas.size, chunk):
            sl = slice(start, start + chunk)
            phase = np.outer(times, self.omegas[sl])
            values += np.cos(phase) @ self.amps[:, sl].T
            if derivative:
                rates += np.sin(phase) @ slopes[:, sl].T
        return (values.T, rates.T) if derivative else values.T

    def taylor(self, centres, radius: float) -> np.ndarray:
        """Taylor coefficients about each centre, shape (k, len(centres), P + 1).

        Row c holds the expansion about centres[c]: the series at
        centres[c] + x is sum_p coef[c, p] x^p for |x| <= ``radius``.  The
        p-th derivative of cos(w t) is w^p cos(w t + p pi/2), so coef[c, p]
        is the real part of i^p sum_j a_j w_j^p e^{i w_j centres[c]} / p!:
        one cos and one sin per term and centre, the powers of w by repeated
        products.  The degree is ``_taylor_degree(max(omegas) * radius)``,
        so the remainder stays within an ulp times sum|a|, and rounding adds
        a few ulps times sum|a| e^{max(omegas) radius}.  Terms are chunked as
        in the grid kernel.
        """
        centres = np.atleast_1d(np.asarray(centres, dtype=float))
        rows, omegas = len(self.const), self.omegas
        degree = _taylor_degree(float(omegas.max()) * radius if omegas.size else 0.0)
        moments = np.zeros((rows, degree + 1, centres.size), dtype=complex)
        per_term = 8 * (3 * centres.size + rows * (degree + 1))
        chunk = max(1, _CHUNK_BYTES // per_term)
        for start in range(0, omegas.size, chunk):
            w = omegas[start:start + chunk]
            weighted = np.empty((rows, degree + 1, w.size))
            weighted[:, 0] = self.amps[:, start:start + chunk]
            for p in range(degree):
                np.multiply(weighted[:, p], w, out=weighted[:, p + 1])
            phase = np.multiply.outer(w, centres)
            moments.real += weighted @ np.cos(phase)
            moments.imag += weighted @ np.sin(phase)
        order = np.arange(degree + 1)
        factorials = np.array([math.factorial(p) for p in order], dtype=float)
        moments *= (np.array([1, 1j, -1, -1j])[order % 4] / factorials)[:, None]
        coef = moments.real.transpose(0, 2, 1).copy()
        coef[:, :, 0] += self.const[:, None]
        return coef
