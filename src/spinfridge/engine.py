"""Sector-resolved dynamics of the three-qubit spin-star refrigerator.

The conserved per-pair total z spins split the joint Hilbert space into
(m1, m2, m3) sectors of dimension at most 8 = 2*2*2.  Basis convention
inside a sector: qubit i contributes bit b_i (0 = qubit in its lower level
paired with bath level m_i + 1/2, 1 = upper level with bath level
m_i - 1/2) and the basis index is b1*4 + b2*2 + b3 when all three pairs are
two-dimensional; one-dimensional edge pairs contribute no bit but keep the
same nesting order (qubit 1 most significant).  The collective interaction
couples indices 2 = (0,1,0) and 5 = (1,0,1) and exists only in full
eight-dimensional sectors.

Every sector is diagonalized once per parameter set; populations and
currents are then exact trigonometric sums over spectral gaps, so a dense
time grid costs a few matrix products instead of repeated evolutions.
Weighted reductions run in a fixed lexicographic sector order, which keeps
repeated runs bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .linalg import Spectrum
from .spinstar import SingleStarParams, sector_arrays, temperature_from_excited

DEFAULT_PRUNE_TOL = 1e-12
_INTERACTION_BITS = ((0, 1, 0), (1, 0, 1))


@dataclass(frozen=True)
class RefrigeratorParams:
    """All Hamiltonian and thermal parameters of the three-pair refrigerator."""

    epsilon: tuple[float, float, float]
    bath_energy: tuple[float, float, float]
    coupling: tuple[float, float, float]
    g: float
    n_bath: tuple[int, int, int]
    beta: tuple[float, float, float]

    def __post_init__(self):
        for name in ("epsilon", "bath_energy", "coupling", "n_bath", "beta"):
            value = tuple(getattr(self, name))
            if len(value) != 3:
                raise ValueError(f"{name} must have three entries, got {value}")
            object.__setattr__(self, name, value)
        if self.g < 0 or not math.isfinite(self.g):
            raise ValueError(f"g must be finite and nonnegative, got {self.g}")
        for i in (1, 2, 3):
            self.pair(i)  # delegates per-pair validation

    def pair(self, i: int) -> SingleStarParams:
        """Parameters of qubit-bath pair i (1-based)."""
        k = i - 1
        return SingleStarParams(
            epsilon=self.epsilon[k],
            bath_energy=self.bath_energy[k],
            coupling=self.coupling[k],
            n_bath=self.n_bath[k],
            beta=self.beta[k],
        )

    def is_autonomous(self, tol: float = 1e-12) -> bool:
        """Whether the two interaction-coupled states are degenerate."""
        gaps = [self.bath_energy[k] - self.epsilon[k] for k in range(3)]
        return abs(gaps[1] - (gaps[0] + gaps[2])) <= tol


@dataclass(frozen=True)
class TripleSectorLabel:
    """One (m1, m2, m3) sector: doubled labels, local dimensions, weight.

    ``weight`` is the sector's fraction of the total Boltzmann weight
    (thermal trace factors included).  Fractions rather than raw Boltzmann
    factors are stored because the raw products overflow double precision
    once beta*E*N grows past a few hundred.
    """

    two_m: tuple[int, int, int]
    dims: tuple[int, int, int]
    weight: float

    @property
    def dimension(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]


@dataclass(frozen=True)
class SectorSet:
    labels: list[TripleSectorLabel]
    retained_fraction: float
    total_labels: int


@dataclass(frozen=True)
class TripleSectorSystem:
    """One assembled sector: Hamiltonian block, spectrum and initial state."""

    label: TripleSectorLabel
    hamiltonian: np.ndarray
    spectrum: Spectrum
    initial_state: np.ndarray


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory of one qubit's ground population and temperature."""

    qubit: int
    time: np.ndarray
    ground_population: np.ndarray
    temperature: np.ndarray


# ---------------------------------------------------------------------------
# Sector enumeration
# ---------------------------------------------------------------------------

def _enumerate_arrays(params: RefrigeratorParams, prune_tol: float):
    """Kept sector index triples, their weight fractions and the dropped weight.

    Sector weights are products of per-pair Boltzmann weights (thermal trace
    factors included), normalized to the full sum.  Sectors are dropped
    greedily from the smallest weight up while the dropped cumulative
    fraction stays strictly below ``prune_tol``; the kept set is returned in
    lexicographic (two_m1, two_m2, two_m3) order.
    """
    if not 0.0 <= prune_tol < 1.0:
        raise ValueError(f"prune_tol must lie in [0, 1), got {prune_tol}")
    pairs = [sector_arrays(params.pair(i)) for i in (1, 2, 3)]
    logw = (
        pairs[0]["logw"][:, None, None]
        + pairs[1]["logw"][None, :, None]
        + pairs[2]["logw"][None, None, :]
    ).ravel()
    w = np.exp(logw - logw.max())
    fractions = w / w.sum()
    order = np.argsort(fractions, kind="stable")
    cum = np.cumsum(fractions[order])
    n_drop = int(np.searchsorted(cum, prune_tol, side="left"))
    dropped = float(cum[n_drop - 1]) if n_drop else 0.0
    keep = np.sort(order[n_drop:])
    shape = tuple(len(p["logw"]) for p in pairs)
    idx = np.unravel_index(keep, shape)
    return pairs, idx, fractions[keep], dropped


def enumerate_triple_sectors(
    params: RefrigeratorParams, prune_tol: float = DEFAULT_PRUNE_TOL
) -> SectorSet:
    """All (m1, m2, m3) sector labels above the pruning cut."""
    pairs, idx, fractions, dropped = _enumerate_arrays(params, prune_tol)
    labels = []
    for a1, a2, a3, w in zip(*idx, fractions):
        two_m = (
            int(pairs[0]["two_m"][a1]),
            int(pairs[1]["two_m"][a2]),
            int(pairs[2]["two_m"][a3]),
        )
        dims = (
            int(pairs[0]["dim"][a1]),
            int(pairs[1]["dim"][a2]),
            int(pairs[2]["dim"][a3]),
        )
        labels.append(TripleSectorLabel(two_m, dims, float(w)))
    return SectorSet(labels, 1.0 - dropped, _sector_count(params))


def _sector_count(params: RefrigeratorParams) -> int:
    """Number of (m1, m2, m3) sectors before pruning."""
    return math.prod(n + 2 for n in params.n_bath)


# ---------------------------------------------------------------------------
# Batched sector groups
# ---------------------------------------------------------------------------

def _basis_states(dims, sides) -> list[tuple[int, int, int]]:
    """Canonical basis as (s1, s2, s3) bit tuples, qubit 1 most significant."""
    choices = []
    for k in range(3):
        choices.append((0, 1) if dims[k] == 2 else (int(sides[k]),))
    return list(iter_product(*choices))


class SectorGroupData:
    """Batched eigendata of kept sectors sharing a (dims, edge-side) signature."""

    __slots__ = (
        "dims", "sides", "size", "dim", "basis", "weights", "m_values",
        "hamiltonians", "lam", "vecs", "m_matrix", "u_values", "p0",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


def _make_group(params, pairs, sel, weights, dims, sides) -> SectorGroupData:
    """Assemble and diagonalize the sectors selected by per-pair indices."""
    size = len(weights)
    dim = dims[0] * dims[1] * dims[2]
    basis = _basis_states(dims, sides)
    m_values = np.stack([pairs[k]["m"][sel[k]] for k in range(3)], axis=1)

    level_energy = []
    u_values = []
    p_level = []
    for k in range(3):
        pk = pairs[k]
        if dims[k] == 2:
            level_energy.append(
                np.stack([pk["b_minus"][sel[k]], pk["b_plus"][sel[k]]], axis=1)
            )
            u_values.append(np.asarray(pk["u"][sel[k]], dtype=float))
            p_level.append(np.array(pk["p_level"]))
        else:
            e = pk["edge_energy"][sel[k]]
            level_energy.append(np.stack([e, e], axis=1))
            u_values.append(None)
            p_level.append(np.array([1.0, 1.0]))

    h = np.zeros((size, dim, dim))
    p0 = np.ones((size, dim))
    for b, state in enumerate(basis):
        for k in range(3):
            h[:, b, b] += level_energy[k][:, state[k]]
            p0[:, b] *= p_level[k][state[k]]
    for b, state in enumerate(basis):
        for c in range(b + 1, dim):
            flips = [k for k in range(3) if state[k] != basis[c][k]]
            if len(flips) == 1 and dims[flips[0]] == 2:
                h[:, b, c] = u_values[flips[0]]
                h[:, c, b] = u_values[flips[0]]
    if dims == (2, 2, 2):
        a = basis.index(_INTERACTION_BITS[0])
        b = basis.index(_INTERACTION_BITS[1])
        h[:, a, b] += params.g
        h[:, b, a] += params.g

    lam, vecs = np.linalg.eigh(h)
    m_matrix = np.einsum("gka,gk,gkb->gab", vecs, p0, vecs, optimize=True)
    return SectorGroupData(
        dims=dims, sides=sides, size=size, dim=dim, basis=basis,
        weights=np.asarray(weights, dtype=float), m_values=m_values,
        hamiltonians=h, lam=lam, vecs=vecs, m_matrix=m_matrix,
        u_values=u_values, p0=p0,
    )


def _build_groups(params, pairs, idx, fractions) -> list[SectorGroupData]:
    """Bucket kept sectors by (dims, edge-side) signature, preserving order."""
    dims_per_pair = [pairs[k]["dim"][idx[k]] for k in range(3)]
    side_per_pair = [
        np.where(dims_per_pair[k] == 1, pairs[k]["edge_state"][idx[k]], 0)
        for k in range(3)
    ]
    signature = np.stack(dims_per_pair + side_per_pair, axis=1)
    buckets: dict[tuple, list[int]] = {}
    for row in range(len(fractions)):
        key = tuple(int(x) for x in signature[row])
        buckets.setdefault(key, []).append(row)
    groups = []
    for key in sorted(buckets):
        rows = np.array(buckets[key])
        dims, sides = key[:3], key[3:]
        sel = [idx[k][rows] for k in range(3)]
        groups.append(_make_group(params, pairs, sel, fractions[rows], dims, sides))
    return groups


# ---------------------------------------------------------------------------
# Trigonometric series evaluation
# ---------------------------------------------------------------------------

# Bytes of scratch one term chunk of the blocked grid kernel may use.
_CHUNK_BYTES = 1 << 20


def _series_rows(const, amps):
    """(k,) constants, (k, m) amplitudes, and whether the input was one series."""
    amps = np.asarray(amps, dtype=float)
    squeeze = amps.ndim == 1
    amps = np.atleast_2d(amps)
    const_vec = np.broadcast_to(np.asarray(const, dtype=float).ravel(), (amps.shape[0],))
    return const_vec, amps, squeeze


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


def trig_series_uniform(const, amps, omegas, t0: float, dt: float, n: int,
                        kind: str = "cos") -> np.ndarray:
    """Evaluate const + sum_j amps[.,j]*trig(omegas[j]*t) on a uniform grid.

    The grid t = t0 + (b*B + q)*dt is cut into blocks of B points, B the
    power of two at or above sqrt(n).  Since
    e^{iwt} = e^{iw(t0 + bB dt)} e^{iwq dt}, one chunk of terms costs one
    real matrix product over interleaved (cos, sin) pairs: the
    amplitude-weighted block phases (a cos, a sin) (rows: series x block)
    against the in-block phases (cos, -sin) for cosines or (sin, cos) for
    sines.  Both phase tables are doubled (``_doubled``) from the phases
    e^{iw 2^p dt}, each taken from a direct cos/sin, and chunks are sized
    so the scratch stays near ``_CHUNK_BYTES``.  The absolute error is a
    few ulps times sum|amps|.  ``amps`` may be a (k, m) matrix evaluating k
    series over shared frequencies; the output then has shape (k, n).
    """
    const_vec, amps, squeeze = _series_rows(const, amps)
    omegas = np.asarray(omegas, dtype=float)
    rows = amps.shape[0]
    out = np.empty((rows, n))
    out[:] = const_vec[:, None]
    if omegas.size == 0 or n == 0:
        return out[0] if squeeze else out
    block = 1 << math.isqrt(n - 1).bit_length()
    n_blocks = -(-n // block)
    inner_levels = block.bit_length() - 1
    steps = dt * 2.0 ** np.arange(inner_levels + (n_blocks - 1).bit_length())
    per_term = 16 * (len(steps) + n_blocks + block + rows * (n_blocks + 1))
    chunk = max(1, _CHUNK_BYTES // per_term)
    acc = np.zeros((rows * n_blocks, block))
    for start in range(0, omegas.size, chunk):
        w = omegas[start:start + chunk]
        doubling = _cis(np.multiply.outer(steps, w))
        outer = _doubled(_cis(w * t0), doubling[inner_levels:], n_blocks).view(float)
        inner = _doubled(np.ones(w.size, dtype=complex), doubling, block)
        np.conjugate(inner, out=inner)
        if kind != "cos":
            inner *= 1j
        weights = np.repeat(amps[:, start:start + chunk], 2, axis=1)
        left = (weights[:, None, :] * outer[None, :, :]).reshape(rows * n_blocks, -1)
        acc += left @ inner.view(float).T
    out += acc.reshape(rows, n_blocks * block)[:, :n]
    return out[0] if squeeze else out


def trig_series_at(const, amps, omegas, times, kind: str = "cos") -> np.ndarray:
    """Direct evaluation of the trigonometric sum at arbitrary times.

    Like ``trig_series_uniform``, (k, m) amplitudes give a (k, len(times))
    result.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    const_vec, amps, squeeze = _series_rows(const, amps)
    omegas = np.asarray(omegas, dtype=float)
    fun = np.cos if kind == "cos" else np.sin
    out = np.empty(times.shape + (amps.shape[0],))
    out[:] = const_vec
    if omegas.size:
        chunk = max(1, int(4e6) // max(len(times), 1))
        for start in range(0, len(omegas), chunk):
            sl = slice(start, start + chunk)
            out += fun(np.outer(times, omegas[sl])) @ amps[:, sl].T
    return out[:, 0] if squeeze else out.T


@dataclass(frozen=True)
class SeriesTerms:
    """Aggregated trigonometric representation of one or several observables.

    A single observable has a float ``const`` and (m,) ``amps``; k
    observables over shared gaps have (k,) ``const`` and (k, m) ``amps``,
    and every evaluation returns one row per observable.
    """

    const: float | np.ndarray
    amps: np.ndarray
    omegas: np.ndarray
    kind: str

    def at(self, times) -> np.ndarray:
        return trig_series_at(self.const, self.amps, self.omegas, times, self.kind)

    def on_grid(self, t0: float, dt: float, n: int) -> np.ndarray:
        return trig_series_uniform(self.const, self.amps, self.omegas, t0, dt, n, self.kind)

    def evaluate(self, times) -> np.ndarray:
        """Values at ``times``: the grid kernel when they are uniform, else direct."""
        times = np.asarray(times, dtype=float)
        t0, dt, n = _uniform_grid(times)
        if n is not None:
            return self.on_grid(t0, dt, n)
        return self.at(times)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class RefrigeratorEngine:
    """Immutable sector-resolved simulator for one parameter set.

    Spectra of all retained sectors are computed once at construction and
    cached; a parameter change means building a new engine.  All queries are
    pure, so concurrent reads are safe.

    ``series_amp_tol`` optionally compresses aggregated trigonometric
    series: the smallest-amplitude terms are dropped while their cumulative
    magnitude stays below ``series_amp_tol`` times the total magnitude,
    which bounds the absolute series error by the same relative amount.
    The default keeps every term.
    """

    def __init__(self, params: RefrigeratorParams,
                 prune_tol: float = DEFAULT_PRUNE_TOL,
                 series_amp_tol: float = 0.0):
        self.params = params
        self.prune_tol = prune_tol
        self.series_amp_tol = series_amp_tol
        pairs, idx, fractions, dropped = _enumerate_arrays(params, prune_tol)
        self.retained_fraction = 1.0 - dropped
        self.dropped_weight = dropped
        self.dropped_sectors = _sector_count(params) - len(fractions)
        self.groups = _build_groups(params, pairs, idx, fractions)
        self.weight_total = float(sum(g.weights.sum() for g in self.groups))
        self._series_cache: dict[tuple, SeriesTerms] = {}

    # -- observables ----------------------------------------------------------

    def _diag_observable(self, group: SectorGroupData, key) -> np.ndarray:
        """Observable diagonal in the sector basis, shape (size, dim)."""
        kind, i = key
        k = i - 1
        bits = np.array([state[k] for state in group.basis], dtype=float)
        if kind == "pop":
            return np.broadcast_to(1.0 - bits, (group.size, group.dim))
        if kind == "exc":
            return np.broadcast_to(bits, (group.size, group.dim))
        if kind == "hs":
            return np.broadcast_to(
                self.params.epsilon[k] * (bits - 0.5), (group.size, group.dim)
            )
        if kind == "hb":
            bath_level = group.m_values[:, k:k + 1] - (bits[None, :] - 0.5)
            return self.params.bath_energy[k] * bath_level
        raise KeyError(key)

    def _offdiag_observable(self, group: SectorGroupData, key) -> np.ndarray | None:
        """Dense coupling observable, shape (size, dim, dim); None if absent."""
        kind = key[0]
        if kind == "hsb":
            k = key[1] - 1
            if group.dims[k] != 2:
                return None
            o = np.zeros((group.size, group.dim, group.dim))
            for b, state in enumerate(group.basis):
                for c in range(b + 1, group.dim):
                    flips = [j for j in range(3) if state[j] != group.basis[c][j]]
                    if flips == [k]:
                        o[:, b, c] = group.u_values[k]
                        o[:, c, b] = group.u_values[k]
            return o
        if kind == "hint":
            if group.dims != (2, 2, 2) or self.params.g == 0.0:
                return None
            o = np.zeros((group.size, group.dim, group.dim))
            a = group.basis.index(_INTERACTION_BITS[0])
            b = group.basis.index(_INTERACTION_BITS[1])
            o[:, a, b] = self.params.g
            o[:, b, a] = self.params.g
            return o
        raise KeyError(key)

    def _observable_in_eigenbasis(self, group: SectorGroupData, key) -> np.ndarray | None:
        """V^T O V per sector, shape (size, dim, dim); None if O is absent."""
        if key[0] in ("pop", "exc", "hs", "hb"):
            diag = self._diag_observable(group, key)
            return np.einsum("gka,gk,gkb->gab", group.vecs, diag, group.vecs, optimize=True)
        dense = self._offdiag_observable(group, key)
        if dense is None:
            return None
        return np.matmul(np.matmul(group.vecs.transpose(0, 2, 1), dense), group.vecs)

    def series_terms(self, key: tuple, kind: str) -> SeriesTerms:
        """Trig terms of Tr[rho(t) O] (kind="cos") or Tr[drho/dt O] ("sin").

        Keys: ("pop", i) and ("exc", i) the ground and excited projectors
        of qubit i; ("hs", i) and ("hb", i) the local qubit/bath
        Hamiltonians; ("hsb", i) the XY coupling block; ("hint",) the
        collective interaction.  Values are normalized by the retained
        weight.

        ``key`` may also be a tuple of keys: the result then has one row per
        key over the union of their gaps (zero where a key's observable is
        absent), compressed on the magnitudes summed over rows, so each
        row's error stays below ``series_amp_tol`` times the total magnitude
        of all rows.
        """
        single = isinstance(key[0], str)
        keys = (key,) if single else tuple(key)
        cache_key = (keys, single, kind)
        if cache_key in self._series_cache:
            return self._series_cache[cache_key]
        const = np.zeros(len(keys))
        amp_parts = []
        omega_parts = []
        for group in self.groups:
            amp = None  # this group's (rows, gaps) block, made on first use
            for row, row_key in enumerate(keys):
                o_tilde = self._observable_in_eigenbasis(group, row_key)
                if o_tilde is None:
                    continue
                f = group.m_matrix * o_tilde
                if kind == "cos":
                    const[row] += float(np.dot(group.weights, np.trace(f, axis1=1, axis2=2)))
                if group.dim == 1:
                    continue
                if amp is None:
                    iu, ju = np.triu_indices(group.dim, k=1)
                    gaps = group.lam[:, ju] - group.lam[:, iu]  # nonnegative
                    amp = np.zeros((len(keys), gaps.size))
                    amp_parts.append(amp)
                    omega_parts.append(gaps.ravel())
                pair_f = f[:, iu, ju]
                if kind == "cos":
                    amp[row] = (2.0 * group.weights[:, None] * pair_f).ravel()
                else:
                    amp[row] = (-2.0 * group.weights[:, None] * pair_f * gaps).ravel()
        amps = np.concatenate(amp_parts, axis=1) if amp_parts else np.empty((len(keys), 0))
        omegas = np.concatenate(omega_parts) if omega_parts else np.empty(0)
        amps, omegas = self._compress(amps, omegas)
        scale = 1.0 / self.weight_total
        if single:
            terms = SeriesTerms(float(const[0]) * scale, amps[0] * scale, omegas, kind)
        else:
            terms = SeriesTerms(const * scale, amps * scale, omegas, kind)
        self._series_cache[cache_key] = terms
        return terms

    def _compress(self, amps: np.ndarray, omegas: np.ndarray):
        """Drop the terms of smallest row-summed magnitude, see ``series_terms``."""
        if self.series_amp_tol <= 0.0 or amps.size == 0:
            return amps, omegas
        magnitude = np.abs(amps).sum(axis=0)
        order = np.argsort(magnitude, kind="stable")
        cum = np.cumsum(magnitude[order])
        n_drop = int(np.searchsorted(cum, self.series_amp_tol * cum[-1], side="left"))
        keep = np.sort(order[n_drop:])
        return amps[:, keep], omegas[keep]

    # -- populations and temperatures -------------------------------------------

    def ground_population(self, qubit: int, t: float) -> float:
        """Ground population r_i(t) of one qubit (1-based index)."""
        terms = self.series_terms(("pop", qubit), "cos")
        return float(terms.at([t])[0])

    def reduced_qubit_state(self, qubit: int, t: float) -> np.ndarray:
        r = self.ground_population(qubit, t)
        return np.diag([r, 1.0 - r])

    def excited_terms(self, qubits) -> SeriesTerms:
        """Excited populations p_i(t) of ``qubits``, one series row each.

        Every temperature is read from these rows.  A row that is zero
        because pruning dropped every sector holding that excitation is an
        error, not T = 0: ``prune_tol`` bounds the absolute error of p, not
        its relative error, on which T depends.
        """
        terms = self.series_terms(tuple(("exc", q) for q in qubits), "cos")
        if self.dropped_sectors:
            for q, const, amps in zip(qubits, terms.const, terms.amps):
                if const == 0.0 and not np.any(amps):
                    raise ValueError(
                        f"qubit {q} has no excited population in the kept "
                        f"sectors: prune_tol={self.prune_tol:g} dropped "
                        f"{self.dropped_sectors} of {_sector_count(self.params)} "
                        f"sectors, of weight {self.dropped_weight:.3g}; lower "
                        "prune_tol to read its temperature"
                    )
        return terms

    def temperature(self, qubit: int, t: float) -> float:
        p = self.excited_terms((qubit,)).at([t])[0]
        return float(temperature_from_excited(p, self.params.epsilon[qubit - 1])[0])

    def temperature_series(self, qubit: int, times) -> TimeSeries:
        return self.qubit_series((qubit,), times)[0]

    def qubit_series(self, qubits, times) -> list[TimeSeries]:
        """Ground populations and temperatures of several qubits in one pass."""
        times = np.asarray(times, dtype=float)
        p = self.excited_terms(qubits).evaluate(times)
        return [
            TimeSeries(
                q, times, 1.0 - p[row],
                temperature_from_excited(p[row], self.params.epsilon[q - 1]),
            )
            for row, q in enumerate(qubits)
        ]

    # -- per-sector evaluation (bath states and diagnostics) ---------------------

    def _group_rho_tilde(self, group: SectorGroupData, t: float) -> np.ndarray:
        phase = np.exp(-1j * group.lam * t)
        return group.m_matrix * (phase[:, :, None] * phase[:, None, :].conj())

    def _group_populations(self, group: SectorGroupData, t: float) -> np.ndarray:
        """Diagonal of rho(t) in the sector basis, shape (size, dim)."""
        return np.einsum(
            "gab,gka,gkb->gk",
            self._group_rho_tilde(group, t),
            group.vecs,
            group.vecs,
            optimize=True,
        ).real

    def reduced_bath_populations(self, bath: int, t: float) -> np.ndarray:
        """Bath level populations over m_B = -N/2..N/2 for one bath (1-based)."""
        k = bath - 1
        n = self.params.n_bath[k]
        pops = np.zeros(n + 1)
        for group in self.groups:
            diag = self._group_populations(group, t)
            two_m = np.rint(2.0 * group.m_values[:, k]).astype(int)
            for b, state in enumerate(group.basis):
                # ground bit pairs with level m + 1/2, excited with m - 1/2
                two_m_b = two_m + (1 if state[k] == 0 else -1)
                np.add.at(pops, (two_m_b + n) // 2, group.weights * diag[:, b])
        return pops / self.weight_total

    def total_trace(self, t: float) -> float:
        """Weighted total trace at time t; equals one up to rounding."""
        total = sum(
            float(np.dot(g.weights, self._group_populations(g, t).sum(axis=1)))
            for g in self.groups
        )
        return total / self.weight_total

    def conserved_charge(self, pair: int, t: float) -> float:
        """Weighted expectation of S^z_i + J^z_i, evaluated from rho(t)."""
        k = pair - 1
        total = sum(
            float(np.dot(
                g.weights * g.m_values[:, k],
                self._group_populations(g, t).sum(axis=1),
            ))
            for g in self.groups
        )
        return total / self.weight_total

    def total_energy(self, t: float) -> float:
        """Weighted Tr[rho(t) H] against the original-basis Hamiltonians."""
        total = 0.0
        for group in self.groups:
            rho_tilde = self._group_rho_tilde(group, t)
            rho = np.matmul(
                np.matmul(group.vecs.astype(complex), rho_tilde),
                group.vecs.transpose(0, 2, 1).astype(complex),
            )
            energies = np.einsum(
                "gab,gba->g", rho, group.hamiltonians.astype(complex)
            ).real
            total += float(np.dot(group.weights, energies))
        return total / self.weight_total


def _uniform_grid(times: np.ndarray):
    """(t0, dt, n) when ``times`` is a uniform ascending grid, else Nones."""
    if times.ndim != 1 or len(times) < 3:
        return None, None, None
    dt = times[1] - times[0]
    if dt <= 0:
        return None, None, None
    if np.max(np.abs(np.diff(times) - dt)) > 1e-12 * max(abs(dt), 1.0):
        return None, None, None
    return float(times[0]), float(dt), len(times)


# ---------------------------------------------------------------------------
# Public single-sector constructors
# ---------------------------------------------------------------------------

def build_sector_hamiltonian(
    params: RefrigeratorParams, label: TripleSectorLabel
) -> TripleSectorSystem:
    """Assemble one sector's Hamiltonian block, spectrum and initial state."""
    pairs = [sector_arrays(params.pair(i)) for i in (1, 2, 3)]
    sel = []
    for k in range(3):
        pos = np.where(pairs[k]["two_m"] == label.two_m[k])[0]
        if len(pos) != 1:
            raise ValueError(f"two_m={label.two_m[k]} is not a sector of pair {k + 1}")
        sel.append(pos)
    dims = tuple(int(pairs[k]["dim"][sel[k][0]]) for k in range(3))
    if dims != tuple(label.dims):
        raise ValueError(f"label dims {label.dims} disagree with parameters {dims}")
    sides = tuple(
        int(pairs[k]["edge_state"][sel[k][0]]) if dims[k] == 1 else 0 for k in range(3)
    )
    group = _make_group(params, pairs, sel, np.array([label.weight]), dims, sides)
    spectrum = Spectrum(group.lam[0].copy(), group.vecs[0].copy())
    return TripleSectorSystem(
        label, group.hamiltonians[0], spectrum, np.diag(group.p0[0])
    )


def initial_sector_state(
    params: RefrigeratorParams, label: TripleSectorLabel
) -> np.ndarray:
    """Unit-trace diagonal initial state of one sector."""
    return build_sector_hamiltonian(params, label).initial_state
