"""Sector-resolved dynamics of qubits in spin-star baths: one pair or three.

One qubit-bath pair is a single spin star; three pairs joined by the
collective interaction are the refrigerator.  The conserved per-pair total
z spins split the joint Hilbert space into (m1, ...) sectors of dimension
at most 2 per pair, so 8 = 2*2*2 for the refrigerator.  Basis convention
inside a sector: qubit i contributes bit b_i (0 = qubit in its lower level
paired with bath level m_i + 1/2, 1 = upper level with bath level
m_i - 1/2) and the basis index is b1*4 + b2*2 + b3 when all three pairs are
two-dimensional (b1 for one pair); one-dimensional edge pairs contribute no
basis bit but keep the same nesting order (qubit 1 most significant), and
their qubit's fixed bit is held per sector.  The collective interaction
couples indices 2 = (0,1,0) and 5 = (1,0,1) and exists only in full
eight-dimensional sectors.

Which sectors exist, their weights, basis and level energies do not
depend on the couplings: that layout is built once per (epsilon, E, N,
beta, prune_tol) and shared, with one group per block shape ``dims``, so
at most eight groups for three pairs.  Each coupling set only fills and
diagonalizes the sector blocks.  A block without the interaction term is
a Kronecker sum of 2x2 pair blocks, whose eigenpairs are closed form;
only the interacting eight-dimensional blocks call ``eigh``.  Populations
and currents are then exact trigonometric sums over spectral gaps
(``series.SeriesTerms``), so a dense time grid costs a few matrix products
instead of repeated evolutions.  Weighted reductions run in a fixed
lexicographic sector order, which keeps repeated runs bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .series import SeriesTerms, TimeGrid
from .spinstar import sector_arrays, temperature_from_excited

DEFAULT_PRUNE_TOL = 1e-12
_INTERACTION_BITS = ((0, 1, 0), (1, 0, 1))


@dataclass(frozen=True)
class RefrigeratorParams:
    """Hamiltonian and thermal parameters of one qubit-bath pair or three.

    Each per-pair field holds one entry per pair.  Three pairs are the
    refrigerator; one pair is a single spin star, which has no interaction,
    so its g must be 0.
    """

    epsilon: tuple[float, ...]
    bath_energy: tuple[float, ...]
    coupling: tuple[float, ...]
    g: float
    n_bath: tuple[int, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        for name in ("epsilon", "bath_energy", "coupling", "n_bath", "beta"):
            value = tuple(getattr(self, name))
            if len(value) not in (1, 3) or len(value) != len(self.n_bath):
                raise ValueError(f"{name} needs one entry per pair, one or three: {value}")
            object.__setattr__(self, name, value)
        if self.g < 0 or not math.isfinite(self.g):
            raise ValueError(f"g must be finite and nonnegative, got {self.g}")
        if self.pairs == 1 and self.g != 0.0:
            raise ValueError(f"g couples three pairs; one pair needs g = 0, got {self.g}")
        for eps, bath_e, a, n, b in zip(self.epsilon, self.bath_energy, self.coupling,
                                        self.n_bath, self.beta):
            if int(n) != n or n < 1:
                raise ValueError(f"n_bath must be a positive integer, got {n}")
            if a < 0:
                raise ValueError(f"coupling must be nonnegative, got {a}")
            if not b > 0:
                raise ValueError(f"beta must be positive, got {b}")
            if eps == 0:  # a qubit without a gap has no temperature
                raise ValueError(f"epsilon must be nonzero, got {eps}")
            for name, value in (("epsilon", eps), ("bath_energy", bath_e),
                                ("coupling", a), ("beta", b)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite")

    @property
    def pairs(self) -> int:
        """Number of qubit-bath pairs, one or three."""
        return len(self.n_bath)

    def is_autonomous(self, tol: float = 1e-12) -> bool:
        """Whether the two interaction-coupled states are degenerate (never for one pair)."""
        gaps = [self.bath_energy[k] - self.epsilon[k] for k in range(self.pairs)]
        return self.pairs == 3 and abs(gaps[1] - (gaps[0] + gaps[2])) <= tol


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory of one qubit's ground population and temperature."""

    qubit: int
    time: np.ndarray
    ground_population: np.ndarray
    temperature: np.ndarray


# ---------------------------------------------------------------------------
# Sector layout: everything the couplings do not change
# ---------------------------------------------------------------------------

def _enumerate_arrays(pairs, prune_tol: float):
    """Kept flat sector indices, their weight fractions and the dropped weight.

    Sector weights are products of per-pair Boltzmann weights (thermal trace
    factors included), normalized to the full sum; the log weights add in
    pair order.  Sectors are dropped greedily from the smallest weight up
    while the dropped cumulative fraction stays strictly below
    ``prune_tol``; the kept set is returned in lexicographic (two_m1, ...)
    order.
    """
    if not 0.0 <= prune_tol < 1.0:
        raise ValueError(f"prune_tol must lie in [0, 1), got {prune_tol}")
    logw = functools.reduce(np.add.outer, [p["logw"] for p in pairs]).ravel()
    w = np.exp(logw - logw.max())
    fractions = w / w.sum()
    order = np.argsort(fractions, kind="stable")
    cum = np.cumsum(fractions[order])
    n_drop = int(np.searchsorted(cum, prune_tol, side="left"))
    dropped = float(cum[n_drop - 1]) if n_drop else 0.0
    keep = np.sort(order[n_drop:])
    return keep, fractions[keep], dropped


@dataclass(frozen=True, eq=False)
class SectorGroup:
    """Kept sectors sharing a block shape ``dims``, couplings left out.

    Groups are keyed by ``dims`` alone, so an edge pair's sectors at both
    ends of its ladder share a group.  Rows are sectors in lexicographic
    (two_m1, ...) order.  ``basis`` holds the bits (b1, ...) of each basis
    state, one per pair, with 0 in an edge pair's column: that qubit's
    fixed bit differs between rows and sits in ``edge_bits`` (rows x
    pairs, 0 in two-dimensional columns); ``qubit_bits`` reads either.
    ``pair_rows`` holds each sector's row in each pair's ``sector_arrays``
    table (``SectorLayout.pairs``), ``level_energy`` the diagonal of every
    sector block and ``p0`` the initial populations, which are the same in
    every row.  The XY coupling of pair k sits at the entries of
    ``flip_masks[k]`` with strength A_k times ``unit_coupling[k]`` (one
    ladder factor per row), the interaction at ``interaction_mask`` with
    strength g; either is None where the group has no such coupling.  Only
    blocks with the interaction term need ``eigh``; the others have
    closed-form spectra (``_kronecker_spectra``).
    """

    dims: tuple[int, ...]
    basis: np.ndarray
    edge_bits: np.ndarray
    pair_rows: np.ndarray
    weights: np.ndarray
    m_values: np.ndarray
    level_energy: np.ndarray
    p0: np.ndarray
    unit_coupling: tuple
    flip_masks: tuple
    interaction_mask: np.ndarray | None

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def qubit_bits(self, k: int) -> np.ndarray:
        """Qubit k's bit (0-based pair) in each basis state: shape (dim,) for a
        two-dimensional pair, (size, 1) per row for an edge pair."""
        if self.dims[k] == 2:
            return self.basis[:, k]
        return self.edge_bits[:, k, None]


@dataclass(frozen=True, eq=False)
class SectorLayout:
    """The kept sector groups in ``dims`` order, each pair's ``sector_arrays``
    table, and what pruning dropped."""

    groups: tuple[SectorGroup, ...]
    pairs: tuple[dict, ...]
    kept: int
    dropped: int
    dropped_weight: float


def _layout_group(pairs, sel, weights, dims) -> SectorGroup:
    """Coupling-independent arrays of the sectors selected by per-pair indices."""
    basis = np.array(list(iter_product(*((0, 1) if d == 2 else (0,) for d in dims))))
    flips = basis[:, None, :] != basis[None, :, :]
    single_flip = flips.sum(axis=2) == 1
    edge_bits = np.zeros((len(weights), len(pairs)), dtype=int)
    level_energy = np.zeros((len(weights), len(basis)))
    p0 = np.ones(len(basis))
    unit_coupling = []
    flip_masks = []
    for k, pk in enumerate(pairs):
        if dims[k] == 2:
            levels = np.stack([pk["b_minus"][sel[k]], pk["b_plus"][sel[k]]], axis=1)
            p_level = np.array(pk["p_level"])
            unit_coupling.append(pk["u"][sel[k]])
            flip_masks.append(flips[:, :, k] & single_flip)
        else:
            edge = pk["edge_energy"][sel[k]]
            levels = np.stack([edge, edge], axis=1)
            edge_bits[:, k] = pk["edge_state"][sel[k]]
            p_level = np.ones(2)
            unit_coupling.append(None)
            flip_masks.append(None)
        level_energy += levels[:, basis[:, k]]
        p0 *= p_level[basis[:, k]]
    interaction_mask = None
    if dims == (2, 2, 2):
        lower, upper = ((basis == bits).all(axis=1) for bits in _INTERACTION_BITS)
        interaction_mask = np.outer(lower, upper) | np.outer(upper, lower)
    group = SectorGroup(
        dims=dims, basis=basis, edge_bits=edge_bits, pair_rows=np.stack(sel, axis=1),
        weights=weights,
        m_values=np.stack([pk["m"][sel[k]] for k, pk in enumerate(pairs)], axis=1),
        level_energy=level_energy, p0=p0, unit_coupling=tuple(unit_coupling),
        flip_masks=tuple(flip_masks), interaction_mask=interaction_mask,
    )
    arrays = [basis, edge_bits, group.pair_rows, weights, group.m_values, level_energy, p0,
              interaction_mask]
    for array in arrays + unit_coupling + flip_masks:
        if array is not None:
            array.setflags(write=False)
    return group


# bounded: an unpruned N=30 layout holds a few MB
@functools.lru_cache(maxsize=16)
def sector_layout(epsilon, bath_energy, n_bath, beta, prune_tol: float) -> SectorLayout:
    """The sector layout for per-pair epsilon, E, N, beta and one prune_tol.

    The per-pair tuples hold one entry per pair, one or three.  Which
    sectors are kept, their weights, grouping, basis, level energies and
    initial populations depend on none of the couplings (A_k and g),
    so the layout is built once and shared by every engine on the same
    arguments; its arrays are read-only.  There is one group per block
    shape ``dims``, in ascending order of it.
    """
    pairs = [sector_arrays(*args) for args in zip(epsilon, bath_energy, n_bath, beta)]
    keep, fractions, dropped = _enumerate_arrays(pairs, prune_tol)
    idx = np.unravel_index(keep, tuple(len(p["two_m"]) for p in pairs))
    dims = np.stack([p["dim"][i] for p, i in zip(pairs, idx)], axis=1)
    shapes, inverse = np.unique(dims, axis=0, return_inverse=True)
    groups = []
    for g, shape in enumerate(shapes.tolist()):
        rows = np.flatnonzero(inverse == g)
        groups.append(_layout_group(pairs, [i[rows] for i in idx], fractions[rows],
                                    tuple(shape)))
    for table in pairs:
        for array in table.values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
    kept = len(keep)
    return SectorLayout(
        tuple(groups), tuple(pairs), kept, math.prod(n + 2 for n in n_bath) - kept, dropped
    )


# ---------------------------------------------------------------------------
# Per-coupling spectra
# ---------------------------------------------------------------------------

def energy_keys(pairs: int) -> tuple:
    """The off-diagonal terms of H: each pair's coupling, then the
    interaction, which joins three pairs and is absent for one."""
    keys = tuple(("hsb", i) for i in range(1, pairs + 1))
    return keys + ((("hint",),) if pairs == 3 else ())


def _coupling_term(params: RefrigeratorParams, sectors: SectorGroup, key):
    """(strength, mask) of one coupling term of a group; None where it is absent.

    The term holds ``strength`` at the entries of ``mask``: A_k times the
    rows' ladder factors for ("hsb", k), g for ("hint",).
    """
    if key[0] == "hsb":
        k = key[1] - 1
        if sectors.flip_masks[k] is None:
            return None
        return (params.coupling[k] * sectors.unit_coupling[k])[:, None], sectors.flip_masks[k]
    if key[0] == "hint":
        if sectors.interaction_mask is None or params.g == 0.0:
            return None
        return params.g, sectors.interaction_mask
    raise KeyError(key)


def _rotated_diagonal(vecs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """V^T diag(d) V per sector, shape (size, dim, dim)."""
    return np.matmul(vecs.transpose(0, 2, 1) * diag[..., None, :], vecs)


def _hamiltonians(params: RefrigeratorParams, sectors: SectorGroup) -> np.ndarray:
    """One group's sector blocks, shape (size, dim, dim), filled from its layout."""
    h = np.zeros((sectors.size, sectors.dim, sectors.dim))
    diagonal = np.arange(sectors.dim)
    h[:, diagonal, diagonal] = sectors.level_energy
    for key in energy_keys(params.pairs):
        term = _coupling_term(params, sectors, key)
        if term is not None:
            strength, mask = term
            h[:, mask] = strength
    return h


@dataclass(frozen=True, eq=False)
class SectorGroupData:
    """One layout group with its spectra for one coupling set."""

    sectors: SectorGroup
    params: RefrigeratorParams
    lam: np.ndarray
    vecs: np.ndarray
    m_matrix: np.ndarray  # V^T diag(p0) V, the initial state in the eigenbasis

    @functools.cached_property
    def hamiltonians(self) -> np.ndarray:
        """The sector blocks, V diag(lam) V^T, assembled from the layout on first use."""
        return _hamiltonians(self.params, self.sectors)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.sectors.dims

    @property
    def size(self) -> int:
        return self.sectors.size

    @property
    def dim(self) -> int:
        return self.sectors.dim


def _pair_spectra(table: dict, coupling: float):
    """Ascending eigenvalues and eigenvectors of every 2x2 block of one pair.

    Row j of a ``sector_arrays`` table is [[b_minus, c], [c, b_plus]] with
    c = A u >= 0.  With d = (b_plus - b_minus)/2 and r = hypot(d, c) the
    eigenvalues are the mean -+ r, and the eigenvectors the columns
    (cos, -sin) and (sin, cos) of half the angle phi with cos phi = d/r,
    sin phi = c/r.  With s = r + |d| and q = sqrt(2 r s), the larger of cos
    and sin is s/q and the other c/q, so c = 0 gives exactly the identity
    (d >= 0) or a swap (d < 0), and d = 0 (epsilon = E) equal weights;
    r = 0 gives the identity.  Returns (rows, 2) eigenvalues and
    (rows, 2, 2) eigenvectors; edge rows are not blocks and go unread.
    """
    lower, upper = table["b_minus"], table["b_plus"]
    c = coupling * table["u"]
    half = 0.5 * (upper - lower)
    radius = np.hypot(half, c)
    s = radius + np.abs(half)
    q = np.sqrt(2.0 * radius * s)
    split = q > 0.0
    big = np.divide(s, q, out=np.ones_like(q), where=split)
    small = np.divide(c, q, out=np.zeros_like(q), where=split)
    ascending = half >= 0.0
    vecs = np.empty((len(q), 2, 2))
    vecs[:, 0, 0] = vecs[:, 1, 1] = np.where(ascending, big, small)
    vecs[:, 0, 1] = np.where(ascending, small, big)
    vecs[:, 1, 0] = -vecs[:, 0, 1]
    mean = 0.5 * (upper + lower)
    lam = np.stack([mean - radius, mean + radius], axis=1)
    return lam, vecs


def _kronecker_spectra(sectors: SectorGroup, pair_spectra, pairs):
    """Eigenvalues (ascending per row) and eigenvectors of interaction-free blocks.

    Such a block is the Kronecker sum of its pairs' blocks: its
    eigenvectors are the Kronecker products of the pairs' 2x2 rotations
    (``_pair_spectra``, one per pair) and its eigenvalues the sums of
    theirs, plus the edge pairs' fixed levels.
    """
    size = sectors.size
    lam = np.zeros((size, 1))
    vecs = np.ones((size, 1, 1))
    for k, dim in enumerate(sectors.dims):
        rows = sectors.pair_rows[:, k]
        if dim == 1:
            lam = lam + pairs[k]["edge_energy"][rows, None]
            continue
        pair_lam, rotations = pair_spectra[k][0][rows], pair_spectra[k][1][rows]
        d = lam.shape[1]
        lam = (lam[:, :, None] + pair_lam[:, None, :]).reshape(size, 2 * d)
        vecs = (vecs[:, :, None, :, None] * rotations[:, None, :, None, :]
                ).reshape(size, 2 * d, 2 * d)
    if sectors.dims.count(2) > 1:  # one pair's eigenvalues already ascend
        order = np.argsort(lam, axis=1, kind="stable")
        rows = np.arange(size)[:, None]
        lam = lam[rows, order]
        vecs = vecs.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)
    return lam, vecs


def _diagonalize(params: RefrigeratorParams, sectors: SectorGroup, pair_spectra,
                 pairs) -> SectorGroupData:
    """One group's spectra: closed form without the interaction, else ``eigh``."""
    if sectors.interaction_mask is None or params.g == 0.0:
        lam, vecs = _kronecker_spectra(sectors, pair_spectra, pairs)
    else:
        lam, vecs = np.linalg.eigh(_hamiltonians(params, sectors))
    return SectorGroupData(sectors, params, lam, vecs, _rotated_diagonal(vecs, sectors.p0))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class RefrigeratorEngine:
    """Immutable sector-resolved simulator for one parameter set.

    Spectra of all retained sectors are computed once at construction, on
    the sector layout shared by every engine with the same epsilon, E, N,
    beta and ``prune_tol``; a parameter change means building a new engine.
    All queries are pure, so concurrent reads are safe.  Its series keep
    every term; ``SeriesTerms.compressed`` drops the smallest.
    """

    def __init__(self, params: RefrigeratorParams, prune_tol: float = DEFAULT_PRUNE_TOL):
        self.params = params
        self.prune_tol = prune_tol
        self.layout = sector_layout(
            params.epsilon, params.bath_energy, params.n_bath, params.beta, prune_tol
        )
        pairs = self.layout.pairs
        pair_spectra = [_pair_spectra(table, a) for table, a in zip(pairs, params.coupling)]
        self.groups = [_diagonalize(params, sectors, pair_spectra, pairs)
                       for sectors in self.layout.groups]
        self.weight_total = float(sum(s.weights.sum() for s in self.layout.groups))
        self._series_cache: dict[tuple, SeriesTerms] = {}

    # -- observables ----------------------------------------------------------

    def _observable_in_eigenbasis(self, group: SectorGroupData, key) -> np.ndarray | None:
        """V^T O V per sector, shape (size, dim, dim); None if O is absent."""
        if key[0] in ("pop", "exc"):
            bits = group.sectors.qubit_bits(key[1] - 1).astype(float)
            return _rotated_diagonal(group.vecs, bits if key[0] == "exc" else 1.0 - bits)
        term = _coupling_term(self.params, group.sectors, key)
        if term is None:
            return None
        strength, mask = term
        dense = np.zeros((group.size, group.dim, group.dim))
        dense[:, mask] = strength
        return np.matmul(np.matmul(group.vecs.transpose(0, 2, 1), dense), group.vecs)

    def series_terms(self, keys: tuple) -> SeriesTerms:
        """Cosine terms of Tr[rho(t) O], one row per key.

        Keys: ("pop", i) and ("exc", i) the ground and excited projectors
        of qubit i; ("hsb", i) the XY coupling block; ("hint",) the
        collective interaction.  Values are normalized by the retained
        weight.  Tr[drho/dt O] is the ``derivative()`` of the result.

        The rows share the union of the keys' gaps (zero where a key's
        observable is absent) and keep every term.
        """
        keys = tuple(keys)
        if keys in self._series_cache:
            return self._series_cache[keys]
        const = np.zeros(len(keys))
        amp_parts = []
        omega_parts = []
        for group in self.groups:
            weights = group.sectors.weights
            amp = None  # this group's (rows, gaps) block, made on first use
            for row, row_key in enumerate(keys):
                o_tilde = self._observable_in_eigenbasis(group, row_key)
                if o_tilde is None:
                    continue
                f = group.m_matrix * o_tilde
                const[row] += float(np.dot(weights, np.trace(f, axis1=1, axis2=2)))
                if group.dim == 1:
                    continue
                if amp is None:
                    iu, ju = np.triu_indices(group.dim, k=1)
                    gaps = group.lam[:, ju] - group.lam[:, iu]  # nonnegative
                    amp = np.zeros((len(keys), gaps.size))
                    amp_parts.append(amp)
                    omega_parts.append(gaps.ravel())
                amp[row] = (2.0 * weights[:, None] * f[:, iu, ju]).ravel()
        amps = np.concatenate(amp_parts, axis=1) if amp_parts else np.empty((len(keys), 0))
        omegas = np.concatenate(omega_parts) if omega_parts else np.empty(0)
        scale = 1.0 / self.weight_total
        terms = SeriesTerms(const * scale, amps * scale, omegas, "cos")
        self._series_cache[keys] = terms
        return terms

    # -- populations and temperatures -------------------------------------------

    def ground_population(self, qubit: int, t: float) -> float:
        """Ground population r_i(t) of one qubit (1-based index)."""
        return float(self.series_terms((("pop", qubit),)).at([t])[0, 0])

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
        terms = self.series_terms(tuple(("exc", q) for q in qubits))
        layout = self.layout
        if layout.dropped:
            for q, const, amps in zip(qubits, terms.const, terms.amps):
                if const == 0.0 and not np.any(amps):
                    raise ValueError(
                        f"qubit {q} has no excited population in the kept "
                        f"sectors: prune_tol={self.prune_tol:g} dropped "
                        f"{layout.dropped} of {layout.kept + layout.dropped} "
                        f"sectors, of weight {layout.dropped_weight:.3g}; lower "
                        "prune_tol to read its temperature"
                    )
        return terms

    def qubit_series(self, qubits, grid: TimeGrid) -> list[TimeSeries]:
        """Ground populations and temperatures of several qubits on ``grid`` in one pass."""
        times = grid.points()
        p = self.excited_terms(qubits).on_grid(grid.start, grid.step, len(times))
        if np.any(p < 0.0):  # the true p lies below the rounding of its series
            q = list(qubits)[int(p.min(axis=1).argmin())]
            raise ValueError(f"qubit {q}'s excited population reads {p.min():.3g}, "
                             "below the rounding of its series")
        return [
            TimeSeries(
                q, times, 1.0 - p[row],
                temperature_from_excited(p[row], self.params.epsilon[q - 1]),
            )
            for row, q in enumerate(qubits)
        ]

    # -- bath states and invariants -------------------------------------------

    def reduced_bath_populations(self, bath: int, t: float) -> np.ndarray:
        """Bath level populations over m_B = -N/2..N/2 for one bath (1-based).

        A sector of pair total m holds bath ``bath`` on level m + 1/2 with
        its qubit in the lower level and on m - 1/2 with it in the upper
        one.  So each sector adds its weight times 1 - p_s(t) to the first
        level and times p_s(t) to the second, where p_s is the qubit's
        excited population in that sector, evaluated from the sector's
        spectrum alone.  An edge sector has one of the two levels, and its
        qubit bit is fixed (per row: both ends of a ladder share a group): it
        adds exactly zero to the level it lacks.
        """
        k = bath - 1
        n = self.params.n_bath[k]
        levels = np.zeros(n + 3)  # one spare level beyond each end
        for group in self.groups:
            sectors = group.sectors
            if sectors.dims[k] == 1:
                p = sectors.edge_bits[:, k].astype(float)
            else:
                bits = sectors.basis[:, k].astype(float)
                f = group.m_matrix * _rotated_diagonal(group.vecs, bits)
                gaps = group.lam[:, :, None] - group.lam[:, None, :]
                p = np.sum(f * np.cos(gaps * t), axis=(1, 2))
            # index j of level m + 1/2 (m_B = j - N/2), plus the spare level
            j_plus = np.rint(sectors.m_values[:, k] + 0.5 * n + 0.5).astype(int) + 1
            levels += np.bincount(j_plus, sectors.weights * (1.0 - p), minlength=n + 3)
            levels += np.bincount(j_plus - 1, sectors.weights * p, minlength=n + 3)
        return levels[1:-1] / self.weight_total

    def total_trace(self, t: float) -> float:
        """Weighted total trace at time t; equals one up to rounding.

        Summed from qubit 1's two level populations.
        """
        return float(self.series_terms((("pop", 1), ("exc", 1))).at([t]).sum())
