"""Sector-resolved dynamics of qubits in spin-star baths: one pair or three.

One qubit-bath pair is a single spin star; three pairs joined by the
collective interaction are the refrigerator.  The conserved per-pair total
z spins split the joint Hilbert space into (m1, ...) sectors, one row of
each pair's ``sector_arrays`` table: a two-level interior row or a
one-level edge row.

A sector without the collective interaction (every sector of one pair,
every sector with an edge row, every sector at g = 0) is a Kronecker sum
of its pairs' 2x2 blocks and starts in a product state, so it evolves pair
by pair: in every one-pair observable (a qubit's populations, its coupling
energy, its bath's levels) it counts as its row of that pair alone.  The
weights of those sectors, summed per row of pair k's table, fold them into
one ladder per pair (``PairLadder``): a closed-form Rabi series with one
gap per interior row and a constant per edge row.

Only the (2, 2, 2) sectors hold the interaction.  Inside them qubit i
contributes bit b_i (0 = qubit in its lower level paired with bath level
m_i + 1/2, 1 = upper level with bath level m_i - 1/2), the basis index is
b1*4 + b2*2 + b3, and the interaction couples indices 2 = (0,1,0) and
5 = (1,0,1).  A block is (sum_k E_k m_k) times the identity, which moves
no population, plus a centred part fixed by the rows' ladder factors
(u_1, u_2, u_3).  Rows m and -m of a pair share u, so sectors fall into
fewer classes of one centred block each.  At g > 0 one batched ``eigh`` of
the classes' centred 8x8 blocks is the engine's ``spectrum``; at g = 0 the
sectors' weights join the ladders instead, and so, at any g, do the
lightest ones that ``prune_tol`` folds: those evolve as at g = 0, and
nothing is dropped.

A centred block is chiral: the signed flip of every bit, M = Y x Y x Y with
Y = [[0, 1], [-1, 0]], negates it (M H_c M^T = -H_c), since its diagonal is
odd under the flip and the XY couplings and the interaction each flip an
odd number of bits.  So its spectrum is +-sigma_1..+-sigma_4, which the
engine stores symmetrised, and the level pairs (i, j) and (7 - j, 7 - i)
share one gap: a class contributes 16 cosine terms, not 28.

The row weights, which (2, 2, 2) sectors are kept and their classes depend
on none of the couplings: that layout is built once per (epsilon, E, N,
beta, prune_tol) and shared.  Populations and currents
are exact cosine sums over spectral gaps (``series.SeriesTerms``), every
term kept, so a dense time grid costs a few matrix products instead of
repeated evolutions.  A qubit's excited population p_i, from which its
temperature, ground population 1 - p_i and heat currents are read, leaves
the engine only as a row of ``excited_terms``.  Weighted reductions run in
a fixed order, which keeps repeated runs bit-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product as iter_product

import numpy as np

from .series import SeriesTerms
from .spinstar import sector_arrays

DEFAULT_PRUNE_TOL = 1e-12
# Tolerance of the resonance conditions: |(E2 - eps2) - (E1 - eps1) - (E3 - eps3)|
# of an autonomous refrigerator, |eps2 - (eps1 + eps3)| of the Markov jump operators.
AUTONOMY_TOL = 1e-12


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
            if isinstance(n, (bool, np.bool_)) or int(n) != n or n < 1:
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
        # whole bath sizes size and index the sector tables: 3.0 is stored as 3
        object.__setattr__(self, "n_bath", tuple(map(int, self.n_bath)))

    @property
    def pairs(self) -> int:
        """Number of qubit-bath pairs, one or three."""
        return len(self.n_bath)

    def is_autonomous(self) -> bool:
        """Whether the two interaction-coupled states are degenerate (never for one pair)."""
        gaps = [self.bath_energy[k] - self.epsilon[k] for k in range(self.pairs)]
        return self.pairs == 3 and abs(gaps[1] - (gaps[0] + gaps[2])) <= AUTONOMY_TOL


# ---------------------------------------------------------------------------
# Sector layout: everything the couplings do not change
# ---------------------------------------------------------------------------

def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# The interacting blocks' basis: the bits (b1, b2, b3) of each index; pair
# k's XY coupling joins the indices that differ in bit k alone, the
# interaction (0,1,0) and (1,0,1); the level pairs i < j of a block.
_BASIS = _read_only(np.array(list(iter_product((0, 1), repeat=3))))
_FLIP_MASKS = tuple(
    _read_only(np.array([[i ^ j == 4 >> k for j in range(8)] for i in range(8)]))
    for k in range(3)
)
_INTERACTION_MASK = _read_only(np.array([[{i, j} == {2, 5} for j in range(8)] for i in range(8)]))
_UPPER = tuple(_read_only(np.array(index)) for index in zip(*combinations(range(8), 2)))
# A centred block's level pairs (i, j) and (7 - j, 7 - i) share one gap: its
# 16 distinct gaps are those of the level pairs ``_GAP_LEVELS``, and
# ``_GAP_MERGE[p, q]`` is 1 where level pair p of ``_UPPER`` has gap q.
_GAP_LEVELS = tuple(_read_only(np.array(index)) for index in zip(
    *(pair for pair in combinations(range(8), 2) if pair <= (7 - pair[1], 7 - pair[0]))))
_GAP_MERGE = _read_only(np.array(
    [[(i, j) in ((k, l), (7 - l, 7 - k)) for k, l in zip(*_GAP_LEVELS)]
     for i, j in zip(*_UPPER)], dtype=float))


@dataclass(frozen=True, eq=False)
class SectorGroup:
    """The kept (2, 2, 2) sectors, couplings left out: the only blocks the
    collective interaction joins.

    Rows are sectors in lexicographic (two_m1, two_m2, two_m3) order.
    ``pair_rows`` holds each sector's row in each pair's ``sector_arrays``
    table (``SectorLayout.pairs``) and ``p0`` the initial populations, which
    are the same in every row.  A sector's block less (sum_k E_k m_k) I is
    its centred block: ``diagonal`` in the basis ``_BASIS``, sum_k
    +-(eps_k - E_k)/2 and the same in every sector; pair k's XY coupling at
    ``_FLIP_MASKS[k]`` with strength A_k u_k, u_k the row's ladder factor;
    the interaction at ``_INTERACTION_MASK`` with strength g.  Sectors with
    one (u_1, u_2, u_3) share it, so they are solved once per class:
    ``classes`` maps each sector to its class, ``unit_coupling[k]`` holds
    u_k per class and ``class_weights`` the summed weights of each class's
    sectors.
    """

    pair_rows: np.ndarray
    weights: np.ndarray
    classes: np.ndarray
    class_weights: np.ndarray
    diagonal: np.ndarray
    p0: np.ndarray
    unit_coupling: tuple

    @property
    def size(self) -> int:
        return len(self.weights)


def _interacting_group(pairs, half_detuning, rows, weights) -> SectorGroup:
    """Coupling-independent arrays of the (2, 2, 2) sectors at per-pair rows."""
    p0 = np.ones(8)
    for k, pk in enumerate(pairs):
        p0 *= np.array(pk["p_level"])[_BASIS[:, k]]
    # u is computed from (N/2 + m + 1/2)(N/2 - m + 1/2), so rows m and -m
    # match bit for bit and their sectors fall into one class
    unit, classes = np.unique(np.stack([pk["u"][r] for pk, r in zip(pairs, rows)], axis=1),
                              axis=0, return_inverse=True)
    classes = classes.reshape(-1)
    class_weights = np.bincount(classes, weights, minlength=len(unit))
    diagonal = (2.0 * _BASIS - 1.0) @ np.array(half_detuning)
    return SectorGroup(_read_only(np.stack(rows, axis=1)), _read_only(weights),
                       _read_only(classes), _read_only(class_weights), _read_only(diagonal),
                       _read_only(p0), tuple(_read_only(np.ascontiguousarray(u)) for u in unit.T))


@dataclass(frozen=True, eq=False)
class SectorLayout:
    """Each pair's ``sector_arrays`` table and row weights, and the kept
    interacting sectors.

    ``marginals[k][j]`` is w_k(j), the normalized weight of row j of pair
    k's table and so the summed weight of its sectors, a sector weighing
    the product of its rows'.  ``free_weights[k][j]`` is row j's weight
    outside ``interacting``: a g > 0 engine's ladders carry the free
    weights, a g = 0 engine's the marginals.  Pruned (2, 2, 2) sectors are
    folded, not dropped: they stay in the free weights, evolving as at
    g = 0, so every engine's weights sum to 1.  Both are built on first
    use, so a one-pair or g = 0 engine enumerates no sector.
    """

    pairs: tuple[dict, ...]
    half_detuning: tuple[float, ...]  # (eps_k - E_k) / 2
    marginals: tuple[np.ndarray, ...]
    prune_tol: float

    @functools.cached_property
    def interacting(self) -> SectorGroup | None:
        """The kept (2, 2, 2) sectors; None for one pair or when none is kept.

        A sector weighs w_1(j_1) w_2(j_2) w_3(j_3) over interior rows.  One
        weighing at least c has w_k(j_k) prod_{l != k} max w_l >= c in every
        pair, so only that sub-cube is enumerated, with c lowered by 10^3
        from ``prune_tol`` until the weight below c is under ``prune_tol``.
        Sectors are then pruned from the smallest weight up while the
        pruned weight, the sub-cube's outside counted first, stays strictly
        below ``prune_tol``: the set one greedy pass over all of them keeps.
        """
        if len(self.pairs) != 3:
            return None
        interior = [w[1:-1] for w in self.marginals]
        top = [float(w.max()) for w in interior]
        total = math.prod(float(w.sum()) for w in interior)
        reach = [w * math.prod(top[:k] + top[k + 1:]) for k, w in enumerate(interior)]
        cutoff = self.prune_tol
        while True:
            rows = [np.flatnonzero(r >= cutoff) for r in reach]
            weights = functools.reduce(np.multiply.outer, [w[r] for w, r in zip(interior, rows)])
            whole = all(len(r) == len(w) for r, w in zip(rows, interior))
            if whole or total - weights[weights >= cutoff].sum() < self.prune_tol:
                break
            cutoff *= 1e-3
        # the weight outside the sub-cube, summed as slabs (pair k's row outside,
        # the rows of pairs before k inside, those after k anywhere): the
        # difference total - weights.sum() rounds at eps total, enough to move
        # the cut past a partial sum that close to prune_tol
        inside = [float(w[r].sum()) for w, r in zip(interior, rows)]
        outside = sum(math.prod(inside[:k]) * float(np.delete(w, r).sum())
                      * math.prod(float(v.sum()) for v in interior[k + 1:])
                      for k, (w, r) in enumerate(zip(interior, rows)))
        order = np.argsort(weights, axis=None, kind="stable")
        cum = outside + np.cumsum(weights.ravel()[order])
        keep = np.sort(order[np.searchsorted(cum, self.prune_tol, side="left"):])
        if not keep.size:
            return None
        index = np.unravel_index(keep, weights.shape)
        return _interacting_group(self.pairs, self.half_detuning,
                                  [r[i] + 1 for r, i in zip(rows, index)], weights.ravel()[keep])

    @functools.cached_property
    def free_weights(self) -> tuple[np.ndarray, ...]:
        sectors = self.interacting
        if sectors is None:
            return self.marginals
        # w_k less the kept sectors' share, clipped at the subtraction's rounding
        return tuple(
            _read_only(np.maximum(w - np.bincount(rows, sectors.weights, minlength=len(w)), 0.0))
            for w, rows in zip(self.marginals, sectors.pair_rows.T)
        )


# bounded: a layout holds its pair tables and, once asked, its kept sectors
@functools.lru_cache(maxsize=16)
def sector_layout(epsilon, bath_energy, n_bath, beta, prune_tol: float) -> SectorLayout:
    """The sector layout for per-pair epsilon, E, N, beta and one prune_tol.

    The per-pair tuples hold one entry per pair, one or three.  The row
    weights, the kept interacting sectors and the free weights depend on
    none of the couplings (A_k and g), so the layout is built once and
    shared by every engine on the same arguments; its arrays are
    read-only.
    """
    if not 0.0 <= prune_tol < 1.0:
        raise ValueError(f"prune_tol must lie in [0, 1), got {prune_tol}")
    pairs = tuple(sector_arrays(*args) for args in zip(epsilon, bath_energy, n_bath, beta))
    for table in pairs:
        for array in table.values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
    weights = (np.exp(table["logw"] - table["logw"].max()) for table in pairs)
    half_detuning = tuple(0.5 * (eps - e) for eps, e in zip(epsilon, bath_energy))
    return SectorLayout(pairs, half_detuning, tuple(_read_only(w / w.sum()) for w in weights),
                        prune_tol)


# ---------------------------------------------------------------------------
# Per-coupling spectra
# ---------------------------------------------------------------------------

def energy_keys(pairs: int) -> tuple:
    """The off-diagonal terms of H: each pair's coupling, then the
    interaction, which joins three pairs and is absent for one."""
    keys = tuple(("hsb", i) for i in range(1, pairs + 1))
    return keys + ((("hint",),) if pairs == 3 else ())


@dataclass(frozen=True, eq=False)
class PairLadder:
    """One pair's interaction-free sectors at one coupling, folded per row
    of its ``sector_arrays`` table.

    Row j carries the summed weight ``weights[j]`` and starts with the
    (ground, excited) populations ``p_row[j]``.  Its block
    [[b_minus, c], [c, b_plus]], c = A u, has one gap ``gap[j]``, and its
    excited population is p_j(t) = p_j(0) + shift_j (1 - cos(gap_j t)):
    the two-level Rabi formula.  ``live`` marks the rows that carry a
    term, weighted and exchanging population.
    """

    weights: np.ndarray
    p_row: np.ndarray
    half_detuning: np.ndarray  # (b_plus - b_minus) / 2
    gap: np.ndarray
    shift: np.ndarray
    live: np.ndarray

    def series(self, kind: str) -> tuple[float, np.ndarray]:
        """Weighted constant and live amplitudes of one observable's cosine terms.

        "exc" and "pop" are the qubit's excited and ground populations,
        "hsb" the coupling energy, which in every row moves opposite to the
        level energy 2 d p_j(t), d the half detuning.
        """
        if kind == "exc":
            start, amp = self.p_row[:, 1], -self.shift
        elif kind == "pop":
            start, amp = self.p_row[:, 0], self.shift
        elif kind == "hsb":
            start, amp = 0.0, 2.0 * self.half_detuning * self.shift
        else:
            raise KeyError(kind)
        return float(self.weights @ (start - amp)), (self.weights * amp)[self.live]


def _pair_spectra(table: dict, coupling: float, weights: np.ndarray) -> PairLadder:
    """One pair's ladder at XY coupling A, every 2x2 block in closed form.

    Row j of a ``sector_arrays`` table is [[b_minus, c], [c, b_plus]] with
    c = A u >= 0.  With d = (b_plus - b_minus)/2 and r = hypot(d, c) its
    eigenvalues are the mean -+ r, so its one gap is 2r, and a level that
    starts alone reaches the other with probability (c/r)^2 sin^2(r t),
    0 where r = 0.  The excited population therefore moves by
    (p_g - p_e)(c/r)^2 (1 - cos 2rt)/2.  Edge rows have u = 0: no shift.
    """
    half = 0.5 * (table["b_plus"] - table["b_minus"])
    c = coupling * table["u"]
    radius = np.hypot(half, c)
    depth = np.divide(c, radius, out=np.zeros_like(radius), where=radius > 0.0) ** 2
    p_row = table["p_row"]
    shift = 0.5 * (p_row[:, 0] - p_row[:, 1]) * depth
    return PairLadder(weights, p_row, half, 2.0 * radius, shift,
                      (weights > 0.0) & (shift != 0.0))


def _coupling_term(params: RefrigeratorParams, sectors: SectorGroup, key):
    """(strength, mask) of one coupling term in the interacting blocks.

    The term holds ``strength`` at the entries of ``mask``: A_k times the
    classes' ladder factors for ("hsb", k), g for ("hint",).
    """
    if key[0] == "hsb":
        k = key[1] - 1
        return (params.coupling[k] * sectors.unit_coupling[k])[:, None], _FLIP_MASKS[k]
    if key[0] == "hint":
        return params.g, _INTERACTION_MASK
    raise KeyError(key)


def _rotated_diagonal(vecs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """V^T diag(d) V per sector, shape (size, dim, dim)."""
    return np.matmul(vecs.transpose(0, 2, 1) * diag[..., None, :], vecs)


def _hamiltonians(params: RefrigeratorParams, sectors: SectorGroup) -> np.ndarray:
    """The centred blocks of the interacting classes, shape (classes, 8, 8)."""
    h = np.zeros((len(sectors.class_weights), 8, 8))
    diagonal = np.arange(8)
    h[:, diagonal, diagonal] = sectors.diagonal
    for key in energy_keys(3):
        strength, mask = _coupling_term(params, sectors, key)
        h[:, mask] = strength
    return h


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class RefrigeratorEngine:
    """Immutable sector-resolved simulator for one parameter set.

    Each pair's ladder and, at g > 0, the interacting blocks' spectra are
    computed once at construction, on the sector layout shared by every
    engine with the same epsilon, E, N, beta and ``prune_tol``; a parameter
    change means building a new engine.  All queries are pure, so
    concurrent reads are safe.  Its series keep every term.
    """

    def __init__(self, params: RefrigeratorParams, prune_tol: float = DEFAULT_PRUNE_TOL):
        self.params = params
        self.layout = layout = sector_layout(
            params.epsilon, params.bath_energy, params.n_bath, params.beta, prune_tol
        )
        folded = params.g == 0.0  # the (2, 2, 2) sectors evolve pair by pair too
        weights = layout.marginals if folded else layout.free_weights
        self.ladders = tuple(_pair_spectra(table, a, w)
                             for table, a, w in zip(layout.pairs, params.coupling, weights))
        # (mu, vecs, m_matrix) of the interacting classes' centred blocks, m_matrix =
        # V^T diag(p0) V being their initial state in the eigenbasis; None where the
        # interacting sectors join the ladders.  A centred block's spectrum is
        # +-sigma_k, so mu holds it symmetrised from eigh's ascending lam:
        # sigma_k = (lam_{7-k} - lam_k) / 2, mu_k = -sigma_k and mu_{7-k} = sigma_k
        self.spectrum = None
        if not folded and layout.interacting is not None:
            lam, vecs = np.linalg.eigh(_hamiltonians(params, layout.interacting))
            sigma = 0.5 * (lam[:, :3:-1] - lam[:, :4])
            self.spectrum = (np.concatenate([-sigma, sigma[:, ::-1]], axis=1), vecs,
                             _rotated_diagonal(vecs, layout.interacting.p0))

    # -- observables ----------------------------------------------------------

    def _observable_in_eigenbasis(self, key) -> np.ndarray:
        """V^T O V per interacting class, shape (classes, 8, 8)."""
        vecs = self.spectrum[1]
        if key[0] in ("pop", "exc"):
            bits = _BASIS[:, key[1] - 1].astype(float)
            return _rotated_diagonal(vecs, bits if key[0] == "exc" else 1.0 - bits)
        strength, mask = _coupling_term(self.params, self.layout.interacting, key)
        dense = np.zeros(vecs.shape)
        dense[:, mask] = strength
        return np.matmul(np.matmul(vecs.transpose(0, 2, 1), dense), vecs)

    def series_terms(self, keys: tuple) -> SeriesTerms:
        """The cosine series of Tr[rho(t) O], one row per key.

        Keys: ("pop", i) and ("exc", i) the ground and excited projectors
        of qubit i; ("hsb", i) the XY coupling block; ("hint",) the
        collective interaction.  The result's ``on_grid`` and ``at`` with
        ``derivative`` also return the rates Tr[drho/dt O].

        Each row sums its pair's ladder and the interacting classes, each
        class's terms weighted by its summed weight, one term per distinct
        gap: a class's level pairs (i, j) and (7 - j, 7 - i) share a gap of
        the symmetrised spectrum, so their amplitudes are summed into one of
        its 16 terms.  The rows share the union of the keys' gaps (zero
        where a key's observable is absent) and keep every term.
        """
        keys = tuple(keys)
        const = np.zeros(len(keys))
        amp_parts = []
        omega_parts = []
        for pair, ladder in enumerate(self.ladders, 1):
            rows = [row for row, key in enumerate(keys) if key[0] != "hint" and key[1] == pair]
            if rows:
                amp = np.zeros((len(keys), int(ladder.live.sum())))
                for row in rows:
                    const[row], amp[row] = ladder.series(keys[row][0])
                amp_parts.append(amp)
                omega_parts.append(ladder.gap[ladder.live])
        if self.spectrum is not None:
            mu, _, m_matrix = self.spectrum
            weights = self.layout.interacting.class_weights
            gaps = mu[:, _GAP_LEVELS[1]] - mu[:, _GAP_LEVELS[0]]  # nonnegative
            amp = np.zeros((len(keys), gaps.size))
            for row, row_key in enumerate(keys):
                f = m_matrix * self._observable_in_eigenbasis(row_key)
                const[row] += float(weights @ np.einsum("sii->s", f))
                amp[row] = (2.0 * weights[:, None]
                            * (f[:, _UPPER[0], _UPPER[1]] @ _GAP_MERGE)).ravel()
            amp_parts.append(amp)
            omega_parts.append(gaps.ravel())
        amps = np.concatenate(amp_parts, axis=1) if amp_parts else np.empty((len(keys), 0))
        omegas = np.concatenate(omega_parts) if omega_parts else np.empty(0)
        return SeriesTerms(const, amps, omegas)

    # -- populations ----------------------------------------------------------

    def excited_terms(self, qubits) -> SeriesTerms:
        """Excited populations p_i(t) of ``qubits``, one series row each.

        Every population, temperature and heat current is read from these
        rows; ``spinstar.temperature_from_excited`` checks a value read.  A
        row that is zero at every time is an error, not T = 0: the thermal
        excited population is positive, so it has underflowed (at beta eps
        beyond about 700 the weights of every row holding the excitation do).
        """
        terms = self.series_terms(tuple(("exc", q) for q in qubits))
        for q, const, amps in zip(qubits, terms.const, terms.amps):
            if const == 0.0 and not np.any(amps):
                raise ValueError(f"qubit {q}'s excited population underflows to 0: "
                                 "its temperature lies below what double precision reads")
        return terms

    # -- bath states and invariants -------------------------------------------

    def reduced_bath_populations(self, bath: int, t: float) -> np.ndarray:
        """Bath level populations over m_B = -N/2..N/2 for one bath (1-based).

        A sector of pair total m holds bath ``bath`` on level m + 1/2 with
        its qubit in the lower level and on m - 1/2 with it in the upper
        one.  So row j of the pair's ladder adds its weight times its
        ground population to level j - N/2 and times its excited one to
        the level below (an edge row starts, and stays, in one of them),
        and each interacting sector adds the same from its class's spectrum.
        """
        k = bath - 1
        n = self.params.n_bath[k]
        ladder = self.ladders[k]
        moved = ladder.shift * (1.0 - np.cos(ladder.gap * t))
        levels = np.zeros(n + 3)  # one spare level beyond each end
        levels[1:] += ladder.weights * (ladder.p_row[:, 0] - moved)
        levels[:-1] += ladder.weights * (ladder.p_row[:, 1] + moved)
        if self.spectrum is not None:
            mu, _, m_matrix = self.spectrum
            sectors = self.layout.interacting
            f = m_matrix * self._observable_in_eigenbasis(("exc", bath))
            gaps = mu[:, :, None] - mu[:, None, :]
            p = np.sum(f * np.cos(gaps * t), axis=(1, 2))[sectors.classes]
            j = sectors.pair_rows[:, k]
            levels += np.bincount(j + 1, sectors.weights * (1.0 - p), minlength=n + 3)
            levels += np.bincount(j, sectors.weights * p, minlength=n + 3)
        return levels[1:-1]

    def total_trace(self, t: float) -> float:
        """Weighted total trace at time t; equals one up to rounding.

        Summed from qubit 1's two level populations.
        """
        return float(self.series_terms((("pop", 1), ("exc", 1))).at([t]).sum())
