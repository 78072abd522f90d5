"""Triple-sector engine: enumeration, pruning, assembly, reduced dynamics."""

import functools
import math
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations, product as iter_product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_reference import (
    block_shift,
    centred_block,
    charge,
    dense_evolve_and_trace,
    excited_at,
    fridge,
    grid_temperatures,
    interacting_block,
    local_energy_diagonals,
    pair_block,
    pair_of,
    pair_table,
    qubit_state,
    sector_basis_indices,
    star,
    total_energy,
)
from spinfridge import oracle, series, thermo
from spinfridge.engine import (
    _GAP_LEVELS,
    _UPPER,
    RefrigeratorEngine,
    RefrigeratorParams,
    _hamiltonians,
    energy_keys,
    sector_layout,
)
from spinfridge.series import SeriesTerms, TimeGrid
from spinfridge.spinstar import temperature_from_excited


class TestParams:
    def test_autonomous_condition(self):
        assert fridge().is_autonomous()
        assert not fridge(epsilon=(1.0, 1.7, 0.8)).is_autonomous()

    def test_validation(self):
        with pytest.raises(ValueError):
            fridge(g=-0.1)
        with pytest.raises(ValueError):
            fridge(epsilon=(1.0, 2.0))
        with pytest.raises(ValueError):
            fridge(n=(0, 1, 1))

    @pytest.mark.parametrize("n", [(3.0, 3.0, 3.0), (np.int64(3), 3, 3)])
    def test_whole_bath_sizes_are_stored_as_int(self, n):
        p = fridge(n=n)
        assert p.n_bath == (3, 3, 3)
        assert all(type(v) is int for v in p.n_bath)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        levels = eng.reduced_bath_populations(1, 2.0)
        assert levels.shape == (4,)
        assert levels.sum() == pytest.approx(1.0, abs=1e-12)
        assert oracle.build_dense(p).dimension == 8 * 4 ** 3

    @pytest.mark.parametrize("n", [(True, 1, 1), (1, 1, np.True_), (2.5, 1, 1)])
    def test_bath_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n_bath must be a positive integer"):
            fridge(n=n)

    def test_one_pair(self):
        one = dict(epsilon=(1.0,), bath_energy=(2.0,), coupling=(0.5,), beta=(1.0,))
        star = RefrigeratorParams(n_bath=(3,), g=0.0, **one)
        assert star.pairs == 1
        assert not star.is_autonomous()
        with pytest.raises(ValueError, match="one pair needs g = 0"):
            RefrigeratorParams(n_bath=(3,), g=0.05, **one)
        with pytest.raises(ValueError, match="one entry per pair"):
            fridge(n=(3,))


def layout(p, prune_tol=0.0):
    return sector_layout(p.epsilon, p.bath_energy, p.n_bath, p.beta, prune_tol)


def interacting_weight(lay):
    return 0.0 if lay.interacting is None else float(lay.interacting.weights.sum())


class TestEnumeration:
    def test_counts_without_pruning(self):
        assert layout(fridge()).interacting.size == 1
        big = layout(fridge(n=(30, 30, 30)))
        assert [len(table["two_m"]) for table in big.pairs] == [32] * 3
        assert big.interacting.size == 30 ** 3  # every sector without an edge row

    def test_weights_are_normalized_fractions(self):
        lay = layout(fridge(n=(2, 2, 2)))
        for marginal, free in zip(lay.marginals, lay.free_weights):
            assert marginal.sum() == pytest.approx(1.0, abs=1e-12)
            assert free.sum() + lay.interacting.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(free <= marginal)

    def test_pruning_drops_low_weight_sectors(self):
        # pruned (2, 2, 2) sectors leave the interacting group for the
        # ladders: the weights still sum to 1
        full = layout(fridge(n=(6, 6, 6)))
        pruned = layout(fridge(n=(6, 6, 6)), 1e-9)
        assert pruned.interacting.size < full.interacting.size == 6 ** 3
        assert 0.0 < interacting_weight(full) - interacting_weight(pruned) < 1e-9
        for k, free in enumerate(pruned.free_weights):
            assert np.array_equal(pruned.marginals[k], full.marginals[k])
            assert np.all(free >= full.free_weights[k])
            assert free.sum() + interacting_weight(pruned) == pytest.approx(1.0, abs=1e-12)

    def test_pruning_perturbs_population_below_budget(self):
        p = fridge(n=(6, 6, 6))
        full = RefrigeratorEngine(p, prune_tol=0.0)
        pruned = RefrigeratorEngine(p, prune_tol=1e-12)
        for t in (0.0, 2.0, 5.0):
            assert abs(excited_at(full, 1, t) - excited_at(pruned, 1, t)) < 1e-10

    def test_pruning_at_production_size(self):
        # N=(30,30,30): pruning keeps a small fraction of the 32768 sectors
        # while retaining all but 1e-12 of the weight, and the cold-qubit
        # population moves by less than the conservation budget
        p = fridge(n=(30, 30, 30), coupling=(0.6, 0.5, 0.4), g=0.08)
        pruned_layout = layout(p, 1e-12)
        assert pruned_layout.interacting.size < 30 ** 3
        assert interacting_weight(layout(p)) - interacting_weight(pruned_layout) < 1e-12
        full = RefrigeratorEngine(p, prune_tol=0.0)
        pruned = RefrigeratorEngine(p, prune_tol=1e-12)
        assert pruned.layout is pruned_layout
        assert abs(excited_at(full, 1, 5.0) - excited_at(pruned, 1, 5.0)) < 1e-10

    def test_dims_flag_edges(self):
        # N = 1: rows two_m = -2, 0, 2; only (0, 0, 0) has no edge row, so it is
        # the one interacting sector, and (2, 0, -2) sits in the ladders
        lay = layout(fridge())
        assert [table["dim"].tolist() for table in lay.pairs] == [[1, 2, 1]] * 3
        assert lay.interacting.pair_rows.tolist() == [[1, 1, 1]]
        assert all(free[row] > 0.0 for free, row in zip(lay.free_weights, (2, 1, 0)))
        assert [free[1] for free in lay.free_weights] == pytest.approx(
            [marginal[1] - lay.interacting.weights[0] for marginal in lay.marginals], abs=1e-16
        )

    def test_prune_tol_validation(self):
        with pytest.raises(ValueError):
            layout(fridge(), 1.5)
        with pytest.raises(ValueError):
            RefrigeratorEngine(fridge(), prune_tol=-1e-3)


def sector_reference(p, times, keys):
    """Every key's row at ``times``, each sector evolved whole, without the engine.

    A sector is one row per pair; its block is the Kronecker sum of the
    pairs' blocks, plus g at the interaction entries when no row is an edge,
    its initial state the product of the rows' thermal states, its weight
    the product of the rows' Boltzmann weights.  Unpruned.
    """
    tables = [pair_table(p, i) for i in range(1, p.pairs + 1)]
    total = math.prod(np.exp(t["logw"]).sum() for t in tables)
    out = np.zeros((len(keys), len(times)))
    for rows in iter_product(*(range(len(t["two_m"])) for t in tables)):
        blocks, states, excited, couplings = [], [], [], []
        for t, j, a in zip(tables, rows, p.coupling):
            block = pair_block(t, j, a)
            blocks.append(block)
            two_level = len(block) == 2
            states.append(np.array(t["p_level"]) if two_level else np.ones(1))
            up = float(t["two_m"][j] > 0)  # an edge row's one level
            excited.append(np.array([0.0, 1.0]) if two_level else np.array([up]))
            couplings.append(block - np.diag(np.diag(block)))
        dims = [len(b) for b in blocks]

        def embed(op, k):
            factors = [op if i == k else np.eye(d) for i, d in enumerate(dims)]
            return functools.reduce(np.kron, factors)

        ops = {("exc", k + 1): embed(np.diag(excited[k]), k) for k in range(p.pairs)}
        ops.update({("pop", k + 1): np.eye(math.prod(dims)) - ops["exc", k + 1]
                    for k in range(p.pairs)})
        ops.update({("hsb", k + 1): embed(couplings[k], k) for k in range(p.pairs)})
        h = sum(embed(b, k) for k, b in enumerate(blocks))
        hint = np.zeros_like(h)
        if dims == [2, 2, 2]:
            hint[[2, 5], [5, 2]] = p.g
        ops["hint",] = hint
        lam, vecs = np.linalg.eigh(h + hint)
        rho0 = functools.reduce(np.kron, states)
        weight = math.prod(np.exp(t["logw"][j]) for t, j in zip(tables, rows)) / total
        for c, time in enumerate(times):
            u = (vecs * np.exp(-1j * lam * time)) @ vecs.T
            rho = u @ np.diag(rho0) @ u.conj().T
            for row, key in enumerate(keys):
                out[row, c] += weight * np.trace(rho @ ops[key]).real
    return out


class TestSectorAssembly:
    def test_decoupled_blocks_are_kron_sums(self):
        # at g = 0 every sector, (2, 2, 2) ones included, is the Kronecker sum
        # of its pairs' blocks, so the ladders give every row exactly
        p = fridge(g=0.0, n=(2, 1, 2))
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        assert eng.spectrum is None
        keys = tuple((kind, i) for i in (1, 2, 3) for kind in ("exc", "pop", "hsb"))
        times = [0.0, 1.3, 4.7]
        expected = sector_reference(p, times, keys + (("hint",),))
        assert np.max(np.abs(eng.series_terms(keys + (("hint",),)).at(times) - expected)) < 1e-13
        for k, (table, ladder) in enumerate(zip(eng.layout.pairs, eng.ladders)):
            interior = range(1, len(table["two_m"]) - 1)
            blocks = [pair_block(table, j, p.coupling[k]) for j in interior]
            gaps = np.diff(np.linalg.eigvalsh(np.array(blocks)), axis=1)[:, 0]
            assert np.allclose(ladder.gap[1:-1], gaps, rtol=0.0, atol=1e-13)

    def test_autonomous_interaction_states_degenerate(self):
        p = fridge(n=(3, 3, 3), g=0.07)
        assert p.is_autonomous()
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        assert eng.spectrum is not None
        sectors = eng.layout.interacting
        h = _hamiltonians(p, sectors)
        assert np.allclose(h[:, 2, 2], h[:, 5, 5], rtol=0.0, atol=1e-12)
        assert np.allclose(h[:, 2, 5], p.g, rtol=0.0, atol=1e-15)
        # each sector's block, centred, is its class's
        for rows, c in zip(sectors.pair_rows, sectors.classes):
            assert np.max(np.abs(h[c] - centred_block(p, eng.layout.pairs, rows))) < 1e-12

    def test_interaction_absent_in_edge_sectors(self):
        # sectors missing a basis bit carry no collective coupling: at any g
        # they stay in the ladders, and only the (2, 2, 2) blocks gain g
        p = fridge(n=(1, 1, 1), g=0.3)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        eng_free = RefrigeratorEngine(fridge(n=(1, 1, 1), g=0.0), prune_tol=0.0)
        assert eng_free.layout is eng.layout
        assert eng_free.spectrum is None and eng.spectrum is not None
        sectors = eng.layout.interacting
        assert sectors.size == 1  # the single full sector at N=(1,1,1); 26 are free
        tables = eng.layout.pairs
        blocks = [pair_block(t, 1, a) for t, a in zip(tables, p.coupling)]
        kron_sum = sum(functools.reduce(np.kron, [b if i == k else np.eye(2) for i in range(3)])
                       for k, b in enumerate(blocks))
        shift = block_shift(p, [t["two_m"][1] for t in tables]) * np.eye(8)
        gap = _hamiltonians(p, sectors)[sectors.classes[0]] - (kron_sum - shift)
        assert gap[2, 5] == gap[5, 2] == pytest.approx(0.3, abs=1e-15)
        gap[[2, 5], [5, 2]] = 0.0
        assert np.max(np.abs(gap)) < 1e-15
        for k in range(3):
            assert np.array_equal(eng.ladders[k].weights, eng.layout.free_weights[k])
            assert np.array_equal(eng_free.ladders[k].weights, eng.layout.marginals[k])

    def test_initial_sector_state_normalized(self):
        # the engine evolves m_matrix = V^T diag(p0) V; rotated back it must
        # be a unit-trace state diagonal in the sector basis, and every
        # ladder row starts with unit population
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)), prune_tol=0.0)
        _, vecs, m_matrix = eng.spectrum
        rho = vecs @ m_matrix @ vecs.transpose(0, 2, 1)
        assert np.allclose(np.trace(rho, axis1=1, axis2=2), 1.0, rtol=0.0, atol=1e-12)
        off = rho - np.einsum("gk,kl->gkl", np.diagonal(rho, axis1=1, axis2=2),
                              np.eye(8))
        assert np.max(np.abs(off)) < 1e-14
        assert np.allclose(np.diagonal(rho, axis1=1, axis2=2), eng.layout.interacting.p0,
                           rtol=0.0, atol=1e-14)
        for ladder in eng.ladders:
            assert np.allclose(ladder.p_row.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)

    def test_flat_initial_state_when_gaps_vanish(self):
        p = fridge(epsilon=(1.0, 2.0, 1.0), bath_energy=(1.0, 2.0, 1.0))
        full = layout(p).interacting
        assert full.size == 1
        assert np.allclose(full.p0, 1.0 / 8.0, atol=1e-12)

    def test_weight_reassembly_reproduces_product_state(self):
        # unpruned, each pair's ladder rows rebuild that pair's dense thermal
        # state exactly, and each interacting sector weighs the product of its
        # rows' marginals: the kept set is a product
        p = fridge(n=(1, 2, 1))
        lay = layout(p)
        model = oracle.build_dense(p)
        diagonal = np.diag(model.initial_state).reshape(model.dims)
        for k, n in enumerate(p.n_bath):
            others = tuple(i for i in range(6) if i not in (2 * k, 2 * k + 1))
            pair = diagonal.sum(axis=others)  # (qubit level, bath level m_B + N/2)
            rebuilt = np.zeros((2, n + 3))  # one spare bath level beyond each end
            rebuilt[0, 1:] = lay.marginals[k] * lay.pairs[k]["p_row"][:, 0]  # bath at m + 1/2
            rebuilt[1, :-1] = lay.marginals[k] * lay.pairs[k]["p_row"][:, 1]  # and at m - 1/2
            assert not rebuilt[0, -1] and not rebuilt[1, 0]
            assert np.max(np.abs(rebuilt[:, 1:-1] - pair)) < 1e-15
        group = lay.interacting
        product = math.prod(m[r] for m, r in zip(lay.marginals, group.pair_rows.T))
        assert np.allclose(group.weights, product, rtol=1e-14, atol=0.0)


class TestLayoutSharing:
    def test_engines_on_one_base_share_the_layout(self):
        first = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=1e-6)
        second = RefrigeratorEngine(
            fridge(n=(2, 1, 1), coupling=(0.1, 0.9, 0.0), g=0.0), prune_tol=1e-6
        )
        assert second.layout is first.layout
        sectors = first.layout.interacting
        lam, _, _ = first.spectrum  # one spectrum row per interacting class of the layout
        assert lam.shape == (len(sectors.class_weights), 8) == (1, 8)
        assert sectors.size == 2 and sectors.classes.tolist() == [0, 0]  # rows m = -1/2, 1/2
        assert second.spectrum is None  # at g = 0 the interacting sectors join the ladders

    def test_layout_arrays_are_read_only(self):
        lay = layout(fridge(n=(2, 1, 3)))
        sectors = lay.interacting
        arrays = [sectors.pair_rows, sectors.weights, sectors.classes, sectors.class_weights,
                  sectors.diagonal, sectors.p0]
        arrays += list(sectors.unit_coupling) + list(lay.marginals) + list(lay.free_weights)
        arrays += [a for table in lay.pairs for a in table.values() if isinstance(a, np.ndarray)]
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            sectors.weights[0] = 1.0
        with pytest.raises(ValueError):
            lay.free_weights[0][0] = 1.0

    def test_base_change_gives_a_new_layout(self):
        base = layout(fridge(n=(2, 2, 2)), 1e-9)
        assert layout(fridge(n=(2, 2, 2)), 1e-9) is base
        assert layout(fridge(n=(2, 2, 2), beta=(1.0, 2.0, 0.5)), 1e-9) is not base
        assert layout(fridge(n=(2, 3, 2)), 1e-9) is not base
        assert layout(fridge(n=(2, 2, 2)), 1e-12) is not base

    def test_reused_layout_gives_identical_series(self):
        p = fridge(n=(3, 2, 2), coupling=(0.2, 0.7, 0.4), g=0.06)
        for coupling in ((0.5, 0.1, 0.9), (0.0, 0.3, 0.3)):
            RefrigeratorEngine(replace(p, coupling=coupling), prune_tol=1e-9)
        reused = RefrigeratorEngine(p, prune_tol=1e-9)
        sector_layout.cache_clear()
        fresh = RefrigeratorEngine(p, prune_tol=1e-9)
        assert fresh.layout is not reused.layout
        for keys in ((("exc", 1), ("pop", 2)), (("hsb", 1), ("hint",))):
            a = reused.series_terms(keys)
            b = fresh.series_terms(keys)
            assert np.array_equal(a.const, b.const)
            assert np.array_equal(a.amps, b.amps)
            assert np.array_equal(a.omegas, b.omegas)


# (2, 2, 2) sectors -> classes at the paper's epsilon, E and T
_PAPER_CLASS_COUNTS = [
    (2, 1e-9, 8, 1), (4, 1e-9, 58, 8), (7, 1e-9, 149, 61), (10, 1e-9, 213, 96),
    (14, 1e-9, 255, 158), (20, 1e-9, 277, 224), (30, 1e-9, 279, 265), (30, 1e-12, 630, 533),
]


@st.composite
def _class_case(draw):
    """Three pairs at g > 0 with unequal N_k <= 12, A_k = 0 drawn often, and a prune_tol."""
    def per_pair(values):
        return tuple(draw(st.lists(values, min_size=3, max_size=3)))

    p = RefrigeratorParams(
        epsilon=per_pair(st.floats(0.2, 3.0)),
        bath_energy=per_pair(st.floats(0.2, 4.0)),
        coupling=per_pair(st.one_of(st.just(0.0), st.floats(0.0, 1.5))),
        g=draw(st.floats(1e-3, 0.5)),
        n_bath=tuple(draw(st.lists(st.integers(1, 12), min_size=3, max_size=3, unique=True))),
        beta=per_pair(st.floats(0.1, 5.0)),
    )
    return p, draw(st.sampled_from([0.0, 1e-9]))


def per_sector_reference(eng, times, keys):
    """Every key's row, the summed magnitude of its terms and operator, and
    every bath's levels at ``times``, each kept (2, 2, 2) sector solved from
    its own uncentred block; the pair ladders as the engine's."""
    p, lay = eng.params, eng.layout
    times = np.asarray(times, dtype=float)
    rows = np.zeros((len(keys), len(times)))
    magnitude = np.zeros(len(keys))
    levels = [np.zeros((len(times), n + 3)) for n in p.n_bath]  # a spare level at each end
    for row, key in enumerate(keys):
        if key[0] != "hint":
            ladder = eng.ladders[key[1] - 1]
            const, amps = ladder.series(key[0])
            rows[row] = const + amps @ np.cos(np.outer(ladder.gap[ladder.live], times))
            magnitude[row] = abs(const) + np.abs(amps).sum()
    for ladder, out in zip(eng.ladders, levels):
        moved = ladder.shift[:, None] * (1.0 - np.cos(np.outer(ladder.gap, times)))
        out[:, 1:] += (ladder.weights[:, None] * (ladder.p_row[:, :1] - moved)).T
        out[:, :-1] += (ladder.weights[:, None] * (ladder.p_row[:, 1:] + moved)).T
    sectors = lay.interacting
    if sectors is not None:
        blocks = np.array([interacting_block(p, lay.pairs, r) for r in sectors.pair_rows])
        lam, vecs = np.linalg.eigh(blocks)
        p0 = functools.reduce(np.kron, [np.array(t["p_level"]) for t in lay.pairs])
        m_matrix = np.einsum("sik,k,skj->sij", vecs.transpose(0, 2, 1), p0, vecs)
        phases = np.cos((lam[:, :, None, None] - lam[:, None, :, None]) * times)
        ops = {("hint",): np.zeros((8, 8))}
        ops["hint",][[2, 5], [5, 2]] = p.g
        for k, bit in enumerate(np.array(list(iter_product((0.0, 1.0), repeat=3))).T):
            ops["exc", k + 1] = np.diag(bit)
            ops["pop", k + 1] = np.diag(1.0 - bit)
            # the block with only pair k's coupling, its diagonal taken out
            alone = replace(p, coupling=tuple(a if i == k else 0.0
                                              for i, a in enumerate(p.coupling)), g=0.0)
            hsb = np.array([interacting_block(alone, lay.pairs, r) for r in sectors.pair_rows])
            ops["hsb", k + 1] = hsb * (1.0 - np.eye(8))

        def per_sector(op):
            # the rotation rounds at eps |O|, which bounds the terms' own rounding
            # where degenerate levels leave the eigenvectors free
            f = m_matrix * (vecs.transpose(0, 2, 1) @ op @ vecs)
            size = np.abs(f).sum(axis=(1, 2)) + np.abs(op).max(axis=(-2, -1))
            return np.einsum("sij,sijt->st", f, phases), size

        for row, key in enumerate(keys):
            values, size = per_sector(ops[key])
            rows[row] += sectors.weights @ values
            magnitude[row] += sectors.weights @ size
        for k, out in enumerate(levels):
            excited = per_sector(ops["exc", k + 1])[0]
            j = sectors.pair_rows[:, k]
            for c in range(len(times)):
                out[c] += np.bincount(j + 1, sectors.weights * (1.0 - excited[:, c]),
                                      minlength=out.shape[1])
                out[c] += np.bincount(j, sectors.weights * excited[:, c], minlength=out.shape[1])
    return rows, magnitude, [out[:, 1:-1] for out in levels]


class TestClassSharing:
    """The interacting sectors solved once per class of equal ladder-factor triples."""

    @pytest.mark.parametrize("n, prune_tol, sectors, classes", _PAPER_CLASS_COUNTS)
    def test_class_counts_at_paper_parameters(self, n, prune_tol, sectors, classes):
        kept = layout(fridge(n=(n, n, n)), prune_tol).interacting
        assert (kept.size, len(kept.class_weights)) == (sectors, classes)

    @pytest.mark.parametrize("n", [30, 50])
    def test_gaps_match_high_precision(self, n):
        # the centred blocks' gaps against 50-digit ones of the exact blocks,
        # at the 18 heaviest classes: within a few eps times the centred norm
        # (a block still holding its shift sum_k E_k m_k reaches 25-50 times),
        # every level pair of the spectrum and the 16 merged gaps of the series
        p = fridge(n=(n, n, n), coupling=(1.0, 0.992, 0.44), g=0.1)
        eng = RefrigeratorEngine(p, prune_tol=1e-9)
        sectors, lam = eng.layout.interacting, eng.spectrum[0]
        classes = len(sectors.class_weights)
        # the classes' terms follow qubit 1's ladder, 16 per class in class order
        merged = eng.series_terms((("exc", 1),)).omegas[-16 * classes:].reshape(classes, 16)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for c in np.argsort(-sectors.class_weights, kind="stable")[:18]:
                rows = sectors.pair_rows[np.flatnonzero(sectors.classes == c)[0]]
                h = mpmath.zeros(8, 8)
                for i, bits in enumerate(iter_product((0, 1), repeat=3)):
                    for k, (b, table) in enumerate(zip(bits, eng.layout.pairs)):
                        h[i, i] += (2 * b - 1) * (mpmath.mpf(p.epsilon[k])
                                                  - mpmath.mpf(p.bath_energy[k])) / 2
                        m = mpmath.mpf(int(table["two_m"][rows[k]])) / 2
                        u = mpmath.sqrt((mpmath.mpf(n + 1) / 2) ** 2 - m ** 2)
                        h[i, i ^ (4 >> k)] = mpmath.mpf(p.coupling[k]) * u
                h[2, 5] = h[5, 2] = mpmath.mpf(p.g)
                exact = sorted(mpmath.eigsy(h, eigvals_only=True))
                norm = float(max(abs(x) for x in exact))
                for i, j in combinations(range(8), 2):
                    got = mpmath.mpf(float(lam[c, j])) - mpmath.mpf(float(lam[c, i]))
                    assert abs(float(got - (exact[j] - exact[i]))) <= 10 * eps * norm
                for gap, i, j in zip(merged[c], *_GAP_LEVELS):
                    assert abs(float(mpmath.mpf(float(gap)) - (exact[j] - exact[i]))) <= 10 * eps * norm

    @settings(max_examples=30, deadline=None)
    @given(_class_case(), st.floats(0.0, 5.0))
    def test_matches_per_sector_blocks(self, case, t):
        p, prune_tol = case
        eng = RefrigeratorEngine(p, prune_tol=prune_tol)
        keys = tuple((kind, i) for i in (1, 2, 3) for kind in ("exc", "pop", "hsb")) + (("hint",),)
        times = [0.0, t]
        terms = eng.series_terms(keys)
        rows, magnitude, levels = per_sector_reference(eng, times, keys)
        # sum|a| of either side's terms, the reference's with |O|: a row whose
        # terms cancel (E = eps starts every level of a sector equally
        # populated) reads rounding; the floor is for subnormal couplings
        scale = np.maximum(np.abs(terms.const) + np.abs(terms.amps).sum(axis=1), magnitude)
        floor = 64 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(terms.at(times) - rows) <= 1e-14 * scale[:, None] + floor)
        for k, out in enumerate(levels):
            for c, time in enumerate(times):
                assert np.max(np.abs(eng.reduced_bath_populations(k + 1, time) - out[c])) < 1e-14
        sectors = eng.layout.interacting
        if sectors is None:
            assert eng.spectrum is None
            return
        tables = eng.layout.pairs
        triples = {tuple(float(t["u"][j]) for t, j in zip(tables, rows))
                   for rows in sectors.pair_rows}
        mirrors = {tuple(abs(int(t["two_m"][j])) for t, j in zip(tables, rows))
                   for rows in sectors.pair_rows}
        assert len(sectors.class_weights) == len(triples) == len(mirrors)
        assert eng.spectrum[0].shape == (len(triples), 8)
        for k, table in enumerate(tables):
            assert np.array_equal(sectors.unit_coupling[k][sectors.classes],
                                  table["u"][sectors.pair_rows[:, k]])
        assert np.allclose(sectors.class_weights,
                           np.bincount(sectors.classes, sectors.weights), rtol=1e-15, atol=0.0)


@st.composite
def _box_case(draw):
    """Three pairs in the optimizer box at g > 0, A_k on its 0 wall often,
    epsilon and E drawn independently (non-autonomous), unequal N_k <= 30."""
    def per_pair(values):
        return tuple(draw(st.lists(values, min_size=3, max_size=3)))

    p = RefrigeratorParams(
        epsilon=per_pair(st.floats(0.2, 3.0)),
        bath_energy=per_pair(st.floats(0.2, 4.0)),
        coupling=per_pair(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        g=draw(st.floats(1e-6, 0.1)),
        n_bath=tuple(draw(st.lists(st.integers(1, 30), min_size=3, max_size=3, unique=True))),
        beta=per_pair(st.floats(0.1, 5.0)),
    )
    return p, draw(st.sampled_from([0.0, 1e-9]))


# The signed flip of every pair bit, Y x Y x Y with Y = [[0, 1], [-1, 0]]
_CHIRAL_FLIP = functools.reduce(np.kron, [np.array([[0.0, 1.0], [-1.0, 0.0]])] * 3)


class TestChiralSymmetry:
    """The centred blocks anticommute with the signed flip, so their spectrum
    is +-sigma and the level pairs (i, j) and (7 - j, 7 - i) share a gap."""

    @settings(max_examples=30, deadline=None)
    @given(_box_case())
    def test_flip_negates_every_class_block(self, case):
        p, prune_tol = case
        sectors = layout(p, prune_tol).interacting
        if sectors is None:
            return
        h = _hamiltonians(p, sectors)
        assert np.array_equal(_CHIRAL_FLIP @ h @ _CHIRAL_FLIP.T, -h)
        # eigh's ascending levels pair up to its rounding, a few eps ||H_c||
        # (at most 17 eps ||H_c|| over 1500 random box points)
        lam = np.linalg.eigh(h)[0]
        norm = np.abs(lam).max(axis=1, keepdims=True)
        assert np.all(np.abs(lam + lam[:, ::-1]) <= 32 * np.finfo(float).eps * norm)

    @settings(max_examples=20, deadline=None)
    @given(_box_case(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))
    def test_merged_series_matches_every_level_pair(self, case, times):
        # the 16-gap series against the 28-gap one rebuilt from the same
        # eigenvectors at eigh's own levels: the merged gaps move each term by
        # at most the levels' pairing error, a few eps ||H_c||, so a value by
        # that times t sum|a|, plus the sums' rounding (at most 12 eps
        # (1 + ||H_c|| t) sum|a| over 1500 random box points); the floor is
        # for subnormal couplings
        p, prune_tol = case
        eng = RefrigeratorEngine(p, prune_tol=prune_tol)
        if eng.spectrum is None:
            return
        sectors = eng.layout.interacting
        mu, vecs, m_matrix = eng.spectrum
        lam, vecs_again = np.linalg.eigh(_hamiltonians(p, sectors))
        assert np.array_equal(vecs, vecs_again)
        assert np.array_equal(mu, -mu[:, ::-1]) and np.all(np.diff(mu, axis=1) >= 0.0)
        keys = tuple((kind, i) for i in (1, 2, 3) for kind in ("exc", "pop", "hsb")) + (("hint",),)
        terms = eng.series_terms(keys)
        classes = len(sectors.class_weights)
        ladder = terms.omegas.size - 16 * classes  # the ladders' terms come first
        weights = 2.0 * sectors.class_weights[:, None]
        pairs = np.stack([
            (weights * (m_matrix * eng._observable_in_eigenbasis(key))[:, _UPPER[0], _UPPER[1]]).ravel()
            for key in keys
        ])
        reference = SeriesTerms(
            terms.const, np.concatenate([terms.amps[:, :ladder], pairs], axis=1),
            np.concatenate([terms.omegas[:ladder], (lam[:, _UPPER[1]] - lam[:, _UPPER[0]]).ravel()]),
        )
        times = np.array([0.0] + times)
        size = np.abs(reference.const) + np.abs(reference.amps).sum(axis=1)
        norm = float(np.abs(lam).max())
        bound = 32 * np.finfo(float).eps * np.outer(size, 1.0 + norm * times)
        bound += 64 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(terms.at(times) - reference.at(times)) <= bound)


class TestReducedDynamics:
    def test_thermal_populations_at_t0(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        for i, (eps, beta) in enumerate(zip((1.0, 2.0, 1.0), (1.0, 1.0, 0.5)), 1):
            expected = math.exp(beta * eps / 2) / (2 * math.cosh(beta * eps / 2))
            assert 1.0 - excited_at(eng, i, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_frozen_without_couplings(self):
        eng = RefrigeratorEngine(fridge(coupling=(0, 0, 0), g=0.0, n=(2, 2, 2)))
        for i in (1, 2, 3):
            p0 = excited_at(eng, i, 0.0)
            assert excited_at(eng, i, 7.3) == pytest.approx(p0, abs=1e-12)

    @pytest.mark.parametrize("n", [(1, 1, 1), (2, 1, 1)])
    @pytest.mark.parametrize("autonomous", [True, False])
    def test_matches_dense_oracle(self, n, autonomous):
        if autonomous:
            p = fridge(n=n)
        else:
            p = fridge(
                n=n, epsilon=(1.0, 1.7, 0.8), bath_energy=(2.0, 3.0, 1.5),
                coupling=(0.3, 0.6, 0.2), g=0.08, beta=(0.8, 1.2, 0.6),
            )
            assert not p.is_autonomous()
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for t in (0.0, 2.0, 5.0):
            for qubit in (1, 2, 3):
                dense_q = dense_evolve_and_trace(
                    model, t, 2 * (qubit - 1), spectrum=spectrum
                )
                assert np.max(np.abs(
                    dense_q - qubit_state(eng, qubit, t)
                )) < 1e-9
                dense_b = dense_evolve_and_trace(
                    model, t, 2 * qubit - 1, spectrum=spectrum
                )
                assert np.max(np.abs(
                    np.diag(dense_b).real - eng.reduced_bath_populations(qubit, t)
                )) < 1e-9

    def test_bath_levels_beyond_the_dense_oracle(self):
        # at g = 0 each bath moves with its own qubit only, so the pruned
        # three-pair engine's bath levels are those of one unpruned pair
        p = fridge(n=(30, 30, 30), g=0.0)
        three = RefrigeratorEngine(p, prune_tol=1e-12)
        for bath in (1, 2, 3):
            one = RefrigeratorEngine(pair_of(p, bath), prune_tol=0.0)
            for t in (0.0, 3.7, 9.1):
                assert np.max(np.abs(
                    three.reduced_bath_populations(bath, t) - one.reduced_bath_populations(1, t)
                )) < 1e-11

    @pytest.mark.parametrize("n", [40, 200])
    def test_one_pair_matches_dense_oracle_at_large_n(self, n):
        # dense dimension 2 (n + 1): 82 and 402
        p = star(eps=1.0, bath_e=2.0, a=0.5, n=n, beta=1.0)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for t in (0.0, 0.7, 3.1, 9.4, 25.0):
            qubit = dense_evolve_and_trace(model, t, 0, spectrum=spectrum)
            assert np.max(np.abs(qubit - qubit_state(eng, 1, t))) < 1e-10
            bath = np.diag(dense_evolve_and_trace(model, t, 1, spectrum=spectrum)).real
            assert np.max(np.abs(bath - eng.reduced_bath_populations(1, t))) < 1e-10

    def test_temperature_series_starts_at_bath_temperature(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        for i, beta in zip((1, 2, 3), (1.0, 1.0, 0.5)):
            (temperature,) = grid_temperatures(eng, (i,), TimeGrid(0.0, 0.2, 0.1))
            assert temperature[0] == pytest.approx(1.0 / beta, abs=1e-9)

    def test_conservation(self):
        eng = RefrigeratorEngine(fridge(n=(3, 2, 2), g=0.09), prune_tol=0.0)
        e0 = total_energy(eng, 0.0)
        charges0 = [charge(eng, i, 0.0) for i in (1, 2, 3)]
        for t in (1.1, 4.4, 9.7):
            assert eng.total_trace(t) == pytest.approx(1.0, abs=1e-12)
            assert total_energy(eng, t) == pytest.approx(e0, abs=1e-10)
            for i in (1, 2, 3):
                assert charge(eng, i, t) == pytest.approx(
                    charges0[i - 1], abs=1e-10
                )

    def test_series_matches_single_time_queries(self):
        eng = RefrigeratorEngine(fridge(n=(2, 2, 2)))
        grid = TimeGrid(0.0, 2.99, 0.01)
        times = grid.points()
        series = eng.excited_terms((1,)).on_grid(grid.start, grid.step, len(times))[0]
        for k in (0, 117, 250):
            assert series[k] == pytest.approx(excited_at(eng, 1, float(times[k])), abs=1e-11)


def _state(obj):
    """Everything reachable from ``obj``'s attributes: each array's identity
    and bytes, each container's contents, each object's identity."""
    if isinstance(obj, np.ndarray):
        return ("array", id(obj), obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return ("dict", id(obj), {key: _state(value) for key, value in obj.items()})
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, id(obj), [_state(value) for value in obj])
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, id(obj), _state(vars(obj)))
    return obj


class TestEngineIsImmutable:
    """Queries add, rebind and mutate no engine attribute: all queries are pure."""

    @pytest.mark.parametrize("params", [
        fridge(n=(3, 2, 2), g=0.09),
        fridge(n=(3, 2, 2), g=0.0),
        star(n=3),
    ], ids=["three-pairs-g", "three-pairs-g0", "one-pair"])
    def test_queries_leave_the_engine_unchanged(self, params):
        eng = RefrigeratorEngine(params, prune_tol=0.0)
        before = _state(eng)
        qubits = range(1, params.pairs + 1)
        keys = tuple(("exc", q) for q in qubits) + energy_keys(params.pairs)
        for _ in range(2):  # a cache would be read back on the second round
            eng.excited_terms(qubits)
            eng.series_terms(keys)
            eng.series_terms((("pop", 1),))
            eng.total_trace(1.3)
            for bath in qubits:
                eng.reduced_bath_populations(bath, 2.1)
            thermo.energy_balance(eng, 0.7)
        assert _state(eng) == before


class TestTimeGrid:
    def test_points_run_from_start_through_stop(self):
        grid = TimeGrid(0.3, 2.0, 0.01)
        assert len(grid) == len(grid.points()) == 171
        assert grid.points()[0] == 0.3
        assert grid.points()[-1] == pytest.approx(2.0, abs=1e-12)

    def test_points_are_start_plus_k_steps(self):
        # the kernel evaluates at start + k step, not at multiples of (start + step) - start
        grid = TimeGrid(0.3, 2.0, 0.01)
        assert np.array_equal(grid.points(), 0.3 + 0.01 * np.arange(171))

    def test_length_is_numpys_arange_length(self):
        rng = np.random.default_rng(5)
        for start, span, step in zip(rng.uniform(-5.0, 5.0, 500), rng.uniform(1e-3, 10.0, 500),
                                     10.0 ** rng.uniform(-3.0, 0.0, 500)):
            grid = TimeGrid(start, start + span, step)
            assert len(grid) == len(np.arange(start, grid.stop + 0.5 * step, step))

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (0.0, 1.0, math.nan),
        (1.0, 1.0, 0.1), (2.0, 1.0, 0.1), (0.0, math.nan, 0.1),
    ])
    def test_rejects_bad_input(self, start, stop, step):
        with pytest.raises(ValueError, match="time_grid"):
            TimeGrid(start, stop, step)

    def test_grid_off_zero_matches_direct_evaluation(self):
        # the engine's kernel starts at grid.start; SeriesTerms.at is the reference
        eng = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=0.0)
        grid = TimeGrid(0.3, 2.0, 0.01)
        times = grid.points()
        eps = np.finfo(float).eps
        exc = eng.excited_terms((1, 2, 3))
        currents = thermo.heat_current_series(eng, grid)
        bound = 1e-14 * np.abs(exc.amps).sum(axis=1) + eps
        assert np.all(np.abs(currents.excited - exc.at(times)) <= bound[:, None])
        rates = exc.at(times, derivative=True)[1]
        bound = 1e-14 * np.abs(exc.amps * exc.omegas).sum(axis=1)
        assert np.array_equal(currents.time, times)
        for values, scale in ((currents.qdot_s, np.array(eng.params.epsilon)),
                              (currents.qdot_b, -np.array(eng.params.bath_energy))):
            direct = scale[:, None] * rates
            assert np.all(np.abs(values - direct) <= (np.abs(scale) * bound)[:, None])


class TestTrigSeries:
    def test_recurrence_matches_direct(self):
        rng = np.random.default_rng(2)
        omegas = rng.uniform(0.0, 20.0, size=300)
        amps = rng.normal(size=(1, 300))
        terms = SeriesTerms(np.array([0.3]), amps, omegas)
        grid = terms.on_grid(0.0, 0.01, 500)
        direct = terms.at(np.arange(500) * 0.01)
        assert np.max(np.abs(grid - direct)) < 1e-13 * (1.0 + np.sum(np.abs(amps)))
        got = terms.on_grid(0.5, 0.02, 400, derivative=True)
        want = terms.at(0.5 + np.arange(400) * 0.02, derivative=True)
        for g, w, scale in zip(got, want, (1.0 + np.abs(amps).sum(), np.abs(amps * omegas).sum())):
            assert np.max(np.abs(g - w)) < 1e-13 * scale

    def test_long_grid_with_fast_terms(self):
        # n = 2001 doubles the phases over 11 levels, squaring between anchors
        rng = np.random.default_rng(4)
        omegas = rng.uniform(0.0, 500.0, size=400)
        amps = rng.normal(size=(1, 400))
        terms = SeriesTerms(np.array([0.1]), amps, omegas)
        grid = terms.on_grid(0.0, 0.005, 2001)
        direct = terms.at(np.arange(2001) * 0.005)
        assert np.max(np.abs(grid - direct)) < 1e-12 * np.sum(np.abs(amps))

    def test_taylor_expansion_matches_direct(self):
        rng = np.random.default_rng(5)
        terms = SeriesTerms(np.array([0.3, -0.1]), rng.normal(size=(2, 300)),
                            rng.uniform(0.0, 50.0, size=300))
        centres, radius = np.array([0.0, 3.7]), 1.0 / 50.0
        coef = terms.taylor(centres, radius)
        assert coef.shape[:2] == (2, 2)
        x = np.linspace(-radius, radius, 9)
        poly = coef @ (x[:, None] ** np.arange(coef.shape[2])).T
        bound = 1e-14 * np.abs(terms.amps).sum(axis=1)
        for c, centre in enumerate(centres):
            direct = terms.at(centre + x)
            assert np.all(np.abs(poly[:, c] - direct) <= bound[:, None])

    def test_multi_row_amplitudes(self):
        terms = SeriesTerms(np.zeros(2), np.eye(2), np.array([1.0, 2.0]))
        out = terms.on_grid(0.0, 0.1, 50)
        assert out.shape == (2, 50)
        assert out[0] == pytest.approx(np.cos(np.arange(50) * 0.1), abs=1e-12)

    def test_empty_series_is_constant(self):
        terms = SeriesTerms(np.array([0.7]), np.empty((1, 0)), np.empty(0))
        values, rates = terms.on_grid(0.0, 0.1, 5, derivative=True)
        assert np.allclose(values, 0.7)
        assert not rates.any()


class TestDirectRates:
    """``at(..., derivative=True)`` against closed forms, with no grid kernel.

    This is the reference the kernel's rates are held to.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 50.0),
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
    def test_one_term_rates_are_minus_a_w_sin(self, const, a, w, times):
        terms = SeriesTerms(np.array([const]), np.array([[a]]), np.array([w]))
        values, rates = terms.at(times, derivative=True)
        t = np.array(times)
        eps = np.finfo(float).eps
        assert values.shape == rates.shape == (1, t.size)
        assert np.all(np.abs(values[0] - (const + a * np.cos(w * t))) <= 2 * eps)
        assert np.all(np.abs(rates[0] + a * w * np.sin(w * t)) <= 2 * eps * abs(a * w))

    def test_rows_match_one_row_series_and_central_differences(self):
        rng = np.random.default_rng(11)
        terms = SeriesTerms(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 60)),
                            rng.uniform(0.0, 5.0, 60))
        times, h = np.linspace(-4.0, 9.0, 41), 1e-5
        values, rates = terms.at(times, derivative=True)
        assert np.array_equal(values, terms.at(times))
        for row in range(3):
            one = SeriesTerms(terms.const[row:row + 1], terms.amps[row:row + 1], terms.omegas)
            for got, want in zip((values, rates), one.at(times, derivative=True)):
                assert np.allclose(got[row], want[0], rtol=0.0, atol=1e-14)
        # the truncation error h^2 w^3 sum|a| / 6 stays below 1e-8 sum|a| at w <= 5
        central = (terms.at(times + h) - terms.at(times - h)) / (2 * h)
        size = np.abs(terms.amps).sum(axis=1)
        assert np.all(np.abs(rates - central) <= 1e-8 * size[:, None])

    def test_scratch_stays_near_the_chunk_size(self):
        # 400 times of 5000 terms: one chunk of them would hold 16 MB of phases
        rng = np.random.default_rng(5)
        terms = SeriesTerms(np.zeros(1), rng.uniform(-1.0, 1.0, (1, 5000)),
                            rng.uniform(0.0, 50.0, 5000))
        times = np.linspace(0.0, 10.0, 400)
        tracemalloc.start()
        try:
            values = terms.at(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * series._CHUNK_BYTES
        direct = np.cos(np.outer(times, terms.omegas)) @ terms.amps[0]
        assert np.all(np.abs(values[0] - direct) <= 1e-12 * np.abs(terms.amps).sum())


@st.composite
def _series_case(draw):
    """Grid, frequencies and (rows, m) amplitudes, with omega = 0 and omega*dt near pi."""
    n = draw(st.sampled_from([1, 2, 3, 49, 53]))
    dt = draw(st.floats(0.05, 0.5))
    t0 = draw(st.floats(-3.0, 3.0))
    near_pi = st.floats(-1e-6, 1e-6).map(lambda d: math.pi / dt * (1.0 + d))
    omega = st.one_of(st.just(0.0), st.floats(0.0, 20.0), near_pi)
    omegas = np.array(draw(st.lists(omega, max_size=40)), dtype=float)
    rows = draw(st.integers(1, 3))
    amp = st.floats(-1.0, 1.0)
    amps = np.array(draw(st.lists(
        st.lists(amp, min_size=omegas.size, max_size=omegas.size),
        min_size=rows, max_size=rows,
    )), dtype=float).reshape(rows, omegas.size)
    const = np.array(draw(st.lists(amp, min_size=rows, max_size=rows)))
    return n, dt, t0, omegas, amps, const


class TestGridKernelProperty:
    @settings(max_examples=150, deadline=None)
    @given(_series_case(), st.booleans())
    # a subnormal amplitude: the relative bound alone underflows to 0
    @example((2, 0.5, 1.0, np.array([1.0]), np.array([[5e-324]]), np.array([0.0])), False)
    def test_matches_direct_evaluation(self, case, derivative):
        n, dt, t0, omegas, amps, const = case
        terms = SeriesTerms(const, amps, omegas)
        times = t0 + np.arange(n) * dt
        grid = terms.on_grid(t0, dt, n, derivative=derivative)
        direct = terms.at(times, derivative=derivative)
        single = SeriesTerms(const[:1], amps[:1], omegas).on_grid(t0, dt, n,
                                                                   derivative=derivative)
        if not derivative:
            grid, direct, single = (grid,), (direct,), (single,)
        floor = 64 * np.finfo(float).smallest_subnormal
        sizes = (np.abs(amps).sum(axis=1) + np.abs(const), np.abs(amps * omegas).sum(axis=1))
        for got, want, one, size in zip(grid, direct, single, sizes):
            assert got.shape == want.shape == (amps.shape[0], n)
            bound = 1e-12 * size + floor
            assert np.all(np.abs(got - want) <= bound[:, None])
            assert np.all(np.abs(one[0] - want[0]) <= bound[0])


@st.composite
def _fused_case(draw):
    """Grid and (rows, m) cosine amplitudes, m = 0 included, with w|t| <= 64.

    The reach w|t| is capped because direct evaluation itself rounds the
    phase w t relative to w|t|, so no absolute bound holds for both at any
    reach; gaps near the Nyquist frequency pi/dt come in where the cap
    allows them.
    """
    n = draw(st.sampled_from([1, 2, 3, 2001]))
    dt = draw(st.floats(0.05, 0.5) if n < 2001 else st.floats(1e-4, 5e-3))
    t0 = draw(st.floats(-3.0, 3.0))
    top = 64.0 / max(abs(t0), abs(t0 + (n - 1) * dt), 0.1)
    omega = [st.just(0.0), st.floats(0.0, top)]
    if math.pi / dt < top:
        omega.append(st.floats(-1e-6, 1e-6).map(lambda d: math.pi / dt * (1.0 + d)))
    omegas = np.array(draw(st.lists(st.one_of(omega), max_size=30)), dtype=float)
    rows = draw(st.integers(1, 3))
    amp = st.floats(-1.0, 1.0)
    amps = np.array(draw(st.lists(
        st.lists(amp, min_size=omegas.size, max_size=omegas.size),
        min_size=rows, max_size=rows,
    )), dtype=float).reshape(rows, omegas.size)
    const = np.array(draw(st.lists(amp, min_size=rows, max_size=rows)))
    return n, dt, t0, omegas, amps, const


class TestFusedGridPass:
    @settings(max_examples=100, deadline=None)
    @given(_fused_case())
    @example((5, 0.1, 0.7, np.empty(0), np.empty((2, 0)), np.array([0.25, -1.0])))
    def test_rows_match_direct_series_and_derivative(self, case):
        n, dt, t0, omegas, amps, const = case
        terms = SeriesTerms(const, amps, omegas)
        values, rates = terms.on_grid(t0, dt, n, derivative=True)
        floor = 64 * np.finfo(float).smallest_subnormal
        for got, want, size in zip(
            (values, rates), terms.at(t0 + np.arange(n) * dt, derivative=True),
            (np.abs(amps).sum(axis=1) + np.abs(const), np.abs(amps * omegas).sum(axis=1)),
        ):
            assert got.shape == want.shape == (amps.shape[0], n)
            assert np.all(np.abs(got - want) <= (5e-14 * size + floor)[:, None])


@st.composite
def _binned_case(draw):
    """A pass the selection bins: thousands of gaps on a long grid, t0 != 0.

    Gaps hold omega = 0, two values repeated past a chunk of gaps (so a bin
    is cut between chunks; one sits on a bin edge, where the Taylor
    remainder peaks), gaps on bin edges and gaps filling [0, top] with
    w|t| <= 64 as in ``_fused_case``.  Amplitudes of one sign add those
    remainders up.  A few gaps at omega dt near pi widen the span by about
    200 bins, so they come with 16k more gaps to keep the pass binned.
    Their w|t| reaches 10^4, and the phase w t rounds relative to it in
    direct evaluation as in the kernel, so their amplitudes are below
    1/omega, where that rounding stays under the bound.  Amplitudes and
    gaps come from a drawn seed: drawing 10^4 floats one by one is too slow
    for the suite.  Rows are 1-6 plain rows, or 1-3 rows with their fused
    derivative rows.
    """
    n = draw(st.sampled_from([2001, 1537]))
    dt = draw(st.floats(1e-3, 5e-3))
    t0 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 3.0))
    fused = draw(st.booleans())
    rows = draw(st.integers(1, 3 if fused else 6))
    near_pi = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 64.0 / max(abs(t0), abs(t0 + (n - 1) * dt))
    block = series._binned_block(1, 10**6, n, dt, 0.0)  # the binned form's block length
    edge = 4.0 * series._BIN_REACH / ((block - 1) * dt)  # bin width, bins starting at 0
    omegas = np.concatenate((
        np.zeros(draw(st.integers(1, 50))),
        np.repeat([edge * rng.integers(0, int(top / edge) + 1), rng.uniform(0.0, top)],
                  draw(st.integers(1, 2000))),
        edge * rng.integers(0, int(top / edge) + 1, draw(st.integers(0, 200))),
        rng.uniform(0.0, top, draw(st.integers(2000, 4000)) + (16_000 if near_pi else 0)),
        np.pi / dt * (1.0 + rng.uniform(-1e-6, 1e-6, near_pi)),
    ))
    amps = rng.uniform(-draw(st.sampled_from([0.0, 1.0])), 1.0, (rows, omegas.size))
    amps[:, omegas.size - near_pi:] /= omegas[omegas.size - near_pi:]
    const = rng.uniform(-1.0, 1.0, rows)
    return n, dt, t0, fused, omegas, amps, const


class TestBinnedGridPass:
    @settings(max_examples=10, deadline=None)
    @given(_binned_case())
    def test_rows_match_direct_evaluation(self, case):
        n, dt, t0, fused, omegas, amps, const = case
        rows = amps.shape[0] * (1 + fused)
        assert series._binned_block(rows, omegas.size, n, dt, float(np.ptp(omegas)))
        terms = SeriesTerms(const, amps, omegas)
        got = terms.on_grid(t0, dt, n, derivative=True) if fused else (terms.on_grid(t0, dt, n),)
        sampled = np.unique(np.r_[np.arange(0, n, 7), n - 1])  # direct evaluation is slow
        want = terms.at(t0 + sampled * dt, derivative=True)
        sizes = (np.abs(amps).sum(axis=1) + np.abs(const), np.abs(amps * omegas).sum(axis=1))
        floor = 64 * np.finfo(float).smallest_subnormal
        for values, reference, size in zip(got, want, sizes):
            assert values.shape == (amps.shape[0], n)
            assert np.all(np.abs(values[:, sampled] - reference)
                          <= (5e-14 * size + floor)[:, None])

    def test_selection_bins_the_evolve_pass_only(self, monkeypatch):
        binned = []
        kernel = series._binned_pass
        monkeypatch.setattr(series, "_binned_pass",
                            lambda *args: binned.append(args) or kernel(*args))
        rng = np.random.default_rng(7)
        # evolve at N = 30: three excited rows and their derivatives, 8618 gaps
        # up to w_max dt = 0.27, on the default grid of 2001 points
        evolve = SeriesTerms(np.zeros(3), rng.uniform(-1.0, 1.0, (3, 8618)),
                             rng.uniform(0.0, 54.0, 8618))
        evolve.on_grid(0.0, 0.005, 2001, derivative=True)
        assert len(binned) == 1
        # the time search's scan of a series head: one row of 256 gaps on the
        # same grid
        scan = SeriesTerms(np.zeros(1), rng.uniform(-1.0, 1.0, (1, 256)),
                           rng.uniform(0.0, 54.0, 256))
        scan.on_grid(0.0, 0.005, 2001)
        assert len(binned) == 1
        assert series._binned_block(6, 8618, 2001, 0.005, 54.0)
        assert not series._binned_block(1, 256, 2001, 0.005, 54.0)


class TestMultiKeySeries:
    def test_rows_equal_single_key_terms(self):
        eng = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=0.0)
        keys = (("exc", 1), ("pop", 2), ("exc", 3), ("pop", 1))
        multi = eng.series_terms(keys)
        assert multi.amps.shape[0] == len(keys)
        for row, key in enumerate(keys):
            single = eng.series_terms((key,))
            # a row is zero in the columns of the other pairs' ladders
            own = np.isin(multi.omegas, single.omegas)
            assert not multi.amps[row, ~own].any()
            assert multi.const[row] == single.const[0]
            assert np.array_equal(multi.amps[row, own], single.amps[0])
            assert np.array_equal(multi.omegas[own], single.omegas)

    def test_rows_with_absent_observables_evaluate_equal(self):
        # hsb of an edge pair and hint outside full sectors contribute no
        # terms on their own, so the shared gaps carry zero amplitudes there
        eng = RefrigeratorEngine(fridge(n=(2, 1, 1)), prune_tol=0.0)
        keys = (("hsb", 1), ("hint",), ("exc", 2))
        multi = eng.series_terms(keys)
        for row, key in enumerate(keys):
            single = eng.series_terms((key,))
            for got, want in zip(multi.on_grid(0.0, 5.0 / 36, 37, derivative=True),
                                 single.on_grid(0.0, 5.0 / 36, 37, derivative=True)):
                assert np.allclose(got[row], want[0], rtol=0.0, atol=1e-14)
            for got, want in zip(multi.at([1.7], derivative=True),
                                 single.at([1.7], derivative=True)):
                assert np.allclose(got[row], want[0], rtol=0.0, atol=1e-14)


class TestLowTemperature:
    COLD = dict(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.4, 0.6, 0.5),
        g=0.05,
        beta=(40.0, 40.0, 20.0),
    )

    def test_cold_production_config_runs(self):
        # prune_tol 1e-9 folds every (2, 2, 2) sector here, the ones holding
        # the excitation of qubits 1 and 2 among them: on the ladders they
        # still carry it, so all three temperatures read, and every p_k
        # matches the unpruned engine (measured: 2.9e-15 relative)
        p = RefrigeratorParams(n_bath=(30, 30, 30), **self.COLD)
        eng = RefrigeratorEngine(p, prune_tol=1e-9)
        assert eng.layout.interacting is None
        grid = TimeGrid(0.0, 10.0, 0.005)
        temperatures = grid_temperatures(eng, (1, 2, 3), grid)
        assert temperatures[:, 0] == pytest.approx([1 / 40, 1 / 40, 1 / 20], rel=1e-12)
        coarse = TimeGrid(0.0, 10.0, 0.05)
        rows = [e.excited_terms((1, 2, 3)).on_grid(coarse.start, coarse.step, len(coarse))
                for e in (eng, RefrigeratorEngine(p, prune_tol=0.0))]
        assert np.all(rows[1] > 0.0)
        assert np.max(np.abs(rows[0] / rows[1] - 1.0)) <= 1e-12

    def test_underflowed_excitation_is_an_error(self):
        # at beta = 1000 every row holding an excitation weighs e^-1000 of
        # the bottom edge row, which underflows to 0: p_k reads 0 at every time
        p = RefrigeratorParams(n_bath=(3, 3, 3), **dict(self.COLD, beta=(1000.0,) * 3))
        eng = RefrigeratorEngine(p)
        with pytest.raises(ValueError, match="qubit 1's excited population underflows"):
            eng.excited_terms((1, 2, 3))

    def test_cold_small_bath_matches_dense_oracle(self):
        p = RefrigeratorParams(n_bath=(2, 2, 2), **self.COLD)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        grid = TimeGrid(0.0, 5.0, 2.5)
        for qubit, temperature in zip((1, 2, 3), grid_temperatures(eng, (1, 2, 3), grid)):
            eps = p.epsilon[qubit - 1]
            assert temperature[0] == pytest.approx(1.0 / p.beta[qubit - 1], rel=1e-12)
            for k, t in enumerate(grid.points()):
                dense = dense_evolve_and_trace(
                    model, t, 2 * (qubit - 1), spectrum=spectrum
                )
                p_exc = dense[1, 1].real
                assert 0.0 < p_exc < 1e-8
                p_at = eng.excited_terms((qubit,)).at([t])[0]
                assert temperature_from_excited(p_at, eps)[0] == pytest.approx(
                    temperature[k], rel=1e-12
                )
                assert temperature[k] == pytest.approx(
                    temperature_from_excited(p_exc, eps), rel=1e-10
                )


def _triple(values):
    return st.tuples(values, values, values)


# small baths, with zero couplings and non-autonomous gaps allowed
_SMALL_FRIDGE = st.builds(
    RefrigeratorParams,
    epsilon=_triple(st.floats(0.5, 2.0)),
    bath_energy=_triple(st.floats(0.5, 4.0)),
    coupling=_triple(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    g=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
    n_bath=_triple(st.sampled_from([1, 2])),
    beta=_triple(st.floats(0.2, 5.0)),
)


class TestStatedBounds:
    """The error bound of folding pruned sectors."""

    @settings(max_examples=60, deadline=None)
    @given(
        _triple(st.floats(0.1, 3.0)),
        _triple(st.floats(0.1, 4.0)),
        _triple(st.integers(1, 12)),
        _triple(st.floats(0.05, 50.0)),
        st.one_of(st.just(0.0), st.floats(1e-15, 0.5)),
    )
    def test_pruning_drops_less_than_prune_tol(self, eps, bath_e, n, beta, prune_tol):
        layout = sector_layout(eps, bath_e, n, beta, prune_tol)
        kept = interacting_weight(layout)
        folded = interacting_weight(sector_layout(eps, bath_e, n, beta, 0.0)) - kept
        assert folded <= prune_tol + 1e-15
        for marginal, free in zip(layout.marginals, layout.free_weights):
            assert np.all(free >= 0.0)
            assert marginal.sum() == pytest.approx(1.0, abs=1e-12)
            assert free.sum() + kept == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(
        _triple(st.floats(0.5, 2.0)),
        _triple(st.floats(0.5, 4.0)),
        _triple(st.floats(0.0, 1.0)),
        st.floats(0.01, 0.1),
        _triple(st.integers(1, 30)),
        _triple(st.floats(0.2, 5.0)),
        st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 1e-2]),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
    )
    @example((1.0, 2.0, 1.0), (2.0, 4.0, 2.0), (0.7, 0.5, 0.4), 0.1, (30, 30, 30),
             (1.0, 1.0, 0.5), 1e-4, [0.0, 2.5, 6.0, 10.0])
    def test_fold_moves_every_population_less_than_prune_tol(
            self, eps, bath_e, coupling, g, n, beta, prune_tol, times):
        # a folded sector evolves as at g = 0 instead of at g: its share of
        # any population, at most its weight, is all that moves
        p = RefrigeratorParams(epsilon=eps, bath_energy=bath_e, coupling=coupling, g=g,
                               n_bath=n, beta=beta)
        keys = (("exc", 1), ("exc", 2), ("exc", 3))
        fold = RefrigeratorEngine(p, prune_tol=prune_tol).series_terms(keys).at(times)
        full = RefrigeratorEngine(p, prune_tol=0.0).series_terms(keys).at(times)
        assert np.max(np.abs(fold - full)) <= prune_tol + 1e-14
        sector_layout.cache_clear()  # an unpruned N = 30 layout holds megabytes

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 60), st.integers(1, 60), st.integers(1, 60),
        st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.3]),
        st.booleans(),
    )
    @example(4, 4, 4, 1e-3, True)
    @example(60, 55, 60, 1e-9, True)
    @example(60, 40, 30, 1e-6, False)
    # a partial sum 2e-18 below the cut: the outside weight must not round by more
    @example(33, 8, 8, 1e-12, False)
    def test_kept_set_is_one_greedy_pass(self, n1, n2, n3, prune_tol, identical):
        # identical pairs weigh permuted sectors alike: ties at the cut are
        # broken in lexicographic order, as a stable sort of the whole cube does
        p = fridge(n=(n1, n2, n3), beta=(0.3, 0.3, 0.3) if identical else (1.0, 0.4, 0.2),
                   **(dict(epsilon=(1.0,) * 3, bath_energy=(2.0,) * 3) if identical else {}))
        lay = layout(p, prune_tol)
        interior = [w[1:-1] for w in lay.marginals]
        weights = functools.reduce(np.multiply.outer, interior).ravel()
        order = np.argsort(weights, kind="stable")
        n_drop = int(np.searchsorted(np.cumsum(weights[order]), prune_tol, side="left"))
        keep = np.sort(order[n_drop:])
        rows = np.stack(np.unravel_index(keep, tuple(len(w) for w in interior)), axis=1) + 1
        kept = lay.interacting
        assert (kept is None) == (keep.size == 0)
        if kept is not None:
            assert np.array_equal(kept.pair_rows, rows)
            assert np.array_equal(kept.weights, weights[keep])


class TestOracleProperty:
    @settings(max_examples=20, deadline=None)
    @given(_SMALL_FRIDGE, st.floats(0.0, 10.0))
    def test_matches_dense_oracle_and_conserves(self, p, t):
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        for i in (1, 2, 3):
            dense_q = dense_evolve_and_trace(model, t, 2 * (i - 1), spectrum=spectrum)
            assert np.max(np.abs(dense_q - qubit_state(eng, i, t))) < 1e-10
            dense_b = dense_evolve_and_trace(model, t, 2 * i - 1, spectrum=spectrum)
            assert np.max(np.abs(
                np.diag(dense_b).real - eng.reduced_bath_populations(i, t)
            )) < 1e-10
            assert abs(charge(eng, i, t) - charge(eng, i, 0.0)) < 1e-12
        assert abs(eng.total_trace(t) - 1.0) < 1e-12
        assert abs(thermo.energy_balance(eng, t)) < 1e-10
        # Qdot = Tr(-i[H, rho(t)] H_S,i) and Tr(-i[H, rho(t)] H_B,i), both diagonal
        rho = oracle.dense_evolve(model, t, spectrum=spectrum)
        rho_dot = np.diag(-1j * (model.hamiltonian @ rho - rho @ model.hamiltonian)).real
        diagonals = local_energy_diagonals(p, model)
        h_s, h_b = diagonals[0::2], diagonals[1::2]
        currents = thermo.heat_current_series(eng, TimeGrid(t, t + 1.0, 1.0))
        assert np.max(np.abs(currents.qdot_s[:, 0] - h_s @ rho_dot)) < 1e-10
        assert np.max(np.abs(currents.qdot_b[:, 0] - h_b @ rho_dot)) < 1e-10


# pair 1 alone coupled: A2 = A3 = g = 0, baths up to N = 6
_DECOUPLED_FRIDGE = st.builds(
    RefrigeratorParams,
    epsilon=_triple(st.floats(0.5, 2.0)),
    bath_energy=_triple(st.floats(0.5, 4.0)),
    coupling=st.tuples(st.floats(0.0, 1.0), st.just(0.0), st.just(0.0)),
    g=st.just(0.0),
    n_bath=_triple(st.integers(1, 6)),
    beta=_triple(st.floats(0.2, 40.0)),
)


class TestOnePairProperty:
    # At epsilon = E the in-sector populations are equal, so every amplitude
    # is rounding noise; the absolute floor covers it.
    @example(
        RefrigeratorParams(epsilon=(1.0, 1.0, 1.0), bath_energy=(1.0, 1.0, 2.0),
                           coupling=(1.0, 0.0, 0.0), g=0.0, n_bath=(1, 1, 1),
                           beta=(1.0, 1.0, 1.0)),
        [1.0],
    )
    @settings(max_examples=25, deadline=None)
    @given(_DECOUPLED_FRIDGE, st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5))
    def test_decoupled_qubit_matches_one_pair_engine(self, p, times):
        three = RefrigeratorEngine(p, prune_tol=0.0)
        one = RefrigeratorEngine(pair_of(p, 1), prune_tol=0.0)
        exc = [eng.series_terms((("exc", 1),)) for eng in (three, one)]
        sizes = [(abs(s.const[0]) + np.abs(s.amps).sum(), np.abs(s.amps * s.omegas).sum())
                 for s in exc]
        for a, b, magnitude in zip(*(s.at(times, derivative=True) for s in exc),
                                   np.max(sizes, axis=0)):
            assert np.max(np.abs(a - b)) <= 1e-12 * magnitude + 1e-13



@st.composite
def _closed_form_params(draw):
    """One pair or three with epsilon_k = E_k, A_k = 0 and g = 0 each drawn often."""
    pairs = draw(st.sampled_from([1, 3]))

    def per_pair(values):
        return draw(st.lists(values, min_size=pairs, max_size=pairs))

    epsilon = per_pair(st.floats(0.2, 3.0))
    bath_energy = [eps if resonant else other for eps, resonant, other in zip(
        epsilon, per_pair(st.booleans()), per_pair(st.floats(0.2, 4.0)))]
    g = 0.0
    if pairs == 3:
        g = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2, exclude_min=True)))
    return RefrigeratorParams(
        epsilon=epsilon, bath_energy=bath_energy,
        coupling=per_pair(st.one_of(st.just(0.0), st.floats(0.0, 1.5))), g=g,
        n_bath=per_pair(st.integers(1, 8)), beta=per_pair(st.floats(0.1, 5.0)),
    )


def ladder_reference(table, coupling, kind):
    """Each row's constant and amplitude of one observable, from ``eigh`` of its block.

    With V the block's eigenvectors, M = V^T diag(p) V and O~ = V^T O V, the
    row is Tr(M o O~) + 2 (M o O~)_01 cos(gap t); an edge row is the
    constant its fixed level gives.
    """
    const = np.zeros(len(table["two_m"]))
    amp = np.zeros_like(const)
    for j in range(len(const)):
        block = pair_block(table, j, coupling)
        if len(block) == 1:
            up = float(table["two_m"][j] > 0)
            const[j] = {"exc": up, "pop": 1.0 - up, "hsb": 0.0}[kind]
            continue
        observable = {"exc": np.diag([0.0, 1.0]), "pop": np.diag([1.0, 0.0]),
                      "hsb": block - np.diag(np.diag(block))}[kind]
        _, vecs = np.linalg.eigh(block)
        f = (vecs.T @ np.diag(table["p_level"]) @ vecs) * (vecs.T @ observable @ vecs)
        const[j], amp[j] = np.trace(f), 2.0 * f[0, 1]
    return const, amp


class TestClosedFormSpectra:
    """Blocks without the interaction evolve pair by pair, in closed form."""

    @settings(max_examples=80, deadline=None)
    @given(_closed_form_params())
    def test_matches_eigh_of_each_block(self, p):
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        lay = eng.layout
        for k, (table, ladder) in enumerate(zip(lay.pairs, eng.ladders)):
            weights = lay.marginals[k] if p.g == 0.0 else lay.free_weights[k]
            assert np.array_equal(ladder.weights, weights)
            interior = table["dim"] == 2
            blocks = np.array([pair_block(table, j, p.coupling[k])
                               for j in np.flatnonzero(interior)])
            lam = np.linalg.eigvalsh(blocks)
            scale = 1.0 + np.abs(lam).max()
            gaps = np.diff(lam, axis=1)[:, 0]
            assert np.max(np.abs(ladder.gap[interior] - gaps)) <= 1e-13 * scale
            if p.coupling[k] == 0.0:  # no coupling: nothing moves
                assert not ladder.live.any()
            for kind in ("exc", "pop", "hsb"):
                const, amp = ladder_reference(table, p.coupling[k], kind)
                size = 1.0 + np.abs(blocks).max() if kind == "hsb" else 1.0
                got_const, got_amps = ladder.series(kind)
                assert abs(got_const - weights @ const) <= 1e-14 * size
                rows = np.zeros_like(amp)
                rows[ladder.live] = got_amps
                assert np.max(np.abs(rows - weights * amp)) <= 1e-14 * size

    def test_only_interacting_blocks_call_eigh(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(h):
            calls.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert RefrigeratorEngine(star(n=30)).spectrum is None
        free = RefrigeratorEngine(fridge(n=(30, 30, 30), g=0.0))
        assert calls == [] and free.spectrum is None
        # at g = 0 qubit 1 is its own ladder: one term per interior row at most
        assert free.series_terms((("exc", 1),)).omegas.size <= 30 + 1
        eng = RefrigeratorEngine(fridge(n=(30, 30, 30), g=0.05))
        full = eng.layout.interacting
        assert eng.spectrum is not None and calls == [(len(full.class_weights), 8, 8)]
        assert len(full.class_weights) < full.size
        # the one call sees the (2, 2, 2) sectors and only those
        for table, rows in zip(eng.layout.pairs, full.pair_rows.T):
            assert np.all(table["dim"][rows] == 2)
        for free_weights in eng.layout.free_weights:
            assert free_weights.sum() + full.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestShapeGroups:
    """Every block shape: the (2, 2, 2) sectors in the interacting group,
    every other shape folded into the pair ladders."""

    @pytest.mark.parametrize("n", [(1, 1, 1), (2, 2, 2), (1, 2, 1)])
    def test_rows_and_bath_levels_match_dense_oracle(self, n):
        keys = tuple((kind, i) for i in (1, 2, 3) for kind in ("exc", "pop"))
        for g in (0.05, 0.0):
            p = fridge(n=n, g=g)
            eng = RefrigeratorEngine(p, prune_tol=0.0)
            assert (eng.spectrum is not None) == (g > 0.0)
            terms = eng.series_terms(keys)
            model = oracle.build_dense(p)
            spectrum = model.spectrum()
            for t in (0.0, 1.3, 4.7):
                rows = terms.at([t])[:, 0]
                for i in (1, 2, 3):
                    qubit = np.diag(dense_evolve_and_trace(model, t, 2 * (i - 1),
                                                           spectrum=spectrum)).real
                    assert abs(rows[keys.index(("exc", i))] - qubit[1]) <= 1e-12
                    assert abs(rows[keys.index(("pop", i))] - qubit[0]) <= 1e-12
                    bath = np.diag(dense_evolve_and_trace(model, t, 2 * i - 1,
                                                          spectrum=spectrum)).real
                    assert np.max(np.abs(eng.reduced_bath_populations(i, t) - bath)) <= 1e-12


@st.composite
def _fold_params(draw):
    """Three pairs at g = 0 with unequal N_k <= 40; A_k = 0 and epsilon_k = E_k drawn often."""
    def per_pair(values):
        return tuple(draw(st.lists(values, min_size=3, max_size=3)))

    epsilon = per_pair(st.floats(0.2, 3.0))
    bath_energy = tuple(eps if resonant else other for eps, resonant, other in zip(
        epsilon, per_pair(st.booleans()), per_pair(st.floats(0.2, 4.0))))
    return RefrigeratorParams(
        epsilon=epsilon, bath_energy=bath_energy,
        coupling=per_pair(st.one_of(st.just(0.0), st.floats(0.0, 1.5))), g=0.0,
        n_bath=tuple(draw(st.lists(st.integers(1, 40), min_size=3, max_size=3, unique=True))),
        beta=per_pair(st.floats(0.1, 5.0)),
    )


def fold_dense_reference(p, prune_tol, times, keys):
    """Every key's row and every bath's levels from the dense model with g
    removed inside the (2, 2, 2) sectors that pruning folds, started in the
    full thermal state, unnormalized."""
    model = oracle.build_dense(p)
    lay = layout(p, prune_tol)
    kept = {tuple(rows) for rows in lay.interacting.pair_rows.tolist()}
    folded = np.zeros(model.dimension, dtype=bool)
    for rows in iter_product(*(range(1, n + 1) for n in p.n_bath)):  # the interior rows
        if rows not in kept:
            label = tuple(int(t["two_m"][j]) for t, j in zip(lay.pairs, rows))
            folded[sector_basis_indices(p.n_bath, label)] = True
    bare = oracle.build_dense(replace(p, coupling=(0.0, 0.0, 0.0), g=0.0)).hamiltonian
    diagonals = local_energy_diagonals(p, model)
    ops = {}
    for k in range(3):
        alone = tuple(a if i == k else 0.0 for i, a in enumerate(p.coupling))
        ops["hsb", k + 1] = oracle.build_dense(replace(p, coupling=alone, g=0.0)).hamiltonian - bare
        ops["exc", k + 1] = np.diag(diagonals[2 * k] / p.epsilon[k] + 0.5)
        ops["pop", k + 1] = np.eye(model.dimension) - ops["exc", k + 1]
    hint = oracle.build_dense(replace(p, coupling=(0.0, 0.0, 0.0))).hamiltonian - bare
    ops["hint",] = np.where(np.outer(folded, folded), 0.0, hint)
    h = model.hamiltonian - hint + ops["hint",]
    spectrum = oracle.eig_hermitian(h)
    rows, baths = [], []
    for t in times:
        rho = oracle.evolve_density(h, model.initial_state, t, spectrum=spectrum)
        rows.append([np.trace(rho @ ops[key]).real for key in keys])
        baths.append([np.diag(oracle.partial_trace(rho, model.dims, 2 * i + 1)).real
                      for i in range(3)])
    return np.array(rows).T, baths


class TestPairLadders:
    """Interaction-free sectors folded per pair row, against one-pair engines and
    the dense model."""

    @settings(max_examples=30, deadline=None)
    @given(_fold_params(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))
    def test_g0_rows_equal_one_pair_engines(self, p, times):
        three = RefrigeratorEngine(p, prune_tol=0.0)
        for k in (1, 2, 3):
            one = RefrigeratorEngine(pair_of(p, k), prune_tol=0.0)
            keys = (("exc", k), ("pop", k), ("hsb", k))
            single = tuple((kind, 1) for kind, _ in keys)
            assert np.max(np.abs(three.series_terms(keys).at(times)
                                 - one.series_terms(single).at(times))) <= 1e-13
            for t in times:
                assert np.max(np.abs(three.reduced_bath_populations(k, t)
                                     - one.reduced_bath_populations(1, t))) <= 1e-13

    def test_g0_rows_equal_one_pair_engines_at_large_n(self):
        # at g = 0 each pair's ladder carries its row weights w_k in closed
        # form, exactly as a one-pair engine's does; enumerating the kept
        # interacting sectors of the same layout warns of nothing either
        p = fridge(n=(1000, 900, 1100), g=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            three = RefrigeratorEngine(p)
            assert three.layout.interacting.size > 0
        times = [0.0, 0.7, 3.1, 9.9]
        for k in (1, 2, 3):
            one = RefrigeratorEngine(pair_of(p, k))
            a, b = three.series_terms((("exc", k),)), one.series_terms((("exc", 1),))
            assert np.array_equal(a.const, b.const) and np.array_equal(a.amps, b.amps)
            assert np.array_equal(a.at(times), b.at(times))

    @pytest.mark.parametrize("n", [(2, 3, 1), (3, 3, 3), (3, 1, 2)])
    def test_pruned_rows_match_pruned_dense_oracle(self, n):
        # prune_tol 1e-3 folds some (2, 2, 2) sectors and keeps others
        p = fridge(n=n, epsilon=(1.0, 1.7, 0.8), bath_energy=(2.0, 3.0, 1.5),
                   coupling=(0.3, 0.6, 0.2), g=0.08, beta=(0.8, 1.2, 0.6))
        eng = RefrigeratorEngine(p, prune_tol=1e-3)
        assert 0 < eng.layout.interacting.size < math.prod(n) and eng.spectrum is not None
        keys = tuple((kind, i) for i in (1, 2, 3) for kind in ("exc", "pop", "hsb")) + (("hint",),)
        times = [0.0, 1.3, 4.7, 9.1]
        rows, baths = fold_dense_reference(p, 1e-3, times, keys)
        assert np.max(np.abs(eng.series_terms(keys).at(times) - rows)) <= 1e-12
        for t, levels in zip(times, baths):
            assert abs(eng.total_trace(t) - 1.0) <= 1e-12
            assert abs(thermo.energy_balance(eng, t)) <= 1e-12
            for i in (1, 2, 3):
                assert np.max(np.abs(eng.reduced_bath_populations(i, t) - levels[i - 1])) <= 1e-12

def entropy_production(eng, times):
    """sigma(t) = sum_k beta_k (E_k(t) - E_k(0)), E_k = <H_S,k + H_B,k>, and its scale.

    Each pair conserves S^z_k + J^z_k, so E_k(t) - E_k(0) =
    (eps_k - E_k)(p_k(t) - p_k(0)), and from the ("exc", k) cosine rows
    p_k(t) - p_k(0) = -2 sum_j a_kj sin^2(w_j t / 2): sigma has no
    cancellation against its value at t = 0.  The scale is
    sum_j |sum_k c_k a_kj|, c_k = beta_k (eps_k - E_k), which bounds the
    terms the sum rounds.
    """
    p = eng.params
    terms = eng.series_terms(tuple(("exc", k) for k in range(1, p.pairs + 1)))
    amps = np.array(p.beta) * np.subtract(p.epsilon, p.bath_energy) @ terms.amps
    phase = np.multiply.outer(np.asarray(times, dtype=float), 0.5 * terms.omegas)
    return -2.0 * np.sin(phase) ** 2 @ amps, float(np.abs(amps).sum())


def beta_energy_range(p):
    """max |sum_k beta_k (H_S,k + H_B,k)| over the levels of every pair."""
    return sum(b * (e + eb * (n + 1)) / 2
               for b, e, eb, n in zip(p.beta, p.epsilon, p.bath_energy, p.n_bath))


def dense_relative_entropy(p, t):
    """D(rho(t) || rho(0)) = Tr[(rho(0) - rho(t)) ln rho(0)] from the dense model."""
    model = oracle.build_dense(p)
    rho0 = model.initial_state
    vals, vecs = np.linalg.eigh(rho0)
    log_rho0 = (vecs * np.log(vals)) @ vecs.conj().T
    return float(np.real(np.trace((rho0 - oracle.dense_evolve(model, t)) @ log_rho0)))


_STAR_FRIDGE = st.builds(
    RefrigeratorParams,
    epsilon=_triple(st.floats(0.5, 2.0)),
    bath_energy=_triple(st.floats(0.5, 4.0)),
    coupling=_triple(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    g=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
    n_bath=_triple(st.integers(1, 30)),
    beta=_triple(st.floats(0.2, 5.0)),
)


class TestSecondLaw:
    """The initial state is a product of Gibbs states at beta_k and the
    evolution is unitary, so sigma(t) = D(rho(t) || rho(0)) >= 0 exactly
    (Esposito, Lindenberg and Van den Broeck, NJP 12, 013013 (2010)); the
    kept sectors carry the same identity, as each is a Gibbs block."""

    # Couplings far below eps leave amplitudes whose true value underflows:
    # each is a product of two eigenvector components that carry absolute
    # rounding of order eps, so the bound holds an eps^2 floor on beta.H.
    @example(
        RefrigeratorParams(epsilon=(1.0, 1.0, 1.0), bath_energy=(2.0, 1.0, 3.0),
                           coupling=(0.0, 0.0, 0.0), g=4.1039975829783893e-283,
                           n_bath=(1, 1, 1), beta=(2.0, 1.0, 2.0)),
        [0.0],
    )
    @settings(max_examples=25, deadline=None)
    @given(_STAR_FRIDGE, st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8))
    def test_entropy_production_is_nonnegative(self, p, times):
        eng = RefrigeratorEngine(p, prune_tol=1e-9)
        sigma, scale = entropy_production(eng, np.concatenate([times, np.linspace(0, 20, 81)]))
        eps = np.finfo(float).eps
        assert sigma.min() >= -8 * eps * (scale + eps * beta_energy_range(p))

    @pytest.mark.parametrize("n", [(1, 1, 1), (2, 1, 1)])
    def test_equals_the_dense_relative_entropy(self, n):
        # N = 1: two of each pair's three sectors are one-level edge sectors
        p = fridge(n=n, epsilon=(1.0, 1.7, 0.8), bath_energy=(2.0, 3.0, 1.5),
                   coupling=(0.3, 0.6, 0.2), g=0.08, beta=(0.8, 1.2, 0.6))
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        times = [0.0, 0.4, 2.0, 7.3]
        sigma, _ = entropy_production(eng, times)
        for t, value in zip(times, sigma):
            assert value == pytest.approx(dense_relative_entropy(p, t), abs=1e-10)
        assert sigma[1:].min() > 0.0

    def test_zero_couplings_produce_nothing(self):
        eng = RefrigeratorEngine(fridge(n=(30, 30, 30), coupling=(0, 0, 0), g=0.0),
                                 prune_tol=1e-9)
        grid = TimeGrid(0.0, 10.0, 1.0)
        sigma, scale = entropy_production(eng, grid.points())
        assert scale == 0.0 and not sigma.any()
        currents = thermo.heat_current_series(eng, grid)
        assert not currents.qdot_s.any() and not currents.qdot_b.any()
        for temperature in grid_temperatures(eng, (1, 2, 3), grid):
            assert np.all(temperature == temperature[0])
