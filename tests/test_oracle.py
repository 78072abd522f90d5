"""Brute-force dense model: construction, evolution, partial traces, sector maps."""

import functools
import math
from itertools import product

import numpy as np
import pytest

from dense_reference import (
    block_shift,
    dense_evolve_and_trace,
    fridge,
    pair_block,
    pair_table,
    sector_basis_indices,
    star,
)
from spinfridge import oracle
from spinfridge.engine import RefrigeratorEngine, _hamiltonians


class TestBuildDense:
    def test_single_star_n1_ladder_factors(self):
        model = oracle.build_dense(star(n=1))
        assert model.dimension == 4
        # spin-1/2 ladder: <up,down| H_SB |down,up> = A * 1
        h = model.hamiltonian
        # basis: (qubit, bath) with qubit-major ordering, bath m_B in {-1/2, +1/2}
        idx_down_up = 0 * 2 + 1
        idx_up_down = 1 * 2 + 0
        assert h[idx_up_down, idx_down_up] == pytest.approx(0.5)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_single_star_spectrum_is_union_of_sector_spectra(self):
        p = star(n=2)
        model = oracle.build_dense(p)
        dense = np.sort(np.linalg.eigvalsh(model.hamiltonian))
        table = pair_table(p)
        collected = []
        for j in range(len(table["two_m"])):
            collected.extend(np.linalg.eigvalsh(pair_block(table, j, 0.5)))
        assert np.allclose(dense, np.sort(collected), atol=1e-12)

    def test_refrigerator_dimension(self):
        assert oracle.build_dense(fridge()).dimension == 64
        assert oracle.build_dense(fridge(n=(2, 1, 1))).dimension == 96

    def test_dimension_cap_names_requirement(self):
        with pytest.raises(ValueError, match="1728"):
            oracle.build_dense(fridge(n=(5, 5, 5)))  # (2 * 6)^3 = 1728

    def test_initial_state_is_normalized_thermal(self):
        model = oracle.build_dense(star(n=3, beta=0.7))
        rho = model.initial_state
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0


def sector_labels(p):
    """(rows, two_m triple) of every sector, one row of each pair's table."""
    tables = [pair_table(p, i) for i in range(1, p.pairs + 1)]
    for rows in product(*(range(len(t["two_m"])) for t in tables)):
        yield rows, tuple(int(t["two_m"][j]) for t, j in zip(tables, rows))


class TestSectorEmbedding:
    def test_sector_dimensions_cover_dense_space(self):
        p = fridge(n=(2, 1, 1))
        tables = [pair_table(p, i) for i in (1, 2, 3)]
        total = sum(math.prod(int(t["dim"][j]) for t, j in zip(tables, rows))
                    for rows, _ in sector_labels(p))
        assert total == oracle.build_dense(p).dimension
        # the interacting group holds exactly the eight-dimensional sectors
        full = {rows for rows, _ in sector_labels(p)
                if all(t["dim"][j] == 2 for t, j in zip(tables, rows))}
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        assert eng.spectrum is not None
        assert {tuple(r) for r in eng.layout.interacting.pair_rows.tolist()} == full

    def test_dense_hamiltonian_restricted_to_sectors(self):
        # each sector block is the Kronecker sum of its pairs' blocks, which
        # the ladders evolve, plus g at the interaction entries in the
        # interacting group's blocks
        p = fridge(n=(2, 1, 1))
        model = oracle.build_dense(p)
        eng = RefrigeratorEngine(p, prune_tol=0.0)
        assert eng.spectrum is not None
        sectors = eng.layout.interacting
        group_rows = [tuple(r) for r in sectors.pair_rows.tolist()]
        hamiltonians = _hamiltonians(p, sectors)  # one centred block per class
        tables = [pair_table(p, i) for i in (1, 2, 3)]
        for rows, two_m in sector_labels(p):
            idx = sector_basis_indices(p.n_bath, two_m)
            block = model.hamiltonian[np.ix_(idx, idx)]
            pair_blocks = [pair_block(t, j, a) for t, j, a in zip(tables, rows, p.coupling)]
            dims = [len(b) for b in pair_blocks]
            assert len(idx) == math.prod(dims)
            kron_sum = sum(
                functools.reduce(np.kron, [b if i == k else np.eye(d) for i, d in enumerate(dims)])
                for k, b in enumerate(pair_blocks))
            if rows in group_rows:
                centred = hamiltonians[sectors.classes[group_rows.index(rows)]]
                shift = block_shift(p, two_m) * np.eye(len(idx))
                assert np.max(np.abs(block - shift - centred)) < 1e-12
                kron_sum[[2, 5], [5, 2]] += p.g
            assert np.max(np.abs(block - kron_sum)) < 1e-12

    def test_single_star_sector_blocks_match(self):
        p = star(n=3)
        model = oracle.build_dense(p)
        table = pair_table(p)
        for j, two_m in enumerate(table["two_m"]):
            idx = sector_basis_indices(p.n_bath, (int(two_m),))
            block = model.hamiltonian[np.ix_(idx, idx)]
            expected = pair_block(table, j, 0.5)
            assert block.shape == expected.shape
            assert np.max(np.abs(block - expected)) < 1e-12

    def test_off_sector_blocks_vanish(self):
        p = fridge(n=(1, 1, 1))
        model = oracle.build_dense(p)
        labels = sorted(two_m for _, two_m in sector_labels(p))
        idx_a = sector_basis_indices(p.n_bath, labels[0])
        idx_b = sector_basis_indices(p.n_bath, labels[5])
        assert np.max(np.abs(model.hamiltonian[np.ix_(idx_a, idx_b)])) == 0.0


class TestEvolution:
    def test_thermal_marginals_at_t0(self):
        p = star(n=2, beta=1.2)
        model = oracle.build_dense(p)
        spin = dense_evolve_and_trace(model, 0.0, 0)
        z = 2.0 * math.cosh(0.6)
        assert spin[0, 0].real == pytest.approx(math.exp(0.6) / z, abs=1e-12)

    def test_group_property(self):
        p = star(n=3)
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        one = oracle.dense_evolve(model, 1.3, spectrum=spectrum)
        stepped = oracle.evolve_density(model.hamiltonian, one, 2.1, spectrum=spectrum)
        direct = oracle.dense_evolve(model, 3.4, spectrum=spectrum)
        assert np.max(np.abs(stepped - direct)) < 1e-10

    def test_subsystem_selector_bounds(self):
        model = oracle.build_dense(star(n=1))
        with pytest.raises(ValueError, match="subsystem"):
            dense_evolve_and_trace(model, 0.0, 5)

    def test_partial_trace_partitions_unity(self):
        p = fridge(n=(1, 1, 1))
        model = oracle.build_dense(p)
        spectrum = model.spectrum()
        rho_q2 = dense_evolve_and_trace(model, 1.7, 2, spectrum=spectrum)
        assert np.trace(rho_q2).real == pytest.approx(1.0, abs=1e-12)
        assert rho_q2.shape == (2, 2)
