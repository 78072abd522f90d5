"""References and parameters that only the tests use.

The Markov baseline's Hamiltonian, its nine jump operators as dense 8x8
matrices in the bare basis and the full 64x64 GKSL generator they make,
against which ``markov.rate_matrix`` and ``markov.integrate_gksl`` are
tested; a qubit's excited population, reduced state and temperatures on
a grid, all read from the engine's excited rows; one-pair parameters (a single
star, or pair i of a refrigerator), a pair's sector blocks, the
interacting (2, 2, 2) blocks uncentred and centred, and the map from a
sector label to its basis states in the dense oracle's basis; the
local qubit and bath Hamiltonians in the dense basis, whose energy flows
the heat currents are; the dense state reduced to one subsystem; and the
engine's total energy and per-pair charges, which the dynamics conserve.
"""

import functools
import math

import numpy as np

from spinfridge.engine import RefrigeratorEngine, RefrigeratorParams, energy_keys
from spinfridge.markov import MarkovParams, decay_rate
from spinfridge.oracle import DenseModel, Spectrum, dense_evolve, partial_trace
from spinfridge.spinstar import sector_arrays, temperature_from_excited


def fridge(n=(1, 1, 1), **kw):
    defaults = dict(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.5, 0.4, 0.3),
        g=0.05,
        beta=(1.0, 1.0, 0.5),
    )
    defaults.update(kw)
    return RefrigeratorParams(n_bath=n, **defaults)


def star(eps=1.0, bath_e=2.0, a=0.5, n=2, beta=1.0):
    """A single spin star: one-pair parameters."""
    return RefrigeratorParams(epsilon=(eps,), bath_energy=(bath_e,), coupling=(a,), g=0.0,
                              n_bath=(n,), beta=(beta,))


def excited_at(engine: RefrigeratorEngine, qubit: int, t: float) -> float:
    """Excited population p of one qubit at time t, its ``excited_terms`` row
    summed directly."""
    return float(engine.excited_terms((qubit,)).at([t])[0, 0])


def qubit_state(engine: RefrigeratorEngine, qubit: int, t: float) -> np.ndarray:
    """One qubit's reduced state diag(1 - p, p) at time t."""
    p = excited_at(engine, qubit, t)
    return np.diag([1.0 - p, p])


def grid_temperatures(engine: RefrigeratorEngine, qubits, grid) -> np.ndarray:
    """Temperatures of ``qubits`` on ``grid``, one row each, read from their
    excited rows in one grid pass."""
    rows = engine.excited_terms(qubits).on_grid(grid.start, grid.step, len(grid))
    return np.array([temperature_from_excited(p, engine.params.epsilon[q - 1])
                     for q, p in zip(qubits, rows)])


def pair_of(params, i):
    """Pair i (1-based) of ``params`` as a single star."""
    k = i - 1
    return star(params.epsilon[k], params.bath_energy[k], params.coupling[k],
                params.n_bath[k], params.beta[k])


def pair_table(params, i=1):
    """The ``sector_arrays`` table of pair i (1-based) of ``params``."""
    k = i - 1
    return sector_arrays(params.epsilon[k], params.bath_energy[k], params.n_bath[k],
                         params.beta[k])


def pair_block(table, j, coupling):
    """Hamiltonian block of sector row j of a ``sector_arrays`` table at XY coupling A."""
    if table["dim"][j] == 1:  # the bottom row keeps b_minus, the top row b_plus
        return np.array([[table["b_plus" if table["two_m"][j] > 0 else "b_minus"][j]]])
    u = coupling * table["u"][j]
    return np.array([[table["b_minus"][j], u], [u, table["b_plus"][j]]])


def block_shift(params, two_m) -> float:
    """sum_k E_k m_k of the (2, 2, 2) sector at pair totals ``two_m`` (doubled):
    the multiple of the identity its block holds beyond the engine's centred one."""
    return sum(e * 0.5 * float(t) for e, t in zip(params.bath_energy, two_m))


def interacting_block(params, tables, rows) -> np.ndarray:
    """The uncentred 8x8 block of the (2, 2, 2) sector at per-pair ``rows``:
    the Kronecker sum of its pairs' blocks, plus g at the interaction entries."""
    blocks = [pair_block(t, j, a) for t, j, a in zip(tables, rows, params.coupling)]
    h = sum(functools.reduce(np.kron, [b if i == k else np.eye(2) for i in range(3)])
            for k, b in enumerate(blocks))
    h[[2, 5], [5, 2]] += params.g
    return h


def centred_block(params, tables, rows) -> np.ndarray:
    """``interacting_block`` less its ``block_shift`` times the identity."""
    two_m = [t["two_m"][j] for t, j in zip(tables, rows)]
    return interacting_block(params, tables, rows) - block_shift(params, two_m) * np.eye(8)


def sector_basis_indices(n_bath, label) -> list[int]:
    """Dense-basis indices of a sector's basis states, in canonical order.

    ``n_bath`` holds each pair's bath size and ``label`` one two_m per pair;
    the order is the engine's bit order (qubit 1 the most significant bit,
    bit 0 = ground).  Used to check that the dense Hamiltonian restricted to
    each sector reproduces the sector blocks.
    """
    out = [0]
    for n, two_m in zip(n_bath, label):
        out = [i * 2 * (n + 1) + j for i in out for j in _pair_sector_indices(n, two_m)]
    return out


def _pair_sector_indices(n: int, two_m: int) -> list[int]:
    indices = []
    two_m_b_ground = two_m + 1
    if abs(two_m_b_ground) <= n:
        indices.append(0 * (n + 1) + (two_m_b_ground + n) // 2)
    two_m_b_excited = two_m - 1
    if abs(two_m_b_excited) <= n:
        indices.append(1 * (n + 1) + (two_m_b_excited + n) // 2)
    return indices


def system_hamiltonian(params: MarkovParams) -> np.ndarray:
    """Markov baseline: free part plus the three-body interaction g(|010><101| + h.c.)."""
    h = np.zeros((8, 8))
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        h[idx, idx] = sum(
            0.5 * params.epsilon[k] * (1.0 - 2.0 * bits[k]) for k in range(3)
        )
    h[0b010, 0b101] += params.g
    h[0b101, 0b010] += params.g
    return h


def _ket(bits: str) -> np.ndarray:
    return np.eye(8)[int(bits, 2)]


_PLUS = (_ket("101") + _ket("010")) / math.sqrt(2.0)
_MINUS = (_ket("101") - _ket("010")) / math.sqrt(2.0)
_S = 1.0 / math.sqrt(2.0)

# (qubit i, s, L): the nine emission operators of the Markov baseline, each
# lowering the energy of ``system_hamiltonian`` by eps_i + s g at eps2 = eps1 + eps3
JUMP_OPERATORS = (
    (1, 0, np.outer(_ket("111"), _ket("011")) + np.outer(_ket("100"), _ket("000"))),
    (1, 1, _S * (np.outer(_ket("110"), _PLUS) + np.outer(_MINUS, _ket("001")))),
    (1, -1, _S * (np.outer(_PLUS, _ket("001")) - np.outer(_ket("110"), _MINUS))),
    (2, 0, np.outer(_ket("110"), _ket("100")) + np.outer(_ket("011"), _ket("001"))),
    (2, 1, _S * (np.outer(_ket("111"), _PLUS) - np.outer(_MINUS, _ket("000")))),
    (2, -1, _S * (np.outer(_PLUS, _ket("000")) + np.outer(_ket("111"), _MINUS))),
    (3, 0, np.outer(_ket("111"), _ket("110")) + np.outer(_ket("001"), _ket("000"))),
    (3, 1, _S * (np.outer(_ket("011"), _PLUS) + np.outer(_MINUS, _ket("100")))),
    (3, -1, _S * (np.outer(_PLUS, _ket("100")) - np.outer(_ket("011"), _MINUS))),
)


def jump_channels(params: MarkovParams):
    """(rate, L) of all 18 channels: each operator at gamma(w), w = eps_i + s g,
    and its adjoint at gamma(-w)."""
    channels = []
    for qubit, sign, op in JUMP_OPERATORS:
        k = qubit - 1
        frequency = params.epsilon[k] + sign * params.g
        for omega, l_op in ((frequency, op), (-frequency, op.T)):
            channels.append((decay_rate(omega, params.alpha[k], params.beta[k], params.cutoff),
                             l_op))
    return channels


def liouvillian_matrix(params: MarkovParams) -> np.ndarray:
    """The Markov baseline's GKSL generator as a 64x64 matrix on vec(rho), row-major."""
    h = system_hamiltonian(params).astype(complex)
    eye = np.eye(8)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in jump_channels(params):
        l_op = op.astype(complex)
        ld_l = l_op.conj().T @ l_op
        lv += rate * (
            np.kron(l_op, l_op.conj())
            - 0.5 * np.kron(ld_l, eye)
            - 0.5 * np.kron(eye, ld_l.T)
        )
    return lv


def local_energy_diagonals(params: RefrigeratorParams, model) -> np.ndarray:
    """Diagonals of H_S,1, H_B,1, H_S,2, ... in the dense oracle's basis, one row each."""
    rows = []
    for k in range(params.pairs):
        n = params.n_bath[k]
        for slot, levels in ((2 * k, params.epsilon[k] * np.array([-0.5, 0.5])),
                             (2 * k + 1, params.bath_energy[k] * (np.arange(n + 1) - 0.5 * n))):
            factors = [levels if j == slot else np.ones(d) for j, d in enumerate(model.dims)]
            rows.append(functools.reduce(np.kron, factors))
    return np.array(rows)


def dense_evolve_and_trace(model: DenseModel, t: float, subsystem: int,
                           *, spectrum: Spectrum | None = None) -> np.ndarray:
    """Evolve then reduce to one subsystem.

    Subsystems are indexed in the dims order: 0 = qubit 1, 1 = bath 1,
    2 = qubit 2, ... (a single star has just 0 = qubit, 1 = bath).
    """
    if not 0 <= subsystem < len(model.dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {model.dims}")
    return partial_trace(dense_evolve(model, t, spectrum=spectrum), model.dims, subsystem)


def total_energy(engine: RefrigeratorEngine, t: float) -> float:
    """Tr[rho(t) H]: each qubit's and bath's level energies, then the coupling rows.

    The qubit energy is eps_i (p_i - 1/2), read from its excited-population
    series; the bath energy E_i <J^z_i> from the bath level populations.
    """
    params = engine.params
    energy = float(engine.series_terms(energy_keys(params.pairs)).at([t]).sum())
    for i in range(1, params.pairs + 1):
        n = params.n_bath[i - 1]
        p = engine.series_terms((("exc", i),)).at([t])[0, 0]
        m_bath = np.arange(n + 1) - 0.5 * n
        energy += (params.epsilon[i - 1] * (p - 0.5)
                   + params.bath_energy[i - 1] * (m_bath @ engine.reduced_bath_populations(i, t)))
    return energy


def charge(eng, i, t):
    """S^z_i + J^z_i read from the reduced qubit and bath states at t."""
    n = eng.params.n_bath[i - 1]
    m_bath = np.arange(n + 1) - 0.5 * n
    p = eng.excited_terms((i,)).at([t])[0, 0]
    return p - 0.5 + m_bath @ eng.reduced_bath_populations(i, t)
