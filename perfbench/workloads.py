"""Seeded inputs of the benchmark workloads.

A workload turns a seed into the CLI commands that one sample runs in a
fresh process: each command is a mode plus the config object the program
reads.  The program sees only these configs.

References are stored for ``POOL`` input sets per workload; the seed picks
input set ``seed % POOL``.  That index is the optimizer seed (for
``markov-optimize`` also index + POOL for its second command), and for
``evolve-exact`` it also seeds the coupling draws.  All workloads use the
paper's parameters: epsilon=(1,2,1), E=(2,4,2), T=(1,1,2).
"""

from __future__ import annotations

import numpy as np

POOL = 16

EPSILON = [1.0, 2.0, 1.0]
BATH_ENERGY = [2.0, 4.0, 2.0]
TEMPERATURE = [1.0, 1.0, 2.0]

# Full sizes.  Budgets are fixed evaluation counts, so a sample does the
# same amount of work for every seed.
OPTIMIZE_N = 30
OPTIMIZE_BUDGET = 60
EVOLVE_N = 30
EVOLVE_DRAWS = 3
SCALING_N_LIST = [2, 4, 7, 10, 14, 20, 30]
SCALING_BUDGET = 24
# The RK45 work of an evaluation depends on where the optimizer probes:
# total right-hand-side evaluations vary by about 20% between seeds at one
# seed per sample.  Two optimizer seeds per sample halve that spread.
MARKOV_BUDGET = 40
MARKOV_SEEDS = 2
MARKOV_GRID = {"start": 0.0, "stop": 40.0, "step": 0.05}
# Lowest g of the markov box.  With alpha up to 1e-4 the largest decay rate
# is about 2.6e-4, and the program rejects rates at or above 10% of g: on
# the default box [0, 0.1] probes with small g abort the whole command.
MARKOV_G_MIN = 0.005

# Smoke sizes: every workload at N=2 with a few evaluations on short grids.
SMOKE_N = 2
SMOKE_BUDGET = 6
SMOKE_GRID = {"start": 0.0, "stop": 2.0, "step": 0.01}
SMOKE_MARKOV_GRID = {"start": 0.0, "stop": 4.0, "step": 0.1}
SMOKE_N_LIST = [1, 2]

WORKLOADS = ("optimize-n30", "evolve-exact", "scaling-sweep", "markov-optimize")


def _refrigerator(n: int, coupling=(0.0, 0.0, 0.0), g: float = 0.0) -> dict:
    return {
        "epsilon": EPSILON,
        "bath_energy": BATH_ENERGY,
        "coupling": [float(c) for c in coupling],
        "g": float(g),
        "n_bath": [n, n, n],
        "temperature": TEMPERATURE,
    }


def coupling_draws(index: int, count: int) -> list[tuple[list[float], float]]:
    """Couplings (A1, A2, A3) and g drawn uniformly from the optimizer box."""
    rng = np.random.default_rng([7, index])
    draws = []
    for _ in range(count):
        a = rng.uniform(0.0, 1.0, size=3)
        g = rng.uniform(0.0, 0.1)
        draws.append(([float(v) for v in a], float(g)))
    return draws


def commands(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The (mode, config) commands of one sample of ``workload``."""
    index = seed % POOL
    grid = SMOKE_GRID if smoke else None
    budget = SMOKE_BUDGET if smoke else None
    if workload == "optimize-n30":
        config = {
            "mode": "optimize",
            "params": _refrigerator(SMOKE_N if smoke else OPTIMIZE_N),
            "prune_tol": 1e-9,
            "optimization": {"budget": budget or OPTIMIZE_BUDGET, "seed": index},
        }
        return [_with_grid(config, grid)]
    if workload == "evolve-exact":
        n = SMOKE_N if smoke else EVOLVE_N
        return [
            _with_grid({
                "mode": "evolve",
                "params": _refrigerator(n, coupling, g),
                "prune_tol": 1e-12,
            }, grid)
            for coupling, g in coupling_draws(index, EVOLVE_DRAWS)
        ]
    if workload == "scaling-sweep":
        config = {
            "mode": "scaling",
            "params": _refrigerator(SMOKE_N if smoke else SCALING_N_LIST[-1]),
            "n_list": SMOKE_N_LIST if smoke else SCALING_N_LIST,
            "prune_tol": 1e-9,
            "optimization": {"budget": budget or SCALING_BUDGET, "seed": index},
        }
        return [_with_grid(config, grid)]
    if workload == "markov-optimize":
        return [{
            "mode": "markov",
            "action": "optimize",
            "params": {
                "epsilon": EPSILON,
                "g": 0.0,
                "alpha": [0.0, 0.0, 0.0],
                "temperature": TEMPERATURE,
            },
            "time_grid": SMOKE_MARKOV_GRID if smoke else MARKOV_GRID,
            "optimization": {
                "budget": budget or MARKOV_BUDGET,
                "seed": index + POOL * k,
                "g_range": [MARKOV_G_MIN, 0.1],
            },
            "output": {"format": "json"},
        } for k in range(MARKOV_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _with_grid(config: dict, grid: dict | None) -> dict:
    if grid is not None:
        config["time_grid"] = grid
    return config


def sweep_n_list(smoke: bool = False) -> list[int]:
    return SMOKE_N_LIST if smoke else SCALING_N_LIST
