"""E4 - AGDP per-insertion cost (Lemma 3.5).

Claim: with at most ``L`` live nodes, AGDP needs ``O(L^2)`` space and
``O(L^2)`` time per edge insertion (the Ausiello et al. pairwise update).

We drive the solver directly with a synthetic steady-state instance: a
pool of exactly ``L`` live nodes; each step adds one node with ``degree``
edges to random live nodes and kills one random node, holding ``L`` fixed.
The measured cost unit is *pair relaxations per edge insertion* (the inner
loop of the update), which is machine-independent; wall-clock scaling is
measured separately by the pytest benchmark for this experiment.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from ..analysis.claims import ClaimCheck
from ..analysis.complexity import loglog_slope
from ..core.agdp_numpy import NumpyAGDP
from .base import ExperimentResult, experiment

__all__ = ["run", "steady_state_agdp"]


def steady_state_agdp(
    live_target: int,
    steps: int,
    *,
    degree: int = 3,
    seed: int = 0,
    gc_enabled: bool = True,
    solver: Callable = NumpyAGDP,
):
    """Run a synthetic AGDP workload holding ~``live_target`` live nodes.

    Edge weights mimic feasible synchronization graphs: every node carries
    a hidden potential (its "true real-time correction") and each edge
    ``(x, y)`` weighs ``phi(y) - phi(x)`` plus a non-negative slack, so
    weights are freely negative yet every cycle is non-negative - exactly
    the structure Theorem 2.1 guarantees for consistent views.

    ``solver`` is the AGDP class to drive (the benchmarks also pass the
    reference dict solver, to time the two against each other).
    """
    rng = random.Random(seed)
    agdp = solver(source=("n", 0), gc_enabled=gc_enabled)
    pool: List[tuple] = [("n", 0)]
    potential = {("n", 0): 0.0}
    next_id = 1
    for _step in range(steps):
        node = ("n", next_id)
        next_id += 1
        potential[node] = rng.uniform(-5.0, 5.0)
        edges = []
        for peer in rng.sample(pool, min(degree, len(pool))):
            for x, y in ((node, peer), (peer, node)):
                slack = rng.uniform(0.001, 0.5)
                edges.append((x, y, potential[y] - potential[x] + slack))
        kills = []
        if len(pool) >= live_target:
            victim = pool.pop(rng.randrange(1, len(pool)))  # never the source
            kills.append(victim)
            del potential[victim]
        agdp.step(node, edges, kills)
        pool.append(node)
    return agdp


@experiment("e4-agdp-cost")
def run(
    live_sizes: Sequence[int] = (8, 16, 32, 64),
    *,
    steps: int = 120,
    degree: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="e4-agdp-cost",
        description=(
            "Lemma 3.5: AGDP uses O(L^2) space and O(L^2) pair updates "
            "per edge insertion at L live nodes."
        ),
    )
    sizes = []
    costs = []
    for live in live_sizes:
        agdp = steady_state_agdp(live, steps, degree=degree, seed=seed)
        per_insert = agdp.stats.pair_updates / max(agdp.stats.edges_inserted, 1)
        sizes.append(live)
        costs.append(max(per_insert, 1.0))
        result.rows.append(
            {
                "L": live,
                "steps": steps,
                "edges_inserted": agdp.stats.edges_inserted,
                "pair_updates_per_insert": round(per_insert, 1),
                "L^2": live * live,
                "peak_matrix_cells": agdp.stats.matrix_cells(),
            }
        )
        result.checks.append(
            ClaimCheck(
                name=f"L={live}: space O(L^2)",
                passed=agdp.stats.matrix_cells() <= 4 * (live + 2) ** 2,
                details={"cells": agdp.stats.matrix_cells(), "limit": 4 * (live + 2) ** 2},
            )
        )
    slope = loglog_slope(sizes, costs)
    result.checks.append(
        ClaimCheck(
            name="per-insert cost ~ L^2 (log-log slope in [1.4, 2.4])",
            passed=1.4 <= slope <= 2.4,
            details={"loglog_slope": round(slope, 3)},
        )
    )
    result.notes = (
        "Pair updates per insertion should scale ~quadratically with the "
        "live-set size; the matrix never exceeds O(L^2) cells."
    )
    return result
