"""E4 benchmark - AGDP per-insertion cost scaling (Lemma 3.5).

The paper's bound: O(L^2) time per edge insertion at L live nodes.  We
benchmark a steady-state AGDP workload at several live-set sizes.  At
these sizes the numpy solver's fixed per-edge cost dominates wall time,
so the quadratic growth shows in the machine-independent pair-update
counters (asserted by the experiment itself, printed once).
"""

import pytest

from repro.core import NumpyAGDP
from repro.experiments.e4_agdp import steady_state_agdp
from repro.testing import ReferenceAGDP

from conftest import print_experiment_once

SIZES = [8, 16, 32, 64]


@pytest.mark.parametrize("live", SIZES)
def test_agdp_steady_state_insertions(benchmark, live, request):
    print_experiment_once(
        request, "e4-agdp-cost", live_sizes=(8, 16, 32), steps=60
    )
    result = benchmark(steady_state_agdp, live, 60, degree=3, seed=1)
    # sanity on the benchmarked object: the live target was respected
    assert len(result) <= live + 2
    per_insert = result.stats.pair_updates / result.stats.edges_inserted
    # the L^2 envelope with a generous constant
    assert per_insert <= 4 * (live + 2) ** 2


# the edge-insertion speedup gate: `make bench-compare` asserts the
# compacted numpy solver beats the reference dict solver by >= 2x at
# live >= 128 (these ids are referenced by the Makefile's
# --assert-speedup flags)
SOLVERS = {"dict": ReferenceAGDP, "numpy": NumpyAGDP}
COMPARISON = [
    pytest.param(live, backend, id=f"{live}-{backend}")
    for live in (96, 128)
    for backend in SOLVERS
]


@pytest.mark.parametrize("live,backend", COMPARISON)
def test_agdp_backend_comparison(benchmark, live, backend):
    """Solver shoot-out at large live-set sizes.

    ``steps = live + 32`` so the workload actually reaches the live target
    and spends a steady-state phase there (pure pool growth would cap the
    active block well below ``live``).  The dict solver gets pinned
    rounds (it runs hundreds of ms per call; calibration would make the
    suite crawl) while the numpy solver uses normal calibration - three
    rounds of a ~2 ms function is all jitter.
    """
    args = (live, live + 32)
    kwargs = dict(degree=3, seed=1, solver=SOLVERS[backend])
    if backend == "dict":
        result = benchmark.pedantic(
            steady_state_agdp, args=args, kwargs=kwargs, rounds=3, iterations=1
        )
    else:
        result = benchmark(steady_state_agdp, *args, **kwargs)
    assert len(result) <= live + 2
