"""Soak test at a larger scale: a 4x5 grid, thousands of events.

Runs the default estimator and checks the full invariant set where
affordable: spec satisfaction and soundness everywhere, optimality
spot-checked against the from-scratch oracle at a few processors, and
the complexity envelopes across the whole fleet.
"""

import pytest

from repro.analysis import collect_complexity
from repro.core import EfficientCSA, check_execution, external_bounds
from repro.sim import run_workload, standard_network, topologies
from repro.sim.workloads import PeriodicGossip


@pytest.fixture(scope="module")
def grid_run():
    names, links = topologies.grid(4, 5)
    network = standard_network(names, links, seed=77, drift_ppm=200)
    return run_workload(
        network,
        PeriodicGossip(period=6.0, seed=77),
        {"efficient": EfficientCSA},
        duration=120.0,
        seed=77,
        sample_period=15.0,
    )


def test_scale_of_the_run(grid_run):
    assert len(grid_run.sim.network.processors) == 20
    assert len(grid_run.trace) > 2000


def test_execution_satisfies_spec(grid_run):
    view = grid_run.trace.global_view()
    errors = check_execution(
        view, grid_run.sim.spec, grid_run.trace.real_times, tolerance=1e-6
    )
    assert errors == []


def test_all_samples_sound(grid_run):
    assert grid_run.soundness_violations() == []


def test_optimality_spot_checks(grid_run):
    """From-scratch Theorem 2.1 on the oracle local view, at the corners
    and the centre of the grid."""
    trace = grid_run.trace
    spec = grid_run.sim.spec
    global_view = trace.global_view()
    for proc in ("p0_0", "p3_4", "p2_2"):
        estimator = grid_run.sim.estimator(proc, "efficient")
        last = estimator.last_local_event
        local_view = global_view.view_from(last.eid)
        oracle = external_bounds(local_view, spec, last.eid)
        ours = estimator.estimate()
        assert ours.lower == pytest.approx(oracle.lower, abs=1e-6)
        assert ours.upper == pytest.approx(oracle.upper, abs=1e-6)


def test_complexity_envelopes(grid_run):
    report = collect_complexity(grid_run)
    verdicts = report.bounds_hold()
    assert all(verdicts.values()), (verdicts, report)
    # state is orders of magnitude below the execution size
    assert report.max_agdp_nodes < len(grid_run.trace) / 10
    assert report.max_history_buffer < len(grid_run.trace) / 4


def test_estimates_reasonably_tight(grid_run):
    """Multi-hop grid corners still land within ~one link uncertainty
    per hop of the source."""
    for sample in grid_run.samples:
        if sample.rt < 60.0 or not sample.bound.is_bounded:
            continue
        assert sample.width < 1.0
