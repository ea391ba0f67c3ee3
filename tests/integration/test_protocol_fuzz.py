"""Property-based fuzzing of the full CSA stack under adversarial schedules.

Hypothesis draws explicit :class:`repro.sim.schedule.Schedule`s - step by
step send/deliver choices over a random connected topology, with hidden
affine clocks inside the advertised drift band - and the differential
driver replays each one against the full-information reference and the
from-scratch oracles (:mod:`repro.testing`).  Checked at every delivery:

* the estimate contains the hidden true time of the last local event;
* the estimate equals Theorem 2.1 on the oracle local view;
* the live tracker equals Definition 3.1 on the oracle local view;

plus end-of-run checks (Lemma 3.5 GC preservation, serialization
round-trips, quarantine cleanliness).

Example budgets come from the Hypothesis profiles registered in
``tests/conftest.py`` (dev/ci/nightly via ``HYPOTHESIS_PROFILE``).
"""

import math

import pytest
from hypothesis import given

from repro.core import (
    build_sync_graph,
    check_execution,
    external_bounds,
    extremal_execution,
    source_point,
)
from repro.sim.schedule import ScheduleHarness
from repro.testing import run_differential
from repro.testing.strategies import schedules


@given(schedules(min_steps=5, max_steps=40))
def test_fuzz_optimality_and_liveness(schedule):
    report = run_differential(schedule, check_determinism=False)
    assert report.ok, report.describe()


@given(schedules(min_steps=5, max_steps=30))
def test_fuzz_numpy_backend_agrees(schedule):
    from repro.core import EfficientCSA

    report = run_differential(
        schedule,
        estimator_factory=EfficientCSA,
        check_determinism=False,
    )
    assert report.ok, report.describe()


@given(schedules(min_steps=8, max_steps=30))
def test_fuzz_tightness_endpoints(schedule):
    """On random executions, both endpoints of the optimal interval are
    attained by explicitly constructed, spec-satisfying executions."""
    harness = ScheduleHarness(schedule, attach_full=False)
    harness.run()
    view = harness.view
    spec = harness.spec
    sp = source_point(view, spec)
    if sp is None:
        return
    graph = build_sync_graph(view, spec)
    for proc in view.processors:
        p = view.last_event(proc).eid
        bound = external_bounds(view, spec, p, graph)
        for endpoint, target in (("upper", bound.upper), ("lower", bound.lower)):
            if math.isinf(target):
                continue
            rt = extremal_execution(view, spec, p, sp, endpoint, graph=graph)
            assert check_execution(view, spec, rt, tolerance=1e-7) == []
            assert rt[p] == pytest.approx(target, abs=1e-7)
