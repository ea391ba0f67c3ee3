"""The conformance sweep over membership churn and self-stabilization.

Generated lossy schedules with ``join``/``leave``/``rejoin`` handshakes,
time-varying edges, and seeded state corruption replay through the full
differential driver: efficient vs full-information on every delivery
checkpoint, plus the independent end-of-run oracles.  A churn schedule
ends with a restoration tail (everyone rejoined, every edge up, every
estimator re-audited), so the oracles cover the whole membership
history, not just the survivors.
"""

from hypothesis import given, settings

from repro.core import EfficientCSA
from repro.testing import check_schedule, run_differential
from repro.testing.strategies import churn_schedules


@given(churn_schedules(min_steps=8, max_steps=30))
def test_differential_churn(schedule):
    report = check_schedule(schedule)
    assert report.ok, report.describe()


@given(churn_schedules(min_steps=8, max_steps=25, corrupt=False))
def test_differential_membership_only(schedule):
    report = check_schedule(schedule)
    assert report.ok, report.describe()


@settings(max_examples=25)
@given(churn_schedules(min_steps=8, max_steps=25))
def test_differential_churn_numpy_backend(schedule):
    """The solver survives churn in unreliable mode (slot compaction under kills)."""
    self_heal = any(step[0] == "corrupt" for step in schedule.steps)
    from repro.core.csa_base import SuspicionPolicy

    report = run_differential(
        schedule,
        estimator_factory=lambda p, s: EfficientCSA(
            p,
            s,
            reliable=False,
            self_heal=self_heal,
            suspicion=SuspicionPolicy() if self_heal else None,
        ),
    )
    assert report.ok, report.describe()


@settings(max_examples=20)
@given(churn_schedules(min_steps=10, max_steps=35))
def test_differential_churn_with_debug_invariants(schedule):
    """The O(n^3) invariant hooks stay quiet across joins and recoveries."""
    report = run_differential(schedule, debug_invariants=True)
    assert report.ok, report.describe()
