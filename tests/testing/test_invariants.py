"""Debug-mode invariant hooks: gating, wiring, and detection power."""

import math

import pytest
from hypothesis import given

from repro.core import EfficientCSA, NumpyAGDP
from repro.testing import (
    InvariantViolation,
    ReferenceAGDP,
    broken_gc_factory,
    check_agdp_invariants,
    check_csa_invariants,
    debug_checks_enabled,
    run_differential,
)
from repro.testing.strategies import schedules

from ..conftest import two_proc_spec


class TestGating:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert debug_checks_enabled(True) is True
        assert debug_checks_enabled(False) is False
        monkeypatch.setenv("REPRO_DEBUG", "1")
        assert debug_checks_enabled(False) is False

    def test_environment_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert debug_checks_enabled() is False
        monkeypatch.setenv("REPRO_DEBUG", "0")
        assert debug_checks_enabled() is False
        monkeypatch.setenv("REPRO_DEBUG", "1")
        assert debug_checks_enabled() is True

    def test_csa_arms_hooks_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        csa = EfficientCSA("a", two_proc_spec())
        assert csa._debug_checks
        assert csa.agdp.invariant_hook is not None
        monkeypatch.delenv("REPRO_DEBUG")
        csa = EfficientCSA("a", two_proc_spec())
        assert not csa._debug_checks
        assert csa.agdp.invariant_hook is None


class TestAGDPHookWiring:
    @pytest.mark.parametrize("cls", [ReferenceAGDP, NumpyAGDP])
    def test_hook_fires_on_insert_and_kill(self, cls):
        calls = []
        agdp = cls()
        agdp.invariant_hook = calls.append
        agdp.add_node("a")
        agdp.add_node("b")
        agdp.insert_edge("a", "b", 1.0)
        agdp.kill("b")
        assert len(calls) == 2
        assert all(got is agdp for got in calls)

    @pytest.mark.parametrize("cls", [ReferenceAGDP, NumpyAGDP])
    def test_uninformative_insertions_skip_the_hook(self, cls):
        calls = []
        agdp = cls()
        agdp.invariant_hook = calls.append
        agdp.add_node("a")
        agdp.add_node("b")
        agdp.insert_edge("a", "b", math.inf)  # TOP carries no information
        agdp.insert_edge("a", "a", 0.5)  # non-negative self-loop no-op
        assert calls == []


class TestDetection:
    def test_clean_agdp_passes(self):
        agdp = ReferenceAGDP()
        agdp.add_node("a")
        agdp.add_node("b")
        agdp.insert_edge("a", "b", 1.0)
        check_agdp_invariants(agdp)

    def test_corrupted_closure_is_caught(self):
        agdp = ReferenceAGDP()
        for node in ("a", "b", "c"):
            agdp.add_node(node)
        agdp.insert_edge("a", "b", 1.0)
        agdp.insert_edge("b", "c", 1.0)
        agdp._dist["a"]["c"] = 5.0  # break the triangle inequality
        with pytest.raises(InvariantViolation, match="triangle"):
            check_agdp_invariants(agdp)

    def test_corrupted_self_distance_is_caught(self):
        agdp = ReferenceAGDP()
        agdp.add_node("a")
        agdp._dist["a"]["a"] = -1.0
        with pytest.raises(InvariantViolation):
            check_agdp_invariants(agdp)

    def test_clean_csa_passes_full_suite(self):
        csa = EfficientCSA("src", two_proc_spec(), debug_checks=True)
        from ..conftest import send

        csa.on_send(send("src", 0, 1.0, dest="a"))  # hooks ran internally
        check_csa_invariants(csa)

    def test_desynchronized_modules_trip_the_node_set_invariant(self):
        """A node present in the live tracker but killed in the AGDP is the
        cross-module desync the CSA-level check exists to catch."""
        from ..conftest import send

        csa = EfficientCSA("src", two_proc_spec(), debug_checks=True)
        csa.on_send(send("src", 0, 1.0, dest="a"))
        csa.on_send(send("src", 1, 2.0, dest="a"))
        victim = next(iter(csa.agdp.nodes - {csa._source_rep}))
        csa.agdp.kill(victim)  # per-module hook passes: the AGDP is fine
        with pytest.raises(InvariantViolation):
            check_csa_invariants(csa)

    def test_forgetful_gc_mutant_is_internally_consistent(self):
        """The GC-broken estimator is *consistently* wrong: its live
        tracker and AGDP agree with each other, so structural invariants
        pass and only the differential oracle (Definition 3.1 recomputed
        from the true event set) exposes it - exactly the division of
        labor between the two detection layers."""
        from ..conftest import send

        csa = broken_gc_factory("src", two_proc_spec(), debug_checks=True)
        csa.on_send(send("src", 0, 1.0, dest="a"))
        csa.on_send(send("src", 1, 2.0, dest="a"))  # hooks ran, no violation
        check_csa_invariants(csa)


@given(schedules(min_steps=5, max_steps=20))
def test_invariants_hold_across_random_schedules(schedule):
    """debug_invariants arms the hooks inside the differential driver."""
    report = run_differential(
        schedule, debug_invariants=True, check_determinism=False
    )
    assert report.ok, report.describe()


@given(schedules(min_steps=5, max_steps=15, lossy=True))
def test_invariants_hold_on_lossy_schedules(schedule):
    report = run_differential(
        schedule, debug_invariants=True, check_determinism=False
    )
    assert report.ok, report.describe()
