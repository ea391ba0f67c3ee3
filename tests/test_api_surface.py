"""Mop-up tests for public API surfaces not exercised elsewhere."""

import math

import pytest

from repro.core import (
    DriftSpec,
    EfficientCSA,
    EventId,
    NumpyAGDP,
    SystemSpec,
    TransitSpec,
)
from repro.experiments.base import ExperimentResult
from repro.sim import Simulation, run_workload, standard_network, topologies
from repro.sim.workloads import PeriodicGossip, RandomTraffic

from .conftest import make_event, send, two_proc_spec


class TestSystemSpecBuild:
    def test_per_item_overrides(self):
        spec = SystemSpec.build(
            source="s",
            processors=["s", "a", "b"],
            links=[("s", "a"), ("a", "b")],
            drift={"a": DriftSpec.from_ppm(10)},
            default_drift=DriftSpec.from_ppm(500),
            transit={("a", "b"): TransitSpec(0.5, 0.6)},
            default_transit=TransitSpec(0.0, 1.0),
        )
        assert spec.drift_of("a") == DriftSpec.from_ppm(10)
        assert spec.drift_of("b") == DriftSpec.from_ppm(500)
        assert spec.transit_of("a", "b") == TransitSpec(0.5, 0.6)
        assert spec.transit_of("s", "a") == TransitSpec(0.0, 1.0)

    def test_build_defaults(self):
        spec = SystemSpec.build(
            source="s", processors=["s", "a"], links=[("s", "a")]
        )
        assert spec.drift_of("a") == DriftSpec.from_ppm(100)
        assert not spec.transit_of("s", "a").is_bounded


class TestViewMisc:
    def test_receive_of_missing_is_none(self):
        from repro.core import View

        view = View([send("p", 0, 1.0, dest="q")])
        assert view.receive_of(EventId("p", 0)) is None

    def test_contains_and_iteration(self):
        from repro.core import View

        events = [make_event("p", i, float(i + 1)) for i in range(3)]
        view = View(events)
        assert EventId("p", 1) in view
        assert EventId("p", 9) not in view
        assert list(view) == [e.eid for e in events]


class TestAGDPMisc:
    def test_distances_from_and_to(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 2.0), ("a", "s", 5.0)])
        assert agdp.distances_from("s") == {"s": 0.0, "a": 2.0}
        assert agdp.distances_to("s") == {"s": 0.0, "a": 5.0}
        with pytest.raises(KeyError):
            agdp.distances_to("ghost")

    def test_nodes_property(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        assert agdp.nodes == {"s", "a"}


class TestEstimatorMisc:
    def test_estimate_of_unknown_processor(self):
        spec = two_proc_spec()
        csa = EfficientCSA("a", spec)
        assert not csa.estimate_of("src").is_bounded
        assert not csa.estimate_of("nonexistent").is_bounded

    def test_stats_dataclass_fields(self, line4_run):
        stats = line4_run.sim.estimator("p1", "efficient").stats()
        assert stats.events_observed > 0
        assert stats.records_sent > 0
        assert stats.agdp_edges_inserted > 0
        assert stats.max_payload_records >= 1


class TestHistoryMisc:
    def test_buffered_events_in_learn_order(self):
        from repro.core import HistoryModule

        module = HistoryModule("a", ["b", "c"])
        events = [make_event("a", i, float(i + 1)) for i in range(4)]
        for event in events:
            module.record_local(event)
        assert module.buffered_events() == events


class TestRunnerMisc:
    def test_sample_channels_filter(self):
        names, links = topologies.line(2)
        network = standard_network(names, links, seed=1)
        result = run_workload(
            network,
            PeriodicGossip(period=5.0, seed=1),
            {
                "one": lambda p, s: EfficientCSA(p, s),
                "two": lambda p, s: EfficientCSA(p, s),
            },
            duration=20.0,
            seed=1,
            sample_period=10.0,
            sample_channels=("one",),
        )
        assert {s.channel for s in result.samples} == {"one"}

    def test_schedule_after(self):
        names, links = topologies.line(2)
        network = standard_network(names, links, seed=1)
        sim = Simulation(network)
        hits = []
        sim.schedule_at(5.0, lambda: sim.schedule_after(2.0, lambda: hits.append(sim.now)))
        sim.run_until(10.0)
        assert hits == [7.0]


class TestWorkloadMisc:
    def test_random_traffic_no_links_noop(self):
        from repro.core import SystemSpec
        from repro.sim import Network, Simulation

        network = Network(source="s", clocks={}, links=[])
        sim = Simulation(network)
        RandomTraffic(rate=1.0, seed=0).install(sim)
        assert sim.run_until(10.0) == 0


class TestExperimentResultMisc:
    def test_render_without_rows(self):
        result = ExperimentResult(experiment="x", description="d")
        text = result.render()
        assert "== x ==" in text
        assert result.all_passed  # vacuous


class TestEventIdMisc:
    def test_succ_chain(self):
        eid = EventId("p", 0)
        assert eid.succ().succ() == EventId("p", 2)
