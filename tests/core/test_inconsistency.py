"""Failure injection: violated specifications must be *detected*, not
silently absorbed.

By Theorem 2.1 a consistent view never yields a negative cycle; if a
processor's clock runs outside its advertised bounds, or a link delivers
faster than its declared minimum, the timestamps contradict the spec and
the synchronization graph closes a negative cycle.  The algorithms must
raise :class:`InconsistentSpecificationError` rather than emit an interval
that silently excludes the truth.
"""

import math

import pytest

from repro.core import (
    EfficientCSA,
    FullInformationCSA,
    InconsistentSpecificationError,
    QuarantineDiagnostic,
    bellman_ford_from,
    build_sync_graph,
    check_execution,
    View,
)
from repro.testing import ReferenceAGDP

from ..conftest import make_event, recv, send, two_proc_spec


def too_fast_round_trip():
    """A round trip whose local elapsed time at the prober is less than
    two transit lower bounds: physically impossible under the spec."""
    spec = two_proc_spec(transit=(0.4, 1.0), drift_ppm=100)
    view = View()
    s1 = send("src", 0, 10.0, dest="a")
    view.add(s1)
    r1 = recv("a", 0, 50.0, s1)
    view.add(r1)
    s2 = send("a", 1, 50.1, dest="src")
    view.add(s2)
    # src's receive only 0.5 after its send, but 2 * 0.4 transit + the
    # peer's 0.1 local processing cannot fit in 0.5 real seconds
    r2 = recv("src", 1, 10.5, s2)
    view.add(r2)
    return view, spec


class TestDetectionInGraph:
    def test_negative_cycle_in_sync_graph(self):
        view, spec = too_fast_round_trip()
        graph = build_sync_graph(view, spec)
        with pytest.raises(InconsistentSpecificationError):
            bellman_ford_from(graph, view.last_event("src").eid)

    def test_check_execution_rejects_impossible_rt(self):
        view, spec = too_fast_round_trip()
        # no real-time assignment can satisfy this view; even the "true"
        # local times read as real times fail
        rt = {eid: view.event(eid).lt for eid in view}
        assert check_execution(view, spec, rt)


class TestDetectionInAlgorithms:
    def test_efficient_csa_raises(self):
        spec = two_proc_spec(transit=(0.4, 1.0))
        src = EfficientCSA("src", spec)
        a = EfficientCSA("a", spec)
        s1 = send("src", 0, 10.0, dest="a")
        payload1 = src.on_send(s1)
        a.on_receive(recv("a", 0, 50.0, s1), payload1)
        s2 = send("a", 1, 50.1, dest="src")
        payload2 = a.on_send(s2)
        with pytest.raises(InconsistentSpecificationError):
            src.on_receive(recv("src", 1, 10.5, s2), payload2)

    def test_full_information_csa_raises_on_query(self):
        spec = two_proc_spec(transit=(0.4, 1.0))
        src = FullInformationCSA("src", spec)
        a = FullInformationCSA("a", spec)
        s1 = send("src", 0, 10.0, dest="a")
        payload1 = src.on_send(s1)
        a.on_receive(recv("a", 0, 50.0, s1), payload1)
        s2 = send("a", 1, 50.1, dest="src")
        payload2 = a.on_send(s2)
        src.on_receive(recv("src", 1, 10.5, s2), payload2)
        with pytest.raises(InconsistentSpecificationError):
            src.estimate()

    def test_drift_violation_detected(self):
        """A clock advancing twice as fast as advertised, caught via two
        source contacts bracketing the bogus interval."""
        spec = two_proc_spec(transit=(0.0, 0.001), drift_ppm=100)
        src = EfficientCSA("src", spec)
        a = EfficientCSA("a", spec)
        # contact 1: pins a's clock to ~src's 10.0
        s1 = send("src", 0, 10.0, dest="a")
        a.on_receive(recv("a", 0, 100.0, s1), src.on_send(s1))
        # a's clock then shows 50 elapsed while src shows 10 - far beyond
        # 100 ppm - reported back over a tight link
        s2 = send("a", 1, 150.0, dest="src")
        payload2 = a.on_send(s2)
        with pytest.raises(InconsistentSpecificationError):
            src.on_receive(recv("src", 1, 20.0, s2), payload2)


class TestDegradedQuarantine:
    def test_one_bad_transit_edge_is_quarantined_and_skipped(self):
        """One delivered payload carrying one out-of-spec transit edge.

        Degraded mode records exactly one diagnostic and leaves a matrix
        equal to the reference solver fed the same steps minus that edge;
        plain mode raises on the same payload.
        """
        spec = two_proc_spec(transit=(0.4, 1.0))
        degraded = EfficientCSA("src", spec, degraded_mode=True)
        plain = EfficientCSA("src", spec)
        steps = []
        solver_step = degraded.agdp.step

        def recording_step(node, edges, kills=(), on_reject=None):
            edges, kills = list(edges), list(kills)
            steps.append((node, [edge[:3] for edge in edges], kills))
            solver_step(node, edges, kills, on_reject)

        degraded.agdp.step = recording_step
        a = EfficientCSA("a", spec)
        s1 = send("src", 0, 10.0, dest="a")
        degraded.on_send(s1)
        payload1 = plain.on_send(s1)
        a.on_receive(recv("a", 0, 50.0, s1), payload1)
        s2 = send("a", 1, 50.1, dest="src")
        payload2 = a.on_send(s2)
        r2 = recv("src", 1, 10.5, s2)

        degraded.on_receive(r2, payload2)
        with pytest.raises(InconsistentSpecificationError):
            plain.on_receive(r2, payload2)

        [diagnostic] = degraded.diagnostics
        assert isinstance(diagnostic, QuarantineDiagnostic)
        assert diagnostic.event == r2.eid
        assert diagnostic.kind == "transit"
        assert diagnostic.edge[:2] == (s2.eid, r2.eid)
        reference = ReferenceAGDP()
        for node, edges, kills in steps:
            reference.step(node, [e for e in edges if e != diagnostic.edge], kills)
        assert reference.nodes == degraded.agdp.nodes
        for x in reference.nodes:
            for y in reference.nodes:
                expected = reference.distance(x, y)
                actual = degraded.agdp.distance(x, y)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected, abs=1e-12)
