"""Space and knowledge hygiene under kill -> rejoin of the same processor.

Three properties keep churn from leaking state:

* :meth:`NumpyAGDP.kill` reclaims slots via swap-with-last, so a
  processor that leaves and rejoins forever (new incarnation points,
  same id) keeps the distance matrix bounded by the *live* population
  (Lemma 3.5), and compaction never perturbs survivor distances.
* :meth:`View.without_events` excises an old incarnation's events
  together with their causal futures, leaving a valid causally closed
  view - the quarantine primitive rebuilds ride on.
* The rejected-seq high-water mark survives a peer's rejoin: once a
  receiver refuses part of the old incarnation's stream, the gap that
  every honest relay now ships is recognised as self-inflicted and
  never blamed on the relay.
"""

import math

import pytest

from repro.core import EfficientCSA, HistoryPayload, NumpyAGDP, SuspicionPolicy, View
from repro.core.specs import SystemSpec, TransitSpec
from repro.testing import ReferenceAGDP

from ..conftest import make_event, recv, send

#: ring s - a - b - c - s; hardened receiver is ``a``
SPEC = SystemSpec.build(
    source="s",
    processors=["s", "a", "b", "c"],
    links=[("s", "a"), ("a", "b"), ("b", "c"), ("c", "s")],
    default_transit=TransitSpec(0.1, 1.0),
)


class TestNumpySlotCompaction:
    def test_repeated_kill_rejoin_keeps_matrix_bounded(self):
        agdp = NumpyAGDP(source="s")
        sizes = set()
        for incarnation in range(40):  # far beyond the initial capacity
            point = ("p", incarnation)
            agdp.step(point, [("s", point, 1.0), (point, "s", 1.0)])
            assert agdp.distance("s", point) == pytest.approx(1.0)
            agdp.kill(point)
            sizes.add(agdp.matrix_size())
        # every incarnation's slot was reclaimed: the footprint after each
        # kill is the steady-state one, never a function of churn count
        assert sizes == {agdp.matrix_size()}
        assert agdp.live_nodes == {"s"}
        assert len(agdp) == 1

    def test_compaction_preserves_survivor_distances(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 2.0), ("a", "s", 3.0)])
        agdp.step("b", [("a", "b", 1.5), ("b", "a", 2.5)])
        before = {
            (x, y): agdp.distance(x, y)
            for x in ("s", "a", "b")
            for y in ("s", "a", "b")
        }
        for incarnation in range(10):
            point = ("churner", incarnation)
            # the transient sits between a and b: paths through it exist
            # while it lives, but its kill must restore the exact survivor
            # matrix (swap-with-last moves rows/columns, never values)
            agdp.step(point, [("a", point, 10.0), (point, "b", 10.0)])
            agdp.kill(point)
        for pair, value in before.items():
            assert agdp.distance(*pair) == pytest.approx(value)

    def test_rejoin_never_sees_stale_incarnation_state(self):
        agdp = NumpyAGDP(source="s")
        first = ("p", 0)
        agdp.step(first, [("s", first, 1.0), (first, "s", 1.0)])
        agdp.kill(first)
        rejoined = ("p", 1)  # same processor id, next incarnation point
        agdp.step(rejoined, [("s", rejoined, 7.0)])
        # the reused slot carries nothing over: only the fresh edge exists
        assert agdp.distance("s", rejoined) == pytest.approx(7.0)
        assert math.isinf(agdp.distance(rejoined, "s"))
        assert first not in agdp

    def test_churn_parity_with_dict_backend(self):
        dense = NumpyAGDP(source="s")
        reference = ReferenceAGDP(source="s")
        survivors = ["s"]
        for incarnation in range(12):
            point = ("p", incarnation)
            anchor = survivors[incarnation % len(survivors)]
            edges = [(anchor, point, 1.0 + incarnation), (point, anchor, 2.0)]
            kills = [("p", incarnation - 1)] if incarnation else []
            dense.step(point, edges, kills)
            reference.step(point, edges, kills)
            if incarnation % 3 == 0:
                keeper = ("keep", incarnation)
                dense.step(keeper, [(point, keeper, 0.5)])
                reference.step(keeper, [(point, keeper, 0.5)])
                survivors.append(keeper)
        for x in reference.live_nodes:
            for y in reference.live_nodes:
                expected = reference.distance(x, y)
                actual = dense.distance(x, y)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected)


class TestViewQuarantine:
    def _churn_view(self):
        """p's first incarnation talks to q, then p rejoins and talks again."""
        view = View()
        s0 = send("p", 0, 1.0, dest="q")
        view.add(s0)
        view.add(recv("q", 0, 2.0, s0))
        s1 = send("q", 1, 3.0, dest="p")
        view.add(s1)
        view.add(recv("p", 1, 4.0, s1))  # last event of the old incarnation
        s2 = send("p", 2, 5.0, dest="q")  # post-rejoin traffic
        view.add(s2)
        view.add(recv("q", 2, 6.0, s2))
        return view

    def test_excising_an_incarnation_takes_its_causal_future(self):
        view = self._churn_view()
        # drop the old incarnation's receive: everything after it at p
        # (including the rejoin send) and q's receive of that send go too
        pruned = view.without_events([make_event("p", 1, 4.0).eid])
        assert len(pruned) == 3
        assert pruned.last_seq("p") == 0
        assert pruned.last_seq("q") == 1
        # the remainder is a valid view: every event re-adds cleanly
        rebuilt = View()
        for eid in pruned:
            rebuilt.add(pruned.event(eid))
        assert len(rebuilt) == 3

    def test_excised_view_liveness_is_recomputed(self):
        view = self._churn_view()
        pruned = view.without_events([make_event("q", 2, 6.0).eid])
        # p#2's receive is gone, so the send becomes an undelivered live point
        assert make_event("p", 2, 5.0).eid in pruned.live_points()

    def test_unknown_ids_are_ignored(self):
        view = self._churn_view()
        same = view.without_events([make_event("ghost", 0, 1.0).eid])
        assert len(same) == len(view)

    def test_excising_seq_zero_removes_the_whole_processor(self):
        view = self._churn_view()
        pruned = view.without_events([make_event("p", 0, 1.0).eid])
        assert pruned.events_of("p") == []
        # q#0 (the receive of p#0) and everything after it at q is gone too
        assert pruned.events_of("q") == []


class TestRejectedSeqHighWaterMark:
    """End-to-end: a rejoined peer's self-inflicted gap stays self-inflicted."""

    def _receiver(self):
        return EfficientCSA("a", SPEC, suspicion=SuspicionPolicy())

    def _deliver(self, csa, seq, lt, records):
        """One receive at ``a`` of a send from ``b`` shipping ``records``."""
        s = send("b", seq, lt, dest="a")
        payload = HistoryPayload(records=(s,) + tuple(records))
        csa.on_receive(recv("a", seq, lt + 0.5, s), payload)

    def test_gap_rejection_sets_the_mark(self):
        csa = self._receiver()
        # c was killed and rejoined: its pre-kill records (c#0..c#1) never
        # reached a, so the relayed post-rejoin record opens with a gap
        self._deliver(csa, 0, 5.0, [make_event("c", 2, 4.0)])
        assert [f.kind for f in csa.validation_failures] == ["gap"]
        assert csa.validation_failures[0].accused == ("b",)  # fresh gap: shipper
        assert csa._rejected_hwm == {"c": 2}

    def test_mark_shields_relays_from_recurring_blame(self):
        csa = self._receiver()
        self._deliver(csa, 0, 5.0, [make_event("c", 2, 4.0)])
        blamed_once = csa.suspicion.scores.get("b", 0.0)
        assert blamed_once > 0.0
        # the rejoined stream continues; every honest relay now ships the
        # same hole forever.  The mark recognises it: gap recorded, nobody
        # accused, b's score frozen
        self._deliver(csa, 1, 6.0, [make_event("c", 3, 5.5)])
        gaps = [f for f in csa.validation_failures if f.kind == "gap"]
        assert len(gaps) == 2
        assert gaps[1].accused == ()
        assert csa.suspicion.scores.get("b", 0.0) == blamed_once
        # the mark itself advanced with the newly refused record
        assert csa._rejected_hwm == {"c": 3}

    def test_contiguous_continuation_stays_shielded(self):
        csa = self._receiver()
        self._deliver(csa, 0, 5.0, [make_event("c", 2, 4.0)])
        score_after_first = csa.suspicion.scores.get("b", 0.0)
        # the rejoined stream advances one record at a time: each refusal
        # extends the mark, so the missing range is always exactly what
        # this receiver refused earlier - shielded forever
        self._deliver(csa, 1, 6.0, [make_event("c", 3, 5.5)])
        self._deliver(csa, 2, 7.0, [make_event("c", 4, 6.5)])
        assert csa._rejected_hwm == {"c": 4}
        assert csa.suspicion.scores.get("b", 0.0) == score_after_first
        assert csa.suspicion.evicted_procs == set()

    def test_jump_past_the_mark_is_a_fresh_gap(self):
        csa = self._receiver()
        self._deliver(csa, 0, 5.0, [make_event("c", 2, 4.0)])
        score_after_first = csa.suspicion.scores.get("b", 0.0)
        # c#5 skips c#3..c#4, which this receiver never refused: the hole
        # is NOT self-inflicted, so the shipper is accused again
        self._deliver(csa, 1, 6.0, [make_event("c", 5, 5.5)])
        gaps = [f for f in csa.validation_failures if f.kind == "gap"]
        assert gaps[1].accused == ("b",)
        assert csa.suspicion.scores.get("b", 0.0) > score_after_first
