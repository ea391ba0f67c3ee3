"""Late-joiner bootstrap: snapshot handoff, at-most-once, strict codec.

The load-bearing claims (Lemmas 3.4/3.5 + Lemma 3.1): a sponsor's
snapshot taken right after the handshake send, adopted by a *fresh*
joiner before it processes the handshake receive, leaves the joiner with
exactly the estimate a full replay of the sponsor's causal past would
have produced - and adoption is refused for anything that is not fresh,
giving the runtime handshake its at-most-once semantics for free.
"""

import math

import pytest

from repro.core import EfficientCSA
from repro.core.bootstrap import BootstrapSnapshot
from repro.core.specs import DriftSpec, SystemSpec, TransitSpec

from ..conftest import recv, send


def line3_spec(*, drift_ppm: float = 0.0) -> SystemSpec:
    return SystemSpec.build(
        source="src",
        processors=["src", "a", "b"],
        links=[("src", "a"), ("a", "b")],
        default_drift=DriftSpec.from_ppm(drift_ppm),
        default_transit=TransitSpec(0.2, 1.0),
    )


def sponsor_with_history(spec):
    """A sponsor 'a' that has heard from the source once."""
    source = EfficientCSA("src", spec)
    sponsor = EfficientCSA("a", spec)
    s1 = send("src", 0, 10.0, dest="a")
    payload1 = source.on_send(s1)
    sponsor.on_receive(recv("a", 0, 13.5, s1), payload1)
    return source, sponsor


def handshake(spec, sponsor):
    """Sponsor's handshake send + post-send snapshot, per the protocol."""
    s2 = send("a", 1, 14.0, dest="b")
    payload2 = sponsor.on_send(s2)
    snapshot = sponsor.bootstrap_snapshot()  # after the send: covers it
    return s2, payload2, snapshot


class TestSnapshotHandoff:
    def setup_method(self):
        self.spec = line3_spec()
        self.source, self.sponsor = sponsor_with_history(self.spec)

    def test_fresh_joiner_adopts_and_first_estimate_is_bounded(self):
        s2, payload2, snapshot = handshake(self.spec, self.sponsor)
        joiner = EfficientCSA("b", self.spec)
        assert joiner.is_fresh
        assert joiner.bootstrap_from(snapshot)
        assert not joiner.is_fresh
        # adopted knowledge alone has no local anchor: still unbounded
        assert not joiner.estimate().is_bounded
        joiner.on_receive(recv("b", 0, 20.0, s2), payload2)
        bound = joiner.estimate()
        # sponsor's bound at s2 was [10.7, 11.5] (drift-free); one more
        # hop with transit [0.2, 1.0] widens it to [10.9, 12.5]
        assert bound.lower == pytest.approx(10.9)
        assert bound.upper == pytest.approx(12.5)

    def test_bootstrap_matches_full_replay_twin(self):
        """Lemma 3.1 operationally: snapshot + handshake == cold replay.

        The first payload to a never-seen neighbor re-reports everything,
        so a cold twin receiving the same handshake learns the same causal
        past; the snapshot must add nothing and lose nothing.
        """
        s2, payload2, snapshot = handshake(self.spec, self.sponsor)
        booted = EfficientCSA("b", self.spec)
        assert booted.bootstrap_from(snapshot)
        cold = EfficientCSA("b", self.spec)
        booted.on_receive(recv("b", 0, 20.0, s2), payload2)
        cold.on_receive(recv("b", 0, 20.0, s2), payload2)
        assert booted.estimate().lower == pytest.approx(cold.estimate().lower)
        assert booted.estimate().upper == pytest.approx(cold.estimate().upper)

    def test_adoption_is_at_most_once(self):
        _s2, _payload2, snapshot = handshake(self.spec, self.sponsor)
        joiner = EfficientCSA("b", self.spec)
        assert joiner.bootstrap_from(snapshot)
        assert not joiner.bootstrap_from(snapshot)  # no longer fresh

    def test_non_fresh_estimator_refuses(self):
        s2, payload2, snapshot = handshake(self.spec, self.sponsor)
        joiner = EfficientCSA("b", self.spec)
        joiner.on_receive(recv("b", 0, 20.0, s2), payload2)
        assert not joiner.is_fresh
        assert not joiner.bootstrap_from(snapshot)

    def test_inconsistent_distances_refused_wholesale(self):
        _s2, _payload2, snapshot = handshake(self.spec, self.sponsor)
        if not snapshot.distances:
            pytest.skip("snapshot carries no finite distances to poison")
        # flip one distance far negative: a negative cycle appears
        xp, xs, yp, ys, w = snapshot.distances[0]
        poisoned = BootstrapSnapshot(
            sponsor=snapshot.sponsor,
            last=snapshot.last,
            undelivered=snapshot.undelivered,
            known=snapshot.known,
            loss_flags=snapshot.loss_flags,
            distances=((xp, xs, yp, ys, -1e9),) + snapshot.distances[1:],
            source_rep=snapshot.source_rep,
        )
        joiner = EfficientCSA("b", self.spec)
        assert not joiner.bootstrap_from(poisoned)
        # the refusal resets to fresh: a good snapshot still adopts
        assert joiner.is_fresh
        assert joiner.bootstrap_from(snapshot)


class TestSnapshotCodec:
    def setup_method(self):
        spec = line3_spec()
        _source, sponsor = sponsor_with_history(spec)
        _s2, _payload2, self.snapshot = handshake(spec, sponsor)

    def test_round_trip(self):
        data = self.snapshot.to_dict()
        assert BootstrapSnapshot.from_dict(data) == self.snapshot

    def test_round_trip_through_json_types(self):
        import json

        data = json.loads(json.dumps(self.snapshot.to_dict()))
        assert BootstrapSnapshot.from_dict(data) == self.snapshot

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("sponsor"),
            lambda d: d.update(sponsor=7),
            lambda d: d.update(last="nope"),
            lambda d: d.update(distances=[[1, 2]]),
            lambda d: d.update(known={"src": "x"}),
            lambda d: d.update(loss_flags=[["src"]]),
        ],
        ids=["missing", "bad-sponsor", "bad-last", "bad-distance", "bad-known", "bad-flag"],
    )
    def test_strict_decode_rejects(self, mutate):
        data = self.snapshot.to_dict()
        mutate(data)
        with pytest.raises(ValueError):
            BootstrapSnapshot.from_dict(data)

    def test_decode_rejects_non_dict(self):
        with pytest.raises(ValueError):
            BootstrapSnapshot.from_dict([1, 2, 3])

    def test_frontier_and_live_points_are_consistent(self):
        frontier = self.snapshot.frontier()
        assert frontier  # a sponsor with history knows something
        for point in self.snapshot.live_points():
            assert frontier.get(point.proc, -1) >= point.seq
