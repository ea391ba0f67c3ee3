"""Batch APIs are observationally identical to their scalar loops.

The batch-delivery engine path leans on two amortization APIs added for
the wire/batching perf pass: :meth:`ClockModel.lt_batch` and
:meth:`HistoryModule.prepare_payloads`.  Each one promises *exactly* the
scalar semantics - same values, same stats, same sharing-visible
behavior - so the engine may switch between paths freely without
changing any observable result.  These properties pin that promise
directly, complementing the end-to-end reference parity suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventId, EventKind
from repro.core.history import HistoryModule
from repro.sim.clock import AffineClock, PerfectClock, PiecewiseDriftingClock

_RTS = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=64,
)


class TestClockBatchParity:
    @given(seed=st.integers(min_value=0, max_value=1_000), rts=_RTS)
    @settings(max_examples=100, deadline=None)
    def test_drifting_clock(self, seed, rts):
        # two fresh clocks from the same seed: batch on one, scalars on
        # the other, so the lazy segment extension can't cross-pollinate
        batch_clock = PiecewiseDriftingClock(seed)
        scalar_clock = PiecewiseDriftingClock(seed)
        assert batch_clock.lt_batch(rts) == [scalar_clock.lt(rt) for rt in rts]

    @given(rts=_RTS)
    @settings(max_examples=50, deadline=None)
    def test_affine_and_perfect(self, rts):
        for clock in (PerfectClock(), AffineClock(rate=1.0 + 150e-6, offset=0.25)):
            assert clock.lt_batch(rts) == [clock.lt(rt) for rt in rts]

    def test_batch_then_scalar_interleaving(self):
        # a batch call must leave the lazy state exactly where the scalar
        # walk would: later scalar reads agree with a scalar-only twin
        batched = PiecewiseDriftingClock(7)
        scalar = PiecewiseDriftingClock(7)
        batched.lt_batch([0.5, 3.0, 9.75])
        for rt in (0.5, 3.0, 9.75):
            scalar.lt(rt)
        for rt in (10.0, 12.5, 40.0):
            assert batched.lt(rt) == scalar.lt(rt)


class TestPreparePayloadsParity:
    def _module(self, *, events=6):
        module = HistoryModule("a", ["b", "c", "d"])
        for i in range(events):
            module.record_local(Event(EventId("a", i), float(i + 1), EventKind.INTERNAL))
        return module

    def test_equal_to_per_neighbor_loop(self):
        batched = self._module()
        scalar = self._module()
        many = batched.prepare_payloads(["b", "c", "d"])
        for neighbor in ("b", "c", "d"):
            payload, _token = scalar.prepare_payload(neighbor)
            assert many[neighbor][0] == payload

    def test_identical_views_share_one_payload_object(self):
        module = self._module()
        many = module.prepare_payloads(["b", "c", "d"])
        # fresh module, no watermark divergence: one payload serves all
        assert many["b"][0] is many["c"][0] is many["d"][0]

    def test_diverged_watermarks_get_distinct_payloads(self):
        module = self._module()
        # reliable mode settles the token at prepare time: b's watermark
        # advances immediately, so the next burst diverges b from c
        module.prepare_payload("b")
        module.record_local(Event(EventId("a", 6), 7.0, EventKind.INTERNAL))
        many = module.prepare_payloads(["b", "c"])
        assert many["b"][0] != many["c"][0]
        assert len(many["c"][0].records) > len(many["b"][0].records)

    def test_tokens_are_independent(self):
        module = HistoryModule("a", ["b", "c"], reliable=False)
        module.record_local(Event(EventId("a", 0), 1.0, EventKind.INTERNAL))
        many = module.prepare_payloads(["b", "c"])
        tokens = {neighbor: token for neighbor, (_payload, token) in many.items()}
        module.confirm_delivery(tokens["b"])
        module.abort_delivery(tokens["c"])  # must not raise or cross-confirm
