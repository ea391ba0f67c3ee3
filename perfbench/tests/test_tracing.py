"""Span recording and self-time arithmetic."""

import types

import pytest

from pbench.tracing import Patch, Tracer, covered_length, instrument_parts, patched


def _tree(spans):
    """A tracer holding hand-built ``(name, start, end, parent)`` spans."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.rids.append(None)
    return tracer


def test_self_time_subtracts_the_union_of_children():
    tracer = _tree(
        [
            ("engine", 0.0, 10.0, -1),
            ("csa", 1.0, 4.0, 0),
            ("agdp", 2.0, 3.0, 1),
            ("csa", 5.0, 9.0, 0),
            ("live", 5.5, 6.0, 3),
            ("live", 7.0, 8.5, 3),
        ]
    )
    assert tracer.self_times() == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    busy = tracer.busy_by_name()
    assert busy == pytest.approx({"engine": 3.0, "csa": 4.0, "agdp": 1.0, "live": 2.0})
    assert sum(busy.values()) == pytest.approx(10.0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_wrap_records_nesting_and_inherits_request_ids():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap(
        "outer", lambda x: inner(x) + 1, rid=lambda args, result: f"req{args[0]}"
    )
    seen = []
    counted = tracer.wrap("counted", lambda: 5, observe=lambda a, r: seen.append(r))
    assert outer(3) == 7
    assert counted() == 5
    assert tracer.names == ["outer", "inner", "counted"]
    assert tracer.parents == [-1, 0, -1]
    assert tracer.rids[0] == "req3"
    assert seen == [5]
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))


def test_wrap_closes_spans_on_exceptions():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.parents == [-1, -1]


def test_instrument_parts_wraps_fresh_parts_only_once():
    tracer = Tracer()
    history = types.SimpleNamespace(record_local=lambda event: event)
    csa = types.SimpleNamespace(
        history=history,
        live=types.SimpleNamespace(),
        agdp=types.SimpleNamespace(),
    )
    instrument_parts(tracer, csa)
    instrument_parts(tracer, csa)
    csa.history.record_local("e")
    assert tracer.names == ["history.record_local"]
    csa.history = types.SimpleNamespace(record_local=lambda event: event)
    instrument_parts(tracer, csa)
    csa.history.record_local("f")
    assert tracer.names == ["history.record_local"] * 2


def test_patched_restores_module_references():
    import pbench.stats as target

    original = target.percentile
    tracer = Tracer()
    with patched(tracer, [Patch("pbench.stats", "percentile", "stats.percentile")]):
        assert target.percentile([1.0, 2.0], 50) == 1.0
    assert target.percentile is original
    assert tracer.names == ["stats.percentile"]
