"""The numpy AGDP solver matches the reference dict solver observably."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InconsistentSpecificationError, NumpyAGDP
from repro.testing import ReferenceAGDP

from .test_agdp import agdp_scripts


class TestBasicParity:
    def test_small_script(self):
        for cls in (ReferenceAGDP, NumpyAGDP):
            agdp = cls(source="s")
            agdp.step("a", [("s", "a", 1.0), ("a", "s", 1.0)])
            agdp.step("b", [("a", "b", 2.0), ("b", "a", 2.0)], kills=["a"])
            assert agdp.distance("s", "b") == pytest.approx(3.0)
            assert agdp.live_nodes == {"s", "b"}

    def test_errors_match(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(ValueError):
            agdp.add_node("s")
        with pytest.raises(KeyError):
            agdp.kill("ghost")
        with pytest.raises(ValueError):
            agdp.kill("s")
        agdp.add_node("a")
        with pytest.raises(ValueError):
            agdp.insert_edge("s", "a", math.nan)
        agdp.insert_edge("s", "a", 1.0)
        with pytest.raises(InconsistentSpecificationError):
            agdp.insert_edge("a", "s", -2.0)
        with pytest.raises(InconsistentSpecificationError):
            agdp.insert_edge("s", "s", -1.0)

    def test_capacity_growth(self):
        agdp = NumpyAGDP(source="s")
        previous = "s"
        for i in range(100):  # far beyond the initial capacity of 16
            node = f"n{i}"
            agdp.step(node, [(previous, node, 1.0)])
            previous = node
        assert agdp.distance("s", "n99") == pytest.approx(100.0)
        assert len(agdp) == 101

    def test_slot_reuse_after_kill(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 1.0)])
        agdp.kill("a")
        agdp.step("b", [("s", "b", 7.0)])
        # b may reuse a's slot; no stale distances may leak
        assert agdp.distance("s", "b") == pytest.approx(7.0)
        assert math.isinf(agdp.distance("b", "s"))

    def test_distances_from_to(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 2.0), ("a", "s", 3.0)])
        assert agdp.distances_from("s") == {"s": 0.0, "a": 2.0}
        assert agdp.distances_to("s") == {"s": 0.0, "a": 3.0}

    def test_gc_disabled_retains_dead(self):
        agdp = NumpyAGDP(source="s", gc_enabled=False)
        agdp.step("a", [("s", "a", 1.0)])
        agdp.step("b", [("a", "b", 1.0)], kills=["a"])
        assert "a" in agdp
        assert agdp.live_nodes == {"s", "b"}
        assert agdp.distance("s", "a") == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(agdp_scripts())
def test_numpy_matches_dict_backend(steps):
    dict_agdp = ReferenceAGDP(source="s")
    np_agdp = NumpyAGDP(source="s")
    live = {"s"}
    for node, edges, kills in steps:
        dict_agdp.step(node, edges, kills)
        np_agdp.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
        for x in live:
            for y in live:
                a = dict_agdp.distance(x, y)
                b = np_agdp.distance(x, y)
                if math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a, abs=1e-9)


@st.composite
def heavy_churn_scripts(draw):
    """Kill-heavy / growth-heavy scripts stressing the compacted-slot layout.

    Unlike :func:`agdp_scripts` these run long enough to force capacity
    doubling past the initial 16 slots ("grow" flavour) and enough
    interleaved kills that nearly every step compacts via a swap-with-last
    ("churn" flavour).  Weights stay potential-based (feasible).
    """
    n_steps = draw(st.integers(min_value=20, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    flavour = draw(st.sampled_from(["grow", "churn"]))
    kill_prob = 0.15 if flavour == "grow" else 0.85
    potentials = {"s": 0.0}
    live = ["s"]
    steps = []
    for i in range(n_steps):
        node = f"n{i}"
        potentials[node] = rng.uniform(-5, 5)
        degree = rng.randint(1, min(4, len(live)))
        edges = []
        for peer in rng.sample(live, degree):
            for x, y in ((node, peer), (peer, node)):
                if rng.random() < 0.9:
                    slack = rng.uniform(0, 2)
                    edges.append((x, y, potentials[y] - potentials[x] + slack))
        kills = []
        killable = [p for p in live if p != "s"]
        rng.shuffle(killable)
        while killable and rng.random() < kill_prob:
            kills.append(killable.pop())
            if len(kills) >= 2:
                break
        steps.append((node, edges, kills))
        live = [p for p in live if p not in kills] + [node]
    return steps


@settings(max_examples=25, deadline=None)
@given(heavy_churn_scripts())
def test_numpy_survives_heavy_slot_churn(steps):
    """Distance-map equivalence under interleaved add/kill/grow sequences.

    Every kill on the compacted matrix swaps the last occupied slot into
    the hole; every growth reallocates the prefix.  Neither may perturb a
    single surviving distance relative to the reference dict solver.
    """
    dict_agdp = ReferenceAGDP(source="s")
    np_agdp = NumpyAGDP(source="s")
    live = {"s"}
    for node, edges, kills in steps:
        dict_agdp.step(node, edges, kills)
        np_agdp.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
        assert np_agdp.nodes == dict_agdp.nodes == live
        for x in live:
            from_dict = dict_agdp.distances_from(x)
            from_np = np_agdp.distances_from(x)
            assert from_np.keys() == from_dict.keys()
            for y, a in from_dict.items():
                b = from_np[y]
                if math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a, abs=1e-9)


def test_compaction_swap_preserves_self_distances():
    """Killing an interior slot swaps the last row/column in; the moved
    node's self-distance must land back on the diagonal."""
    agdp = NumpyAGDP(source="s")
    for name, w in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
        agdp.step(name, [("s", name, w), (name, "s", -w + 0.5)])
    agdp.kill("a")  # interior slot: c (last) swaps into a's slot
    assert agdp.nodes == {"s", "b", "c"}
    for node in ("s", "b", "c"):
        assert agdp.distance(node, node) == 0.0
    assert agdp.distance("s", "c") == pytest.approx(3.0)
    assert agdp.distance("c", "s") == pytest.approx(-2.5)


@settings(max_examples=60, deadline=None)
@given(agdp_scripts())
def test_stats_parity_across_backends(steps):
    """Both solvers report identical work/size counters - including
    ``pair_updates``, which must mean the same quantity (finite relaxation
    candidates) regardless of solver so complexity plots line up."""
    dict_agdp = ReferenceAGDP(source="s")
    np_agdp = NumpyAGDP(source="s")
    for node, edges, kills in steps:
        dict_agdp.step(node, edges, kills)
        np_agdp.step(node, edges, kills)
    for field in (
        "nodes_added",
        "nodes_killed",
        "edges_inserted",
        "pair_updates",
        "max_nodes",
    ):
        assert getattr(np_agdp.stats, field) == getattr(dict_agdp.stats, field), field
