"""Tests for the AGDP solver (Figure 3, Lemmas 3.4/3.5).

The central property (Lemma 3.4): after any sequence of AGDP steps, the
distance the solver reports between two live nodes equals the distance in
the full accumulated graph - verified against a from-scratch
Floyd-Warshall on the never-garbage-collected graph, including under
randomized step sequences (hypothesis).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InconsistentSpecificationError,
    NumpyAGDP,
    WeightedDigraph,
    floyd_warshall,
)
from repro.experiments.e4_agdp import steady_state_agdp


class TestBasics:
    def test_initial_state(self):
        agdp = NumpyAGDP(source="s")
        assert "s" in agdp
        assert agdp.distance("s", "s") == 0.0
        assert agdp.live_nodes == {"s"}

    def test_add_node_isolated(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        assert math.isinf(agdp.distance("s", "a"))
        assert agdp.distance("a", "a") == 0.0

    def test_duplicate_node_rejected(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(ValueError):
            agdp.add_node("s")

    def test_insert_edge_updates_distance(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        agdp.insert_edge("s", "a", 2.0)
        assert agdp.distance("s", "a") == 2.0
        agdp.insert_edge("s", "a", 1.0)
        assert agdp.distance("s", "a") == 1.0
        agdp.insert_edge("s", "a", 5.0)  # worse, ignored
        assert agdp.distance("s", "a") == 1.0

    def test_insert_edge_unknown_endpoint(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(KeyError):
            agdp.insert_edge("s", "ghost", 1.0)

    def test_infinite_edge_ignored(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        agdp.insert_edge("s", "a", math.inf)
        assert math.isinf(agdp.distance("s", "a"))

    def test_nan_edge_rejected(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        with pytest.raises(ValueError):
            agdp.insert_edge("s", "a", math.nan)

    def test_negative_self_loop_rejected(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(InconsistentSpecificationError):
            agdp.insert_edge("s", "s", -1.0)

    def test_negative_cycle_detected(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        agdp.insert_edge("s", "a", 1.0)
        with pytest.raises(InconsistentSpecificationError):
            agdp.insert_edge("a", "s", -2.0)

    def test_kill_removes_node(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        agdp.insert_edge("s", "a", 1.0)
        agdp.kill("a")
        assert "a" not in agdp
        assert len(agdp) == 1

    def test_kill_source_rejected(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(ValueError):
            agdp.kill("s")

    def test_kill_unknown_rejected(self):
        agdp = NumpyAGDP(source="s")
        with pytest.raises(KeyError):
            agdp.kill("ghost")

    def test_step_requires_incident_edges(self):
        agdp = NumpyAGDP(source="s")
        agdp.add_node("a")
        with pytest.raises(ValueError):
            agdp.step("b", [("s", "a", 1.0)])


class TestLemma34:
    """Distances through dead nodes survive their garbage collection."""

    def test_path_through_killed_node(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 1.0), ("a", "s", 1.0)])
        agdp.step("b", [("a", "b", 2.0), ("b", "a", 2.0)], kills=["a"])
        # a is gone, but s->b = 3 must survive
        assert "a" not in agdp
        assert agdp.distance("s", "b") == pytest.approx(3.0)
        assert agdp.distance("b", "s") == pytest.approx(3.0)

    def test_chain_of_kills(self):
        agdp = NumpyAGDP(source="s")
        previous = "s"
        for i in range(10):
            node = f"n{i}"
            kills = [previous] if previous != "s" else []
            agdp.step(
                node,
                [(previous, node, 1.0), (node, previous, 1.0)],
                kills=kills,
            )
            previous = node
        assert len(agdp) == 2  # source + last
        assert agdp.distance("s", "n9") == pytest.approx(10.0)

    def test_negative_weights_preserved(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 5.0), ("a", "s", -4.0)])
        agdp.step("b", [("a", "b", -1.0), ("b", "a", 2.0)], kills=["a"])
        assert agdp.distance("s", "b") == pytest.approx(4.0)
        assert agdp.distance("b", "s") == pytest.approx(-2.0)


def _oracle_prefix_distances(steps):
    """Yield full-accumulated-graph distances after each step prefix."""
    graph = WeightedDigraph()
    graph.add_node("s")
    for node, edges, _kills in steps:
        graph.add_node(node)
        for x, y, w in edges:
            graph.add_edge(x, y, w)
        yield floyd_warshall(graph)


@st.composite
def agdp_scripts(draw):
    """Random AGDP step sequences with potential-based (safe) weights."""
    n_steps = draw(st.integers(min_value=1, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    potentials = {"s": 0.0}
    live = ["s"]
    steps = []
    for i in range(n_steps):
        node = f"n{i}"
        potentials[node] = rng.uniform(-5, 5)
        degree = rng.randint(0, min(3, len(live)))
        peers = rng.sample(live, degree)
        edges = []
        for peer in peers:
            for x, y in ((node, peer), (peer, node)):
                if rng.random() < 0.8:
                    slack = rng.uniform(0, 2)
                    edges.append((x, y, potentials[y] - potentials[x] + slack))
        kills = []
        killable = [p for p in live if p != "s"]
        if killable and rng.random() < 0.5:
            kills.append(rng.choice(killable))
        steps.append((node, edges, kills))
        live = [p for p in live if p not in kills] + [node]
    return steps


@settings(max_examples=80, deadline=None)
@given(agdp_scripts())
def test_lemma_3_4_randomized(steps):
    """AGDP live-live distances == full-graph distances, after every step."""
    agdp = NumpyAGDP(source="s")
    live = {"s"}
    for (node, edges, kills), oracle in zip(steps, _oracle_prefix_distances(steps)):
        agdp.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
        for x in live:
            for y in live:
                expected = oracle[x][y]
                actual = agdp.distance(x, y)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(agdp_scripts())
def test_gc_off_matches_gc_on(steps):
    """The ablation mode returns identical distances for live pairs."""
    on = NumpyAGDP(source="s", gc_enabled=True)
    off = NumpyAGDP(source="s", gc_enabled=False)
    live = {"s"}
    for node, edges, kills in steps:
        on.step(node, edges, kills)
        off.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
    for x in live:
        for y in live:
            a, b = on.distance(x, y), off.distance(x, y)
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert a == pytest.approx(b, abs=1e-9)
    assert off.live_nodes == live


class TestStats:
    def test_counters(self):
        agdp = NumpyAGDP(source="s")
        agdp.step("a", [("s", "a", 1.0)])
        agdp.step("b", [("a", "b", 1.0)], kills=["a"])
        assert agdp.stats.nodes_added == 3
        assert agdp.stats.nodes_killed == 1
        assert agdp.stats.edges_inserted == 2
        assert agdp.stats.max_nodes == 3
        assert agdp.stats.matrix_cells() == 9

    def test_steady_state_driver_holds_live_target(self):
        agdp = steady_state_agdp(live_target=10, steps=40, seed=1)
        assert len(agdp) <= 12
        assert agdp.stats.nodes_added == 41

    def test_quadratic_cost_growth(self):
        small = steady_state_agdp(live_target=8, steps=60, seed=2)
        large = steady_state_agdp(live_target=32, steps=60, seed=2)
        cost_small = small.stats.pair_updates / small.stats.edges_inserted
        cost_large = large.stats.pair_updates / large.stats.edges_inserted
        # 4x live nodes -> ~16x pair updates; allow generous slack
        assert cost_large > 4 * cost_small
