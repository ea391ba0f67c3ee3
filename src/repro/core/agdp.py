"""The Accumulated Graph Distance Problem (AGDP) (Sec 3.2).

AGDP abstracts the on-line synchronization problem as a dynamic graph
problem:

* initially the graph has one node, the *source*, marked live;
* each step adds one new node (marked live) plus edges joining it to live
  nodes, then unmarks ("kills") some endpoints of the new edges;
* the task is to know, at all times, distances between live nodes (in
  particular from the source).

The solver (:class:`repro.core.agdp_numpy.NumpyAGDP`) maintains a
*complete* weighted digraph ``G`` over the non-dead nodes whose edge
weights equal exact distances in the accumulated graph (Lemma 3.4).  Edge
insertion uses the Ausiello et al. incremental all-pairs-shortest-paths
update - inserting ``(x, y, w)`` can only shorten paths through the new
edge, so

    ``d'(r, s) = min(d(r, s), d(r, x) + w + d(y, s))``

for every pair ``(r, s)``: ``O(L^2)`` time per edge insertion for ``L``
live nodes (Lemma 3.5).  Killing a node simply deletes its row and column;
Lemma 3.4 guarantees no live-live distance is lost.

For the garbage-collection ablation (experiment A1) the solver can be run
with ``gc_enabled=False``: dead nodes are then retained, which preserves
answers trivially but lets the matrix grow with the execution length -
exactly the blow-up the paper's construction avoids.

This module holds the solver's operation counters, shared with the
reference solver in :mod:`repro.testing.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AGDPStats"]


@dataclass
class AGDPStats:
    """Operation counters for complexity experiments (E4, E6, E7, A1)."""

    nodes_added: int = 0
    nodes_killed: int = 0
    edges_inserted: int = 0
    #: total pair-relaxation candidates examined across all edge insertions
    #: (pairs with finite ``d(r, x)`` and ``d(y, s)``); every solver counts
    #: this same quantity, so complexity plots are solver-independent
    pair_updates: int = 0
    #: largest node-set size ever held (live + in-flight insertions)
    max_nodes: int = 0

    def matrix_cells(self) -> int:
        """Peak memory proxy: cells of the largest distance matrix held."""
        return self.max_nodes * self.max_nodes
