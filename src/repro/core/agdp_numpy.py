"""The AGDP solver: a dense ``float64`` matrix over compacted slots.

The Ausiello pairwise update of Lemma 3.5

    ``d'(r, s) = min(d(r, s), d(r, x) + w + d(y, s))``

is one outer-sum + elementwise-min over the active block of the matrix,
instead of a Python double loop.

**Compacted-slot invariant.**  The present nodes always occupy the
contiguous slot prefix ``[0, n)`` of the matrix, so the active block is
the plain view ``matrix[:n, :n]`` - no sorted slot list, no fancy-indexed
block copies.  :meth:`kill` vacates a slot by swapping the last occupied
row/column into it (two row/column copies, O(n)) and shrinking the
prefix; :meth:`add_node` appends at slot ``n`` (amortised O(n) with
capacity doubling).  The Ausiello update then runs as an in-place
``np.minimum`` against an outer sum of two *views* of the active block;
the outer sum lands in a preallocated scratch block, so the per-edge
path allocates nothing.

``pair_updates`` counts the finite relaxation candidates: finite
``d(r, x)`` rows times finite ``d(y, s)`` columns.

The pure-Python dict solver the matrix replaced is kept as
:class:`repro.testing.reference.ReferenceAGDP`; the two are held
observationally identical (distances, counters, errors) by
``tests/core/test_agdp_numpy.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from .agdp import AGDPStats
from .errors import InconsistentSpecificationError

__all__ = ["NumpyAGDP"]

INF = math.inf

NodeKey = Hashable

_INITIAL_CAPACITY = 16


class NumpyAGDP:
    """Incremental all-pairs distances over the live nodes of a growing graph.

    Node keys are arbitrary hashables.  Weights may be negative; a negative
    cycle (impossible for views of real executions) raises
    :class:`InconsistentSpecificationError` before the matrix changes.
    With ``gc_enabled=False`` (the A1 ablation) killed nodes keep their
    rows and columns, so the matrix grows with the execution length.
    """

    def __init__(self, source: Optional[NodeKey] = None, *, gc_enabled: bool = True):
        self._source = source
        self._gc_enabled = gc_enabled
        self._dead: Set[NodeKey] = set()
        self.stats = AGDPStats()
        #: debug-mode callback invoked with ``self`` after every mutating
        #: edge insertion and kill (see repro.testing.invariants); None in
        #: production - the checks are O(n^3) per call
        self.invariant_hook = None
        self._capacity = _INITIAL_CAPACITY
        # cells outside the active prefix are never read before being
        # re-initialised by add_node, so the backing store is empty
        self._matrix = np.empty((self._capacity, self._capacity))
        #: reusable candidate buffer for the Ausiello outer sum, grown
        #: with the matrix - keeps the per-edge hot path allocation-free
        self._scratch = np.empty((self._capacity, self._capacity))
        self._vec = np.empty(self._capacity)
        self._n = 0
        self._slot: Dict[NodeKey, int] = {}
        self._keys: List[NodeKey] = []  # slot index -> node key
        if source is not None:
            self.add_node(source)

    # -- inspection --------------------------------------------------------------

    @property
    def source(self) -> Optional[NodeKey]:
        return self._source

    @property
    def gc_enabled(self) -> bool:
        return self._gc_enabled

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    @property
    def nodes(self) -> Set[NodeKey]:
        return set(self._slot)

    @property
    def live_nodes(self) -> Set[NodeKey]:
        return self.nodes - self._dead

    def _slot_of(self, node: NodeKey) -> int:
        try:
            return self._slot[node]
        except KeyError:
            raise KeyError(f"node {node!r} is not tracked by this AGDP") from None

    def distance(self, x: NodeKey, y: NodeKey) -> float:
        """Exact distance from ``x`` to ``y`` in the accumulated graph.

        ``inf`` when ``y`` is unreachable from ``x``.  Both nodes must be
        present (live, or dead-but-retained when gc is disabled).
        """
        return float(self._matrix[self._slot_of(x), self._slot_of(y)])

    def distances_from(self, x: NodeKey) -> Dict[NodeKey, float]:
        row = self._matrix[self._slot_of(x)]
        return {key: float(row[i]) for key, i in self._slot.items()}

    def distances_to(self, y: NodeKey) -> Dict[NodeKey, float]:
        col = self._matrix[:, self._slot_of(y)]
        return {key: float(col[i]) for key, i in self._slot.items()}

    # -- mutation ----------------------------------------------------------------

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        grown = np.empty((new_capacity, new_capacity))
        n = self._n
        grown[:n, :n] = self._matrix[:n, :n]
        self._matrix = grown
        self._scratch = np.empty((new_capacity, new_capacity))
        self._vec = np.empty(new_capacity)
        self._capacity = new_capacity

    def add_node(self, node: NodeKey) -> None:
        """Insert a new isolated live node (one AGDP input step starts here)."""
        if node in self._slot:
            raise ValueError(f"node {node!r} already present")
        if self._n == self._capacity:
            self._grow()
        index = self._n
        self._n += 1
        m = self._matrix
        m[index, : self._n] = np.inf
        m[: self._n, index] = np.inf
        m[index, index] = 0.0
        self._slot[node] = index
        self._keys.append(node)
        self.stats.nodes_added += 1
        self.stats.max_nodes = max(self.stats.max_nodes, len(self._slot))

    def insert_edge(self, x: NodeKey, y: NodeKey, weight: float) -> None:
        """Insert edge ``x -> y`` and restore all-pairs exactness.

        Any present endpoints are accepted (:meth:`step` enforces the AGDP
        contract that one endpoint is the new node).
        """
        n = self._n
        self._insert(self._matrix[:n, :n], x, y, weight)

    def _insert(self, block, x: NodeKey, y: NodeKey, weight: float) -> None:
        """Checks plus the Ausiello update of ``block`` through ``x -> y``."""
        xi = self._slot_of(x)
        yi = self._slot_of(y)
        if math.isnan(weight):
            raise ValueError("edge weight must not be NaN")
        if math.isinf(weight):
            return  # a TOP bound carries no information
        if x == y:
            if weight < 0:
                raise InconsistentSpecificationError(f"negative self-loop at {x!r}")
            return
        self._relax_block(block, x, y, xi, yi, weight)
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def _relax_block(self, block, x, y, xi: int, yi: int, weight: float) -> None:
        """Ausiello update of the active block through edge ``x -> y``.

        ``block`` is the in-place ``[:n, :n]`` view; raises on a negative
        cycle before any cell changes.
        """
        self.stats.edges_inserted += 1
        back = block[yi, xi]
        if back + weight < -1e-9:
            raise InconsistentSpecificationError(
                f"inserting ({x!r} -> {y!r}, {weight}) closes a negative cycle "
                f"(d({y!r}, {x!r}) = {back})",
                edge=(x, y, weight),
            )
        if weight >= block[xi, yi]:
            return  # no path improves
        # any strictly shorter path uses the new edge exactly once (no
        # negative cycles), so it decomposes r ~> x -> y ~> s
        to_x = block[:, xi]
        from_y = block[yi, :]
        # finite relaxation candidates, not the full n^2 block (stored
        # distances are finite or +inf, never NaN/-inf, so ``< inf`` is
        # the finiteness test)
        self.stats.pair_updates += np.count_nonzero(to_x < np.inf) * np.count_nonzero(
            from_y < np.inf
        )
        # (d(r, x) + w) + d(y, s), summed in this order so the reference
        # solver produces bit-identical floats; the candidate matrix lands
        # in the preallocated scratch block instead of a fresh allocation
        n = block.shape[0]
        shifted = self._vec[:n]
        np.add(to_x, weight, out=shifted)
        scratch = self._scratch[:n, :n]
        np.add.outer(shifted, from_y, out=scratch)
        np.minimum(block, scratch, out=block)

    def kill(self, node: NodeKey) -> None:
        """Unmark ``node`` as live; with gc enabled, drop its row and column."""
        if node not in self._slot:
            raise KeyError(f"node {node!r} is not present")
        if self._source is not None and node == self._source:
            raise ValueError("the source node is live forever")
        self.stats.nodes_killed += 1
        if not self._gc_enabled:
            self._dead.add(node)
        else:
            index = self._slot.pop(node)
            n = self._n
            last = n - 1
            if index != last:
                # swap-with-last keeps the occupied slots a contiguous
                # prefix; the vacated row/column need no clearing because
                # add_node re-initialises slot ``n`` on reuse
                m = self._matrix
                m[index, :n] = m[last, :n]
                m[:n, index] = m[:n, last]
                moved = self._keys[last]
                self._slot[moved] = index
                self._keys[index] = moved
            self._keys.pop()
            self._n = last
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def step(
        self,
        node: NodeKey,
        edges: Iterable[Sequence],
        kills: Iterable[NodeKey] = (),
        on_reject: Optional[
            Callable[[Sequence, InconsistentSpecificationError], None]
        ] = None,
    ) -> None:
        """One AGDP input step: add ``node``, insert ``edges``, kill ``kills``.

        Each edge is a tuple whose first three items are ``(x, y, w)``;
        any further items are the caller's and are ignored here.  Every
        edge must have ``node`` as one endpoint (the AGDP contract: new
        edges connect live nodes to the new node).

        An edge that would close a negative cycle raises
        :class:`InconsistentSpecificationError`, unless ``on_reject`` is
        given: then the edge is skipped and ``on_reject(edge, error)``
        called.  The check runs before the matrix changes, so the matrix
        stays exact over the accepted edges.

        No node is added or killed between the edges, so they all relax
        the same ``[:n, :n]`` view.
        """
        self.add_node(node)
        n = self._n
        block = self._matrix[:n, :n]
        for edge in edges:
            x, y, w = edge[0], edge[1], edge[2]
            if node not in (x, y):
                raise ValueError(
                    f"AGDP step for {node!r} may only insert incident edges, "
                    f"got ({x!r}, {y!r})"
                )
            try:
                self._insert(block, x, y, w)
            except InconsistentSpecificationError as exc:
                if on_reject is None:
                    raise
                on_reject(edge, exc)
        for victim in kills:
            self.kill(victim)

    def matrix_size(self) -> int:
        """Current number of distance cells held (space proxy, Lemma 3.5)."""
        return len(self._slot) * len(self._slot)
