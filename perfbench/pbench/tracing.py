"""In-memory spans around calls into the program's layers.

The benchmark wraps public methods of the objects it built (and a few
module-level function references) from its own files; nothing inside
the program changes.  Each span records its name, start, end, the span
that was open when it began (its parent) and a request id - the message
``EventId`` or the probe nonce - inherited from the parent unless the
boundary exposes its own.  Spans stay in memory and are written out once,
when the run ends.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Every wrapped call is synchronous (estimator hooks,
transport handlers, codec calls), so a plain stack gives the nesting even
on an asyncio loop.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: method names wrapped on each EfficientCSA part, by span-name prefix
CSA_METHODS = {
    "csa.on_send": lambda args, result: args[0].eid,
    "csa.on_receive": lambda args, result: args[0].send_eid,
    "csa.estimate": None,
    "csa.on_delivery_confirmed": lambda args, result: args[0],
    "csa.on_loss_detected": lambda args, result: args[0],
}
PART_METHODS = {
    "history": (
        "ingest_payload",
        "prepare_payload",
        "prepare_payloads",
        "record_local",
        "record_loss",
        "confirm_delivery",
        "abort_delivery",
    ),
    "live": ("observe", "flag_lost"),
    "agdp": ("step", "step_batch", "insert_edge", "add_node", "kill"),
}

_MARK = "_perfbench_traced"


class Tracer:
    """Span recorder; spans are kept as parallel lists to stay compact."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.rids: List[object] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(
        self,
        name: str,
        fn: Callable,
        rid: Optional[Callable[[tuple, object], object]] = None,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``rid(args, result)`` names the request the call serves; without
        it the span inherits its parent's request id.  ``observe(args,
        result)`` runs after each call, outside the span, to count what
        the call did.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, stack = self.parents, self.rids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            rids.append(rids[parent] if parent >= 0 else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if rid is not None:
                rids[idx] = rid(args, result)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(
                    (self.starts[idx], self.ends[idx])
                )
        out = []
        for idx, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = covered_length(children.get(idx, ()), start, end)
            out.append((end - start) - covered)
        return out

    def busy_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        busy: Dict[str, float] = {}
        for name, own in zip(self.names, self.self_times()):
            busy[name] = busy.get(name, 0.0) + own
        return busy

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as out:
            for idx, name in enumerate(self.names):
                rid = self.rids[idx]
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[idx],
                            "end": self.ends[idx],
                            "self": own[idx],
                            "parent": self.parents[idx],
                            "rid": None if rid is None else str(rid),
                        }
                    )
                )
                out.write("\n")


def covered_length(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def instrument_csa(tracer: Tracer, csa) -> None:
    """Wrap an estimator's event hooks, then its parts (idempotent)."""
    if not getattr(csa, _MARK, False):
        for span, rid in CSA_METHODS.items():
            method = span.split(".", 1)[1]
            setattr(csa, method, tracer.wrap(span, getattr(csa, method), rid))
        setattr(csa, _MARK, True)
    instrument_parts(tracer, csa)


def instrument_parts(tracer: Tracer, csa) -> None:
    """Wrap history/live/agdp methods of ``csa``'s current parts.

    Idempotent, and safe to call again after an estimator rebuilt a part
    (eviction or recovery installs fresh objects): only unwrapped parts
    are wrapped.
    """
    for part_name, methods in PART_METHODS.items():
        part = getattr(csa, part_name)
        if getattr(part, _MARK, False):
            continue
        for method in methods:
            fn = getattr(part, method, None)
            if fn is not None:
                setattr(part, method, tracer.wrap(f"{part_name}.{method}", fn))
        setattr(part, _MARK, True)


class Patch(NamedTuple):
    """One module-level function reference to trace."""

    module: str
    attr: str
    span: str
    rid: Optional[Callable[[tuple, object], object]] = None
    observe: Optional[Callable[[tuple, object], None]] = None


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Patch]) -> Iterator[None]:
    """Replace module-level function references with traced ones.

    Every reference is restored on exit, so untraced phases in the same
    process run the program unchanged.
    """
    saved = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            saved.append((module, target.attr, original))
            setattr(
                module,
                target.attr,
                tracer.wrap(target.span, original, target.rid, target.observe),
            )
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
