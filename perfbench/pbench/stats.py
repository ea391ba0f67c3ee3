"""Percentiles, spreads and name checks shared by every workload."""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: the percentiles a timing may be reported at, highest first
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` fits the metric-name charset ``[A-Za-z0-9_.-]``."""
    return bool(_NAME.fullmatch(name))


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100]) of non-empty input."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for q in PERCENTILE_LADDER:
        if samples_beyond(n, q) >= TAIL_SAMPLES:
            return q
    return None


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the median.

    Quartiles are :func:`statistics.quantiles` with ``n=4``, the rule the
    acceptance check applies to the same values.
    """
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else math.inf,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better.
    """
    if better == "lower":
        return (second - first) / abs(first)
    return (first - second) / abs(first)


def require_p99(name: str, values: List[float], *, smoke: bool) -> float:
    """The 99th percentile of ``values``, refusing it without ten samples beyond.

    A reduced-size smoke run may report what it has; a measured run that
    cannot support p99 raises, because the number would not mean p99.
    """
    tail = tail_percentile(len(values))
    if not smoke and (tail is None or tail < 99.0):
        raise RuntimeError(
            f"{name}: {len(values)} samples cannot support a 99th percentile "
            f"(need {TAIL_SAMPLES} beyond it)"
        )
    return percentile(values, 99.0)


def windowed_percentile(
    timed: Sequence[Tuple[float, float]], width: float, q: float, *, smoke: bool
) -> Tuple[float, int]:
    """Median over fixed time windows of each window's ``q``-th percentile.

    ``timed`` holds ``(t, value)`` pairs.  Every window must hold enough
    samples for ``q`` under the ten-beyond rule (a smoke run reports what
    it has); the window count is returned with the value.  On a host
    shared with other tenants a burst of preemption then moves one
    window's reading, not the run's.
    """
    windows: Dict[int, List[float]] = {}
    for t, value in timed:
        windows.setdefault(int(t // width), []).append(value)
    readings = []
    for key in sorted(windows):
        values = windows[key]
        if not smoke and samples_beyond(len(values), q) < TAIL_SAMPLES:
            raise RuntimeError(
                f"window {key} has {len(values)} samples: too few for p{q:g}"
            )
        readings.append(percentile(values, q))
    return statistics.median(readings), len(readings)
