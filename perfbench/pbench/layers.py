"""Span names -> per-layer busy-time metrics, shared by every workload."""

from __future__ import annotations

from typing import Dict, Iterable, List

from .tracing import Patch, Tracer

#: per-layer busy metric -> span-name prefixes whose self time it sums
BUSY_GROUPS = {
    "engine.self_s": ("engine.",),
    "agdp.busy_s": ("agdp.",),
    "history.busy_s": ("history.",),
    "live.busy_s": ("live.",),
    "validate.busy_s": ("validate.",),
    "csa.on_receive.busy_s": ("csa.on_receive",),
    "csa.on_send.busy_s": ("csa.on_send",),
    "csa.estimate.busy_s": ("csa.estimate",),
    "codec.encode.busy_s": ("codec.encode",),
    "codec.decode.busy_s": ("codec.decode",),
}


def busy_metrics(tracer: Tracer) -> Dict[str, float]:
    """Summed self time of each layer's spans (0.0 for an unexercised layer)."""
    busy = tracer.busy_by_name()
    out = {}
    for metric, prefixes in BUSY_GROUPS.items():
        out[metric] = sum(
            seconds
            for name, seconds in busy.items()
            if any(name.startswith(prefix) for prefix in prefixes)
        )
    return out


def share(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def estimator_totals(estimators: Iterable) -> Dict[str, int]:
    """History and AGDP counters summed (peaks: maxed) over ``EfficientCSA``s."""
    totals = dict.fromkeys(
        ("records_sent", "payloads_sent", "records_received", "dup_records",
         "pair_updates", "edges_inserted", "max_nodes", "max_live"),
        0,
    )
    for estimator in estimators:
        history = estimator.history.stats
        totals["records_sent"] += history.records_sent
        totals["payloads_sent"] += history.payloads_sent
        totals["records_received"] += history.records_received
        totals["dup_records"] += history.duplicate_records_received
        stats = estimator.stats()
        totals["pair_updates"] += stats.agdp_pair_updates
        totals["edges_inserted"] += stats.agdp_edges_inserted
        totals["max_nodes"] = max(totals["max_nodes"], stats.max_agdp_nodes)
        totals["max_live"] = max(totals["max_live"], stats.max_live_points)
    return totals


def validation_patches(counts: Dict[str, int]) -> List[Patch]:
    """Trace payload screening, tallying screened and rejected records."""

    def tally(args, report) -> None:
        counts["screened"] += len(args[1].records)
        counts["rejected"] += len(report.rejected)

    counts.update(screened=0, rejected=0)
    return [
        Patch("repro.core.csa", "validate_payload", "validate.payload", observe=tally),
        Patch("repro.core.validate", "find_negative_cycle", "validate.distances"),
    ]


def core_layer_metrics(
    tracer: Tracer, totals: Dict[str, int], counts: Dict[str, int]
) -> Dict[str, float]:
    """Busy times of every layer plus the core layers' counts."""
    metrics = busy_metrics(tracer)
    metrics.update(
        {
            "agdp.pair_updates": totals["pair_updates"],
            "agdp.edges_inserted": totals["edges_inserted"],
            "agdp.max_nodes": totals["max_nodes"],
            "history.records_per_payload": share(
                totals["records_sent"], totals["payloads_sent"]
            ),
            "history.dup_record_share": share(
                totals["dup_records"], totals["records_received"]
            ),
            "live.max_live": totals["max_live"],
            "validate.calls": tracer.count("validate.payload"),
            "validate.reject_share": share(counts["rejected"], counts["screened"]),
        }
    )
    return metrics
