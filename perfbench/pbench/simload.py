"""The two closed-loop simulator workloads: ``ntp-fleet`` and ``lossy-mesh-hardened``.

A run is a sequence of episodes.  Each episode builds a fresh
:class:`~repro.sim.Simulation` from a seed derived from the run seed and
the episode index, and runs it as fast as it goes for a fixed simulated
duration; episodes repeat while the run's wall-clock budget has room for
another.  Sampling reads every processor's estimate on a fixed simulated
period, checks it against the true time, and after the warm-up records
the widths a reader sees.

Work is timed with the thread's CPU clock: the simulation is one
CPU-bound thread that never waits, so CPU seconds are the seconds it
would take on an idle machine, while wall time on a shared host also
counts other tenants' preemptions.  The CPU clock still runs slow in a
host's busy phases, so the run goes in short slices, each scaled to the
reference speed by the :mod:`~pbench.gauge` readings around it.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core import EfficientCSA, SuspicionPolicy
from repro.sim import RetransmitPolicy, Simulation, standard_network, topologies
from repro.sim.workloads import PeriodicGossip, make_ntp_system
from repro.testing.oracle import oracle_causal_past, oracle_external_bounds

from .gauge import Gauge
from .layers import core_layer_metrics, estimator_totals, share, validation_patches
from .stats import percentile, require_p99, windowed_percentile
from .tracing import Tracer, instrument_csa, instrument_parts, patched

CHANNEL = "csa"
#: builds timed before the first episode; one more is timed before each
#: episode, so the median samples the whole run, not one moment of it
SETUP_REPS = 5
#: final points checked against the Theorem 2.1 oracle per run
ORACLE_POINTS = 3
#: soundness and oracle-parity slack, in seconds
TOLERANCE = 1e-6
#: consecutive deliveries per latency block (the serve workload's window)
BLOCK = 1000
MESH_RETRANSMIT = RetransmitPolicy(timeout=0.5, backoff=1.5, max_retries=3)
#: per-layer counts of the runtime tier, which simulations never exercise
RUNTIME_ONLY = (
    "codec.bytes_per_sync", "codec.bytes_per_reply", "node.coalesced_share",
    "node.retransmits", "serve.shed_share", "serve.max_queue_depth",
    "serve.degraded_share", "loadgen.late_p99_ms",
)


def _build_ntp(seed: int, smoke: bool) -> Simulation:
    """Sec 4 NTP pattern: levelled servers, two parents each, reliable links."""
    network, workload = make_ntp_system(
        (2, 3) if smoke else (3, 8, 16), poll_period=15.0, seed=seed
    )
    sim = Simulation(network, seed=seed)
    sim.attach_estimators(CHANNEL, lambda proc, spec: EfficientCSA(proc, spec))
    workload.install(sim)
    return sim


def _build_mesh(seed: int, smoke: bool) -> Simulation:
    """Random mesh, 5% loss, retransmission, hardened unreliable estimators."""
    n, chords = (6, 2) if smoke else (16, 8)
    names, links = topologies.random_connected(n, chords, seed)
    network = standard_network(names, links, seed=seed, loss_prob=0.05)
    sim = Simulation(
        network, seed=seed, confirm_deliveries=True, retransmit=MESH_RETRANSMIT
    )
    sim.attach_estimators(
        CHANNEL,
        lambda proc, spec: EfficientCSA(
            proc, spec, reliable=False, suspicion=SuspicionPolicy()
        ),
    )
    PeriodicGossip(period=2.0, seed=seed).install(sim)
    return sim


@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: Callable[[int, bool], Simulation]
    #: simulated seconds per episode, and of warm-up at its start
    duration: float
    warmup: float
    sample_period: float
    #: simulated seconds per gauged slice (some 30-50 ms of CPU time)
    slice: float


def _episode_seed(workload: str, seed: int, index: int) -> int:
    return random.Random(f"{workload}|{seed}|{index}").randrange(2**31)


class Episode:
    """One fresh simulation with its sampler, run to its fixed duration."""

    def __init__(self, workload: SimWorkload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        # a smoke episode is shorter but keeps the full warm-up
        self.duration = workload.duration / 2 if smoke else workload.duration
        self.warmup = workload.warmup
        self.sim = workload.build(seed, smoke)
        self.procs = sorted(self.sim.network.processors)
        self.source = self.sim.spec.source
        self.estimators = [self.sim.estimator(p, CHANNEL) for p in self.procs]
        self.event_widths: List[float] = []
        self.read_widths: List[float] = []
        self.latencies: List[float] = []
        self.reads = 0
        self.unbounded_reads = 0
        self.samples = 0
        self.unsound = 0
        self.actions = 0
        self._sample_action = self._sample
        self._tracer = None

    def time_receives(self) -> None:
        """Record each delivery's ingest time (the closed-loop request latency)."""
        sink = self.latencies
        clock = time.thread_time
        for estimator in self.estimators:
            inner = estimator.on_receive

            def on_receive(event, payload, inner=inner):
                start = clock()
                inner(event, payload)
                sink.append(clock() - start)

            estimator.on_receive = on_receive

    def instrument(self, tracer: Tracer) -> None:
        for estimator in self.estimators:
            instrument_csa(tracer, estimator)
        self.sim.run_until = tracer.wrap("engine.run_until", self.sim.run_until)
        self._sample_action = tracer.wrap("bench.sample", self._sample)
        self._tracer = tracer

    def _sample(self) -> None:
        sim = self.sim
        now = sim.now
        after_warmup = now >= self.warmup
        for proc, estimator in zip(self.procs, self.estimators):
            last = estimator.last_local_event
            event_bound = estimator.estimate()
            read_bound = estimator.estimate_now(sim.local_time(proc))
            self.samples += 1
            sound = read_bound.contains(now, tolerance=TOLERANCE) and (
                last is None
                or event_bound.contains(sim.trace.rt_of(last.eid), tolerance=TOLERANCE)
            )
            if not sound:
                self.unsound += 1
            if not after_warmup or proc == self.source:
                continue  # the source's own bound is exact, width 0
            self.reads += 1
            if not read_bound.is_bounded:
                self.unbounded_reads += 1
                continue
            self.event_widths.append(event_bound.width)
            self.read_widths.append(read_bound.width)
        if now + self.workload.sample_period <= self.duration:
            sim.schedule_after(self.workload.sample_period, self._sample_action)

    def run(self, gauge: Gauge) -> float:
        """Run to the episode's duration; returns its CPU seconds, scaled.

        The run goes in slices of ``workload.slice`` simulated seconds;
        each slice's CPU time and the delivery latencies recorded in it
        are scaled by the gauge reading around it.
        """
        tracer = self._tracer
        self.sim.schedule_at(self.workload.sample_period, self._sample_action)
        cpu = 0.0
        slice_end = 0.0
        while slice_end < self.duration:
            slice_end = min(self.duration, slice_end + self.workload.slice)
            first = len(self.latencies)
            start = time.thread_time()
            self.actions += self.sim.run_until(slice_end)
            took = time.thread_time() - start
            factor = gauge.factor()
            cpu += took * factor
            self.latencies[first:] = [x * factor for x in self.latencies[first:]]
            if tracer is not None:
                # estimators rebuild parts on eviction/recovery: re-wrap
                # those so the trace keeps seeing every layer
                for estimator in self.estimators:
                    instrument_parts(tracer, estimator)
        return cpu

    def oracle_mismatches(self, seed: int) -> List[str]:
        """Thm 2.1 parity at a seeded sample of final points."""
        events = [record.event for record in self.sim.trace]
        last: Dict[str, object] = {}
        for event in events:
            if event.proc not in last or event.seq > last[event.proc].seq:
                last[event.proc] = event
        rng = random.Random(seed)
        candidates = sorted(p for p in last if p != self.sim.spec.source)
        problems = []
        for proc in rng.sample(candidates, min(ORACLE_POINTS, len(candidates))):
            point = last[proc]
            past = oracle_causal_past(events, point.eid)
            expected = oracle_external_bounds(past, self.sim.spec, point.eid)
            ours = self.sim.estimator(proc, CHANNEL).estimate()
            if not expected.contains(self.sim.trace.rt_of(point.eid), tolerance=TOLERANCE):
                problems.append(f"oracle bound {expected} at {point.eid} misses the truth")
            if not (_close(ours.lower, expected.lower) and _close(ours.upper, expected.upper)):
                problems.append(f"estimate {ours} != Thm 2.1 oracle {expected} at {point.eid}")
        return problems


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE


_PEAKS = ("max_nodes", "max_live")


def _episode_totals(ep: Episode) -> Dict[str, int]:
    totals = estimator_totals(ep.estimators)
    totals.update(
        msgs=ep.sim.messages_sent,
        retransmissions=ep.sim.retransmissions,
        actions=ep.actions,
    )
    return totals


def _stats_totals(episodes: List[Episode]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for ep in episodes:
        for key, value in ep.totals.items():
            combine = max if key in _PEAKS else (lambda a, b: a + b)
            totals[key] = combine(totals.get(key, 0), value)
    return totals


def _episode_seeds(workload: SimWorkload, seed: int):
    return (_episode_seed(workload.name, seed, i) for i in itertools.count())


def _time_setup(workload: SimWorkload, seed: int, smoke: bool, gauge: Gauge) -> float:
    """Scaled CPU seconds to build one episode (network, simulation, estimators)."""
    return gauge.timed(Episode, workload, seed, smoke)


def _run_episodes(
    workload, seeds, smoke, budget, gauge, *, prepare, oracle_seed, setup=None
) -> List[Episode]:
    """Run episodes on ``seeds`` while ``budget`` wall seconds have room.

    The next episode starts only if one more of the mean length so far
    still fits; at least one episode runs; ``budget=None`` runs every seed.
    The first episode is checked against the oracle (outside the budget);
    each episode keeps only its counts and samples once it has run, so
    memory does not grow with the number of episodes.  With a ``setup``
    list, one throwaway build is timed into it before each episode.
    """
    episodes = []
    spent = 0.0
    for seed in seeds:
        if episodes and budget is not None and spent + spent / len(episodes) > budget:
            break
        if setup is not None:
            setup.append(_time_setup(workload, seed ^ 0x5EED, smoke, gauge))
        start = time.perf_counter()
        episode = Episode(workload, seed, smoke)
        prepare(episode)
        episode.cpu = episode.run(gauge)
        spent += time.perf_counter() - start
        check_oracle = not episodes and oracle_seed is not None
        episode.problems = episode.oracle_mismatches(oracle_seed) if check_oracle else []
        episode.totals = _episode_totals(episode)
        episode.sim = episode.estimators = None
        # a simulation holds reference cycles; free it now so peak memory
        # is one episode's, whatever the collector's timing
        gc.collect()
        episodes.append(episode)
    return episodes


def _blocks(values: List[float]) -> List[Tuple[int, float]]:
    """Number consecutive values by block of ``BLOCK``; the last takes the rest."""
    last = max(len(values) // BLOCK - 1, 0)
    return [(min(i // BLOCK, last), value) for i, value in enumerate(values)]


def _correctness(episodes) -> Dict:
    samples = sum(ep.samples for ep in episodes)
    unsound = sum(ep.unsound for ep in episodes)
    problems = list(episodes[0].problems)
    if unsound:
        problems.append(f"{unsound} of {samples} sampled bounds miss the true time")
    return {
        "problems": problems,
        "samples": samples,
        "unsound_share": share(unsound, samples),
        "attempted": sum(ep.reads for ep in episodes),
        "failed": sum(ep.unbounded_reads for ep in episodes),
    }


def measure(workload: SimWorkload, seed: int, seconds: float, smoke: bool) -> Dict:
    """The untraced run: every end-to-end metric of a sim workload."""
    gauge = Gauge()
    setup = [
        _time_setup(workload, _episode_seed(workload.name, -seed - 1, i), smoke, gauge)
        for i in range(SETUP_REPS)
    ]
    episodes = _run_episodes(
        workload, _episode_seeds(workload, seed), smoke, seconds, gauge,
        prepare=Episode.time_receives, oracle_seed=seed, setup=setup,
    )
    check = _correctness(episodes)
    totals = _stats_totals(episodes)
    cpu = sum(ep.cpu for ep in episodes)
    event_widths = [w for ep in episodes for w in ep.event_widths]
    read_widths = [w for ep in episodes for w in ep.read_widths]
    latencies = _blocks([x for ep in episodes for x in ep.latencies])
    probe_p50, blocks = windowed_percentile(latencies, 1, 50, smoke=smoke)
    probe_p99, _ = windowed_percentile(latencies, 1, 99, smoke=smoke)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "msgs_per_s": totals["msgs"] / cpu,
        "records_per_msg": share(totals["records_sent"], totals["payloads_sent"]),
        "bound_width_p50_ms": 1e3 * percentile(event_widths, 50),
        "bound_width_p99_ms": 1e3 * require_p99("bound_width", event_widths, smoke=smoke),
        "probe_p50_ms": 1e3 * probe_p50,
        "probe_p99_ms": 1e3 * probe_p99,
        "client_error_p50_ms": 1e3 * percentile(read_widths, 50),
        "client_error_p99_ms": 1e3 * require_p99("client_error", read_widths, smoke=smoke),
    }
    report = {
        "episodes": len(episodes),
        "messages": totals["msgs"],
        "run_cpu_s_scaled": cpu,
        "gauge_median_ms": 1e3 * gauge.median_reading(),
        "unsound_share": check["unsound_share"],
        "unsynced_share": share(check["failed"], check["attempted"]),
        "samples": {
            "bound_width": len(event_widths),
            "probe": len(latencies),
            "probe_blocks": blocks,
            "client_error": len(read_widths),
        },
    }
    return {
        "correct": not check["problems"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "problems": check["problems"],
        "metrics": metrics,
        "report": report,
    }


def measure_traced(workload: SimWorkload, seed: int, seconds: float, smoke: bool) -> Dict:
    """The traced run: per-layer metrics plus the tracing overhead.

    The first half of the budget runs episodes untraced; the traced phase
    then replays exactly those episodes with every layer wrapped, so the
    CPU seconds per message of the two phases compare like with like.
    """
    gauge = Gauge()
    plain = _run_episodes(
        workload, _episode_seeds(workload, seed), smoke, seconds / 2, gauge,
        prepare=lambda ep: None, oracle_seed=seed,
    )
    check = _correctness(plain)

    tracer = Tracer()
    counts: Dict[str, int] = {}
    with patched(tracer, validation_patches(counts)):
        traced = _run_episodes(
            workload, [ep.seed for ep in plain], smoke, None, gauge,
            # the replayed episodes were checked against the oracle untraced
            prepare=lambda ep: ep.instrument(tracer), oracle_seed=None,
        )
    check_traced = _correctness(traced)
    totals = _stats_totals(traced)
    plain_msgs = sum(ep.totals["msgs"] for ep in plain)
    per_msg_plain = sum(ep.cpu for ep in plain) / plain_msgs
    per_msg_traced = sum(ep.cpu for ep in traced) / totals["msgs"]
    metrics = core_layer_metrics(tracer, totals, counts)
    metrics.update(
        {
            "engine.actions": totals["actions"],
            "engine.retransmissions": totals["retransmissions"],
            "trace.overhead_share": 1.0 - per_msg_plain / per_msg_traced,
        }
    )
    # the runtime tier is not part of a simulation: no codec, node or serve work
    metrics.update(dict.fromkeys(RUNTIME_ONLY, 0.0))
    problems = check["problems"] + check_traced["problems"]
    return {
        "correct": not problems,
        "attempted": check["attempted"] + check_traced["attempted"],
        "failed": check["failed"] + check_traced["failed"],
        "problems": problems,
        "metrics": metrics,
        "report": {
            "episodes": len(traced),
            "spans": len(tracer),
            "cpu_s_per_msg_untraced": per_msg_plain,
            "cpu_s_per_msg_traced": per_msg_traced,
        },
        "tracer": tracer,
    }


NTP_FLEET = SimWorkload(
    name="ntp-fleet",
    build=_build_ntp,
    duration=120.0,
    warmup=40.0,
    sample_period=1.0,
    slice=1.0,
)
LOSSY_MESH = SimWorkload(
    name="lossy-mesh-hardened",
    build=_build_mesh,
    duration=60.0,
    warmup=15.0,
    sample_period=0.5,
    slice=0.5,
)
