"""The open-loop serving workload: ``serve-probes``.

One asyncio loop hosts a six-node :class:`~repro.rt.cluster.LiveCluster`
gossiping over the in-process :class:`~repro.rt.transport.LoopbackTransport`
with the binary codec, a :class:`~repro.rt.serve.ServeNode` on a
non-source node, and a fixed set of client endpoints registered on the
same transport.  Frames between cluster nodes take a seeded 2-3 ms in
transit, as between servers on a network; probes and replies are
delivered on the next loop turn, as to clients beside their server.  The
transit delay keeps the nodes' bounds from tracking the host's momentary
scheduling noise, and the immediate client path keeps the probe path
itself visible in the probe latency.  Probes are sent on a fixed schedule whatever the
replies do (open loop); each probe's latency runs from the instant it
was due, so a stalled loop charges its stall to every probe it delayed.
The generator polls the clock between loop turns instead of sleeping
until each due instant: a sleeping loop wakes up to a millisecond late
(the selector's timeout resolution, plus waking an idle virtual CPU),
and that lateness, not the probe path, would then make up most of the
median latency.

A client adopts the Cristian interval ``[L, U + rtt]`` from each reply.
Client clocks are the shared monotonic time base, which is also the
source's clock, so the true time at a reply's arrival is that reading.

Probe latency and client error are read per half-second window of due
times (a window holds exactly ``RATE * WINDOW`` probes) and reported as
the median over the windows.  Probe latencies are scaled to the
reference speed of :mod:`~pbench.gauge`: the loop times the reference
workload every ``GAUGE_PERIOD`` seconds, and each window's latencies are
scaled by the median of the readings within ``GAUGE_SPAN`` seconds of
it.  The loop never idles while probing, so the readings see the speed
the loop ran at.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from typing import Dict, List, Tuple

from repro.core import EventId
from repro.rt import wire
from repro.rt.clock import SkewedClockSource
from repro.rt.cluster import ClusterConfig, LiveCluster
from repro.rt.serve import ServeConfig, ServeNode, serve_endpoint
from repro.rt.transport import LoopbackTransport
from repro.sim import RetransmitPolicy

from .gauge import REFERENCE_S, Gauge, timed_reference
from .layers import core_layer_metrics, estimator_totals, share, validation_patches
from .stats import percentile, require_p99, windowed_percentile
from .tracing import Patch, Tracer, instrument_csa, patched

PROCS = ("n0", "n1", "n2", "n3", "n4", "n5")
#: a ring plus one chord; n0 is the source, n3 serves (three hops out)
LINKS = tuple((PROCS[i], PROCS[(i + 1) % 6]) for i in range(6)) + (("n1", "n4"),)
SERVER = "n3"
CLIENTS = tuple(f"c{i}" for i in range(16))
#: offered probes per second (one loop, sized for two cores)
RATE = 2000.0
SMOKE_RATE = 400.0
GOSSIP_PERIOD = 0.2
#: node-to-node transit: fixed delay plus seeded uniform jitter (seconds)
GOSSIP_DELAY = 0.002
GOSSIP_JITTER = 0.001
#: seconds of due time per latency window
WINDOW = 0.5
#: seconds between in-loop gauge readings, and the reach of a window's readings
GAUGE_PERIOD = 0.25
GAUGE_SPAN = 1.0
#: every this many generator polls, one poll's duration is kept
POLL_SAMPLE = 64
SAMPLE_PERIOD = 0.02
#: rig builds timed before the measured window, and again after it
SETUP_REPS = 5
TOLERANCE = 1e-6
#: seconds to wait for the cluster to bound every node before probing
SYNC_DEADLINE = 10.0
#: seconds to wait for the last replies after the schedule ends
DRAIN = 0.5
#: every probe is admitted: the workload measures serving, not shedding
SERVE_CONFIG = ServeConfig(bucket_rate=1e6, bucket_burst=1e6, queue_limit=1_000_000)


def _frame_rid(frame) -> object:
    """The request a frame belongs to: probe nonce or message ``EventId``."""
    if frame.nonce is not None:
        return frame.nonce
    if frame.type == "sync":
        return EventId(frame.src, frame.seq)
    if frame.type == "ack":
        return EventId(frame.dst, frame.seq)
    return None


class GossipDelayTransport(LoopbackTransport):
    """Loopback whose node-to-node frames are delayed; other frames are not."""

    def __init__(self, seed: int):
        super().__init__(delay=GOSSIP_DELAY, jitter=GOSSIP_JITTER, seed=seed)

    def send(self, src, dest, data) -> None:
        if src in PROCS and dest in PROCS:
            super().send(src, dest, data)
        elif self._running:
            asyncio.get_running_loop().call_soon(self._dispatch, dest, data)


def _cluster_config(seed: int) -> ClusterConfig:
    rng = random.Random(f"serve-probes|{seed}")
    clocks = {
        proc: SkewedClockSource(
            1.0 + rng.uniform(-80e-6, 80e-6),
            rng.uniform(-0.5, 0.5),
            advertised_band=(1.0 - 100e-6, 1.0 + 100e-6),
        )
        for proc in PROCS[1:]
    }
    return ClusterConfig(
        processors=PROCS,
        links=LINKS,
        duration=3600.0,
        gossip_period=GOSSIP_PERIOD,
        clocks=clocks,
        retransmit=RetransmitPolicy(timeout=0.3, backoff=1.5, max_retries=3),
        seed=seed,
        codec="binary",
    )


class Rig:
    """Cluster + serving endpoint + open-loop client swarm on one loop."""

    def __init__(self, seed: int, rate: float):
        self.rate = rate
        self.endpoint = serve_endpoint(SERVER)
        self.transport = GossipDelayTransport(seed)
        self.live = LiveCluster(_cluster_config(seed), transport=self.transport)
        self.time_base = self.live.time_base
        self.serve = ServeNode(self.live.by_name[SERVER], self.transport, SERVE_CONFIG)
        self.live.attach_companion(SERVER, self.serve)
        #: nonce -> (due, sent, client)
        self.pending: Dict[int, Tuple[float, float, str]] = {}
        #: (due - schedule start, value) per answered probe
        self.latencies: List[Tuple[float, float]] = []
        self.client_errors: List[Tuple[float, float]] = []
        self.schedule_start = 0.0
        self.late: List[float] = []
        #: (seconds since the schedule start, reference-workload seconds)
        self.gauge_readings: List[Tuple[float, float]] = []
        #: estimated seconds the generator spent polling an otherwise idle loop
        self.idle_s = 0.0
        self.event_widths: List[float] = []
        self.sent = 0
        self.replies = 0
        self.shed = 0
        self.undecodable = 0
        self.unsound_adopted = 0
        self.node_samples = 0
        self.unsound_samples = 0
        self.problems: List[str] = []
        self.send_probe = self._send_probe
        self.sample_nodes = self._sample_nodes
        self._handlers = {client: self._handler(client) for client in CLIENTS}

    def _handler(self, client: str):
        return lambda data: self.on_reply(client, data)

    def instrument(self, tracer: Tracer) -> None:
        """Wrap every estimator and the benchmark's own client/sampler calls."""
        for node in self.live.nodes:
            instrument_csa(tracer, node.estimator)
        self.send_probe = tracer.wrap(
            "bench.send_probe", self._send_probe, rid=lambda args, result: args[0]
        )
        self.sample_nodes = tracer.wrap("bench.sample", self._sample_nodes)
        self.on_reply = tracer.wrap("bench.on_reply", self.on_reply)

    async def start(self) -> None:
        await self.transport.start()
        await self.live.start()
        for client, handler in self._handlers.items():
            self.transport.register(client, handler)

    async def stop(self) -> None:
        for client in CLIENTS:
            self.transport.unregister(client)
        try:
            await self.live.finish()
        finally:
            await self.transport.stop()

    async def wait_synced(self) -> bool:
        """Wait until every node holds a finite bound (before any probe)."""
        deadline = self.time_base.elapsed() + SYNC_DEADLINE
        while self.time_base.elapsed() < deadline:
            if all(node.estimate_now().is_bounded for node in self.live.nodes):
                return True
            await asyncio.sleep(0.01)
        return False

    # -- client side -----------------------------------------------------------

    def _send_probe(self, nonce: int, due: float) -> None:
        client = CLIENTS[nonce % len(CLIENTS)]
        data = wire.encode_frame(wire.probe_frame(client, self.endpoint, nonce), "binary")
        self.pending[nonce] = (due, self.time_base.elapsed(), client)
        self.sent += 1
        self.transport.send(client, self.endpoint, data)

    def on_reply(self, client: str, data: bytes) -> None:
        truth = self.time_base.elapsed()
        result = wire.decode_frame(data)
        if result.error is not None:
            self.undecodable += 1
            self.problems.append(f"{client}: undecodable answer ({result.error.code})")
            return
        frame = result.frame
        entry = self.pending.pop(frame.nonce, None)
        if entry is None or entry[2] != client:
            self.problems.append(f"{client}: answer with unmatched nonce {frame.nonce}")
            return
        due, sent, _client = entry
        if frame.type == "shed":
            self.shed += 1
            return
        if frame.type != "reply":
            self.problems.append(f"{client}: unexpected {frame.type} frame")
            return
        self.replies += 1
        offset = frame.nonce / self.rate
        self.latencies.append((offset, truth - due))
        lower, upper = frame.bound.lower, frame.bound.upper + (truth - sent)
        if not lower - TOLERANCE <= truth <= upper + TOLERANCE:
            self.unsound_adopted += 1
        self.client_errors.append((offset, upper - lower))

    async def generate(self, seconds: float) -> None:
        """Send ``rate`` probes per second on schedule, however replies fare."""
        start = self.schedule_start = self.time_base.elapsed()
        total = int(seconds * self.rate)
        polls = 0
        poll_times = []
        for nonce in range(total):
            due = start + nonce / self.rate
            now = self.time_base.elapsed()
            while now < due:
                before = now
                await asyncio.sleep(0)  # one loop turn: delivery, ingest, replies
                now = self.time_base.elapsed()
                polls += 1
                if polls % POLL_SAMPLE == 0:
                    poll_times.append(now - before)
            self.late.append(now - due)
            self.send_probe(nonce, due)
        # most turns find no other work: the median turn is an idle one
        self.idle_s = polls * statistics.median(poll_times) if poll_times else 0.0
        deadline = self.time_base.elapsed() + DRAIN
        while self.pending and self.time_base.elapsed() < deadline:
            await asyncio.sleep(0.01)

    # -- node side -------------------------------------------------------------

    def _sample_nodes(self) -> None:
        for node in self.live.nodes:
            rt, bound = node.estimate_at_now()
            self.node_samples += 1
            if not bound.contains(rt, tolerance=TOLERANCE):
                self.unsound_samples += 1
            if node.proc != PROCS[0]:
                self.event_widths.append(node.estimator.estimate().width)

    async def sample_loop(self) -> None:
        while True:
            await asyncio.sleep(SAMPLE_PERIOD)
            self.sample_nodes()

    async def gauge_loop(self) -> None:
        while True:
            await asyncio.sleep(GAUGE_PERIOD)
            took = timed_reference()
            self.gauge_readings.append((self.time_base.elapsed() - self.schedule_start, took))

    def scaled_latencies(self) -> List[Tuple[float, float]]:
        """Probe latencies scaled by their window's gauge readings."""
        factors: Dict[int, float] = {}
        scaled = []
        for offset, value in self.latencies:
            key = int(offset // WINDOW)
            if key not in factors:
                lo, hi = key * WINDOW - GAUGE_SPAN, (key + 1) * WINDOW + GAUGE_SPAN
                near = [took for t, took in self.gauge_readings if lo <= t < hi]
                factors[key] = REFERENCE_S / statistics.median(near)
            scaled.append((offset, value * factors[key]))
        return scaled

    # -- accounting ------------------------------------------------------------

    def protocol_messages(self) -> int:
        return sum(
            link.sent for node in self.live.nodes for link in node.stats.values()
        )

    def estimators(self):
        return [node.estimator for node in self.live.nodes]

    def check(self) -> Dict:
        problems = list(self.problems)
        unanswered = len(self.pending)
        if self.unsound_adopted:
            problems.append(
                f"{self.unsound_adopted} of {self.replies} adopted intervals miss the true time"
            )
        if self.unsound_samples:
            problems.append(
                f"{self.unsound_samples} of {self.node_samples} node bounds miss the true time"
            )
        return {
            "problems": problems,
            "attempted": self.sent,
            "failed": self.shed + unanswered + self.undecodable,
            "unanswered": unanswered,
        }


async def _measure_window(rig: Rig, seconds: float) -> Dict:
    """Probe for ``seconds`` with node sampling alongside; the window's totals."""
    if not await rig.wait_synced():
        raise RuntimeError(f"cluster not synchronized within {SYNC_DEADLINE} s")
    loop = asyncio.get_running_loop()
    tasks = [loop.create_task(rig.sample_loop()), loop.create_task(rig.gauge_loop())]
    msgs0 = rig.protocol_messages()
    wall0 = time.perf_counter()
    try:
        await rig.generate(seconds)
    finally:
        for task in tasks:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
    wall = time.perf_counter() - wall0
    return {
        "wall": wall,
        "busy": wall - rig.idle_s,
        "msgs": rig.protocol_messages() - msgs0 + rig.sent + rig.replies + rig.shed,
    }


async def _setup_times(seeds, rate: float, gauge: Gauge) -> List[float]:
    """Scaled CPU seconds to build and start a rig (nothing in it waits)."""
    times = []
    for seed in seeds:
        gauge.factor()
        start = time.thread_time()
        rig = Rig(seed, rate)
        await rig.start()
        took = time.thread_time() - start
        times.append(took * gauge.factor())
        await rig.stop()
    return times


async def _untraced(seed: int, seconds: float, smoke: bool) -> Dict:
    rate = SMOKE_RATE if smoke else RATE
    setup_seeds = [seed * 2 * SETUP_REPS + i for i in range(2 * SETUP_REPS)]
    gauge = Gauge()
    setup = await _setup_times(setup_seeds[:SETUP_REPS], rate, gauge)
    rig = Rig(seed, rate)
    await rig.start()
    try:
        window = await _measure_window(rig, seconds)
    finally:
        await rig.stop()
    setup += await _setup_times(setup_seeds[SETUP_REPS:], rate, gauge)
    check = rig.check()
    totals = estimator_totals(rig.estimators())
    latencies = rig.scaled_latencies()
    probe_p50, windows = windowed_percentile(latencies, WINDOW, 50, smoke=smoke)
    probe_p99, _ = windowed_percentile(latencies, WINDOW, 99, smoke=smoke)
    error_p50, _ = windowed_percentile(rig.client_errors, WINDOW, 50, smoke=smoke)
    error_p99, _ = windowed_percentile(rig.client_errors, WINDOW, 99, smoke=smoke)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "msgs_per_s": window["msgs"] / window["wall"],
        "records_per_msg": share(totals["records_sent"], totals["payloads_sent"]),
        "bound_width_p50_ms": 1e3 * percentile(rig.event_widths, 50),
        "bound_width_p99_ms": 1e3 * require_p99("bound_width", rig.event_widths, smoke=smoke),
        "probe_p50_ms": 1e3 * probe_p50,
        "probe_p99_ms": 1e3 * probe_p99,
        "client_error_p50_ms": 1e3 * error_p50,
        "client_error_p99_ms": 1e3 * error_p99,
    }
    return {
        "correct": not check["problems"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "problems": check["problems"],
        "metrics": metrics,
        "report": {
            "offered_qps": rate,
            "window_s": window["wall"],
            "loop_busy_share": window["busy"] / window["wall"],
            "unsound_share": share(rig.unsound_adopted, rig.replies),
            "probe_fail_share": share(check["failed"], check["attempted"]),
            "unanswered": check["unanswered"],
            "generator_late_p99_ms": 1e3 * percentile(rig.late, 99),
            "gauge_median_ms": 1e3 * statistics.median(t for _, t in rig.gauge_readings),
            "raw_probe_p99_ms": 1e3 * percentile([v for _, v in rig.latencies], 99),
            "samples": {
                "bound_width": len(rig.event_widths),
                "probe": len(rig.latencies),
                "client_error": len(rig.client_errors),
                "windows": windows,
            },
        },
    }


async def _traced(seed: int, seconds: float, smoke: bool) -> Dict:
    rate = SMOKE_RATE if smoke else RATE
    plain = Rig(seed, rate)
    await plain.start()
    try:
        plain_window = await _measure_window(plain, seconds / 2)
    finally:
        await plain.stop()

    tracer = Tracer()
    counts = {"syncs": 0, "sync_bytes": 0, "replies": 0, "reply_bytes": 0}

    def tally_encode(args, data) -> None:
        kind = args[0].type
        if kind == "sync":
            counts["syncs"] += 1
            counts["sync_bytes"] += len(data)
        elif kind == "reply":
            counts["replies"] += 1
            counts["reply_bytes"] += len(data)

    encode_rid = lambda args, data: _frame_rid(args[0])  # noqa: E731
    decode_rid = lambda args, result: (  # noqa: E731
        _frame_rid(result.frame) if result.frame is not None else None
    )
    patches = [
        Patch(module, "encode_frame", "codec.encode", encode_rid, tally_encode)
        for module in ("repro.rt.wire", "repro.rt.node", "repro.rt.serve")
    ] + [
        Patch(module, "decode_frame", "codec.decode", decode_rid)
        for module in ("repro.rt.wire", "repro.rt.serve")
    ] + validation_patches(counts)
    rig = Rig(seed, rate)
    with patched(tracer, patches):
        rig.instrument(tracer)
        await rig.start()
        try:
            window = await _measure_window(rig, seconds / 2)
        finally:
            await rig.stop()
    checks = [plain.check(), rig.check()]
    problems = [p for check in checks for p in check["problems"]]
    totals = estimator_totals(rig.estimators())
    links = [link for node in rig.live.nodes for link in node.stats.values()]
    datagrams = sum(link.datagrams for link in links)
    coalesced = sum(link.coalesced for link in links)
    serve = rig.serve.stats
    metrics = core_layer_metrics(tracer, totals, counts)
    metrics.update(
        {
            # the simulator's engine is not part of the runtime tier
            "engine.actions": 0,
            "engine.retransmissions": 0,
            "codec.bytes_per_sync": share(counts["sync_bytes"], counts["syncs"]),
            "codec.bytes_per_reply": share(counts["reply_bytes"], counts["replies"]),
            "node.coalesced_share": share(coalesced, datagrams + coalesced),
            "node.retransmits": sum(link.retransmissions for link in links),
            "serve.shed_share": share(serve.shed_total, serve.probes),
            "serve.max_queue_depth": serve.max_queue_depth,
            "serve.degraded_share": share(serve.degraded_replies, serve.replies),
            "loadgen.late_p99_ms": 1e3 * percentile(plain.late, 99),
            "trace.overhead_share": 1.0
            - (plain_window["busy"] / plain.sent) / (window["busy"] / rig.sent),
        }
    )
    return {
        "correct": not problems,
        "attempted": sum(check["attempted"] for check in checks),
        "failed": sum(check["failed"] for check in checks),
        "problems": problems,
        "metrics": metrics,
        "report": {"spans": len(tracer), "offered_qps": rate},
        "tracer": tracer,
    }


def measure(seed: int, seconds: float, smoke: bool) -> Dict:
    return asyncio.run(_untraced(seed, seconds, smoke))


def measure_traced(seed: int, seconds: float, smoke: bool) -> Dict:
    return asyncio.run(_traced(seed, seconds, smoke))
