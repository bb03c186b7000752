"""The serving loop: batched query streams through the full stack.

The engine pulls per-second event batches from a
:class:`~repro.serving.workload.WorkloadGenerator`, advances the sim
clock tick by tick, and pushes every admitted query through the wire
codec → frontend → cache → backend path via the connection-reuse pool.

Concurrency is modelled with virtual workers: ``concurrency`` slots
each busy until their current query's simulated completion instant. An
arrival that finds all slots busy waits in a bounded queue; when the
queue is full the query is **shed** — counted, never stalled — which is
the admission-control behaviour that keeps an overload run terminating
instead of building unbounded latency. Recorded latency is queue wait
plus service time, so scorecards price queueing honestly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import (
    ParallelConfig,
    Shard,
    merge_outcomes,
)
from repro.netsim.rand import SeededRng
from repro.resolvers.cache import CacheStats
from repro.serving.pool import ConnectionReusePool
from repro.serving.workload import WorkloadGenerator, WorkloadSpec
from repro.serving.world import ServingWorld, ServingWorldConfig
from repro.telemetry import (
    BoundCounter,
    BoundCounterFamily,
    BoundGauge,
    BoundHistogram,
    BoundHistogramFamily,
    Histogram,
)

_BATCHES = BoundCounter("serving.batches")
_OFFERED = BoundCounterFamily("serving.queries_offered", "protocol")
_SERVED = BoundCounterFamily("serving.queries_served", "protocol")
_SHED = BoundCounterFamily("serving.shed", "protocol")
_FAILURES = BoundCounterFamily("serving.failures", "protocol", "kind")
_LATENCY = BoundHistogramFamily("serving.latency_ms", "protocol")
_WAIT = BoundHistogram("serving.queue_wait_ms")
_QUEUE_PEAK = BoundGauge("serving.queue_depth_peak")


@dataclass
class ServingConfig:
    """Engine capacity and admission-control knobs."""

    #: Virtual in-flight slots: how many queries the loop services
    #: concurrently in simulated time.
    concurrency: int = 32
    #: Waiting-room bound; an arrival beyond this is shed, not queued.
    max_queue: int = 256
    #: Fallback idle lifetime for leases without an in-band keepalive.
    default_idle_s: Optional[float] = 30.0


class ProtocolStats:
    """Everything observed for one protocol during a run."""

    def __init__(self, protocol: str):
        self.protocol = protocol
        self.offered = 0
        self.served = 0
        self.ok = 0
        self.shed = 0
        self.failures: Dict[str, int] = {}
        #: Local (non-registry) histograms so reports stay valid even
        #: when several engines share the process registry.
        self.latency = Histogram(f"serving.{protocol}.latency_ms")
        #: Cold = the query paid a fresh connection/TLS handshake;
        #: warm = it rode an established session (DNSgauge's warm pass).
        self.cold = Histogram(f"serving.{protocol}.cold_ms")
        self.warm = Histogram(f"serving.{protocol}.warm_ms")
        self._sum = 0.0
        self._sumsq = 0.0

    def record(self, latency_ms: float, ok: bool, warm: bool,
               failure: Optional[str]) -> None:
        self.served += 1
        self.latency.observe(latency_ms)
        (self.warm if warm else self.cold).observe(latency_ms)
        self._sum += latency_ms
        self._sumsq += latency_ms * latency_ms
        if ok:
            self.ok += 1
        elif failure:
            self.failures[failure] = self.failures.get(failure, 0) + 1

    @property
    def success_rate(self) -> float:
        return self.ok / self.served if self.served else 0.0

    @property
    def jitter_ms(self) -> float:
        """Population standard deviation of latency (DNSgauge 'stability')."""
        if self.served == 0:
            return 0.0
        mean = self._sum / self.served
        variance = self._sumsq / self.served - mean * mean
        return max(0.0, variance) ** 0.5

    @property
    def warm_cold_delta_ms(self) -> float:
        """Cold-minus-warm median: what a fresh handshake costs."""
        cold = self.cold.quantile(0.5)
        warm = self.warm.quantile(0.5)
        if cold is None or warm is None:
            return 0.0
        return cold - warm

    # -- shard merge & wire codec ------------------------------------------

    def merge_from(self, other: "ProtocolStats") -> "ProtocolStats":
        """Registry-algebra fold: counts add, histograms add bucket-wise.

        The merged stats are exactly what a single engine observing both
        event streams would have recorded, which is what lets sharded
        serving runs score through the unchanged scorecard."""
        self.offered += other.offered
        self.served += other.served
        self.ok += other.ok
        self.shed += other.shed
        for kind, count in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + count
        self.latency.merge_from(other.latency)
        self.cold.merge_from(other.cold)
        self.warm.merge_from(other.warm)
        self._sum += other._sum
        self._sumsq += other._sumsq
        return self

    def to_wire(self) -> tuple:
        return (self.protocol, self.offered, self.served, self.ok,
                self.shed, tuple(sorted(self.failures.items())),
                self.latency.to_wire_payload(),
                self.cold.to_wire_payload(),
                self.warm.to_wire_payload(),
                self._sum, self._sumsq)

    @classmethod
    def from_wire(cls, wire: tuple) -> "ProtocolStats":
        (protocol, offered, served, ok, shed, failures,
         latency, cold, warm, total, sumsq) = wire
        stats = cls(protocol)
        stats.offered = offered
        stats.served = served
        stats.ok = ok
        stats.shed = shed
        stats.failures = dict(failures)
        stats.latency.load_wire_payload(latency)
        stats.cold.load_wire_payload(cold)
        stats.warm.load_wire_payload(warm)
        stats._sum = total
        stats._sumsq = sumsq
        return stats


@dataclass
class ServingReport:
    """The outcome of one serving run."""

    spec: WorkloadSpec
    protocols: Dict[str, ProtocolStats]
    duration_s: float
    batches: int
    queue_peak: int
    cache: CacheStats = field(default_factory=CacheStats)
    pool_reused: int = 0
    pool_handshakes: int = 0
    pool_expired: int = 0

    @property
    def offered(self) -> int:
        return sum(stats.offered for stats in self.protocols.values())

    @property
    def served(self) -> int:
        return sum(stats.served for stats in self.protocols.values())

    @property
    def shed(self) -> int:
        return sum(stats.shed for stats in self.protocols.values())

    @property
    def qps_sim(self) -> float:
        """Served throughput against the simulated wall."""
        return self.served / self.duration_s if self.duration_s else 0.0


class ServingEngine:
    """Drives one serving run over a :class:`ServingWorld`."""

    def __init__(self, world: ServingWorld,
                 config: Optional[ServingConfig] = None):
        self.world = world
        self.config = config or ServingConfig()
        if self.config.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if self.config.max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        self.rng = SeededRng(world.seed, "serving/engine")
        self.pool = ConnectionReusePool(
            world, self.rng.fork("pool"),
            default_idle_s=self.config.default_idle_s)

    def run(self, spec: WorkloadSpec,
            client_range: Optional[Tuple[int, int]] = None) -> ServingReport:
        """Serve the workload; ``client_range=(lo, hi)`` serves only the
        events of clients ``lo <= client < hi``.

        The generator always produces the *full* deterministic event
        stream — one arrivals rng drives every shard — and the range
        filters it, so the union of disjoint ranges is exactly the
        unfiltered stream: sharded serving partitions work without
        perturbing which client issues which query when.
        """
        generator = WorkloadGenerator(spec, self.rng.fork("workload"))
        clock = self.world.network.clock
        start = clock.now()
        stats: Dict[str, ProtocolStats] = {
            protocol: ProtocolStats(protocol)
            for protocol in sorted(spec.protocol_mix)}
        #: Completion instants of the busy virtual workers (sim s).
        workers: List[float] = [start] * self.config.concurrency
        heapq.heapify(workers)
        #: Start instants of admitted-but-waiting queries.
        waiting: List[float] = []
        queue_peak = 0
        batches = 0
        for tick, events in generator.batches():
            clock.set_to(start + tick)
            batches += 1
            _BATCHES.inc()
            for event in events:
                if (client_range is not None
                        and not (client_range[0] <= event.client
                                 < client_range[1])):
                    continue
                arrival = start + event.at_s
                per_protocol = stats[event.protocol]
                per_protocol.offered += 1
                _OFFERED.get(event.protocol).inc()
                while waiting and waiting[0] <= arrival:
                    heapq.heappop(waiting)
                if len(waiting) >= self.config.max_queue:
                    # Admission control: shed instead of queueing
                    # without bound — the overload counter the
                    # benchmark's overload leg asserts on.
                    per_protocol.shed += 1
                    _SHED.get(event.protocol).inc()
                    continue
                free_at = heapq.heappop(workers)
                begin = max(arrival, free_at)
                wait_ms = (begin - arrival) * 1000.0
                result = self.pool.query(event.client, event.protocol,
                                         event.qname, event.rrtype)
                service_ms = max(result.latency_ms, 0.01)
                heapq.heappush(workers, begin + service_ms / 1000.0)
                if begin > arrival:
                    heapq.heappush(waiting, begin)
                    queue_peak = max(queue_peak, len(waiting))
                total_ms = wait_ms + service_ms
                warm = result.reused_connection
                failure = (result.failure.value
                           if result.failure is not None else None)
                per_protocol.record(total_ms, result.ok, warm, failure)
                _SERVED.get(event.protocol).inc()
                _LATENCY.get(event.protocol).observe(total_ms)
                _WAIT.observe(wait_ms)
                if not result.ok:
                    _FAILURES.get(event.protocol,
                                  failure or "unknown").inc()
        clock.set_to(start + spec.duration_s)
        _QUEUE_PEAK.set(queue_peak)
        return ServingReport(
            spec=spec,
            protocols=stats,
            duration_s=spec.duration_s,
            batches=batches,
            queue_peak=queue_peak,
            cache=CacheStats(**vars(self.world.cache.stats)),
            pool_reused=self.pool.reused,
            pool_handshakes=self.pool.handshakes,
            pool_expired=self.pool.expired,
        )

    def close(self) -> None:
        self.pool.close_all()


# -- sharded serving ---------------------------------------------------------
#
# A serving run shards over *client ranges*: every shard builds its own
# (cheap, deterministic) world, generates the full workload stream, and
# serves only its clients' events with a proportional slice of the
# engine capacity. Shard reports come back as flat wire tuples and fold
# together with the same algebra the telemetry merge uses, so the merged
# report — and the scorecard built from it — depends only on
# (seed, shard plan), never on the worker count.


@dataclass(frozen=True)
class _ServingTask:
    """One client-range slice of a serving run (all picklable)."""

    world_config: ServingWorldConfig
    spec: WorkloadSpec
    config: ServingConfig
    shard: Shard


def shard_serving_config(config: ServingConfig,
                         shard_total: int) -> ServingConfig:
    """Divide the engine capacity across shards (each at least 1).

    Splitting concurrency/queue keeps the *aggregate* capacity of an
    N-shard run comparable to the single-engine run, so admission
    control sheds at roughly the same offered load.
    """
    shard_total = max(1, int(shard_total))
    return ServingConfig(
        concurrency=max(1, config.concurrency // shard_total),
        max_queue=max(1, config.max_queue // shard_total),
        default_idle_s=config.default_idle_s)


def report_to_wire(report: ServingReport) -> tuple:
    """Flat picklable form of a report (the spec never travels — the
    parent already holds it)."""
    return (
        tuple(stats.to_wire()
              for _, stats in sorted(report.protocols.items())),
        report.duration_s,
        report.batches,
        report.queue_peak,
        tuple(sorted(vars(report.cache).items())),
        report.pool_reused,
        report.pool_handshakes,
        report.pool_expired,
    )


def report_from_wire(spec: WorkloadSpec, wire: tuple) -> ServingReport:
    (protocols, duration_s, batches, queue_peak, cache,
     pool_reused, pool_handshakes, pool_expired) = wire
    stats = {}
    for row in protocols:
        decoded = ProtocolStats.from_wire(row)
        stats[decoded.protocol] = decoded
    return ServingReport(
        spec=spec, protocols=stats, duration_s=duration_s,
        batches=batches, queue_peak=queue_peak,
        cache=CacheStats(**dict(cache)),
        pool_reused=pool_reused, pool_handshakes=pool_handshakes,
        pool_expired=pool_expired)


def merge_reports(spec: WorkloadSpec,
                  fragments: List[ServingReport]) -> ServingReport:
    """Fold shard reports into one, in shard order.

    Counts and histograms add (the registry algebra); ``queue_peak``
    takes the max across shards (each shard ran its own queue);
    ``batches`` agrees across shards by construction (every shard
    consumed the same tick stream), so max is a plain pass-through.
    """
    if not fragments:
        raise ValueError("cannot merge zero serving reports")
    merged = ServingReport(
        spec=spec,
        protocols={},
        duration_s=fragments[0].duration_s,
        batches=max(fragment.batches for fragment in fragments),
        queue_peak=max(fragment.queue_peak for fragment in fragments),
    )
    for fragment in fragments:
        for protocol, stats in sorted(fragment.protocols.items()):
            mine = merged.protocols.get(protocol)
            if mine is None:
                merged.protocols[protocol] = ProtocolStats.from_wire(
                    stats.to_wire())
            else:
                mine.merge_from(stats)
        merged.cache.merge_from(fragment.cache)
        merged.pool_reused += fragment.pool_reused
        merged.pool_handshakes += fragment.pool_handshakes
        merged.pool_expired += fragment.pool_expired
    return merged


def _serving_shard(task: _ServingTask) -> tuple:
    world = ServingWorld.build(task.world_config)
    engine = ServingEngine(world, config=task.config)
    try:
        report = engine.run(task.spec,
                            client_range=(task.shard.start,
                                          task.shard.stop))
    finally:
        engine.close()
    return report_to_wire(report)


def run_sharded(world_config: ServingWorldConfig, spec: WorkloadSpec,
                config: ServingConfig,
                parallel: ParallelConfig) -> ServingReport:
    """One serving run fanned out over client-range shards."""
    plan = parallel.plan(spec.clients)
    per_shard = shard_serving_config(config, len(plan))
    tasks = [_ServingTask(world_config, spec, per_shard, shard)
             for shard in plan]
    wires = merge_outcomes(
        parallel.dispatch(_serving_shard, tasks, spec.clients))
    return merge_reports(spec, [report_from_wire(spec, wire)
                                for wire in wires])
