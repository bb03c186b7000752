"""Deterministic sharded parallel execution for the measurement legs.

The paper's pipelines are embarrassingly parallel: a ZMap sweep probes
addresses independently, reachability tests vantage points
independently, DoH discovery fetches candidate URLs independently. This
module partitions such work into **shards** and runs the shards either
in-process or across a **persistent** ``multiprocessing`` fork pool —
with one hard contract:

    *The output is a pure function of (seed, shard plan). The worker
    count never appears in any result, table, or telemetry byte.*

Three mechanisms uphold the contract (see DESIGN.md "Parallel
execution & the determinism contract"):

* **Stable rng paths.** Shard ``i`` forks its stream from
  ``root.fork(f"shard/{i}")``; because :class:`SeededRng` forks are
  stateless (keyed hashes, not stream splits), the fork yields the
  same stream no matter which worker runs the shard or when.
* **Isolated telemetry fragments.** Each shard runs against a fresh
  process-default registry/tracer pair (a pool worker reused across
  dispatches still holds the previous shard's — it must be reset) and
  ships the pair back, wire-encoded, in its :class:`ShardOutcome`.
* **Order-free merge.** Fragments are merged in shard-index order
  using the registry merge laws (counters add, gauges last-write by
  shard index, histograms add bucket-wise) and shard root spans are
  re-attached under the caller's active span via ``Tracer.attach``.

Worker functions handed to :func:`run_shards` must be **module-level
callables taking one picklable payload** (scenario *configs* travel,
never scenarios — live networks hold lambdas) and returning a picklable
value. Payloads are passed in shard order, so a payload's position is
its shard index. The in-process fallback runs the identical isolation
wrapper, so ``--workers 1`` is a real differential baseline, not a
separate code path.

Performance model (the reason this module exists at all):

* **Persistent pool.** Workers are forked once per process (lazily, on
  the first pooled dispatch) and reused across campaign rounds, sweeps,
  and study legs. Worker-side modules cache scenario worlds keyed by
  config (see ``core/scan/campaign.cached_scenario``), so after the
  first dispatch only (shard descriptor, round params) cross the
  boundary per dispatch — not a world, not a pool fork.
* **Compact wire format.** Shard telemetry returns as flat tuples —
  registry rows of (kind, name, labels, algebraic state) and nested
  span tuples — instead of pickled ``MetricsRegistry``/``Span`` object
  graphs, on the pooled and the in-process path alike, so
  :func:`merge_outcomes` has a single decode path.
* **Adaptive shard sizing.** :meth:`ParallelConfig.dispatch` keeps
  workloads below ``min_fanout_items`` in-process — fan-out overhead
  can only ever be paid where it can win. The decision is a pure
  predicate of (item count, threshold), recorded in the RunManifest,
  and never depends on the worker count.

Scheduling telemetry lands under the ``parallel.*`` namespace
(:data:`repro.telemetry.metrics.SCHEDULING_NAMESPACE`), which
deterministic exports and manifest totals exclude: a clamped worker
count or a pooled-vs-in-process dispatch is real scheduling information
but must never leak into the byte-identity the equivalence suite pins.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry.metrics import (
    BoundCounter,
    BoundCounterFamily,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, Tracer

#: Shard count used when a parallel run doesn't pin one explicitly.
#: Part of the experiment definition: changing it changes which rng
#: stream probes which item, so it is recorded in the RunManifest.
DEFAULT_SHARDS = 8

#: Workloads below this many items stay in-process by default: at small
#: sizes the dispatch overhead (task pickling, result decode, merge)
#: exceeds the work itself. Calibrated on the campaign benchmark —
#: sub-threshold legs are dominated by per-item costs of ~100 µs,
#: so even a free pool could not repay one round-trip. Recorded in the
#: RunManifest execution block alongside each dispatch decision.
DEFAULT_IN_PROCESS_THRESHOLD = 256

# Scheduling telemetry (parallel.* namespace — excluded from
# deterministic exports and manifest totals, visible in Prometheus,
# tables, and non-deterministic snapshots).
_CLAMPED = BoundCounter("parallel.workers.clamped")
_POOL_CREATED = BoundCounter("parallel.pool.created")
_DISPATCH = BoundCounterFamily("parallel.dispatch", "mode")


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the work-item sequence."""

    index: int
    #: Total number of shards in the plan this shard belongs to (NOT
    #: this shard's item count — that is ``len(shard)``).
    shard_total: int
    start: int
    stop: int

    @property
    def rng_path(self) -> str:
        """Stable fork path — the same for every worker count."""
        return f"shard/{self.index}"

    def slice(self, items: Sequence) -> Sequence:
        return items[self.start:self.stop]

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic, lossless partition of ``item_count`` work items.

    Balanced contiguous ranges: the first ``item_count % shards`` shards
    get one extra item. The plan depends only on (item_count,
    shard_count) — pinned by Hypothesis properties in
    ``tests/test_parallel_properties.py`` to be disjoint, covering, and
    stable (the same pair always yields the same plan).
    """

    item_count: int
    shard_count: int
    shards: Tuple[Shard, ...] = field(init=False)

    def __post_init__(self):
        if self.item_count < 0:
            raise ValueError(f"item_count {self.item_count} < 0")
        if self.shard_count < 1:
            raise ValueError(f"shard_count {self.shard_count} < 1")
        if self.item_count == 0:
            # Zero work items partition into zero shards — dispatching
            # a phantom empty shard would cost a worker round-trip and
            # ship back an all-empty telemetry fragment.
            object.__setattr__(self, "shards", ())
            return
        base, extra = divmod(self.item_count, self.shard_count)
        shards: List[Shard] = []
        start = 0
        for index in range(self.shard_count):
            size = base + (1 if index < extra else 0)
            shards.append(Shard(index=index, shard_total=self.shard_count,
                                start=start, stop=start + size))
            start += size
        object.__setattr__(self, "shards", tuple(shards))

    @classmethod
    def for_items(cls, item_count: int,
                  shard_count: Optional[int] = None) -> "ShardPlan":
        """Plan with the requested shard count clamped to sane bounds.

        The count is clamped to ``[1, max(1, item_count)]`` so no shard
        is ever guaranteed empty by over-partitioning; a zero-item input
        yields an *empty* plan (no shards, no work dispatched).
        """
        requested = DEFAULT_SHARDS if shard_count is None else shard_count
        clamped = max(1, min(int(requested), max(1, int(item_count))))
        return cls(item_count=int(item_count), shard_count=clamped)

    def __iter__(self):
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)


@dataclass
class ParallelConfig:
    """How a run is sharded and scheduled.

    ``shards`` and ``min_fanout_items`` are part of the experiment
    (they decide rng-stream assignment and which dispatches fan out);
    ``workers`` and ``oversubscribe`` are pure scheduling and must
    never change a single output byte — the invariant the differential
    suite proves.
    """

    workers: int = 1
    shards: Optional[int] = None
    #: Dispatches whose item count is below this stay in-process.
    min_fanout_items: int = DEFAULT_IN_PROCESS_THRESHOLD
    #: Allow more workers than ``os.cpu_count()``. Off by default:
    #: silent oversubscription is a foot-gun (context-switch thrash
    #: that looks like a perf regression), so excess workers are
    #: clamped and counted. The differential suite turns this on to
    #: genuinely exercise 4/16-worker pools on small CI machines.
    oversubscribe: bool = False
    #: Adaptive-dispatch decision log (appended by :meth:`schedule`,
    #: recorded in the RunManifest). Each entry is a pure function of
    #: (item count, threshold) — never of the worker count.
    decisions: List[Dict[str, object]] = field(
        default_factory=list, compare=False, repr=False)

    def plan(self, item_count: int) -> ShardPlan:
        return ShardPlan.for_items(item_count, self.shards)

    def effective_workers(self) -> int:
        """The worker count actually used: clamped to the CPU count
        unless ``oversubscribe`` is set, with the clamped-away excess
        counted in ``parallel.workers.clamped``."""
        workers = max(1, int(self.workers))
        if self.oversubscribe:
            return workers
        cpus = os.cpu_count() or 1
        if workers > cpus:
            _CLAMPED.inc(workers - cpus)
            return cpus
        return workers

    def schedule(self, item_count: int) -> bool:
        """Decide (and record) whether a dispatch stays in-process.

        A pure predicate of ``(item_count, min_fanout_items)`` so the
        recorded decision — and therefore the manifest — is identical
        at every worker count.
        """
        in_process = int(item_count) < int(self.min_fanout_items)
        self.decisions.append({"items": int(item_count),
                               "in_process": in_process})
        return in_process

    def dispatch(self, worker: Callable[[object], object],
                 payloads: Sequence[object],
                 item_count: int) -> List["ShardOutcome"]:
        """Run the payloads under the adaptive policy.

        ``item_count`` is the size of the underlying workload (the
        quantity the threshold calibrates against), not the payload
        count — a 3-shard dispatch over 3,000 addresses is a
        3,000-item workload.
        """
        in_process = self.schedule(item_count)
        if in_process:
            _DISPATCH.get("in_process").inc()
            return run_shards(worker, payloads, workers=1)
        _DISPATCH.get("pool").inc()
        return run_shards(worker, payloads,
                          workers=self.effective_workers())

    def manifest_execution(self) -> dict:
        """What the RunManifest records. Workers deliberately excluded —
        recording a scheduling knob would break byte-identity across
        worker counts. The adaptive block records the threshold and
        every dispatch decision (both are experiment-definition facts:
        identical at every worker count)."""
        return {
            "shards": (DEFAULT_SHARDS if self.shards is None
                       else int(self.shards)),
            "adaptive": {
                "threshold": int(self.min_fanout_items),
                "decisions": [dict(decision)
                              for decision in self.decisions],
            },
        }


@dataclass
class ShardOutcome:
    """What one shard ships back to the merge step (all picklable).

    ``value`` is the worker's return value; the isolation wrapper adds
    the shard's captured telemetry as compact wire tuples.
    """

    shard_index: int
    value: object
    registry_wire: tuple
    spans_wire: Tuple[tuple, ...]


def _run_isolated(worker: Callable[[object], object], shard_index: int,
                  payload: object) -> ShardOutcome:
    """Run one shard against a fresh telemetry pair and capture it.

    Used identically in pool workers and in the in-process fallback: a
    pool worker still holds the previous dispatch's registry (so a
    reset is mandatory), and the fallback must produce the same
    isolated fragments a worker would.
    """
    registry, tracer = telemetry.reset_registry()
    value = worker(payload)
    return ShardOutcome(shard_index, value, registry.to_wire(),
                        tuple(span.to_wire() for span in tracer.roots))


# -- persistent worker pool ---------------------------------------------------
#
# One fork pool per process, created lazily on the first pooled dispatch
# and reused for every subsequent one (recreated only when the requested
# size changes). Children inherit the parent's state at fork time via
# copy-on-write — including any scenario caches the parent has built —
# and each worker keeps its own config-keyed world cache warm across
# dispatches, which is where the campaign speedup comes from.

_worker_pool: Optional[Tuple[int, object]] = None


def get_worker_pool(processes: int):
    """The process-wide persistent pool, (re)created at ``processes``."""
    global _worker_pool
    processes = max(1, int(processes))
    if _worker_pool is not None and _worker_pool[0] != processes:
        shutdown_worker_pool()
    if _worker_pool is None:
        context = multiprocessing.get_context("fork")
        _worker_pool = (processes, context.Pool(processes=processes))
        _POOL_CREATED.inc()
    return _worker_pool[1]


def shutdown_worker_pool() -> None:
    """Tear down the persistent pool (no-op when none exists).

    Registered via ``atexit`` for process shutdown; tests call it
    directly to prove a fresh pool per round changes nothing.
    """
    global _worker_pool
    if _worker_pool is None:
        return
    _, pool = _worker_pool
    _worker_pool = None
    pool.terminate()
    pool.join()


atexit.register(shutdown_worker_pool)


def run_shards(worker: Callable[[object], object],
               payloads: Sequence[object],
               workers: int = 1) -> List[ShardOutcome]:
    """Execute ``worker(payload)`` for every payload, preserving order.

    Each value is paired with its payload's position, which is the
    shard index because callers build payloads in plan order.
    ``workers <= 1`` (or a single payload) runs in-process — saving and
    restoring the caller's telemetry pair around the dispatch, on both
    the normal and the exception path, so a raising shard never leaks
    its isolated registry into the caller. Otherwise the payloads map
    over the persistent fork pool with chunksize 1; results come back
    in submission order regardless of completion order, so scheduling
    cannot reorder the merge.
    """
    payloads = list(payloads)
    if not payloads:
        return []
    if workers <= 1 or len(payloads) == 1:
        saved_registry = telemetry.get_registry()
        saved_tracer = telemetry.get_tracer()
        try:
            return [_run_isolated(worker, index, payload)
                    for index, payload in enumerate(payloads)]
        finally:
            telemetry.install(saved_registry, saved_tracer)
    pool = get_worker_pool(workers)
    return pool.starmap(partial(_run_isolated, worker), enumerate(payloads),
                        chunksize=1)


def merge_outcomes(outcomes: Sequence[ShardOutcome],
                   registry: Optional[MetricsRegistry] = None,
                   tracer: Optional[Tracer] = None) -> List[object]:
    """Fold shard fragments into the caller's telemetry, in shard order.

    Gauge fragments are stamped with their shard index first, so the
    gauge "last write" is defined by shard order rather than merge-call
    order. Shard root spans are adopted under the caller's active span
    with a ``shard`` attribute. Fragments are decoded from their wire
    tuples first (the codec round-trips are pinned by
    ``tests/test_parallel_wire.py``). Returns the shard values, ordered
    by shard index.
    """
    registry = registry if registry is not None else telemetry.get_registry()
    tracer = tracer if tracer is not None else telemetry.get_tracer()
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    values: List[object] = []
    for outcome in ordered:
        fragment = MetricsRegistry.from_wire(outcome.registry_wire)
        fragment.stamp_origin(outcome.shard_index)
        registry.merge(fragment)
        for wire_span in outcome.spans_wire:
            span = Span.from_wire(wire_span)
            span.attrs.setdefault("shard", str(outcome.shard_index))
            tracer.attach(span)
        values.append(outcome.value)
    return values
