"""Persistent pool, compact wire format, and adaptive dispatch.

Covers the executor mechanics under the sharded determinism contract:

* the wire codec round-trips registries and span trees losslessly;
* the in-process fallback restores the caller's telemetry pair even
  when a shard raises (regression: a raising shard used to be able to
  leak its isolated registry into the caller);
* worker counts above ``os.cpu_count()`` clamp (with the clamped-away
  excess counted under the scheduling namespace) unless the run
  explicitly oversubscribes;
* adaptive dispatch decisions are a pure predicate of (item count,
  threshold), recorded in the manifest execution block;
* a pool reused across campaign rounds produces the same bytes as a
  fresh pool per round and as the in-process path;
* sharded serving merges byte-identical scorecards at any worker count.
"""

from __future__ import annotations

import os

import pytest

from repro import telemetry
from repro.analysis import tables
from repro.core.parallel import (
    DEFAULT_IN_PROCESS_THRESHOLD,
    ParallelConfig,
    merge_outcomes,
    run_shards,
    shutdown_worker_pool,
)
from repro.core.scan.campaign import ScanCampaign
from repro.telemetry.metrics import MetricsRegistry, WIRE_VERSION
from repro.telemetry.spans import Span, Tracer
from repro.world.scenario import build_scenario
from tests.conftest import tiny_config

pytestmark = pytest.mark.parallel


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("probe.sent", 3)
    registry.inc("probe.sent", 2, protocol="dot")
    registry.set_gauge("scan.round.dot_resolvers", 17, round="1")
    histogram = registry.histogram("probe.latency_ms", protocol="doh")
    for value in (0.4, 3.0, 3.0, 250.0, 8_000.0):
        histogram.observe(value)
    return registry


class TestWireCodec:
    def test_registry_round_trip(self):
        registry = _populated_registry()
        wire = registry.to_wire()
        assert wire[0] == WIRE_VERSION
        decoded = MetricsRegistry.from_wire(wire)
        assert decoded.to_wire() == wire
        assert decoded.value("probe.sent") == 3
        assert decoded.value("probe.sent", protocol="dot") == 2
        assert decoded.value("scan.round.dot_resolvers", round="1") == 17
        original = registry.get("probe.latency_ms", protocol="doh")
        copy = decoded.get("probe.latency_ms", protocol="doh")
        assert copy.as_dict() == original.as_dict()

    def test_registry_wire_is_flat(self):
        """Only tuples, strings and numbers cross the boundary."""
        def check(value):
            if isinstance(value, tuple):
                for item in value:
                    check(item)
            else:
                assert isinstance(value, (str, int, float, type(None))), (
                    f"non-flat wire element: {value!r}")
        check(_populated_registry().to_wire())

    def test_registry_wire_version_pinned(self):
        wire = _populated_registry().to_wire()
        with pytest.raises(ValueError):
            MetricsRegistry.from_wire((wire[0] + 1, wire[1]))

    def test_span_round_trip(self):
        tracer = Tracer()
        clock = {"now": 10.0}
        with tracer.span("outer", clock=lambda: clock["now"], kind="root"):
            clock["now"] = 12.5
            with tracer.span("inner", clock=lambda: clock["now"]):
                clock["now"] = 13.0
        root = tracer.roots[0]
        decoded = Span.from_wire(root.to_wire())
        assert decoded.to_wire() == root.to_wire()
        assert decoded.name == "outer"
        assert decoded.attrs == root.attrs
        assert decoded.sim_ms == root.sim_ms
        assert [child.name for child in decoded.children] == ["inner"]


class TestShardTransport:
    def test_outcomes_carry_wire_telemetry_in_shard_order(self):
        """Workers return plain values; each outcome pairs it with its
        payload position and wire-encoded telemetry, and the merge
        decodes the fragments in shard order."""
        def worker(payload):
            telemetry.get_registry().inc("shard.work", payload + 1)
            with telemetry.get_tracer().span("shard.op", clock=lambda: 0.0):
                pass
            return payload * 10

        saved = (telemetry.get_registry(), telemetry.get_tracer())
        try:
            outcomes = run_shards(worker, [0, 1, 2], workers=1)
            assert [outcome.shard_index for outcome in outcomes] == [0, 1, 2]
            registry, tracer = telemetry.reset_registry()
            values = merge_outcomes(outcomes[::-1], registry, tracer)
        finally:
            telemetry.install(*saved)
        assert values == [0, 10, 20]
        assert registry.value("shard.work") == 6
        assert [span.attrs["shard"] for span in tracer.roots] == [
            "0", "1", "2"]


class TestInProcessIsolation:
    def test_worker_exception_restores_caller_telemetry(self):
        """A raising shard must not leak its isolated registry into the
        caller (regression: the fallback now restores in a finally)."""
        registry, tracer = telemetry.reset_registry()
        registry.inc("caller.marker")

        def exploding(payload):
            telemetry.get_registry().inc("shard.leak")
            raise RuntimeError("shard boom")

        with pytest.raises(RuntimeError, match="shard boom"):
            run_shards(exploding, [1, 2], workers=1)
        assert telemetry.get_registry() is registry
        assert telemetry.get_tracer() is tracer
        assert registry.value("caller.marker") == 1
        assert registry.value("shard.leak") == 0


class TestWorkerClamp:
    def test_workers_clamped_to_cpu_count(self):
        registry, _ = telemetry.reset_registry()
        cpus = os.cpu_count() or 1
        config = ParallelConfig(workers=cpus + 7)
        assert config.effective_workers() == cpus
        assert registry.value("parallel.workers.clamped") == 7

    def test_oversubscribe_disables_clamp(self):
        registry, _ = telemetry.reset_registry()
        cpus = os.cpu_count() or 1
        config = ParallelConfig(workers=cpus + 7, oversubscribe=True)
        assert config.effective_workers() == cpus + 7
        assert registry.value("parallel.workers.clamped") == 0

    def test_in_range_workers_not_clamped(self):
        registry, _ = telemetry.reset_registry()
        assert ParallelConfig(workers=1).effective_workers() == 1
        assert registry.value("parallel.workers.clamped") == 0


class TestAdaptiveDispatch:
    def test_schedule_is_pure_threshold_predicate(self):
        config = ParallelConfig(workers=4, min_fanout_items=100)
        assert config.schedule(99) is True
        assert config.schedule(100) is False
        assert config.decisions == [
            {"items": 99, "in_process": True},
            {"items": 100, "in_process": False},
        ]

    def test_below_threshold_runs_in_process(self):
        telemetry.reset_registry()
        config = ParallelConfig(workers=4, min_fanout_items=1_000,
                                oversubscribe=True)

        def worker(payload):
            return os.getpid()

        outcomes = config.dispatch(worker, [0, 1], item_count=10)
        assert {outcome.value for outcome in outcomes} == {os.getpid()}

    def test_manifest_execution_records_adaptive_block(self):
        config = ParallelConfig(workers=4, shards=6, min_fanout_items=100)
        config.schedule(42)
        config.schedule(5_000)
        execution = config.manifest_execution()
        assert "workers" not in execution
        assert execution["shards"] == 6
        assert execution["adaptive"] == {
            "threshold": 100,
            "decisions": [
                {"items": 42, "in_process": True},
                {"items": 5_000, "in_process": False},
            ],
        }

    def test_default_threshold(self):
        assert (ParallelConfig().min_fanout_items
                == DEFAULT_IN_PROCESS_THRESHOLD)


SEED = 91
ROUNDS = 3


def _campaign_bytes(workers: int, fresh_pool_per_round: bool = False):
    """Table 2 + deterministic telemetry for a 3-round sharded run."""
    telemetry.reset_registry()
    try:
        scenario = build_scenario(tiny_config(SEED))
        parallel = ParallelConfig(workers=workers, shards=4,
                                  min_fanout_items=0, oversubscribe=True)
        campaign = ScanCampaign(scenario, parallel=parallel)
        results = []
        for round_index in range(ROUNDS):
            if fresh_pool_per_round:
                shutdown_worker_pool()
            results.append(campaign.run_round(round_index))
        doh = campaign.run_doh_discovery()
        from repro.core.scan.campaign import CampaignResult
        result = CampaignResult(results, doh)
        return (tables.table2_text(result),
                telemetry.to_json(telemetry.get_registry(),
                                  telemetry.get_tracer()))
    finally:
        telemetry.reset_registry()
        shutdown_worker_pool()


class TestPoolReuseDeterminism:
    def test_reused_pool_matches_fresh_pools_and_in_process(self):
        """One pool serving all three rounds must not differ from a
        fresh pool per round, nor from no pool at all: worker reuse —
        including worker-side scenario caches surviving across rounds —
        is invisible in every output byte."""
        reused = _campaign_bytes(workers=2)
        fresh = _campaign_bytes(workers=2, fresh_pool_per_round=True)
        in_process = _campaign_bytes(workers=1)
        assert reused == fresh
        assert reused == in_process


class TestServingSharded:
    def test_scorecards_byte_identical_across_worker_counts(self):
        from repro.serving import (
            ResolverScorecard,
            ServingConfig,
            ServingWorldConfig,
            WorkloadSpec,
            run_sharded,
        )

        world_config = ServingWorldConfig(seed=7, clients=24, names=40)
        spec = WorkloadSpec(duration_s=5.0, qps_start=80.0, clients=24,
                            names=40)
        serving_config = ServingConfig(concurrency=8, max_queue=32)
        cards = []
        for workers in (1, 2):
            telemetry.reset_registry()
            try:
                parallel = ParallelConfig(workers=workers, shards=4,
                                          min_fanout_items=0,
                                          oversubscribe=True)
                report = run_sharded(world_config, spec, serving_config,
                                     parallel)
                cards.append(ResolverScorecard.from_report(
                    report, seed=7).to_json_bytes())
            finally:
                telemetry.reset_registry()
        shutdown_worker_pool()
        assert cards[0] == cards[1]
