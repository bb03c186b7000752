"""The performance test (Section 4.3, Figures 9-10, Table 7).

Two modes, matching the paper's methodology:

* **Reused connections** (the main focus): from each usable proxy
  endpoint issue 20 DNS/TCP, 20 DoT and 20 DoH queries on persistent
  connections; compare the per-endpoint medians. Measuring at the proxy
  client adds one proxy-leg RTT to every protocol equally, so the
  *differences* are unbiased — the study therefore works directly with
  per-endpoint latency differences.
* **No reuse** (Table 7): from a handful of controlled vantages, issue
  200 queries per protocol, each on a fresh connection, against the
  self-built resolver.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import (
    ParallelConfig,
    Shard,
    merge_outcomes,
)
from repro.dnswire.builder import make_query
from repro.dnswire.rdtypes import RRType
from repro.doe.do53 import Do53Client
from repro.doe.doh import DohClient, DohMethod
from repro.doe.dot import DotClient, PrivacyProfile
from repro.httpsim.uri import UriTemplate
from repro.netsim.network import ClientEnvironment, Network
from repro.netsim.rand import SeededRng
from repro.telemetry import get_registry, get_tracer
from repro.world.population import VantagePoint
from repro.world.scenario import SELF_BUILT_IP, Scenario, ScenarioConfig

QUERIES_PER_ENDPOINT = 20
QUERIES_NO_REUSE = 200


def _record_query(result, protocol: str, reuse: bool) -> None:
    registry = get_registry()
    if result.ok:
        registry.observe("client.query.latency", result.latency_ms,
                         protocol=protocol, reuse=str(reuse).lower())
    else:
        registry.inc("client.query.failed", protocol=protocol,
                     kind=result.failure.value
                     if result.failure else "unknown")

#: Endpoints must survive the whole battery; shorter-lived ones are
#: discarded up front (Section 4.1).
REQUIRED_UPTIME_S = 2_590.0


@dataclass
class EndpointTiming:
    """Per-endpoint medians and overheads (one Figure 10 point)."""

    endpoint: str
    country: str
    target: str
    median_do53_ms: float
    median_dot_ms: float
    median_doh_ms: float

    @property
    def dot_overhead_ms(self) -> float:
        return self.median_dot_ms - self.median_do53_ms

    @property
    def doh_overhead_ms(self) -> float:
        return self.median_doh_ms - self.median_do53_ms


@dataclass
class CountrySummary:
    """One Figure 9 bar: average/median overhead for one country."""

    country: str
    client_count: int
    dot_overhead_avg_ms: float
    dot_overhead_median_ms: float
    doh_overhead_avg_ms: float
    doh_overhead_median_ms: float


@dataclass
class PerformanceReport:
    """Reused-connection results."""

    timings: List[EndpointTiming] = field(default_factory=list)

    def global_summary(self) -> Dict[str, float]:
        dot = [timing.dot_overhead_ms for timing in self.timings]
        doh = [timing.doh_overhead_ms for timing in self.timings]
        if not dot:
            return {}
        return {
            "dot_avg": statistics.fmean(dot),
            "dot_median": statistics.median(dot),
            "doh_avg": statistics.fmean(doh),
            "doh_median": statistics.median(doh),
            "clients": len(dot),
        }

    def by_country(self, min_clients: int = 5) -> List[CountrySummary]:
        per_country: Dict[str, List[EndpointTiming]] = defaultdict(list)
        for timing in self.timings:
            per_country[timing.country].append(timing)
        summaries = []
        for country_code, timings in sorted(
                per_country.items(), key=lambda item: -len(item[1])):
            if len(timings) < min_clients:
                continue
            dot = [timing.dot_overhead_ms for timing in timings]
            doh = [timing.doh_overhead_ms for timing in timings]
            summaries.append(CountrySummary(
                country=country_code,
                client_count=len(timings),
                dot_overhead_avg_ms=statistics.fmean(dot),
                dot_overhead_median_ms=statistics.median(dot),
                doh_overhead_avg_ms=statistics.fmean(doh),
                doh_overhead_median_ms=statistics.median(doh),
            ))
        return summaries

    def scatter_points(self) -> List[Tuple[float, float, float]]:
        """Figure 10 data: (do53, dot, doh) medians per client."""
        return [(timing.median_do53_ms, timing.median_dot_ms,
                 timing.median_doh_ms) for timing in self.timings]


@dataclass
class NoReuseResult:
    """One Table 7 row."""

    vantage: str
    median_do53_ms: float
    median_dot_ms: float
    median_doh_ms: float

    @property
    def dot_overhead_ms(self) -> float:
        return self.median_dot_ms - self.median_do53_ms

    @property
    def doh_overhead_ms(self) -> float:
        return self.median_doh_ms - self.median_do53_ms


@dataclass(frozen=True)
class _PerfTask:
    """Time one slice of a platform's vantage-point list."""

    config: ScenarioConfig
    platform: str
    sample: float
    shard: Shard
    queries: int = QUERIES_PER_ENDPOINT
    require_uptime: bool = True
    do53_ip: str = "1.1.1.1"
    dot_ip: str = "1.1.1.1"
    doh_template: str = "https://mozilla.cloudflare-dns.com/dns-query{?dns}"
    target_name: str = "Cloudflare"


def _perf_shard(task: _PerfTask) -> List[EndpointTiming]:
    from repro.core.scan.campaign import shard_scenario
    final_round = task.config.scan_rounds - 1
    scenario, network = shard_scenario(task.config, final_round, task.shard)
    study = PerformanceStudy(scenario, network=network,
                             do53_ip=task.do53_ip, dot_ip=task.dot_ip,
                             doh_template=task.doh_template,
                             target_name=task.target_name)
    # Stream only this shard's window (per-index pure derivation).
    points = list(scenario.iter_platform_points(
        task.platform, task.sample, task.shard.start, task.shard.stop))
    report = study.run(points, queries=task.queries,
                       require_uptime=task.require_uptime)
    return report.timings


class PerformanceStudy:
    """Runs both performance modes against one target resolver."""

    def __init__(self, scenario: Scenario,
                 network: Optional[Network] = None,
                 rng: Optional[SeededRng] = None,
                 do53_ip: str = "1.1.1.1",
                 dot_ip: str = "1.1.1.1",
                 doh_template: str =
                 "https://mozilla.cloudflare-dns.com/dns-query{?dns}",
                 target_name: str = "Cloudflare"):
        self.scenario = scenario
        self.network = network or scenario.client_network()
        self.rng = rng or scenario.rng.fork("performance")
        self.do53_ip = do53_ip
        self.dot_ip = dot_ip
        self.doh_template = UriTemplate(doh_template)
        self.target_name = target_name

    # -- reused-connection mode -------------------------------------------------

    def measure_endpoint(self, point: VantagePoint,
                         queries: int = QUERIES_PER_ENDPOINT
                         ) -> Optional[EndpointTiming]:
        """Median-of-N timings on persistent connections for one endpoint."""
        env = point.env
        endpoint_rng = self.rng.fork(f"perf-{env.label}")
        do53 = Do53Client(self.network, endpoint_rng.fork("do53"))
        dot = DotClient(self.network, endpoint_rng.fork("dot"),
                        self.scenario.trust_store,
                        profile=PrivacyProfile.OPPORTUNISTIC)
        doh = DohClient(self.network, endpoint_rng.fork("doh"),
                        self.scenario.trust_store,
                        bootstrap=self.scenario.bootstrap,
                        method=DohMethod.POST)
        series: Dict[str, List[float]] = {"do53": [], "dot": [], "doh": []}
        for index in range(queries):
            query_rng = endpoint_rng.fork(f"q{index}")
            result = do53.query_tcp(env, self.do53_ip,
                                    self._query(query_rng), reuse=True)
            _record_query(result, "do53", reuse=True)
            if result.ok:
                series["do53"].append(result.latency_ms)
            result = dot.query(env, self.dot_ip, self._query(query_rng),
                               reuse=True)
            _record_query(result, "dot", reuse=True)
            if result.ok:
                series["dot"].append(result.latency_ms)
            result = doh.query(env, self.doh_template,
                               self._query(query_rng), reuse=True)
            _record_query(result, "doh", reuse=True)
            if result.ok:
                series["doh"].append(result.latency_ms)
        do53.close_all()
        dot.close_all()
        doh.close_all()
        if not all(len(values) >= queries // 2 for values in series.values()):
            # Endpoints that cannot complete the battery are excluded,
            # mirroring the removal of disrupted exit nodes.
            return None
        # The first sample of each series carries connection setup; the
        # reused-connection comparison drops it.
        return EndpointTiming(
            endpoint=env.label,
            country=env.country_code,
            target=self.target_name,
            median_do53_ms=statistics.median(series["do53"][1:]),
            median_dot_ms=statistics.median(series["dot"][1:]),
            median_doh_ms=statistics.median(series["doh"][1:]),
        )

    def run(self, points: List[VantagePoint],
            queries: int = QUERIES_PER_ENDPOINT,
            require_uptime: bool = True) -> PerformanceReport:
        report = PerformanceReport()
        registry = get_registry()
        with get_tracer().span("client.performance",
                               clock=self.network.clock.now,
                               endpoints=len(points)):
            for point in points:
                if (require_uptime
                        and point.remaining_uptime_s < REQUIRED_UPTIME_S):
                    registry.inc("client.perf.endpoint_skipped",
                                 reason="uptime")
                    continue
                timing = self.measure_endpoint(point, queries)
                if timing is not None:
                    report.timings.append(timing)
                else:
                    registry.inc("client.perf.endpoint_skipped",
                                 reason="incomplete")
        return report

    def run_sharded(self, parallel: ParallelConfig,
                    platform: str = "proxyrack", sample: float = 1.0,
                    queries: int = QUERIES_PER_ENDPOINT,
                    require_uptime: bool = True) -> PerformanceReport:
        """Reused-connection mode across deterministic point shards.

        Shards partition the *unfiltered* platform list; the uptime
        check runs inside each worker (same predicate ``usable_for``
        applies), so the surviving timing set matches a serial run over
        the pre-filtered list.
        """
        from repro.core.scan.campaign import prime_scenario
        prime_scenario(self.scenario)
        # Plan from the point count alone (see ReachabilityStudy).
        count = self.scenario.platform_point_count(platform, sample)
        with get_tracer().span("client.performance",
                               clock=self.network.clock.now,
                               endpoints=count):
            tasks = [
                _PerfTask(self.scenario.config, platform, sample, shard,
                          queries=queries, require_uptime=require_uptime,
                          do53_ip=self.do53_ip, dot_ip=self.dot_ip,
                          doh_template=self.doh_template.text,
                          target_name=self.target_name)
                for shard in parallel.plan(count)]
            report = PerformanceReport()
            for fragment in merge_outcomes(
                    parallel.dispatch(_perf_shard, tasks, count)):
                report.timings.extend(fragment)
        return report

    # -- no-reuse mode ---------------------------------------------------------------

    def measure_no_reuse(self, env: ClientEnvironment,
                         queries: int = QUERIES_NO_REUSE,
                         do53_ip: str = SELF_BUILT_IP,
                         dot_ip: str = SELF_BUILT_IP,
                         doh_template: str =
                         "https://dns.selfbuilt.example/dns-query{?dns}"
                         ) -> NoReuseResult:
        """Fresh TCP+TLS for every query (the Table 7 columns)."""
        vantage_rng = self.rng.fork(f"noreuse-{env.label}")
        do53 = Do53Client(self.network, vantage_rng.fork("do53"))
        dot = DotClient(self.network, vantage_rng.fork("dot"),
                        self.scenario.trust_store,
                        profile=PrivacyProfile.OPPORTUNISTIC)
        doh = DohClient(self.network, vantage_rng.fork("doh"),
                        self.scenario.trust_store,
                        bootstrap=self.scenario.bootstrap,
                        method=DohMethod.POST)
        template = UriTemplate(doh_template)
        series: Dict[str, List[float]] = {"do53": [], "dot": [], "doh": []}
        for index in range(queries):
            query_rng = vantage_rng.fork(f"q{index}")
            result = do53.query_tcp(env, do53_ip, self._query(query_rng),
                                    reuse=False)
            _record_query(result, "do53", reuse=False)
            if result.ok:
                series["do53"].append(result.latency_ms)
            result = dot.query(env, dot_ip, self._query(query_rng),
                               reuse=False)
            _record_query(result, "dot", reuse=False)
            if result.ok:
                series["dot"].append(result.latency_ms)
            # A fresh DoH client per query defeats session resumption.
            result = doh.query(env, template, self._query(query_rng),
                               reuse=False)
            _record_query(result, "doh", reuse=False)
            if result.ok:
                series["doh"].append(result.latency_ms)
        return NoReuseResult(
            vantage=env.label,
            median_do53_ms=statistics.median(series["do53"]),
            median_dot_ms=statistics.median(series["dot"]),
            median_doh_ms=statistics.median(series["doh"]),
        )

    def run_no_reuse(self, countries: Tuple[str, ...] = ("US", "NL", "AU",
                                                         "HK"),
                     queries: int = QUERIES_NO_REUSE) -> List[NoReuseResult]:
        """The controlled-vantage battery of Table 7."""
        results = []
        for code in countries:
            env = ClientEnvironment.in_country(
                f"controlled-{code}", f"172.104.{len(code)}.{ord(code[0])}",
                code, self.rng.fork(f"vantage-{code}"))
            results.append(self.measure_no_reuse(env, queries))
        return results

    def _query(self, rng: SeededRng):
        return make_query(self.scenario.probe_name(rng.token(10)),
                          RRType.A, msg_id=rng.randint(1, 0xFFFF))
