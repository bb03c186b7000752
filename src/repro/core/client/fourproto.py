"""The four-protocol differential study (beyond the paper's Table 4/7).

Do53, DoT and DoH carried the paper's client-side legs; this study
promotes DoQ and DNSCrypt to the same footing and measures all five
side by side, in the layout later used by Kosek et al. for DoQ: one
reachability/performance cell per (target, protocol), plus a
handshake-cost breakdown that separates

* the **cold start** (TCP+TLS for DoT/DoH, the 1-RTT QUIC handshake
  for DoQ, TXT bootstrap + sealed query for DNSCrypt) — the first
  query of each per-endpoint series;
* the **warm path** (persistent connection / established session) —
  the median of the remaining queries;
* DoQ's **0-RTT resumption** — one extra reconnect query after the
  series, riding the cached session ticket.

Fallback semantics follow each protocol's design: DoQ clients may fall
back to DoT when the UDP path is dead (draft behaviour, counted via the
``fourproto.fallback`` metric), while DNSCrypt strictly never falls
back — a failed sealed exchange is a failed query.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import (
    ParallelConfig,
    Shard,
    merge_outcomes,
)
from repro.core.client.performance import REQUIRED_UPTIME_S
from repro.core.client.reachability import TargetSpec
from repro.dnswire.builder import make_query
from repro.dnswire.message import Message
from repro.dnswire.rdtypes import RRType
from repro.doe.do53 import Do53Client
from repro.doe.dnscrypt import DnsCryptClient
from repro.doe.doh import DohClient, DohMethod
from repro.doe.doq import DoqClient
from repro.doe.dot import DotClient, PrivacyProfile
from repro.doe.result import FailureKind, QueryResult
from repro.httpsim.uri import UriTemplate
from repro.netsim.network import ClientEnvironment, Network
from repro.netsim.rand import SeededRng
from repro.telemetry import BoundCounterFamily, get_registry, get_tracer
from repro.world.population import VantagePoint
from repro.world.scenario import (
    GOOGLE_DO53_IPS,
    SELF_BUILT_IP,
    Scenario,
    ScenarioConfig,
)

#: Queries per protocol per endpoint: the first is the cold start, the
#: rest form the warm-path median.
FOURPROTO_QUERIES = 8

#: Column order of the four-protocol table (DNSCrypt rides along as the
#: pre-standard fifth column, as in the paper's Table 1).
FOURPROTO_PROTOCOLS = ("do53", "dot", "doh", "doq", "dnscrypt")

#: Failure kinds that trigger the DoQ → DoT fallback (the draft's
#: "unable to establish a QUIC connection" condition).
FALLBACK_KINDS = frozenset({FailureKind.TIMEOUT, FailureKind.UNREACHABLE,
                            FailureKind.REFUSED})

_FALLBACKS = BoundCounterFamily("fourproto.fallback", "protocol")


def fourproto_targets(scenario: Scenario) -> List[TargetSpec]:
    """The reachability targets, extended with DoQ/DNSCrypt addresses.

    Address placement mirrors :mod:`repro.world.providers`: Cloudflare
    announces DoQ only, Quad9 and the self-built resolver announce both,
    Google neither (no DoT at experiment time either).
    """
    return [
        TargetSpec("Cloudflare", "1.1.1.1", "1.1.1.1",
                   "https://mozilla.cloudflare-dns.com/dns-query{?dns}",
                   doq_ip="1.1.1.1"),
        TargetSpec("Google", GOOGLE_DO53_IPS[0], None,
                   "https://dns.google.com/resolve{?dns}"),
        TargetSpec("Quad9", "9.9.9.9", "9.9.9.9",
                   "https://dns.quad9.net/dns-query{?dns}",
                   doq_ip="9.9.9.9", dnscrypt_ip="9.9.9.9"),
        TargetSpec("Self-built", SELF_BUILT_IP, SELF_BUILT_IP,
                   "https://dns.selfbuilt.example/dns-query{?dns}",
                   doq_ip=SELF_BUILT_IP, dnscrypt_ip=SELF_BUILT_IP),
    ]


def query_with_fallback(doq_client: DoqClient, dot_client: DotClient,
                        env: ClientEnvironment, doq_ip: str,
                        dot_ip: Optional[str], message: Message,
                        timeout_s: float = 5.0
                        ) -> Tuple[QueryResult, bool]:
    """One DoQ lookup with the draft's DoT fallback.

    Returns ``(result, fell_back)``. Fallback fires only on transport
    failures (:data:`FALLBACK_KINDS`) and only when the target has a DoT
    address; certificate and protocol errors never fall back — a
    misbehaving resolver should not be silently retried in a different
    encrypted channel.
    """
    result = doq_client.query(env, doq_ip, message, reuse=True,
                              timeout_s=timeout_s)
    if result.ok or dot_ip is None or result.failure not in FALLBACK_KINDS:
        return result, False
    _FALLBACKS.get("doq").inc()
    return dot_client.query(env, dot_ip, message, reuse=True,
                            timeout_s=timeout_s), True


@dataclass
class ProtocolTiming:
    """One endpoint × target × protocol series (a table cell sample)."""

    endpoint: str
    country: str
    target: str
    protocol: str
    attempted: int
    ok_queries: int
    #: First query of the series: connection setup included (for
    #: DNSCrypt, the TXT bootstrap is folded in).
    cold_ms: float
    #: Median of the remaining (warm-path) queries.
    warm_median_ms: float
    #: DoQ only — latency of a 0-RTT reconnect query; negative = n/a.
    resumed_ms: float = -1.0
    error: str = ""

    @property
    def complete(self) -> bool:
        """Endpoint finished at least half the battery (cf. Fig. 10)."""
        return self.attempted > 0 and self.ok_queries >= self.attempted // 2

    @property
    def handshake_cost_ms(self) -> float:
        return self.cold_ms - self.warm_median_ms


@dataclass
class FourProtoReport:
    """All series plus the fallback tally of one study run."""

    timings: List[ProtocolTiming] = field(default_factory=list)
    fallbacks: int = 0

    def rows_for(self, target: str, protocol: str) -> List[ProtocolTiming]:
        return [timing for timing in self.timings
                if timing.target == target and timing.protocol == protocol]

    def cell(self, target: str, protocol: str) -> Dict[str, float]:
        """Aggregates for one (target, protocol) table cell."""
        rows = self.rows_for(target, protocol)
        if not rows:
            return {}
        complete = [timing for timing in rows if timing.complete]
        cell: Dict[str, float] = {
            "endpoints": float(len(rows)),
            "reached": len(complete) / len(rows),
        }
        if complete:
            cell["cold_median_ms"] = statistics.median(
                [timing.cold_ms for timing in complete])
            cell["warm_median_ms"] = statistics.median(
                [timing.warm_median_ms for timing in complete])
            cell["handshake_median_ms"] = statistics.median(
                [timing.handshake_cost_ms for timing in complete])
            resumed = [timing.resumed_ms for timing in complete
                       if timing.resumed_ms >= 0.0]
            if resumed:
                cell["resumed_median_ms"] = statistics.median(resumed)
        return cell

    def targets(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for timing in self.timings:
            if timing.target not in seen:
                seen.append(timing.target)
        return tuple(seen)


@dataclass(frozen=True)
class _FourProtoTask:
    """Measure one slice of a platform's vantage-point list."""

    config: ScenarioConfig
    platform: str
    sample: float
    shard: Shard
    queries: int = FOURPROTO_QUERIES
    require_uptime: bool = True


def _fourproto_shard(
        task: _FourProtoTask) -> Tuple[List[ProtocolTiming], int]:
    from repro.core.scan.campaign import shard_scenario
    final_round = task.config.scan_rounds - 1
    scenario, network = shard_scenario(task.config, final_round, task.shard)
    study = FourProtoStudy(scenario, network=network, queries=task.queries)
    points = list(scenario.iter_platform_points(
        task.platform, task.sample, task.shard.start, task.shard.stop))
    report = study.run(points, require_uptime=task.require_uptime)
    return report.timings, report.fallbacks


class FourProtoStudy:
    """Runs the differential five-column battery from every endpoint."""

    def __init__(self, scenario: Scenario,
                 network: Optional[Network] = None,
                 rng: Optional[SeededRng] = None,
                 queries: int = FOURPROTO_QUERIES,
                 targets: Optional[List[TargetSpec]] = None):
        self.scenario = scenario
        self.network = network or scenario.client_network()
        self.rng = rng or scenario.rng.fork("fourproto")
        self.queries = queries
        self.targets = targets if targets is not None \
            else fourproto_targets(scenario)

    # -- single-endpoint battery -------------------------------------------------

    def measure_endpoint(self, point: VantagePoint,
                         report: FourProtoReport) -> None:
        env = point.env
        endpoint_rng = self.rng.fork(f"fourproto-{env.label}")
        do53 = Do53Client(self.network, endpoint_rng.fork("do53"))
        dot = DotClient(self.network, endpoint_rng.fork("dot"),
                        self.scenario.trust_store,
                        profile=PrivacyProfile.OPPORTUNISTIC)
        doh = DohClient(self.network, endpoint_rng.fork("doh"),
                        self.scenario.trust_store,
                        bootstrap=self.scenario.bootstrap,
                        method=DohMethod.POST)
        doq = DoqClient(self.network, endpoint_rng.fork("doq"),
                        self.scenario.trust_store)
        fallback_dot = DotClient(self.network,
                                 endpoint_rng.fork("doq-fallback"),
                                 self.scenario.trust_store,
                                 profile=PrivacyProfile.OPPORTUNISTIC)
        dnscrypt = DnsCryptClient(self.network,
                                  endpoint_rng.fork("dnscrypt"))
        for target in self.targets:
            target_rng = endpoint_rng.fork(f"t-{target.name}")
            report.timings.append(self._measure_series(
                point, target, "do53", target_rng.fork("do53"),
                lambda q: do53.query_tcp(env, target.do53_ip, q,
                                         reuse=True)))
            if target.dot_ip is not None:
                report.timings.append(self._measure_series(
                    point, target, "dot", target_rng.fork("dot"),
                    lambda q: dot.query(env, target.dot_ip, q,
                                        reuse=True)))
            if target.doh_template is not None:
                template = UriTemplate(target.doh_template)
                report.timings.append(self._measure_series(
                    point, target, "doh", target_rng.fork("doh"),
                    lambda q: doh.query(env, template, q, reuse=True)))
            if target.doq_ip is not None:
                report.timings.append(self._measure_doq(
                    point, target, target_rng.fork("doq"),
                    doq, fallback_dot, report))
            if target.dnscrypt_ip is not None:
                report.timings.append(self._measure_dnscrypt(
                    point, target, target_rng.fork("dnscrypt"), dnscrypt))
        do53.close_all()
        dot.close_all()
        doh.close_all()
        doq.close_all()
        fallback_dot.close_all()

    def _measure_series(self, point: VantagePoint, target: TargetSpec,
                        protocol: str, series_rng: SeededRng,
                        lookup) -> ProtocolTiming:
        series: List[float] = []
        error = ""
        for index in range(self.queries):
            result = lookup(self._query(series_rng.fork(f"q{index}")))
            self._record(result, protocol)
            if result.ok:
                series.append(result.latency_ms)
            elif not error:
                error = result.error
        return self._timing(point, target, protocol, series, error)

    def _measure_doq(self, point: VantagePoint, target: TargetSpec,
                     series_rng: SeededRng, doq: DoqClient,
                     fallback_dot: DotClient,
                     report: FourProtoReport) -> ProtocolTiming:
        """The DoQ series: cold 1-RTT, warm session, 0-RTT reconnect."""
        env = point.env
        series: List[float] = []
        error = ""
        for index in range(self.queries):
            query = self._query(series_rng.fork(f"q{index}"))
            result, fell_back = query_with_fallback(
                doq, fallback_dot, env, target.doq_ip, target.dot_ip,
                query)
            if fell_back:
                report.fallbacks += 1
                self._record(result, "doq-fallback")
                if not error:
                    error = "fell back to dot"
                continue
            self._record(result, "doq")
            if result.ok:
                series.append(result.latency_ms)
            elif not error:
                error = result.error
        resumed_ms = -1.0
        if series:
            # Drop the session but keep the ticket: the reconnect query
            # resumes at 0-RTT (no handshake exchange at all).
            doq.close_all()
            resumed = doq.query(env, target.doq_ip,
                                self._query(series_rng.fork("resume")),
                                reuse=True)
            self._record(resumed, "doq")
            if resumed.ok:
                resumed_ms = resumed.latency_ms
        return self._timing(point, target, "doq", series, error,
                            resumed_ms=resumed_ms)

    def _measure_dnscrypt(self, point: VantagePoint, target: TargetSpec,
                          series_rng: SeededRng,
                          dnscrypt: DnsCryptClient) -> ProtocolTiming:
        """TXT bootstrap once, then the sealed series — no fallback."""
        env = point.env
        fetched = dnscrypt.fetch_certificate(env, target.dnscrypt_ip)
        if isinstance(fetched, QueryResult):
            self._record(fetched, "dnscrypt")
            return self._timing(point, target, "dnscrypt", [],
                                fetched.error)
        key, bootstrap_ms = fetched
        series: List[float] = []
        error = ""
        for index in range(self.queries):
            result = dnscrypt.query(
                env, target.dnscrypt_ip, key,
                self._query(series_rng.fork(f"q{index}")))
            self._record(result, "dnscrypt")
            if result.ok:
                series.append(result.latency_ms)
            elif not error:
                error = result.error
        return self._timing(point, target, "dnscrypt", series, error,
                            bootstrap_ms=bootstrap_ms)

    # -- whole-platform runs -------------------------------------------------------

    def run(self, points: List[VantagePoint],
            require_uptime: bool = True) -> FourProtoReport:
        report = FourProtoReport()
        registry = get_registry()
        with get_tracer().span("client.fourproto",
                               clock=self.network.clock.now,
                               endpoints=len(points)):
            for point in points:
                if (require_uptime
                        and point.remaining_uptime_s < REQUIRED_UPTIME_S):
                    registry.inc("client.fourproto.endpoint_skipped",
                                 reason="uptime")
                    continue
                self.measure_endpoint(point, report)
        return report

    def run_sharded(self, parallel: ParallelConfig,
                    platform: str = "proxyrack", sample: float = 1.0,
                    require_uptime: bool = True) -> FourProtoReport:
        """The battery across deterministic vantage-point shards.

        Per-endpoint rng streams are keyed (``fourproto-{label}``), so
        shard assignment never changes a series; shards partition the
        unfiltered platform list and apply the uptime predicate
        worker-side, matching a serial run over the same list.
        """
        from repro.core.scan.campaign import prime_scenario
        prime_scenario(self.scenario)
        count = self.scenario.platform_point_count(platform, sample)
        with get_tracer().span("client.fourproto",
                               clock=self.network.clock.now,
                               endpoints=count):
            tasks = [
                _FourProtoTask(self.scenario.config, platform, sample,
                               shard, queries=self.queries,
                               require_uptime=require_uptime)
                for shard in parallel.plan(count)]
            report = FourProtoReport()
            for timings, fallbacks in merge_outcomes(
                    parallel.dispatch(_fourproto_shard, tasks, count)):
                report.timings.extend(timings)
                report.fallbacks += fallbacks
        return report

    # -- helpers ------------------------------------------------------------------

    def _timing(self, point: VantagePoint, target: TargetSpec,
                protocol: str, series: List[float], error: str,
                resumed_ms: float = -1.0,
                bootstrap_ms: float = 0.0) -> ProtocolTiming:
        if not series:
            cold = warm = 0.0
        elif len(series) == 1:
            cold = bootstrap_ms + series[0]
            warm = series[0]
        else:
            cold = bootstrap_ms + series[0]
            warm = statistics.median(series[1:])
        return ProtocolTiming(
            endpoint=point.env.label,
            country=point.env.country_code,
            target=target.name,
            protocol=protocol,
            attempted=self.queries,
            ok_queries=len(series),
            cold_ms=cold,
            warm_median_ms=warm,
            resumed_ms=resumed_ms,
            error=error,
        )

    @staticmethod
    def _record(result: QueryResult, protocol: str) -> None:
        registry = get_registry()
        if result.ok:
            registry.observe("client.query.latency", result.latency_ms,
                             protocol=protocol, reuse="true")
        else:
            registry.inc("client.query.failed", protocol=protocol,
                         kind=result.failure.value
                         if result.failure else "unknown")

    def _query(self, rng: SeededRng):
        return make_query(self.scenario.probe_name(rng.token(10)),
                          RRType.A, msg_id=rng.randint(1, 0xFFFF))
