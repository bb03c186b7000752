"""The reachability test (Section 4.2, Table 4, Finding 2.x).

From every vantage point, issue clear-text DNS (over TCP — the proxy
platforms forward TCP only), opportunistic DoT and strict DoH queries to
each resolver's primary address, classify the outcome into Correct /
Incorrect / Failed, and collect certificates to spot TLS interception.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import (
    ParallelConfig,
    Shard,
    merge_outcomes,
)
from repro.core.retry import TRANSIENT_KINDS, RetryPolicy
from repro.dnswire.builder import make_query
from repro.dnswire.rdtypes import RRType
from repro.doe.do53 import Do53Client
from repro.doe.doh import DohClient, DohMethod
from repro.doe.dot import DotClient, PrivacyProfile
from repro.doe.result import QueryOutcome, QueryResult
from repro.httpsim.uri import UriTemplate
from repro.netsim.network import Network
from repro.netsim.rand import SeededRng
from repro.telemetry import get_registry, get_tracer
from repro.tlssim.certs import ValidationFailure
from repro.world.population import VantagePoint
from repro.world.scenario import (
    GOOGLE_DO53_IPS,
    SELF_BUILT_IP,
    Scenario,
    ScenarioConfig,
)

MAX_ATTEMPTS = 5
TIMEOUT_S = 30.0


def platform_points(scenario: Scenario, platform: str,
                    sample: float = 1.0) -> List[VantagePoint]:
    """The vantage points of one platform, optionally down-sampled.

    Mirrors ``ExperimentSuite._sample`` (keep the first
    ``round(len * sample)`` points, at least one) so parent and worker
    processes agree on the point list without pickling it.
    """
    if platform == "proxyrack":
        points = scenario.proxyrack()
    elif platform == "zhima":
        points = scenario.zhima()
    else:
        raise ValueError(f"unknown vantage platform {platform!r}")
    if sample >= 1.0:
        return points
    keep = max(1, round(len(points) * sample))
    return points[:keep]


@dataclass(frozen=True)
class TargetSpec:
    """One resolver under test (primary addresses only, as in Fig. 7).

    The optional DoQ/DNSCrypt addresses extend the original three-column
    spec for the four-protocol pipeline; the defaults keep the classic
    reachability study byte-identical.
    """

    name: str
    do53_ip: str
    dot_ip: Optional[str]
    doh_template: Optional[str]
    doq_ip: Optional[str] = None
    dnscrypt_ip: Optional[str] = None


def default_targets(scenario: Scenario) -> List[TargetSpec]:
    """The paper's four targets: Cloudflare, Google, Quad9, self-built.

    Google DoT was not announced at experiment time → ``dot_ip=None``.
    """
    return [
        TargetSpec("Cloudflare", "1.1.1.1", "1.1.1.1",
                   "https://mozilla.cloudflare-dns.com/dns-query{?dns}"),
        TargetSpec("Google", GOOGLE_DO53_IPS[0], None,
                   "https://dns.google.com/resolve{?dns}"),
        TargetSpec("Quad9", "9.9.9.9", "9.9.9.9",
                   "https://dns.quad9.net/dns-query{?dns}"),
        TargetSpec("Self-built", SELF_BUILT_IP, SELF_BUILT_IP,
                   f"https://dns.selfbuilt.example/dns-query{{?dns}}"),
    ]


@dataclass
class Observation:
    """One endpoint × target × protocol measurement."""

    endpoint: str
    platform: str
    country: str
    target: str
    protocol: str
    outcome: QueryOutcome
    result: QueryResult


@dataclass
class InterceptionCase:
    """A client whose TLS sessions are proxied (Table 6 rows)."""

    endpoint: str
    country: str
    asn: int
    as_name: str
    ca_common_name: str
    intercepts_853: bool
    intercepts_443: bool
    #: Whether the opportunistic DoT lookup still answered (it does: the
    #: proxy forwards to the real resolver).
    dot_lookup_succeeded: bool


@dataclass
class ReachabilityReport:
    """Aggregated Table 4 plus the finding-specific case lists."""

    observations: List[Observation] = field(default_factory=list)
    interceptions: List[InterceptionCase] = field(default_factory=list)

    def add(self, observation: Observation) -> None:
        self.observations.append(observation)

    def rates(self, platform: str, target: str,
              protocol: str) -> Dict[str, float]:
        """Correct/Incorrect/Failed fractions for one table cell."""
        relevant = [obs for obs in self.observations
                    if obs.platform == platform and obs.target == target
                    and obs.protocol == protocol]
        total = len(relevant)
        if not total:
            return {"correct": 0.0, "incorrect": 0.0, "failed": 0.0,
                    "total": 0}
        counts = defaultdict(int)
        for obs in relevant:
            counts[obs.outcome.value] += 1
        return {
            "correct": counts["correct"] / total,
            "incorrect": counts["incorrect"] / total,
            "failed": counts["failed"] / total,
            "total": total,
        }

    def failed_endpoints(self, platform: str, target: str,
                         protocol: str) -> List[str]:
        return [obs.endpoint for obs in self.observations
                if obs.platform == platform and obs.target == target
                and obs.protocol == protocol
                and obs.outcome is QueryOutcome.FAILED]

    def platforms(self) -> Tuple[str, ...]:
        return tuple(sorted({obs.platform for obs in self.observations}))


@dataclass(frozen=True)
class _ReachTask:
    """Measure one slice of a platform's vantage-point list."""

    config: ScenarioConfig
    platform: str
    sample: float
    shard: Shard
    max_attempts: int = MAX_ATTEMPTS


def _reach_shard(task: _ReachTask) -> ReachabilityReport:
    from repro.core.scan.campaign import shard_scenario
    final_round = task.config.scan_rounds - 1
    scenario, network = shard_scenario(task.config, final_round, task.shard)
    study = ReachabilityStudy(scenario, network=network,
                              max_attempts=task.max_attempts)
    # Stream only this shard's window: point derivation is per-index
    # pure, so the window matches the same slice of the full list
    # without the worker materialising the whole platform population.
    points = list(scenario.iter_platform_points(
        task.platform, task.sample, task.shard.start, task.shard.stop))
    report = ReachabilityReport()
    with get_tracer().span("client.reachability.shard",
                           clock=network.clock.now,
                           platform=task.platform, endpoints=len(points)):
        for point in points:
            study.measure_endpoint(point, report)
    return report


class ReachabilityStudy:
    """Runs the full reachability workflow of Figure 7."""

    def __init__(self, scenario: Scenario,
                 network: Optional[Network] = None,
                 rng: Optional[SeededRng] = None,
                 max_attempts: int = MAX_ATTEMPTS,
                 retry_policy: Optional[RetryPolicy] = None):
        self.scenario = scenario
        self.network = network or scenario.client_network()
        self.rng = rng or scenario.rng.fork("reachability")
        self.max_attempts = max_attempts
        #: The per-lookup retry behaviour. The default reproduces the
        #: study's historical semantics exactly: up to ``max_attempts``
        #: immediate repeats of any lookup that produced no DNS response.
        self.retry_policy = retry_policy or scenario.retry_policy(
            default_attempts=max_attempts, op="client.reach")
        self.targets = default_targets(scenario)

    # -- single-endpoint workflow ----------------------------------------------

    def measure_endpoint(self, point: VantagePoint,
                         report: ReachabilityReport) -> None:
        env = point.env
        endpoint_rng = self.rng.fork(f"ep-{env.label}")
        do53 = Do53Client(self.network, endpoint_rng.fork("do53"))
        dot = DotClient(self.network, endpoint_rng.fork("dot"),
                        self.scenario.trust_store,
                        profile=PrivacyProfile.OPPORTUNISTIC)
        doh = DohClient(self.network, endpoint_rng.fork("doh"),
                        self.scenario.trust_store,
                        bootstrap=self.scenario.bootstrap,
                        method=DohMethod.POST)
        dot_results: Dict[str, QueryResult] = {}
        doh_results: Dict[str, QueryResult] = {}
        for target in self.targets:
            query_rng = endpoint_rng.fork(f"q-{target.name}")
            result = self._attempt(
                lambda: do53.query_tcp(
                    env, target.do53_ip,
                    self._probe_query(query_rng), reuse=False,
                    timeout_s=TIMEOUT_S))
            report.add(self._observe(point, target, "do53", result))
            if target.dot_ip is not None:
                result = self._attempt(
                    lambda: dot.query(env, target.dot_ip,
                                      self._probe_query(query_rng),
                                      reuse=False, timeout_s=TIMEOUT_S))
                dot_results[target.name] = result
                report.add(self._observe(point, target, "dot", result))
            if target.doh_template is not None:
                template = UriTemplate(target.doh_template)
                result = self._attempt(
                    lambda: doh.query(env, template,
                                      self._probe_query(query_rng),
                                      reuse=False, timeout_s=TIMEOUT_S))
                doh_results[target.name] = result
                report.add(self._observe(point, target, "doh", result))
        self._detect_interception(point, dot_results, doh_results, report)

    def run(self, platform_name: str, points: List[VantagePoint],
            report: Optional[ReachabilityReport] = None
            ) -> ReachabilityReport:
        """Measure every endpoint of one platform."""
        if report is None:
            report = ReachabilityReport()
        with get_tracer().span("client.reachability",
                               clock=self.network.clock.now,
                               platform=platform_name,
                               endpoints=len(points)):
            for point in points:
                self.measure_endpoint(point, report)
        return report

    def run_sharded(self, platform_name: str, parallel: ParallelConfig,
                    sample: float = 1.0,
                    report: Optional[ReachabilityReport] = None
                    ) -> ReachabilityReport:
        """Measure one platform across deterministic vantage-point shards.

        Per-endpoint rng streams are keyed (``ep-{label}``), so every
        shard assignment gives each endpoint the same stream; only the
        shard-scoped network-side streams (faults, backends) depend on
        the plan — and the plan depends only on (seed, shard count).
        """
        from repro.core.scan.campaign import prime_scenario
        if report is None:
            report = ReachabilityReport()
        prime_scenario(self.scenario)
        # Plan from the point *count* alone; the parent never builds
        # the platform population (workers stream their own windows).
        count = self.scenario.platform_point_count(platform_name, sample)
        with get_tracer().span("client.reachability",
                               clock=self.network.clock.now,
                               platform=platform_name,
                               endpoints=count):
            tasks = [
                _ReachTask(self.scenario.config, platform_name, sample,
                           shard, max_attempts=self.max_attempts)
                for shard in parallel.plan(count)]
            for fragment in merge_outcomes(
                    parallel.dispatch(_reach_shard, tasks, count)):
                report.observations.extend(fragment.observations)
                report.interceptions.extend(fragment.interceptions)
        return report

    # -- helpers ------------------------------------------------------------------

    def _probe_query(self, rng: SeededRng):
        token = rng.token(10)
        return make_query(self.scenario.probe_name(token), RRType.A,
                          msg_id=rng.randint(1, 0xFFFF))

    def _attempt(self, once) -> QueryResult:
        """Drive one lookup through the retry policy.

        ``retry_on=None`` repeats *any* failed lookup (the paper repeats
        failing measurements regardless of cause); the final result's
        failure kind still feeds the transient/permanent attribution via
        :meth:`_classify_failure`.
        """
        result = self.retry_policy.run_query(
            once, rng=None, op="client.reach", retry_on=None)
        self._classify_failure(result)
        return result

    def _classify_failure(self, result: QueryResult) -> None:
        """Count how the lookup ended: transient vs permanent (Table 5)."""
        if result.response is not None:
            return
        kind = (result.failure.value if result.failure else "unknown")
        get_registry().inc(
            "client.reach.failure_class",
            kind=kind,
            transient=str(result.failure in TRANSIENT_KINDS).lower())

    def _observe(self, point: VantagePoint, target: TargetSpec,
                 protocol: str, result: QueryResult) -> Observation:
        outcome = result.classify(self.scenario.expected_probe_answer())
        registry = get_registry()
        registry.inc("client.reach.outcome", protocol=protocol,
                     target=target.name, outcome=outcome.value)
        if result.response is not None:
            registry.observe("client.query.latency", result.latency_ms,
                             protocol=protocol, reuse="false")
        else:
            registry.inc("client.query.failed", protocol=protocol,
                         kind=result.failure.value
                         if result.failure else "unknown")
        return Observation(
            endpoint=point.env.label,
            platform=point.platform,
            country=point.env.country_code,
            target=target.name,
            protocol=protocol,
            outcome=outcome,
            result=result,
        )

    def _detect_interception(self, point: VantagePoint,
                             dot_results: Dict[str, QueryResult],
                             doh_results: Dict[str, QueryResult],
                             report: ReachabilityReport) -> None:
        """Finding 2.3: re-signed certificates reveal TLS interception."""
        resigned_cn = None
        dot_intercepted = False
        dot_ok = False
        for result in dot_results.values():
            if self._is_resigned(result):
                resigned_cn = result.presented_chain[0].issuer_cn
                dot_intercepted = True
                dot_ok = dot_ok or result.ok
        doh_intercepted = False
        for result in doh_results.values():
            if self._is_resigned(result):
                resigned_cn = result.presented_chain[0].issuer_cn
                doh_intercepted = True
        if resigned_cn is None:
            return
        get_registry().inc("client.reach.interception",
                           port853=str(dot_intercepted).lower(),
                           port443=str(doh_intercepted).lower())
        report.interceptions.append(InterceptionCase(
            endpoint=point.env.label,
            country=point.env.country_code,
            asn=point.env.asn,
            as_name=point.env.as_name,
            ca_common_name=resigned_cn,
            intercepts_853=dot_intercepted,
            intercepts_443=doh_intercepted,
            dot_lookup_succeeded=dot_ok,
        ))

    @staticmethod
    def _is_resigned(result: QueryResult) -> bool:
        report = result.cert_report
        if report is None or report.valid:
            return False
        return (report.has(ValidationFailure.UNTRUSTED_CA)
                and result.intercepted_by is not None)
