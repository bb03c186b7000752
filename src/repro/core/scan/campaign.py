"""The full scan campaign: repeated sweeps from Feb 1 to May 1, 2019.

Orchestrates one :class:`DotDiscovery` per round (every 10 days) plus a
DoH discovery pass, and aggregates the per-round results into the data
behind Table 2 and Figures 3-4.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.parallel import (
    ParallelConfig,
    Shard,
    merge_outcomes,
)
from repro.core.scan.doh_scan import DohDiscovery, DohScanRecord
from repro.core.scan.dot_scan import DotDiscovery, DotScanRecord, SweepStats
from repro.core.scan.providers import (
    ProviderGroup,
    ProviderStats,
    group_into_providers,
    provider_stats,
)
from repro.core.scan.zmap import SweepResult, ZmapScanner, merge_sweeps
from repro.errors import CampaignError
from repro.netsim.clock import format_date
from repro.netsim.rand import SeededRng
from repro.telemetry import get_registry, get_tracer
from repro.world.scenario import (
    SELF_BUILT_IP,
    Scenario,
    ScenarioConfig,
    build_scenario,
)


@dataclass
class RoundResult:
    """Everything one scan round produced."""

    round_index: int
    date: float
    stats: SweepStats
    records: List[DotScanRecord]
    groups: List[ProviderGroup] = field(default_factory=list)

    @property
    def resolvers(self) -> List[DotScanRecord]:
        return [record for record in self.records if record.is_dot]

    @property
    def date_text(self) -> str:
        return format_date(self.date)

    def country_counts(self) -> Counter:
        return Counter(record.country for record in self.resolvers)

    def provider_statistics(self) -> ProviderStats:
        return provider_stats(self.groups)


def rank_country_growth(first_counts: Counter, last_counts: Counter,
                        top_n: int) -> List[Tuple[str, int, int,
                                                  Optional[float]]]:
    """Table 2 rows over two per-country resolver Counters.

    Countries are ranked on the *union* of the two scans — by the larger
    of the two counts, then by the final count, then by code — so a
    country absent from the first round but large at the end still makes
    the table. A new entrant (zero first-round count) reports ``None``
    growth: there is no base to grow from, and renderers must flag it
    explicitly rather than print a misleading 0%.
    """
    codes = set(first_counts) | set(last_counts)
    ranked = sorted(
        codes,
        key=lambda code: (-max(first_counts.get(code, 0),
                               last_counts.get(code, 0)),
                          -last_counts.get(code, 0), code))
    rows: List[Tuple[str, int, int, Optional[float]]] = []
    for code in ranked[:top_n]:
        first_count = first_counts.get(code, 0)
        last_count = last_counts.get(code, 0)
        growth: Optional[float]
        if first_count:
            growth = (last_count - first_count) / first_count * 100.0
        elif last_count:
            growth = None  # new entrant: no base count to grow from
        else:
            growth = 0.0
        rows.append((code, first_count, last_count, growth))
    return rows


@dataclass
class CampaignResult:
    """All rounds plus the DoH discovery."""

    rounds: List[RoundResult]
    doh_records: List[DohScanRecord] = field(default_factory=list)

    @property
    def first(self) -> RoundResult:
        if not self.rounds:
            raise CampaignError(
                "campaign has no completed rounds; run at least one round "
                "before reading per-round results")
        return self.rounds[0]

    @property
    def last(self) -> RoundResult:
        if not self.rounds:
            raise CampaignError(
                "campaign has no completed rounds; run at least one round "
                "before reading per-round results")
        return self.rounds[-1]

    def country_growth(self, top_n: int = 10
                       ) -> List[Tuple[str, int, int, Optional[float]]]:
        """Table 2: (country, first count, last count, growth % or None).

        Ranked on the union of the first and last scans; ``None`` growth
        marks a new entrant (see :func:`rank_country_growth`). An empty
        campaign yields an empty table rather than crashing mid-report.
        """
        if not self.rounds:
            return []
        return rank_country_growth(self.first.country_counts(),
                                   self.last.country_counts(), top_n)

    def resolvers_per_round(self) -> List[Tuple[str, int]]:
        """Figure 3's x-axis series: (date, open DoT resolver count)."""
        return [(round_result.date_text, len(round_result.resolvers))
                for round_result in self.rounds]

    def working_doh(self) -> List[DohScanRecord]:
        return [record for record in self.doh_records if record.is_doh]


# -- shard workers (module-level and picklable for the fork pool) ----------


@dataclass(frozen=True)
class _SweepTask:
    """Sweep one contiguous slice of the round's host registry."""

    config: ScenarioConfig
    round_index: int
    shard: Shard
    port: int = 853


@dataclass(frozen=True)
class _ProbeTask:
    """DoT-probe one slice of the merged (shuffled) open-address list."""

    config: ScenarioConfig
    round_index: int
    addresses: Tuple[str, ...]
    base_index: int
    shard: Shard


@dataclass(frozen=True)
class _DohTask:
    """DoH-probe one slice of the deduplicated candidate URL list."""

    config: ScenarioConfig
    urls: Tuple[str, ...]
    shard: Shard


# -- worker-side scenario cache ---------------------------------------------
#
# Persistent pool workers (and the in-process fallback) reuse one built
# scenario per config across every dispatch: building the scenario —
# providers, CAs, vantage populations, the URL corpus — dominates shard
# cost, and it is a pure function of the picklable config. Networks are
# NOT reused from `Scenario.network_for_round` here: that cache hands
# out mutable worlds, and a shard must never observe another shard's
# clock advances. Shards instead build fresh (often partial) networks,
# or share the read-only pristine instance for sweeps.

_SCENARIO_CACHE: "OrderedDict[tuple, Scenario]" = OrderedDict()
_SCENARIO_CACHE_MAX = 4


def _config_key(config: ScenarioConfig) -> tuple:
    return tuple(sorted(vars(config).items()))


def cached_scenario(config: ScenarioConfig) -> Scenario:
    """The worker's scenario for this config (LRU-cached, built once)."""
    key = _config_key(config)
    scenario = _SCENARIO_CACHE.get(key)
    if scenario is None:
        scenario = build_scenario(config)
        _SCENARIO_CACHE[key] = scenario
        while len(_SCENARIO_CACHE) > _SCENARIO_CACHE_MAX:
            _SCENARIO_CACHE.popitem(last=False)
    else:
        _SCENARIO_CACHE.move_to_end(key)
    return scenario


def prime_scenario(scenario: Scenario) -> None:
    """Seed the worker-side cache with an already-built scenario.

    The sharded entry points call this before dispatching: the
    in-process fallback then reuses the caller's scenario instead of
    building a second one, and a persistent pool forked after the prime
    inherits the built world — certificate-chain memos included — via
    fork copy-on-write. Pure optimisation: scenario building is a
    deterministic function of the config, so a primed and a
    worker-built scenario are interchangeable (a pool forked before a
    config was primed builds that scenario itself).
    """
    key = _config_key(scenario.config)
    if _SCENARIO_CACHE.get(key) is not scenario:
        _SCENARIO_CACHE[key] = scenario
        while len(_SCENARIO_CACHE) > _SCENARIO_CACHE_MAX:
            _SCENARIO_CACHE.popitem(last=False)
    else:
        _SCENARIO_CACHE.move_to_end(key)


def shard_scenario(config: ScenarioConfig, round_index: int, shard: Shard,
                   *, only_addresses=None, pristine: bool = False):
    """The world one shard runs against, faults scoped to the shard.

    Scenarios carry live networks (with lambdas) and so never cross the
    process boundary — each worker builds its own from the picklable
    config (once, via :func:`cached_scenario`) and hands every shard a
    network that is deterministic by construction: a shared read-only
    pristine instance for sweeps (``pristine=True``), or a fresh —
    possibly partial, via ``only_addresses`` — build for mutating
    measurements. The fault injector is reinstalled on the shard's own
    rng path so its order-dependent per-rule streams depend only on
    (seed, shard plan), never on which worker runs the shard.
    """
    scenario = cached_scenario(config)
    # Campaigns dispatch rounds in ascending order, so a pooled worker
    # can drop its per-round caches for rounds that can no longer be
    # dispatched — this keeps worker memory flat over 100-round
    # longitudinal campaigns. Releasing is cache eviction only: a
    # released round rebuilds deterministically if ever requested again.
    scenario.release_rounds_before(round_index - 1)
    if pristine:
        network = scenario.pristine_network_for_round(round_index)
    else:
        network = scenario.fresh_network_for_round(
            round_index, only_addresses=only_addresses)
    plan = scenario.fault_plan_obj()
    if not plan.is_empty:
        from repro.netsim.faults import FaultInjector
        network.install_fault_injector(FaultInjector(
            plan, scenario.rng.fork(shard.rng_path)
            .fork(f"faults-{round_index}")))
    return scenario, network


def _sweep_shard(task: _SweepTask) -> SweepResult:
    # Sweeps are read-only over the host registry, so every sweep shard
    # shares the worker's pristine per-round network.
    scenario, network = shard_scenario(task.config, task.round_index,
                                       task.shard, pristine=True)
    campaign_rng = scenario.rng.fork("campaign")
    scanner = ZmapScanner(
        network, campaign_rng.fork(f"zmap-{task.round_index}"),
        retry_policy=scenario.retry_policy(op="scan.zmap"))
    return scanner.sweep(task.port, task.round_index, shard=task.shard)


def _probe_shard(task: _ProbeTask) -> List[DotScanRecord]:
    # DoT probing mutates its targets (clock advances, backend rng), so
    # each shard gets a fresh partial world holding just its addresses —
    # every host builds from its own stateless rng fork, so the partial
    # world is byte-identical to the same hosts inside a full build.
    scenario, network = shard_scenario(
        task.config, task.round_index, task.shard,
        only_addresses=frozenset(task.addresses))
    campaign_rng = scenario.rng.fork("campaign")
    scanner = ZmapScanner(
        network, campaign_rng.fork(f"zmap-{task.round_index}"),
        retry_policy=scenario.retry_policy(op="scan.zmap"))
    discovery = DotDiscovery(
        network, scanner, campaign_rng.fork(f"dot-{task.round_index}"),
        scenario.trust_store, scenario.probe_origin,
        scenario.expected_probe_answer(),
        retry_policy=scenario.retry_policy(op="dot.probe"))
    return discovery.probe_all(list(task.addresses), task.round_index,
                               base_index=task.base_index)


def _doh_shard(task: _DohTask) -> List[DohScanRecord]:
    final_round = task.config.scan_rounds - 1
    # DoH candidates only ever reach the providers' DoH fronts and the
    # self-built resolver (lookalike/noise hosts have no bootstrap A
    # record), so the shard world holds just those.
    doh_world = cached_scenario(task.config).doh_addresses()
    scenario, network = shard_scenario(
        task.config, final_round, task.shard,
        only_addresses=frozenset(doh_world | {SELF_BUILT_IP}))
    discovery = DohDiscovery(
        network,
        scenario.rng.fork("campaign").fork("doh").fork(task.shard.rng_path),
        scenario.trust_store, scenario.bootstrap, scenario.probe_origin,
        scenario.expected_probe_answer(),
        public_list=scenario.public_doh_list(),
        retry_policy=scenario.retry_policy(op="doh.probe"))
    return discovery.probe_many(list(task.urls))


class ScanCampaign:
    """Runs the repeated discovery over a scenario's timeline.

    With a :class:`ParallelConfig` the per-round sweep, the DoT probe
    pass, and the DoH discovery each fan out over deterministic shards;
    without one the historical serial path runs unchanged.
    """

    def __init__(self, scenario: Scenario, rng: Optional[SeededRng] = None,
                 parallel: Optional[ParallelConfig] = None):
        self.scenario = scenario
        self.rng = rng or scenario.rng.fork("campaign")
        self.parallel = parallel

    def run_round(self, round_index: int) -> RoundResult:
        if self.parallel is not None:
            return self._run_round_sharded(round_index)
        scenario = self.scenario
        network = scenario.network_for_round(round_index)
        with get_tracer().span("campaign.round", clock=network.clock.now,
                               round=round_index):
            scanner = ZmapScanner(
                network, self.rng.fork(f"zmap-{round_index}"),
                background_total=scenario.background_open853(round_index),
                retry_policy=scenario.retry_policy(op="scan.zmap"))
            discovery = DotDiscovery(
                network, scanner, self.rng.fork(f"dot-{round_index}"),
                scenario.trust_store, scenario.probe_origin,
                scenario.expected_probe_answer(),
                retry_policy=scenario.retry_policy(op="dot.probe"))
            records, stats = discovery.discover(round_index)
            result = RoundResult(
                round_index=round_index,
                date=scenario.scan_dates()[round_index],
                stats=stats,
                records=records,
            )
            result.groups = group_into_providers(result.resolvers)
            registry = get_registry()
            registry.inc("scan.rounds")
            registry.set_gauge("scan.round.dot_resolvers",
                              stats.dot_resolvers, round=str(round_index))
            return result

    def _run_round_sharded(self, round_index: int) -> RoundResult:
        """One round as two deterministic fan-outs: sweep, then probe.

        The sweep partitions the host registry; its fragments merge into
        the canonical shuffled address list, which the probe pass then
        partitions again. Both plans depend only on (seed, shard count),
        so every byte of the result is invariant under worker count.
        """
        scenario = self.scenario
        parallel = self.parallel
        prime_scenario(scenario)
        # The parent only needs a host count and a clock reading here;
        # the shared read-only pristine network provides both without
        # building (and caching) a mutable world nobody will probe.
        network = scenario.pristine_network_for_round(round_index)
        with get_tracer().span("campaign.round", clock=network.clock.now,
                               round=round_index):
            host_count = network.address_count()
            sweep_tasks = [
                _SweepTask(scenario.config, round_index, shard)
                for shard in parallel.plan(host_count)]
            fragments = merge_outcomes(
                parallel.dispatch(_sweep_shard, sweep_tasks, host_count))
            sweep = merge_sweeps(
                fragments, self.rng.fork(f"zmap-{round_index}"),
                background_total=scenario.background_open853(round_index))
            probe_tasks = [
                _ProbeTask(scenario.config, round_index,
                           tuple(shard.slice(sweep.open_addresses)),
                           shard.start, shard)
                for shard in parallel.plan(len(sweep.open_addresses))]
            record_lists = merge_outcomes(
                parallel.dispatch(_probe_shard, probe_tasks,
                                  len(sweep.open_addresses)))
            records = [record for shard_records in record_lists
                       for record in shard_records]
            resolvers = [record for record in records if record.is_dot]
            stats = SweepStats(
                total_open_estimate=sweep.total_open_estimate,
                probed=len(records),
                dot_resolvers=len(resolvers))
            result = RoundResult(
                round_index=round_index,
                date=scenario.scan_dates()[round_index],
                stats=stats,
                records=records,
            )
            result.groups = group_into_providers(result.resolvers)
            registry = get_registry()
            registry.inc("scan.rounds")
            registry.set_gauge("scan.round.dot_resolvers",
                               stats.dot_resolvers, round=str(round_index))
            return result

    def _run_doh_sharded(self) -> List[DohScanRecord]:
        scenario = self.scenario
        parallel = self.parallel
        prime_scenario(scenario)
        network = scenario.client_network()
        discovery = DohDiscovery(
            network, self.rng.fork("doh"), scenario.trust_store,
            scenario.bootstrap, scenario.probe_origin,
            scenario.expected_probe_answer(),
            public_list=scenario.public_doh_list(),
            retry_policy=scenario.retry_policy(op="doh.probe"))
        candidates = discovery.candidate_urls(scenario.url_dataset())
        with get_tracer().span("doh.discovery", clock=network.clock.now,
                               candidates=len(candidates)):
            tasks = [
                _DohTask(scenario.config, tuple(shard.slice(candidates)),
                         shard)
                for shard in parallel.plan(len(candidates))]
            record_lists = merge_outcomes(
                parallel.dispatch(_doh_shard, tasks, len(candidates)))
            return [record for shard_records in record_lists
                    for record in shard_records]

    def run_doh_discovery(self) -> List[DohScanRecord]:
        if self.parallel is not None:
            return self._run_doh_sharded()
        scenario = self.scenario
        network = scenario.client_network()
        discovery = DohDiscovery(
            network, self.rng.fork("doh"), scenario.trust_store,
            scenario.bootstrap, scenario.probe_origin,
            scenario.expected_probe_answer(),
            public_list=scenario.public_doh_list(),
            retry_policy=scenario.retry_policy(op="doh.probe"))
        return discovery.discover(scenario.url_dataset())

    def run(self, rounds: Optional[int] = None,
            include_doh: bool = True) -> CampaignResult:
        """Run the whole campaign (all rounds by default)."""
        total = (self.scenario.config.scan_rounds if rounds is None
                 else rounds)
        # Stamp the campaign span with the scenario timeline (the first
        # scan date) rather than a per-round network clock, so the span
        # exists before any network is built.
        start = self.scenario.scan_dates()[0]
        if self.parallel is not None:
            # A campaign run opens a fresh adaptive-decision log:
            # re-running with the same ParallelConfig must record the
            # same decisions, not an accumulating history — same-seed
            # reruns stay byte-identical (studies dispatched after the
            # campaign still append theirs to the same log).
            self.parallel.decisions.clear()
            # Build every round's shared read-only world before the
            # first dispatch: the persistent pool forks on that first
            # dispatch, so workers inherit all of them copy-on-write
            # instead of each rebuilding the later rounds' worlds.
            prime_scenario(self.scenario)
            for index in range(total):
                self.scenario.pristine_network_for_round(index)
        with get_tracer().span("campaign", clock=lambda: start,
                               rounds=total, include_doh=include_doh):
            round_results = [self.run_round(index) for index in range(total)]
            doh_records = self.run_doh_discovery() if include_doh else []
            return CampaignResult(round_results, doh_records)
