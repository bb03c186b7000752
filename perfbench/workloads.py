"""The five workloads: what each sets up, times and checks.

Each workload is a :class:`Workload` with three steps per iteration:
``setup(seed)`` builds everything the timed work would otherwise build
lazily (timed as ``setup_s``), ``run(state)`` does the timed work and
returns an :class:`Outcome` (ops done, ops failed, output digests),
and ``close(state)`` releases what the iteration holds, untimed.
Every iteration starts from a fresh build, so all iterations of one
seed do identical work and must produce identical digests.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

SERVE_DURATION_S = 10.0
CAMPAIGN_ROUNDS = 4
STUDIES_VANTAGE_SCALE = 0.01
SHARDED_WORKERS = 2
SHARDED_SHARDS = 8


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one timed iteration did."""

    #: Work units offered (served queries, rounds, vantages).
    attempted: int
    #: Units that failed (shed or non-ok queries).
    failed: int
    #: Output digests the check compares.
    digests: Dict[str, str]
    #: Invariant violations found while producing the outcome.
    problems: List[str] = field(default_factory=list)
    #: Work units completed, the numerator of ``ops_per_ref_s``.
    ops: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: The unit ``ops_per_ref_s`` counts, and its name in the printout.
    op_metric: str
    setup: Callable[[int], object]
    run: Callable[[object], Outcome]
    close: Callable[[object], None]
    #: Counts read off the workload's own objects for the trace.
    counters: Callable[[object], Dict[str, float]] = lambda state: {}
    networks: Callable[[object], list] = lambda state: []
    #: Name of the workload whose pinned digests this one must match.
    pinned_as: Optional[str] = None


# -- serving ---------------------------------------------------------------


@dataclass
class ServeShape:
    clients: int
    names: int
    zipf_s: float
    cache_entries: int
    name_ttl_s: int
    keepalive_s: float
    default_idle_s: float
    protocol_mix: Dict[str, float]


SERVE_WARM = ServeShape(clients=64, names=2048, zipf_s=1.1,
                        cache_entries=4096, name_ttl_s=120, keepalive_s=30.0,
                        default_idle_s=30.0,
                        protocol_mix={"do53": 1.0, "dot": 1.0, "doh": 1.0})
SERVE_COLD = ServeShape(clients=8192, names=2048, zipf_s=0.7,
                        cache_entries=256, name_ttl_s=30, keepalive_s=5.0,
                        default_idle_s=5.0,
                        protocol_mix={"do53-tcp": 1.0, "dot": 1.0,
                                      "doh": 1.0})


@dataclass
class ServeState:
    seed: int
    world: object
    engine: object
    spec: object


def _serve_setup(shape: ServeShape) -> Callable[[int], ServeState]:
    def setup(seed: int) -> ServeState:
        from repro.serving.engine import ServingConfig, ServingEngine
        from repro.serving.workload import WorkloadSpec
        from repro.serving.world import ServingWorld, ServingWorldConfig
        world = ServingWorld.build(ServingWorldConfig(
            seed=seed, clients=shape.clients, names=shape.names,
            cache_entries=shape.cache_entries, name_ttl_s=shape.name_ttl_s,
            keepalive_s=shape.keepalive_s))
        engine = ServingEngine(world, ServingConfig(
            concurrency=256, max_queue=1024,
            default_idle_s=shape.default_idle_s))
        spec = WorkloadSpec(
            duration_s=SERVE_DURATION_S, qps_start=500.0,
            clients=shape.clients, names=shape.names, zipf_s=shape.zipf_s,
            protocol_mix=dict(shape.protocol_mix))
        return ServeState(seed, world, engine, spec)
    return setup


def _serve_run(state: ServeState) -> Outcome:
    from repro.serving.scorer import ResolverScorecard
    report = state.engine.run(state.spec)
    card = ResolverScorecard.from_report(report, seed=state.seed)
    digest = hashlib.sha256(card.to_json_bytes()).hexdigest()
    ok = sum(stats.ok for stats in report.protocols.values())
    problems = []
    if report.served + report.shed != report.offered:
        problems.append(f"served {report.served} + shed {report.shed} "
                        f"!= offered {report.offered}")
    return Outcome(attempted=report.offered,
                   failed=report.shed + (report.served - ok),
                   digests={"scorecard_sha256": digest},
                   problems=problems, ops=report.served)


def _serve_close(state: ServeState) -> None:
    state.engine.close()


def _serve_networks(state: ServeState) -> list:
    return [state.world.network]


def _serve_counters(state: ServeState) -> Dict[str, float]:
    pool = state.engine.pool
    return {"serving.pool.reused": pool.reused,
            "serving.pool.handshakes": pool.handshakes,
            "serving.pool.expired": pool.expired}


# -- campaigns -------------------------------------------------------------


def campaign_config(seed: int):
    """The longitudinal benchmark's small world: churn, certificate
    rotation and linear adoption all on."""
    from repro.world.scenario import ScenarioConfig
    return ScenarioConfig(
        seed=seed, scan_rounds=CAMPAIGN_ROUNDS, vantage_scale=0.006,
        background_sample_size=40, url_dataset_noise=500,
        intercepted_clients=4, hijacked_routers=2, churn_rate=0.05,
        cert_rotation_rounds=max(2, CAMPAIGN_ROUNDS // 10),
        adoption_curve="linear")


@dataclass
class CampaignState:
    engine: object
    checkpoint: str


def _campaign_setup(workdir: str, workers: int) -> Callable[[int],
                                                            CampaignState]:
    def setup(seed: int) -> CampaignState:
        from repro.campaign import CampaignEngine
        from repro.core.parallel import ParallelConfig
        from repro.world.scenario import build_scenario
        scenario = build_scenario(campaign_config(seed))
        parallel = None
        if workers > 1:
            parallel = ParallelConfig(workers=workers, shards=SHARDED_SHARDS)
            # The sharded path sweeps the read-only pristine world.
            scenario.pristine_network_for_round(0)
        else:
            scenario.network_for_round(0)
        checkpoint = os.path.join(workdir, f"campaign-{os.getpid()}.jsonl")
        engine = CampaignEngine(scenario, parallel=parallel,
                                checkpoint_path=checkpoint)
        return CampaignState(engine, checkpoint)
    return setup


def _campaign_run(state: CampaignState) -> Outcome:
    summary = state.engine.run(include_doh=True)
    accumulator = summary.accumulator
    table2 = accumulator.table2_text()
    figures = repr((accumulator.figure3_series(),
                    accumulator.figure4_series()))
    problems = []
    if not summary.completed:
        problems.append("campaign stopped before its last round")
    rounds = summary.executed_rounds + 1  # the final DoH pass
    return Outcome(attempted=rounds, failed=0,
                   digests={"campaign_digest": summary.digest,
                            "table2_sha256": sha256_text(table2),
                            "figures_sha256": sha256_text(figures)},
                   problems=problems, ops=rounds)


def _campaign_close(state: CampaignState) -> None:
    from repro.core.parallel import shutdown_worker_pool
    # Every iteration forks its own pool, so no iteration inherits the
    # previous one's warm worker caches.
    shutdown_worker_pool()
    if os.path.exists(state.checkpoint):
        os.remove(state.checkpoint)


# -- client studies --------------------------------------------------------


def _studies_setup(seed: int):
    from repro.analysis.report import ExperimentSuite
    from repro.world.scenario import ScenarioConfig
    suite = ExperimentSuite.build(ScenarioConfig(
        seed=seed, vantage_scale=STUDIES_VANTAGE_SCALE))
    suite.proxyrack_network()
    suite.zhima_network()
    suite.scenario.client_network()
    return suite


def _studies_run(suite) -> Outcome:
    from repro.analysis import tables
    reachability = suite.reachability()
    fourproto = suite.fourproto()
    table4 = tables.table4_text(reachability)
    fourproto_table = tables.fourproto_table_text(fourproto)
    # Vantages measured: every (platform, endpoint) of the reachability
    # study, plus every endpoint the battery kept (it skips endpoints
    # without enough uptime left).
    vantages = (len({(observation.platform, observation.endpoint)
                     for observation in reachability.observations})
                + len({timing.endpoint for timing in fourproto.timings}))
    return Outcome(attempted=vantages, failed=0,
                   digests={"table4_sha256": sha256_text(table4),
                            "fourproto_sha256": sha256_text(fourproto_table)},
                   ops=vantages)


def _studies_networks(suite) -> list:
    return [suite.scenario.client_network()]


def build_workloads(workdir: str) -> Dict[str, Workload]:
    """All workloads by name; ``workdir`` holds checkpoint files."""
    return {
        "serve-warm": Workload(
            "serve-warm", "qps", _serve_setup(SERVE_WARM), _serve_run,
            _serve_close, counters=_serve_counters,
            networks=_serve_networks),
        "serve-cold": Workload(
            "serve-cold", "qps", _serve_setup(SERVE_COLD), _serve_run,
            _serve_close, counters=_serve_counters,
            networks=_serve_networks),
        "campaign": Workload(
            "campaign", "rounds_per_s", _campaign_setup(workdir, 1),
            _campaign_run, _campaign_close),
        "campaign-sharded": Workload(
            "campaign-sharded", "rounds_per_s",
            _campaign_setup(workdir, SHARDED_WORKERS), _campaign_run,
            _campaign_close, pinned_as="campaign"),
        "studies": Workload(
            "studies", "vantages_per_s", _studies_setup, _studies_run,
            lambda state: None, networks=_studies_networks),
    }


def reference_digests(workloads: Dict[str, Workload], workload: Workload,
                      seed: int) -> Optional[Dict[str, str]]:
    """Digests of the workload a ``pinned_as`` workload must reproduce,
    computed by one untimed run of that workload at ``seed``."""
    if workload.pinned_as is None:
        return None
    twin = workloads[workload.pinned_as]
    state = twin.setup(seed)
    try:
        return twin.run(state).digests
    finally:
        twin.close(state)
