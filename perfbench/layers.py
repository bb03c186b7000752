"""Where each layer is measured, and how its metrics are derived.

:data:`PROBES` lists the public functions the traced run wraps, one
span name per layer boundary; :data:`METRICS` lists every per-layer
metric the benchmark reports, in ``BENCHMARK.json`` order, with its
unit. :func:`layer_metrics` turns one traced iteration (its spans, the
hooks' counters and the program's own telemetry registry) into values
for every metric; a layer a workload never enters reports 0.

Notes on what each span covers:

* ``netsim.request`` wraps ``TcpConnection.request`` only:
  ``TlsChannel.request`` always delegates to it, so wrapping both would
  count each encrypted request twice. The span includes the server
  side the request drives (frontend decode, cache, backend, encode).
* ``doe.doh`` wraps ``DohClient.query``, which ``probe_template`` (DoH
  discovery) also goes through.
* ``tlssim.validate`` wraps ``validate_chain`` where the DoT, DoH and
  DoQ clients look it up; ``memo_hit_ratio`` is the share of
  ``CaStore.memo_get`` lookups that returned a memoised report, and
  ``dnswire.encode.fresh_ratio`` the share of ``Message.encode`` calls
  on a message object never encoded before. A memo hit therefore shows
  as a memo hit, never as codec or validation speed.
* Pool workers are forked processes: their spans stay in the worker.
  On ``campaign-sharded`` the scan layers run there, so they show only
  as time inside ``parallel.dispatch``; registry-backed counts
  (``resolvers.cache.evictions``, ``client.fourproto.fallbacks``) are
  merged back by the program and include worker traffic.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, Iterable, List, Tuple

from tracing import Probe, Tracer, aggregate

DOE_PROTOCOLS = ("do53", "dot", "doh", "doq", "dnscrypt")


# -- hooks -----------------------------------------------------------------


def _encode_fresh(tracer: Tracer, args, kwargs) -> None:
    """Count an encode of a message object never encoded before."""
    message = args[0]
    seen = tracer.notes.setdefault("encoded", {})
    key = id(message)
    if key not in seen:
        tracer.count("dnswire.encode.fresh")
        # The entry leaves with the object, before its id can be reused.
        seen[key] = weakref.ref(message,
                                lambda _, key=key: seen.pop(key, None))


def _counted(key: str, test):
    def after(tracer: Tracer, args, result) -> None:
        if test(args, result):
            tracer.count(key)
    return after


def _memo_get(tracer: Tracer, args, result) -> None:
    tracer.count("tlssim.validate.memo_lookups")
    if result is not None:
        tracer.count("tlssim.validate.memo_hits")


def _lease(tracer: Tracer, args, kwargs) -> None:
    tracer.notes.setdefault("leases", set()).add((args[1], args[2]))


def _sweep(tracer: Tracer, args, result) -> None:
    tracer.count("scan.sweep.addresses", len(result.open_addresses))


def _doh_probes(tracer: Tracer, args, result) -> None:
    tracer.count("scan.doh.probes", len(result))
    tracer.count("scan.doh.confirmed",
                 sum(1 for record in result if record.is_doh))


def _dispatch(tracer: Tracer, args, result) -> None:
    decisions = args[0].decisions
    if decisions and not decisions[-1]["in_process"]:
        tracer.count("parallel.dispatch.pooled")


def _retry(tracer: Tracer, args, result) -> None:
    attempts = getattr(result, "attempts", 1)
    if attempts > 1:
        tracer.count("retry.retried")


def _network_built(tracer: Tracer, args, result) -> None:
    tracer.notes.setdefault("networks", {})[id(result)] = weakref.ref(result)


def read_network_peaks(tracer: Tracer, args=(), kwargs=None) -> None:
    """Fold the live networks' host-cache peaks in before a release
    drops them (and once more when the iteration ends)."""
    for ref in list(tracer.notes.get("networks", {}).values()):
        network = ref()
        if network is not None:
            watch_network(tracer, network)


def watch_network(tracer: Tracer, network) -> None:
    peak = getattr(network, "host_cache_peak", 0)
    previous = tracer.counters.get("netsim.host_cache_peak", 0.0)
    tracer.counters["netsim.host_cache_peak"] = max(previous, peak)


def _checkpoint_before(tracer: Tracer, args, kwargs) -> None:
    path = args[0].path
    tracer.notes["checkpoint_size"] = (os.path.getsize(path)
                                       if os.path.exists(path) else 0)


def _checkpoint_after(tracer: Tracer, args, result) -> None:
    grown = os.path.getsize(args[0].path) - tracer.notes["checkpoint_size"]
    tracer.count("campaign.checkpoint.bytes", grown)


def _reused(tracer: Tracer, args, result) -> None:
    if getattr(result, "reused_connection", False):
        tracer.count("doe.reused")


def _doe(target: str, protocol: str) -> Probe:
    return Probe(target, f"doe.{protocol}", after=_reused)


def _render(target: str) -> Probe:
    return Probe(target, "analysis.render")


PROBES: Tuple[Probe, ...] = (
    # dnswire
    Probe("repro.dnswire.message:Message.encode", "dnswire.encode",
          before=_encode_fresh),
    Probe("repro.dnswire.message:Message.decode", "dnswire.decode"),
    Probe("repro.dnswire.zone:Zone.lookup", "dnswire.zone_lookup"),
    # resolvers
    Probe("repro.resolvers.cache:DnsCache.get", "resolvers.cache.get",
          after=_counted("resolvers.cache.hits",
                         lambda args, result: result is not None)),
    Probe("repro.resolvers.cache:DnsCache.put", "resolvers.cache.put"),
    Probe("repro.resolvers.backends:RecursiveBackend.resolve",
          "resolvers.backend"),
    Probe("repro.resolvers.universe:DnsUniverse.authoritative_lookup",
          "resolvers.authoritative"),
    # tlssim
    Probe("repro.doe.dot:validate_chain", "tlssim.validate"),
    Probe("repro.doe.doh:validate_chain", "tlssim.validate"),
    Probe("repro.doe.doq:validate_chain", "tlssim.validate"),
    Probe("repro.tlssim.certs:CaStore.memo_get", None, after=_memo_get),
    # netsim
    Probe("repro.netsim.transport:TcpConnection.open", "netsim.tcp_open"),
    Probe("repro.netsim.transport:TlsChannel.handshake",
          "netsim.tls_handshake",
          after=_counted("netsim.tls_handshake.resumed",
                         lambda args, result: args[0].resumed)),
    Probe("repro.netsim.transport:TcpConnection.request", "netsim.request"),
    Probe("repro.netsim.transport:UdpExchange.exchange", "netsim.udp"),
    # doe
    _doe("repro.doe.do53:Do53Client.query_udp", "do53"),
    _doe("repro.doe.do53:Do53Client.query_tcp", "do53"),
    _doe("repro.doe.dot:DotClient.query", "dot"),
    _doe("repro.doe.doh:DohClient.query", "doh"),
    _doe("repro.doe.doq:DoqClient.query", "doq"),
    _doe("repro.doe.dnscrypt:DnsCryptClient.query", "dnscrypt"),
    # serving
    Probe("repro.serving.workload:WorkloadGenerator.batches",
          "serving.workload.gen", generator=True),
    Probe("repro.serving.pool:ConnectionReusePool.query",
          "serving.pool.query", before=_lease),
    # core/scan
    Probe("repro.core.scan.zmap:ZmapScanner.sweep", "scan.sweep",
          after=_sweep),
    Probe("repro.core.scan.dot_scan:DotDiscovery.probe_one", "scan.probe",
          after=_counted("scan.probe.dot",
                         lambda args, result: result.is_dot)),
    Probe("repro.core.scan.doh_scan:DohDiscovery.probe_many", "scan.doh",
          after=_doh_probes),
    Probe("repro.core.scan.campaign:group_into_providers", "scan.group"),
    # world
    Probe("repro.world.scenario:Scenario.network_for_round",
          "world.round_build", after=_network_built),
    Probe("repro.world.scenario:Scenario.pristine_network_for_round",
          "world.round_build", after=_network_built),
    Probe("repro.world.scenario:Scenario.fresh_network_for_round",
          "world.round_build", after=_network_built),
    Probe("repro.world.scenario:Scenario.release_rounds_before",
          "world.release", before=read_network_peaks),
    # campaign
    Probe("repro.campaign.fragment:RoundFragment.from_round",
          "campaign.fragment"),
    Probe("repro.campaign.fragment:FragmentAccumulator.fold",
          "campaign.fold"),
    Probe("repro.campaign.checkpoint:CheckpointStore.append",
          "campaign.checkpoint", before=_checkpoint_before,
          after=_checkpoint_after),
    # core/parallel
    Probe("repro.core.parallel:ParallelConfig.dispatch", "parallel.dispatch",
          after=_dispatch),
    Probe("repro.core.scan.campaign:merge_outcomes", "parallel.merge"),
    Probe("repro.core.client.reachability:merge_outcomes", "parallel.merge"),
    Probe("repro.core.client.fourproto:merge_outcomes", "parallel.merge"),
    Probe("repro.serving.engine:merge_outcomes", "parallel.merge"),
    # core/client
    Probe("repro.core.client.reachability:ReachabilityStudy.measure_endpoint",
          "client.reach"),
    Probe("repro.core.client.fourproto:FourProtoStudy.measure_endpoint",
          "client.fourproto"),
    # core/retry
    Probe("repro.core.retry:RetryPolicy.run_query", "retry", after=_retry),
    Probe("repro.core.retry:RetryPolicy.call", "retry", after=_retry),
    # analysis
    _render("repro.campaign.fragment:FragmentAccumulator.table2_text"),
    _render("repro.campaign.fragment:FragmentAccumulator.figure3_series"),
    _render("repro.campaign.fragment:FragmentAccumulator.figure4_series"),
    _render("repro.analysis.tables:table4_text"),
    _render("repro.analysis.tables:fourproto_table_text"),
)


def _calls_busy(prefix: str) -> List[Tuple[str, str]]:
    return [(f"{prefix}.calls", "count"), (f"{prefix}.busy_s", "s")]


#: Every per-layer metric, in report order, with its unit.
METRICS: Tuple[Tuple[str, str], ...] = tuple(
    [("bench.trace_overhead", "ratio")]
    + _calls_busy("dnswire.encode") + [("dnswire.encode.fresh_ratio", "ratio")]
    + _calls_busy("dnswire.decode")
    + _calls_busy("dnswire.zone_lookup")
    + _calls_busy("resolvers.cache.get")
    + [("resolvers.cache.hit_ratio", "ratio"),
       ("resolvers.cache.evictions", "count")]
    + _calls_busy("resolvers.cache.put")
    + _calls_busy("resolvers.backend")
    + _calls_busy("resolvers.authoritative")
    + _calls_busy("tlssim.validate")
    + [("tlssim.validate.memo_lookups", "count"),
       ("tlssim.validate.memo_hit_ratio", "ratio")]
    + _calls_busy("netsim.tcp_open")
    + _calls_busy("netsim.tls_handshake")
    + [("netsim.tls_handshake.resumed_ratio", "ratio")]
    + _calls_busy("netsim.request")
    + _calls_busy("netsim.udp")
    + [("netsim.host_cache_peak", "count")]
    + [metric for protocol in DOE_PROTOCOLS
       for metric in _calls_busy(f"doe.{protocol}")]
    + [("doe.reuse_ratio", "ratio")]
    + [("serving.workload.gen_s", "s"),
       ("serving.pool.query.calls", "count"),
       ("serving.pool.query.self_s", "s"),
       ("serving.pool.reuse_ratio", "ratio"),
       ("serving.pool.expired", "count"),
       ("serving.pool.leases", "count")]
    + _calls_busy("scan.sweep") + [("scan.sweep.addresses", "count")]
    + _calls_busy("scan.probe") + [("scan.probe.yield", "ratio")]
    + [("scan.doh.busy_s", "s"),
       ("scan.doh.confirmed", "count"),
       ("scan.doh.probes_per_confirmed", "ratio"),
       ("scan.group.busy_s", "s")]
    + _calls_busy("world.round_build") + [("world.release.busy_s", "s")]
    + [("campaign.fragment.busy_s", "s"),
       ("campaign.fold.busy_s", "s")]
    + _calls_busy("campaign.checkpoint")
    + [("campaign.checkpoint.bytes", "B")]
    + _calls_busy("parallel.dispatch")
    + [("parallel.dispatch.pooled", "count"),
       ("parallel.merge.busy_s", "s")]
    + _calls_busy("client.reach")
    + _calls_busy("client.fourproto")
    + [("client.fourproto.fallbacks", "count"),
       ("retry.calls", "count"),
       ("retry.retry_ratio", "ratio"),
       ("analysis.render.busy_s", "s")]
)


#: Per-layer metrics where higher is better; for every other one (times,
#: call counts, waste ratios) lower is better.
HIGHER_IS_BETTER = frozenset({
    "resolvers.cache.hit_ratio", "tlssim.validate.memo_hit_ratio",
    "netsim.tls_handshake.resumed_ratio", "doe.reuse_ratio",
    "serving.pool.reuse_ratio", "scan.sweep.addresses", "scan.probe.yield",
    "scan.doh.confirmed"})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, registry,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`METRICS` value (bar the overhead) for one iteration.

    ``registry`` is the program's telemetry registry for the iteration;
    ``extra`` carries counts the workload reads off its own objects
    (the serving pool's public counters).
    """
    spans = aggregate(tracer.spans)
    counters = tracer.counters
    values: Dict[str, float] = {}
    for name, unit in METRICS:
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s"):
            values[name] = float(spans.get(prefix, {}).get(field, 0.0))

    def calls(prefix: str) -> float:
        return values[f"{prefix}.calls"]

    doe_calls = sum(calls(f"doe.{protocol}") for protocol in DOE_PROTOCOLS)
    pool_queries = extra.get("serving.pool.reused", 0.0) + extra.get(
        "serving.pool.handshakes", 0.0)
    values.update({
        "dnswire.encode.fresh_ratio": _ratio(
            counters.get("dnswire.encode.fresh", 0.0),
            calls("dnswire.encode")),
        "resolvers.cache.hit_ratio": _ratio(
            counters.get("resolvers.cache.hits", 0.0),
            calls("resolvers.cache.get")),
        "resolvers.cache.evictions": registry.total(
            "resolver.cache.eviction"),
        "tlssim.validate.memo_lookups": counters.get(
            "tlssim.validate.memo_lookups", 0.0),
        "tlssim.validate.memo_hit_ratio": _ratio(
            counters.get("tlssim.validate.memo_hits", 0.0),
            counters.get("tlssim.validate.memo_lookups", 0.0)),
        "netsim.tls_handshake.resumed_ratio": _ratio(
            counters.get("netsim.tls_handshake.resumed", 0.0),
            calls("netsim.tls_handshake")),
        "netsim.host_cache_peak": counters.get("netsim.host_cache_peak", 0.0),
        "doe.reuse_ratio": _ratio(counters.get("doe.reused", 0.0), doe_calls),
        "serving.workload.gen_s": spans.get(
            "serving.workload.gen", {}).get("busy_s", 0.0),
        "serving.pool.reuse_ratio": _ratio(
            extra.get("serving.pool.reused", 0.0), pool_queries),
        "serving.pool.expired": extra.get("serving.pool.expired", 0.0),
        "serving.pool.leases": float(len(tracer.notes.get("leases", ()))),
        "scan.sweep.addresses": counters.get("scan.sweep.addresses", 0.0),
        "scan.probe.yield": _ratio(counters.get("scan.probe.dot", 0.0),
                                   calls("scan.probe")),
        "scan.doh.confirmed": counters.get("scan.doh.confirmed", 0.0),
        "scan.doh.probes_per_confirmed": _ratio(
            counters.get("scan.doh.probes", 0.0),
            counters.get("scan.doh.confirmed", 0.0)),
        "campaign.checkpoint.bytes": counters.get(
            "campaign.checkpoint.bytes", 0.0),
        "parallel.dispatch.pooled": counters.get(
            "parallel.dispatch.pooled", 0.0),
        "client.fourproto.fallbacks": registry.total("fourproto.fallback"),
        "retry.retry_ratio": _ratio(counters.get("retry.retried", 0.0),
                                    calls("retry")),
    })
    return values


def mean_metrics(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric mean over traced iterations (each one identical work)."""
    rows = list(rows)
    return {name: sum(row.get(name, 0.0) for row in rows) / len(rows)
            for name, _ in METRICS}
