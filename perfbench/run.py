"""The repository benchmark: five workloads, timed end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 2019 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it print every
metric by name and unit, with the machine stamp; the full result
document (per-iteration figures, digests, stamp) is written to
``.perfbench/result-<workload>.json`` and, for a traced run, the spans
of its last traced iteration to ``.perfbench/trace-<workload>.jsonl.gz``.
The program is imported from ``src/``; without it the benchmark exits
with status 2 and prints no result.

Load model
----------
One process, no threads. ``serve-*`` feeds the serving engine an
arrival schedule that is open-loop in *simulated* time at a fixed
offered rate (500 qps), but in wall time the benchmark is a single
closed-loop caller: one query is processed at a time, as fast as the
code allows. Every workload therefore reports work completed per second
at a stated input size. The only extra processes are the two pool
workers of ``campaign-sharded``, forked afresh each iteration and
stopped after it.

A run repeats *iterations* until ``--seconds`` of wall time have
passed, at least two: each iteration times the calibration loop, sets
up from scratch (timed for ``setup_s``), then does the workload's fixed
work (timed for ``ops_per_ref_s``). Extra set-ups run until there are
three, so ``setup_s`` is always a median of at least three. Every
iteration of one seed does identical work and must produce identical
digests.

Reference seconds
-----------------
The shared hosts this runs on swing in speed by up to 2x within
minutes. Before each iteration the benchmark times a fixed pure-Python
loop in a fresh child interpreter (``calibrate.py``: standard library
only, so no change to the program moves it) and scales that iteration's
wall times by ``REF_CALIBRATION_S / calibration``. On a host where the
loop takes 9.3 ms (a quiet 2-vCPU x86-64 host, CPython 3.11) a
reference second is a wall second. The result document keeps the raw
wall times and calibration readings of every iteration.

Workloads
---------
``serve-warm``  64 clients, 2,048 names, Zipf s=1.1, cache 4,096, TTL
    120 s, do53:dot:doh = 1:1:1, 10 s of simulated traffic (5,000
    queries). The hit path: most answers come from the cache and almost
    every stream query reuses a lease, so codec, cache-get and
    pool-lookup cost dominate.
``serve-cold``  8,192 clients, 2,048 names, Zipf s=0.7, cache 256, TTL
    30 s, keepalive and idle timeout 5 s, do53-tcp:dot:doh = 1:1:1, 10 s
    (5,000 queries). The miss/write path: about a third of lookups hit,
    most ``DnsCache.put`` calls evict, and most queries pay a fresh
    TCP/TLS handshake.
``campaign``  ``CampaignEngine`` over the longitudinal world (vantage
    scale 0.006, churn 0.05, certificate rotation, linear adoption), 4
    rounds plus the final DoH pass, serial, with a checkpoint file. The
    scan pipeline: world builds, sweep, DoT probes with chain
    validation, provider grouping, fragment fold, fsynced checkpoints.
``campaign-sharded``  the same campaign through ``ParallelConfig(
    workers=2, shards=8)``: the only workload that runs ``core/parallel``
    (shard plans, the fork pool, wire merge); ``campaign`` is its bypass
    twin and its digests must match.
``studies``  ``ExperimentSuite`` at vantage scale 0.01: reachability
    (ProxyRack and Zhima) then the four-protocol battery. The client
    layer: the five-protocol ``doe`` clients, middleboxes, interception
    and retries.

End-to-end metrics (untraced runs)
----------------------------------
``ops_per_ref_s`` (1/s, higher is better): median over iterations of
work completed per reference second -- served queries on ``serve-*``,
rounds plus the DoH pass on ``campaign*``, vantage measurements across
both studies on ``studies``. The same median in wall time is printed
under the name that fits the workload: ``qps``, ``rounds_per_s`` or
``vantages_per_s``. ``setup_s`` (s, reference seconds): median set-up
time, everything before the first timed operation, including the world
build the first operation would otherwise pay for; on ``serve-*`` it is
dominated by zone lookups that scan the zone linearly, so it grows
quadratically in the name count. ``peak_rss_mb`` (MB): peak resident
memory of the benchmark process. ``failed_frac`` (printed, and carried
by the result's ``failed``/``attempted``): shed or non-ok queries over
offered ones on ``serve-*``; 1.0 for any run whose output check fails.
It is 0 on a correct run, so it is not a bounded metric.

Per-layer metrics (traced runs) and what they should move
---------------------------------------------------------
``calls`` is a count, ``busy_s`` the inclusive wall time inside the
wrapped function, ``self_s`` that time minus the part covered by child
spans; all are per iteration, times in reference seconds. Each ratio's
base is the ``calls`` (or the count) named beside it.
``bench.trace_overhead`` is the traced iterations' median timed work
over the untraced ones', in reference seconds, minus 1.

Each entry: layer (module), its metrics, the end-to-end metric it should
move and on which workload, and where the prediction is *no change*.

``dnswire``  encode.calls/.busy_s/.fresh_ratio, decode.calls/.busy_s
    moves ops_per_ref_s on serve-warm (the largest self-time share of a
    hit query) and on campaign.
``dnswire``  zone_lookup.calls/.busy_s
    moves setup_s on serve-*; flat: ops_per_ref_s.
``resolvers``  cache.hit_ratio/.evictions, cache.get.calls/.busy_s,
    cache.put.calls/.busy_s
    moves ops_per_ref_s on serve-cold; flat on serve-warm (no evictions).
``resolvers``  backend.calls/.busy_s, authoritative.calls/.busy_s
    moves ops_per_ref_s on serve-cold and studies.
``tlssim``  validate.calls/.busy_s/.memo_lookups/.memo_hit_ratio
    moves ops_per_ref_s on serve-cold and campaign; flat on serve-warm
    (a few dozen handshakes).
``netsim``  tcp_open.*, tls_handshake.*/.resumed_ratio, request.*,
    udp.*, host_cache_peak
    moves ops_per_ref_s on serve-cold, studies and campaign.
``doe``  doe.{do53,dot,doh,doq,dnscrypt}.calls/.busy_s, reuse_ratio
    moves ops_per_ref_s on serve-* and studies (doq and dnscrypt run
    only there).
``serving``  workload.gen_s, pool.query.calls/.self_s,
    pool.reuse_ratio/.expired/.leases
    moves ops_per_ref_s on serve-*; peak_rss_mb on serve-cold (one lease
    per client and protocol, held for the run).
``core/scan``  scan.sweep.calls/.busy_s/.addresses,
    scan.probe.calls/.busy_s/.yield, scan.doh.busy_s/.confirmed/
    .probes_per_confirmed, scan.group.busy_s
    moves ops_per_ref_s on campaign and campaign-sharded; flat on serve-*.
``world``  round_build.calls/.busy_s, release.busy_s
    moves ops_per_ref_s and setup_s on campaign*.
``campaign``  fragment.busy_s, fold.busy_s, checkpoint.calls/.busy_s/.bytes
    moves ops_per_ref_s on campaign*.
``core/parallel``  dispatch.calls/.pooled/.busy_s, merge.busy_s
    moves ops_per_ref_s on campaign-sharded; flat on campaign (never
    called there).
``core/client``  reach.calls/.busy_s, fourproto.calls/.busy_s/.fallbacks
    moves ops_per_ref_s on studies.
``core/retry``  retry.calls/.retry_ratio
    moves ops_per_ref_s and failed_frac on studies.
``analysis``  render.busy_s
    moves ops_per_ref_s on campaign and studies.

Where each metric is measured is listed in ``layers.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import layers
import results
import tracing
from workloads import build_workloads, reference_digests

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

MIN_ITERATIONS = 2
MIN_SETUPS = 3
#: A run never starts another iteration past this, whatever the minimum.
HARD_STOP_S = 120.0

E2E_UNITS = {"ops_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program() -> None:
    """Put ``src/`` first on the path; raise if the program is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


@dataclass
class Timing:
    """One iteration's wall times, and the host speed measured before
    it."""

    calibration_s: float
    setup_s: float
    #: None for a set-up-only sample.
    wall_s: Optional[float] = None
    ops: int = 0

    def ref(self, seconds: float) -> float:
        """``seconds`` as reference seconds (see ``results.calibrate``)."""
        return seconds * results.REF_CALIBRATION_S / self.calibration_s


def _iteration(workload, seed: int, work: bool = True, tracer=None):
    """Calibrate, set up, and (with ``work``) do the timed work.

    Returns ``(timing, outcome, extra)``; with a ``tracer``, ``extra``
    holds the counts the workload reads off its own objects, and the
    iteration's networks report their peaks.
    """
    from repro import telemetry
    gc.collect()
    calibration_s = results.calibrate()
    telemetry.reset_registry()
    started = perf_counter()
    state = workload.setup(seed)
    timing = Timing(calibration_s, perf_counter() - started)
    outcome, extra = None, {}
    try:
        if work:
            started = perf_counter()
            outcome = workload.run(state)
            timing.wall_s = perf_counter() - started
            timing.ops = outcome.ops
        if tracer is not None:
            extra = workload.counters(state)
            for network in workload.networks(state):
                layers.watch_network(tracer, network)
            layers.read_network_peaks(tracer)
    finally:
        workload.close(state)
    return timing, outcome, extra


def _keep_going(started: float, seconds: float, done: int,
                minimum: int) -> bool:
    elapsed = perf_counter() - started
    if elapsed >= HARD_STOP_S:
        return False
    return elapsed < seconds or done < minimum


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced iterations until ``seconds`` have passed, then extra
    set-ups until there are :data:`MIN_SETUPS`."""
    timings: List[Timing] = []
    outcomes = []
    started = perf_counter()
    while _keep_going(started, seconds, len(timings), MIN_ITERATIONS):
        timing, outcome, _ = _iteration(workload, seed)
        timings.append(timing)
        outcomes.append(outcome)
    setups = list(timings)
    while len(setups) < MIN_SETUPS:
        setups.append(_iteration(workload, seed, work=False)[0])
    return {"timings": timings, "setups": setups, "outcomes": outcomes}


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Pairs of one untraced and one traced iteration, until ``seconds``
    have passed (at least one pair).

    The wrappers exist only during the traced iteration of each pair;
    per-layer values are means over the traced iterations.
    """
    from repro import telemetry
    untraced: List[Timing] = []
    traced: List[Timing] = []
    outcomes, rows = [], []
    started = perf_counter()
    while _keep_going(started, seconds, len(traced), 1):
        timing, outcome, _ = _iteration(workload, seed)
        untraced.append(timing)
        outcomes.append(outcome)
        tracer = tracing.Tracer()
        installation = tracing.install(layers.PROBES, tracer)
        try:
            timing, outcome, extra = _iteration(workload, seed,
                                                tracer=tracer)
        finally:
            installation.remove()
        traced.append(timing)
        outcomes.append(outcome)
        row = layers.layer_metrics(tracer, telemetry.get_registry(), extra)
        for name, unit in layers.METRICS:
            if unit == "s":
                row[name] = timing.ref(row[name])
        rows.append(row)
    values = layers.mean_metrics(rows)
    values["bench.trace_overhead"] = (
        statistics.median([t.ref(t.wall_s) for t in traced])
        / statistics.median([t.ref(t.wall_s) for t in untraced]) - 1.0)
    return {"untraced": untraced, "traced": traced, "outcomes": outcomes,
            "layers": values, "tracer": tracer,
            "missing_probes": installation.missing}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _expected(workload, seed: int) -> Dict[str, str]:
    document = json.loads(EXPECTED.read_text())
    if seed != document["seed"]:
        return {}
    return document["digests"].get(workload.pinned_as or workload.name, {})


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict,
                                                                     dict]:
    """Measure one workload; returns (final line, result document)."""
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    workloads = build_workloads(str(WORKDIR / "tmp"))
    workload = workloads[name]
    measured = (measure_traced if trace else measure)(workload, seed, seconds)
    outcomes = measured["outcomes"]
    pinned = _expected(workload, seed)
    reference = None if pinned else reference_digests(workloads, workload,
                                                      seed)
    problems = results.check_outcomes(outcomes, pinned, reference)
    scored = results.score(outcomes, problems)
    document = {
        "workload": name, "op_metric": workload.op_metric,
        "seed": seed, "seconds": seconds,
        "trace": int(trace), "stamp": results.machine_stamp(ROOT),
        "check": {"problems": problems, "digests": outcomes[0].digests,
                  "pinned": bool(pinned),
                  "reference": reference is not None},
        **scored,
    }
    if trace:
        metrics = {metric: {"value": measured["layers"][metric],
                            "unit": unit}
                   for metric, unit in layers.METRICS}
        document.update({
            "untraced": [asdict(t) for t in measured["untraced"]],
            "traced": [asdict(t) for t in measured["traced"]],
            "trace_overhead": measured["layers"]["bench.trace_overhead"],
            "missing_probes": measured["missing_probes"],
        })
        trace_path = WORKDIR / f"trace-{name}.jsonl.gz"
        measured["tracer"].write_jsonl(str(trace_path), {
            "workload": name, "seed": seed,
            "fields": ["name", "start_s", "end_s", "parent", "group"]})
        document["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        timings, setups = measured["timings"], measured["setups"]
        values = {
            "ops_per_ref_s": statistics.median(
                [t.ops / t.ref(t.wall_s) for t in timings]),
            "setup_s": statistics.median(
                [t.ref(t.setup_s) for t in setups]),
            "peak_rss_mb": _peak_rss_mb()}
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in E2E_UNITS.items()}
        document.update({
            # the same figure in plain wall time, under the workload's name
            workload.op_metric: statistics.median(
                [t.ops / t.wall_s for t in timings]),
            "wall_setup_s": statistics.median([t.setup_s for t in setups]),
            "iterations": [asdict(t) for t in timings],
            "setups": [asdict(t) for t in setups],
        })
    document["metrics"] = metrics
    final = {"correct": scored["correct"], "attempted": scored["attempted"],
             "failed": scored["failed"], "metrics": metrics}
    return final, document


def _print_report(document: dict) -> None:
    stamp = document["stamp"]
    print(f"perfbench {document['workload']} seed={document['seed']} "
          f"trace={document['trace']} cpu_count={stamp['cpu_count']} "
          f"python={stamp['python']} platform={stamp['platform']} "
          f"commit={stamp['commit']} source={stamp['source_sha256'][:16]}")
    if "iterations" in document:
        print(f"  {document['op_metric']} = "
              f"{document[document['op_metric']]:.6g} 1/s (wall)")
        print(f"  setup_s = {document['wall_setup_s']:.6g} s (wall)")
    for name, metric in document["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {document['failed_frac']:.6g} ratio "
          f"({document['failed']}/{document['attempted']})")
    if document["check"]["problems"]:
        for problem in document["check"]["problems"]:
            print(f"  check FAILED: {problem}")
    else:
        print("  check ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    names = sorted(build_workloads(str(WORKDIR / "tmp")))
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(names)}", file=sys.stderr)
        return 2
    try:
        final, document = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        from repro.core.parallel import shutdown_worker_pool
        shutdown_worker_pool()
    (WORKDIR / f"result-{args.workload}.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    _print_report(document)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
