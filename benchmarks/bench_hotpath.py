#!/usr/bin/env python
"""Hot-path micro-benchmarks — the perf trajectory later PRs measure against.

Times two operations the profiling pass optimised (DNS cache get/put
with telemetry, certificate-chain validation) plus one full
scan-campaign round, serial and sharded, and writes the results to
``BENCH_HOTPATH.json`` next to this file.

The ``BASELINE`` constant records the same workloads measured on the
tree *before* the hot-path pass (bound metric handles + memo caches)
landed, so the JSON carries its own before/after comparison. Throughput
regressions against the recorded baseline print warnings but never fail
the run — machine-to-machine variance makes a hard gate on ops/sec
meaningless. ``scripts/check.sh`` gates only on this script exiting
cleanly.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--workers 4]
        [--skip-campaign] [--out benchmarks/BENCH_HOTPATH.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import telemetry
from repro.core.parallel import ParallelConfig
from repro.core.scan.campaign import ScanCampaign
from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import RRType
from repro.dnswire.records import ResourceRecord
from repro.resolvers.cache import DnsCache
from repro.tlssim.certs import (
    CaStore,
    CertificateAuthority,
    make_chain,
    validate_chain,
)
from repro.world.scenario import ScenarioConfig, build_scenario

#: Ops/sec measured on the pre-optimisation tree (commit 2dab2e3, the
#: parent of the hot-path pass), same workloads, same machine class as
#: CI. The speedup_vs_baseline section of the JSON is current / these.
BASELINE = {
    "cache": 224997.8,
    "cert_validate": 233490.7,
    "campaign_round_serial_s": 1.031,
}

#: Warn when a micro-benchmark drops below this fraction of baseline.
WARN_FRACTION = 0.5


def _best_ops_per_s(fn, ops_per_call: int, repeats: int = 3,
                    target_s: float = 0.25) -> float:
    """Best-of-N throughput; calibrates the loop to ``target_s``."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= target_s / 4 or calls >= 1 << 20:
            break
        calls *= 4
    best = elapsed / calls
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / calls)
    return ops_per_call / best


# -- cache: DnsCache get/put driving the resolver.cache.* counters ---------


def bench_cache() -> float:
    telemetry.reset_registry()
    cache = DnsCache(max_entries=256)
    names = [DnsName.from_text(f"host-{index}.example.com")
             for index in range(64)]
    records = {name: (ResourceRecord.a(name, "192.0.2.1", ttl=300),)
               for name in names}
    for name in names:
        cache.put(name, RRType.A, records[name], 0, now=0.0)

    def run():
        for name in names:
            cache.get(name, RRType.A, now=1.0)
        cache.get(names[0], RRType.A, now=10_000.0)  # expired path
        cache.put(names[0], RRType.A, records[names[0]], 0, now=1.0)

    return _best_ops_per_s(run, ops_per_call=len(names) + 2)


# -- cert-validate: one trusted chain, one broken chain --------------------


def bench_cert_validate() -> float:
    root = CertificateAuthority.root("Bench Root CA")
    intermediate = root.intermediate("Bench Intermediate CA")
    store = CaStore()
    store.trust(root)
    good = make_chain(intermediate, "dns.bench.example",
                      "2019-01-01", "2020-01-01")
    expired = make_chain(intermediate, "old.bench.example",
                         "2017-01-01", "2018-01-01")
    now = 1. * 1_556_668_800  # 2019-05-01

    def run():
        validate_chain(good, store, now)
        validate_chain(expired, store, now)

    return _best_ops_per_s(run, ops_per_call=2)


# -- campaign round: the end-to-end hot loop -------------------------------


def bench_campaign_round(workers: int) -> dict:
    results = {}
    for label, parallel in (
            ("serial", None),
            (f"workers{workers}",
             ParallelConfig(workers=workers, shards=8))):
        telemetry.reset_registry()
        scenario = build_scenario(ScenarioConfig.small())
        campaign = ScanCampaign(scenario, parallel=parallel)
        start = time.perf_counter()
        round_result = campaign.run_round(0)
        elapsed = time.perf_counter() - start
        results[label] = {
            "seconds": round(elapsed, 3),
            "probed": round_result.stats.probed,
            "probes_per_s": round(round_result.stats.probed / elapsed, 1),
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the sharded campaign round")
    parser.add_argument("--skip-campaign", action="store_true",
                        help="micro-benchmarks only (fast CI gate)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_HOTPATH.json"))
    args = parser.parse_args(argv)

    current = {
        "cache": round(bench_cache(), 1),
        "cert_validate": round(bench_cert_validate(), 1),
    }
    if not args.skip_campaign:
        current["campaign_round"] = bench_campaign_round(args.workers)

    speedup = {key: round(current[key] / BASELINE[key], 2)
               for key in ("cache", "cert_validate")}
    if "campaign_round" in current:
        serial_s = current["campaign_round"]["serial"]["seconds"]
        speedup["campaign_round_serial"] = round(
            BASELINE["campaign_round_serial_s"] / serial_s, 2)

    document = {
        "generated_by": "benchmarks/bench_hotpath.py",
        "workers": args.workers,
        "units": "ops_per_s (campaign_round: seconds per round)",
        "baseline": BASELINE,
        "current": current,
        "speedup_vs_baseline": speedup,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(json.dumps(document, indent=2, sort_keys=True))
    for key in ("cache", "cert_validate"):
        if current[key] < BASELINE[key] * WARN_FRACTION:
            print(f"WARNING: {key} at {current[key]:.0f} ops/s is below "
                  f"{WARN_FRACTION:.0%} of the recorded baseline "
                  f"({BASELINE[key]:.0f} ops/s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
