#!/usr/bin/env python
"""Execution-layer benchmark: serial vs sharded campaign runs.

Unlike the artefact benches, this file measures the *execution layer*.
The same seeded campaign runs twice:

* **serial** — the unsharded path (no parallel layer at all);
* **parallel** — sharded at ``--workers N`` through the persistent
  worker pool with worker-side scenario caches and the compact wire
  format.

The gate is correctness: the sharded run must discover the same world
as the serial one. ``vs_serial`` (``serial_s / parallel_s``) and
``cpu_count`` are recorded but never gated — at 2 workers, two runs
on one 2-vCPU host gave 0.77 and 1.05, far too noisy for a floor;
speed claims belong to ``perfbench`` (``--workload campaign-sharded``).

``validate_parallel_document`` is the schema gate for the committed
``BENCH_PARALLEL.json`` (mirroring the serving validator);
``scripts/check.sh`` runs it via ``--validate``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_campaign.py
        [--workers 4] [--out benchmarks/BENCH_PARALLEL.json]
        [--validate PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import telemetry
from repro.core.parallel import (
    DEFAULT_SHARDS,
    ParallelConfig,
    shutdown_worker_pool,
)
from repro.core.scan.campaign import ScanCampaign
from repro.world.scenario import ScenarioConfig, build_scenario

ROUNDS = 2
SEED = 23


def _config() -> ScenarioConfig:
    return ScenarioConfig(seed=SEED, vantage_scale=0.006,
                          background_sample_size=40, url_dataset_noise=500,
                          intercepted_clients=4, hijacked_routers=2)


def _timed_campaign(parallel):
    telemetry.reset_registry()
    try:
        scenario = build_scenario(_config())
        started = time.perf_counter()
        result = ScanCampaign(scenario, parallel=parallel).run(
            rounds=ROUNDS, include_doh=True)
        return time.perf_counter() - started, result
    finally:
        telemetry.reset_registry()


def _sharded_config(workers: int, shards: int) -> ParallelConfig:
    # oversubscribe so the measured pool genuinely forks at the
    # requested width even on small CI machines; min_fanout_items=0 so
    # every dispatch goes through the pool.
    return ParallelConfig(workers=workers, shards=shards,
                          min_fanout_items=0, oversubscribe=True)


def run_parallel_bench(workers: int = 4, log=lambda text: None) -> dict:
    """Run the two legs and return the BENCH_PARALLEL.json document.

    Asserts the execution-layer contract along the way: the sharded
    world must agree with the serial one on everything the shard plan
    does not re-partition.
    """
    shards = max(DEFAULT_SHARDS, workers)
    log(f"serial leg ({ROUNDS} rounds)...")
    serial_s, serial = _timed_campaign(None)
    log(f"sharded leg ({workers} workers)...")
    shutdown_worker_pool()
    parallel_s, sharded = _timed_campaign(_sharded_config(workers, shards))
    shutdown_worker_pool()

    # The sharded path re-partitions rng streams, so latencies differ
    # from the serial run — but the discovered world must agree.
    assert ([len(r.resolvers) for r in sharded.rounds]
            == [len(r.resolvers) for r in serial.rounds])
    assert ({r.address for round_ in sharded.rounds
             for r in round_.resolvers}
            == {r.address for round_ in serial.rounds
                for r in round_.resolvers})
    assert len(sharded.doh_records) == len(serial.doh_records)

    return {
        "campaign": {
            "rounds": ROUNDS,
            "seed": SEED,
            "workers": workers,
            "shards": shards,
            "cpu_count": os.cpu_count() or 1,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "vs_serial": (round(serial_s / parallel_s, 3)
                          if parallel_s else None),
        },
    }


def validate_parallel_document(document: dict) -> None:
    """Schema gate for a BENCH_PARALLEL.json document.

    Raises :class:`ValueError` on the first violation. Wall-clock
    magnitudes and ratios are machine facts and never gated.
    """
    if "campaign" not in document:
        raise ValueError("missing key 'campaign'")
    campaign = document["campaign"]
    for key in ("rounds", "seed", "workers", "shards", "cpu_count",
                "serial_s", "parallel_s", "vs_serial"):
        if key not in campaign:
            raise ValueError(f"campaign: missing {key!r}")
    for key in ("serial_s", "parallel_s"):
        value = campaign[key]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"campaign: non-positive {key}: {value!r}")
    if campaign["workers"] < 1 or campaign["shards"] < 1:
        raise ValueError("campaign: workers and shards must be >= 1")


def test_campaign_sharded_vs_serial(bench_workers, parallel_pairs):
    """Pytest entry point: runs the bench, lands the pair in the
    session's BENCH_PARALLEL.json, and validates the document."""
    document = run_parallel_bench(bench_workers)
    parallel_pairs["campaign"] = document["campaign"]
    validate_parallel_document(document)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the sharded leg "
                             "(default: 4)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_PARALLEL.json"))
    parser.add_argument("--validate", metavar="PATH", default=None,
                        help="validate an existing document and exit")
    args = parser.parse_args(argv)

    if args.validate is not None:
        try:
            with open(args.validate, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            validate_parallel_document(document)
        except (OSError, ValueError) as error:
            print(f"error: {args.validate}: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid parallel benchmark document")
        return 0

    document = run_parallel_bench(
        max(1, args.workers), log=lambda text: print(text, file=sys.stderr))
    validate_parallel_document(document)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=2, sort_keys=True))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
