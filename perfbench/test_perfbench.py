"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import results
import run
import tracing
from tracing import Probe, Tracer, aggregate, self_times
from workloads import Outcome, Workload, build_workloads

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

run._import_program()


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_merged_children_clipped_to_parent():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),    # overlaps b
        _span("b", 3.0, 6.0, 0),
        _span("c", 8.0, 12.0, 0),   # runs past its parent's end
        _span("d", 2.0, 3.0, 1),    # nested under a
    ]
    # root: children cover [1, 6] and [8, 10] -> 7 of 10
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_aggregate_times_a_reentered_layer_once():
    spans = [
        _span("x", 0.0, 5.0, -1),
        _span("x", 1.0, 2.0, 0),
        _span("y", 2.0, 4.0, 0),
        _span("x", 2.5, 3.0, 2),    # x under y under x
    ]
    totals = aggregate(spans)
    assert totals["x"]["calls"] == 1
    assert totals["x"]["busy_s"] == pytest.approx(5.0)
    assert totals["x"]["self_s"] == pytest.approx(2.0 + 1.0 + 0.5)
    assert totals["y"] == {"calls": 1, "busy_s": pytest.approx(2.0),
                           "self_s": pytest.approx(1.5)}


def test_spans_of_one_top_level_call_share_a_group():
    tracer = Tracer()
    for _ in range(2):
        outer = tracer.open("outer")
        tracer.close(tracer.open("inner"))
        tracer.close(outer)
    assert [span[tracing.GROUP] for span in tracer.spans] == [0, 0, 1, 1]
    assert [span[tracing.PARENT] for span in tracer.spans] == [-1, 0, -1, 2]


def _encode_workload() -> Workload:
    """A tiny workload whose timed work goes through a probed method."""
    from repro.dnswire.builder import make_query
    from repro.dnswire.names import DnsName

    def work(seed):
        message = make_query(DnsName.from_text("example.test"), 1,
                             msg_id=seed)
        message.encode()
        message.encode()
        return Outcome(attempted=1, failed=0, digests={"d": "x"}, ops=1)

    return Workload("encode", "ops", setup=lambda seed: seed, run=work,
                    close=lambda state: None)


def _originals():
    return [tracing._resolve(probe.target)[2] for probe in layers.PROBES]


def test_wrappers_are_gone_after_a_traced_run():
    before = _originals()
    workload = _encode_workload()
    traced = run.measure_traced(workload, seed=7, seconds=0.0)
    assert traced["layers"]["dnswire.encode.calls"] == 2
    # the memo hit on the second encode is visible as such
    assert traced["layers"]["dnswire.encode.fresh_ratio"] == 0.5
    assert traced["missing_probes"] == []
    assert _originals() == before

    from repro.dnswire.message import Message
    tracer = Tracer()
    probe = Probe("repro.dnswire.message:Message.encode", "dnswire.encode")
    tracing.install([probe], tracer).remove()
    run.measure(workload, seed=7, seconds=0.0)
    assert tracer.spans == []
    assert vars(Message)["encode"] is before[0]


def test_install_keeps_class_and_static_methods_callable():
    from repro.dnswire.message import Message
    from repro.netsim.transport import UdpExchange
    tracer = Tracer()
    installation = tracing.install([
        Probe("repro.dnswire.message:Message.decode", "decode"),
        Probe("repro.netsim.transport:UdpExchange.exchange", "udp"),
        Probe("repro.nowhere:missing", "gone"),
    ], tracer)
    try:
        assert isinstance(vars(Message)["decode"], classmethod)
        assert isinstance(vars(UdpExchange)["exchange"], staticmethod)
        from repro.dnswire.builder import make_query
        from repro.dnswire.names import DnsName
        wire = make_query(DnsName.from_text("a.test"), 1, msg_id=3).encode()
        assert Message.decode(wire).header.msg_id == 3
    finally:
        installation.remove()
    assert installation.missing == ["repro.nowhere:missing"]
    assert [span[tracing.NAME] for span in tracer.spans] == ["decode"]


def _outcome(digest: str, failed: int = 0) -> Outcome:
    return Outcome(attempted=100, failed=failed,
                   digests={"scorecard_sha256": digest}, ops=100)


def test_digest_mismatch_fails_every_operation():
    outcomes = [_outcome("aa"), _outcome("aa")]
    problems = results.check_outcomes(outcomes,
                                      pinned={"scorecard_sha256": "bb"})
    scored = results.score(outcomes, problems)
    assert problems
    assert scored["correct"] is False
    assert scored["failed"] == scored["attempted"] == 200
    assert scored["failed_frac"] == 1.0


def test_matching_digests_count_only_real_failures():
    outcomes = [_outcome("aa", failed=3), _outcome("aa", failed=1)]
    problems = results.check_outcomes(outcomes,
                                      pinned={"scorecard_sha256": "aa"},
                                      reference={"scorecard_sha256": "aa"})
    assert problems == []
    assert results.score(outcomes, problems)["failed_frac"] == 4 / 200


def test_iterations_that_disagree_fail_the_run():
    outcomes = [_outcome("aa"), _outcome("ab")]
    problems = results.check_outcomes(outcomes)
    assert problems
    assert results.score(outcomes, problems)["failed_frac"] == 1.0


def test_invariant_violation_fails_the_run():
    broken = _outcome("aa")
    broken.problems.append("served 9 + shed 0 != offered 10")
    problems = results.check_outcomes([broken])
    assert results.score([broken], problems)["failed_frac"] == 1.0


def test_metric_and_workload_names_are_well_formed():
    declared = [entry["name"] for key in ("workloads", "end_to_end",
                                          "per_layer")
                for entry in BENCHMARK[key]]
    assert len(declared) == len(set(declared))
    in_code = ([name for name, _ in layers.METRICS] + list(run.E2E_UNITS)
               + list(build_workloads("")))
    for name in declared + in_code:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        build_workloads(""))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.E2E_UNITS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.METRICS)
    for metric in BENCHMARK["per_layer"]:
        expected = ("higher" if metric["name"] in layers.HIGHER_IS_BETTER
                    else "lower")
        assert metric["better"] == expected


def test_layer_metrics_cover_every_declared_metric():
    from repro.telemetry import MetricsRegistry
    values = layers.layer_metrics(Tracer(), MetricsRegistry(), {})
    assert set(values) | {"bench.trace_overhead"} == {
        name for name, _ in layers.METRICS}


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
