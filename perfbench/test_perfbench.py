"""The benchmark's own tests, at a few dozen nodes.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenario import Session
from repro.utils.rng import SeedSequenceTree

from perfbench.measure import (
    END_TO_END,
    PER_LAYER,
    Tally,
    tail_percentile,
    traced_pass,
    untraced_pass,
)
from perfbench.tracing import Tracer, layer_totals, self_times
from perfbench.workloads import WORKLOADS, check_record, make_workload

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_pass_end_to_end(name, tmp_path):
    workload = make_workload(name, seed=3, tiny=True)
    tally = Tally()
    metrics, extras = untraced_pass(workload, 0.0, tmp_path, tally, min_runs=2)
    assert tally.failed == 0
    # Two timed runs, plus the threaded-fabric comparison when sharded.
    assert tally.attempted == (3 if workload.shards > 1 else 2)
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert metrics["setup_s"] < metrics["wall_s"]
    assert extras["runs"] == 2
    assert ("spool_mb" in extras) == (workload.shards > 1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_reports_every_layer_metric(name, tmp_path):
    workload = make_workload(name, seed=3, tiny=True)
    tally = Tally()
    metrics = traced_pass(workload, 0.0, tmp_path, tally)
    assert tally.failed == 0
    assert set(metrics) == set(PER_LAYER)
    assert metrics["init.engine_s"] > 0
    assert metrics["kernels.batch_eval_points"] > 0
    assert 0 < metrics["trace.coverage"] <= 1
    sharded = workload.shards > 1
    hostile = name == "event-churn-hostile"
    for key in ("shard.compute_s", "shard.collect_s", "spool.files"):
        assert (metrics[key] > 0) == sharded, key
    assert (metrics["adversary.false_offers"] > 0) == hostile
    assert (metrics["topology.on_join_calls"] > 0) == hostile


def test_self_times_on_a_synthetic_span_tree():
    # engine.loop [0, 10] with children begin_cycle [1, 5] and
    # gossip_targets [6, 7]; begin_cycle has child merge [2, 4].
    spans = [
        ["engine.loop", -1, 0.0, 10.0, 0],
        ["topology.begin_cycle", 0, 1.0, 5.0, 0],
        ["kernels.merge_candidates", 1, 2.0, 4.0, 0],
        ["topology.gossip_targets", 0, 6.0, 7.0, 0],
        ["init.engine", -1, 10.0, 13.0, 0],
        ["init.engine", 4, 10.5, 12.5, 0],
        ["rng_tree", 5, 11.0, 11.5, 0],
        ["rng_tree", -1, 13.0, 13.25, 0],
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0, 1.0, 1.5, 0.5, 0.25]
    totals = layer_totals(spans)
    assert totals["topology.begin_cycle"]["self_s"] == 2.0
    assert totals["engine.loop"]["self_s"] == 5.0
    # Construction is counted once, and its parts are told apart from
    # the same calls outside a constructor.
    assert totals["init.engine"]["s"] == 3.0
    assert totals["init.engine.nested"]["s"] == 2.0
    assert totals["init.rng_tree"] == {"s": 0.5, "self_s": 0.5, "calls": 1,
                                       "count": 0}
    assert totals["rng_tree"]["calls"] == 1
    assert totals["top"]["s"] == 13.25


def test_tracer_restores_what_it_patched():
    original = SeedSequenceTree.__dict__["rng"]
    tracer = Tracer()
    with tracer.patched([(SeedSequenceTree, "rng", "rng_tree", None)]):
        SeedSequenceTree(1).rng("a")
        assert SeedSequenceTree.__dict__["rng"] is not original
    assert SeedSequenceTree.__dict__["rng"] is original
    assert [span[0] for span in tracer.spans] == ["rng_tree"]


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, pct = tail_percentile(samples, guaranteed=40)
    assert pct == 75.0 and value == 30.0
    value, pct = tail_percentile(list(range(1, 401)), guaranteed=400)
    assert pct == 95.0 and value == 380


def test_checks_reject_a_tampered_record():
    workload = make_workload("cycle-newscast", seed=5, tiny=True)
    record = Session(workload.scenario).run().records[0]
    assert check_record(workload, record) == []
    tampered = [
        dataclasses.replace(record, total_evaluations=record.total_evaluations - 1),
        dataclasses.replace(record, stop_reason="cycle cap"),
        dataclasses.replace(record, quality=float("nan")),
        dataclasses.replace(record, quality=2 * workload.max_quality),
    ]
    for bad in tampered:
        assert check_record(workload, bad)
    tally = Tally()
    assert not tally.check("tampered", check_record(workload, tampered[0]))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_seed_is_the_only_varying_input():
    a = make_workload("shard-spool", seed=7)
    assert make_workload("shard-spool", seed=7) == a
    assert make_workload("shard-spool", seed=8).scenario == a.scenario.with_(seed=8)
    with pytest.raises(ValueError):
        make_workload("no-such-workload", seed=1)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle-newscast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


_SPAWN_AND_STOP = """
import multiprocessing, sys
sys.path.insert(0, "perfbench")
from run import _stop_resource_tracker

if __name__ == "__main__":
    proc = multiprocessing.get_context("spawn").Process(target=print)
    proc.start()
    proc.join()
    from multiprocessing import resource_tracker
    pid = resource_tracker._resource_tracker._pid
    _stop_resource_tracker()
    print(pid)
"""


def test_spawned_processes_leave_no_tracker_behind(tmp_path):
    script = tmp_path / "spawn_and_stop.py"
    script.write_text(_SPAWN_AND_STOP)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=HERE.parent,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    tracker = int(proc.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)  # reaped before the script exited
