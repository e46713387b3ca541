"""Spool-mode sharded runs: process fabric equivalence and crash replay.

The spool fabric must be *bit-identical* to the in-process fabric (the
exchange is deterministic and application order is sorted by source
shard), and a shard worker killed mid-run must be respawned and replay
the message log to the same record.
"""

from __future__ import annotations

import json

import pytest

from repro.scenario import Scenario
from repro.sharding import run_sharded
from repro.sharding.coordinator import (
    FAULT_ENV,
    MAX_RESPAWNS,
    _write_json,
    run_sharded_detailed,
)


def _scenario() -> Scenario:
    return Scenario(
        function="sphere",
        nodes=24,
        total_evaluations=2880,
        max_cycles=30,
        engine="fast",
        repetitions=1,
        seed=19,
    )


@pytest.fixture(scope="module")
def inproc_record():
    return run_sharded(_scenario(), repetition=0, shards=2)


def test_spool_run_bit_identical_to_in_process(tmp_path, inproc_record):
    rec = run_sharded(
        _scenario(), repetition=0, shards=2, spool=tmp_path / "spool"
    )
    assert rec == inproc_record


def test_killed_shard_worker_replays_to_same_record(
    tmp_path, monkeypatch, inproc_record
):
    """SIGKILL one shard mid-run; the respawn replays the spool log."""
    monkeypatch.setenv(FAULT_ENV, "1:7")
    spool = tmp_path / "spool"
    rec, fragments = run_sharded_detailed(
        _scenario(), repetition=0, shards=2, spool=spool
    )
    # the fault genuinely fired (the marker is the once-only latch)
    assert (spool / "fault-1.fired").exists()
    assert rec == inproc_record
    assert len(fragments) == 2
    assert all(f["cycles"] == rec.cycles for f in fragments)


def test_worker_killed_before_any_message_replays_from_empty_spool(
    tmp_path, monkeypatch, inproc_record
):
    monkeypatch.setenv(FAULT_ENV, "0:0")
    spool = tmp_path / "spool"
    rec = run_sharded(_scenario(), repetition=0, shards=2, spool=spool)
    assert (spool / "fault-0.fired").exists()
    assert rec == inproc_record


def test_worker_failing_every_respawn_fails_the_run(tmp_path, monkeypatch):
    """A worker that dies on every attempt exhausts its respawn budget
    and the error names the shard, its attempts and the spool."""
    # an unparsable fault cycle makes shard 1 raise on every start
    monkeypatch.setenv(FAULT_ENV, "1:never")
    spool = tmp_path / "spool"
    with pytest.raises(RuntimeError) as err:
        run_sharded(_scenario(), repetition=0, shards=2, spool=spool)
    message = str(err.value)
    assert f"shard worker 1 failed {MAX_RESPAWNS + 1} times" in message
    assert "last exit code 1" in message
    assert str(spool) in message


def test_write_json_removes_its_temp_file_on_failure(tmp_path):
    target = tmp_path / "result.json"
    with pytest.raises(TypeError):
        _write_json(target, {"fragment": object()})
    assert list(tmp_path.iterdir()) == []
    _write_json(target, {"fragment": 1})
    assert json.loads(target.read_text()) == {"fragment": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


def test_fragments_carry_throughput(tmp_path):
    _, fragments = run_sharded_detailed(
        _scenario(), repetition=0, shards=2, spool=tmp_path / "spool"
    )
    for fragment in fragments:
        assert fragment["elapsed"] > 0
        assert fragment["node_cycles_per_second"] > 0
        assert fragment["nodes"] == 12
