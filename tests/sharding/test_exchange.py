"""Exchange fabrics: both implementations honor one barrier contract."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sharding import exchange as exchange_module
from repro.sharding.exchange import (
    InProcessExchange,
    ShardExchangeAborted,
    ShardExchangeTimeout,
    SpoolExchange,
)


def _payload(value):
    return {"data": np.asarray([value, value + 1]), "scalar": np.int64(value)}


@pytest.fixture(params=["inprocess", "spool"])
def fabric(request, tmp_path):
    if request.param == "inprocess":
        return InProcessExchange(shards=3, timeout=5.0)
    return SpoolExchange(tmp_path / "spool", shards=3, timeout=5.0)


def test_post_then_collect_round_trips(fabric):
    fabric.post(0, 1, src=1, dst=0, payload=_payload(10))
    fabric.post(0, 1, src=2, dst=0, payload=_payload(20))
    got = fabric.collect(0, 1, dst=0, srcs=[1, 2])
    assert sorted(got) == [1, 2]
    np.testing.assert_array_equal(got[1]["data"], [10, 11])
    assert int(got[2]["scalar"]) == 20


def test_empty_payload_still_completes_barrier(fabric):
    fabric.post(3, 2, src=1, dst=0, payload={})
    got = fabric.collect(3, 2, dst=0, srcs=[1])
    assert got[1] == {}


def test_collect_times_out_on_missing_peer(tmp_path):
    for fabric in (
        InProcessExchange(shards=2, timeout=0.1),
        SpoolExchange(tmp_path / "s", shards=2, timeout=0.1, poll=0.01),
    ):
        with pytest.raises(ShardExchangeTimeout):
            fabric.collect(0, 1, dst=0, srcs=[1])


def test_collect_blocks_until_peer_posts():
    fabric = InProcessExchange(shards=2, timeout=5.0)
    result = {}

    def consumer():
        result.update(fabric.collect(0, 1, dst=0, srcs=[1]))

    thread = threading.Thread(target=consumer)
    thread.start()
    fabric.post(0, 1, src=1, dst=0, payload=_payload(7))
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    np.testing.assert_array_equal(result[1]["data"], [7, 8])


def test_abort_fails_pending_collect():
    fabric = InProcessExchange(shards=2, timeout=5.0)
    errors = []

    def consumer():
        try:
            fabric.collect(0, 1, dst=0, srcs=[1])
        except ShardExchangeAborted as exc:
            errors.append(exc)

    thread = threading.Thread(target=consumer)
    thread.start()
    fabric.abort("peer shard 1 died")
    thread.join(timeout=5.0)
    assert errors and "peer shard 1 died" in str(errors[0])


def test_spool_posts_are_idempotent(tmp_path):
    fabric = SpoolExchange(tmp_path / "spool", shards=2, timeout=5.0)
    fabric.post(0, 1, src=1, dst=0, payload=_payload(1))
    # a replaying worker re-posts the (deterministic) payload; the
    # original file must win untouched
    fabric.post(0, 1, src=1, dst=0, payload=_payload(999))
    got = fabric.collect(0, 1, dst=0, srcs=[1])
    np.testing.assert_array_equal(got[1]["data"], [1, 2])


def test_spool_collect_is_rereadable(tmp_path):
    """Files persist: a respawned worker can re-collect history."""
    fabric = SpoolExchange(tmp_path / "spool", shards=2, timeout=5.0)
    fabric.post(0, 1, src=1, dst=0, payload=_payload(5))
    first = fabric.collect(0, 1, dst=0, srcs=[1])
    second = fabric.collect(0, 1, dst=0, srcs=[1])
    np.testing.assert_array_equal(first[1]["data"], second[1]["data"])


class _FakeClock:
    """Stand-in for the exchange module's ``time``: sleeps advance a
    virtual clock and are recorded instead of slept."""

    def __init__(self, on_sleep=None):
        self.now = 0.0
        self.sleeps: list[float] = []
        self.on_sleep = on_sleep

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds
        if self.on_sleep is not None:
            self.on_sleep(len(self.sleeps))


def test_spool_barrier_backs_off_up_to_poll(tmp_path, monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(exchange_module, "time", clock)
    fabric = SpoolExchange(tmp_path / "spool", shards=3, timeout=0.5)
    fabric.post(0, 1, src=1, dst=0, payload=_payload(1))
    with pytest.raises(ShardExchangeTimeout, match=r"from shards \[2\]"):
        fabric.collect(0, 1, dst=0, srcs=[1, 2])
    sleeps = clock.sleeps
    assert fabric.poll == 0.002
    assert sleeps[0] <= 2e-4
    assert all(a <= b for a, b in zip(sleeps, sleeps[1:]))
    assert max(sleeps) == fabric.poll
    # a long wait costs about one check per poll, not one per 0.1 ms
    assert len(sleeps) < 0.5 / fabric.poll + 20


def test_spool_barrier_wakes_soon_after_peer_posts(tmp_path, monkeypatch):
    fabric = SpoolExchange(tmp_path / "spool", shards=2, timeout=5.0,
                           poll=0.05)

    def post_late(calls: int) -> None:
        if calls == 3:
            fabric.post(0, 1, src=1, dst=0, payload=_payload(4))

    clock = _FakeClock(on_sleep=post_late)
    monkeypatch.setattr(exchange_module, "time", clock)
    got = fabric.collect(0, 1, dst=0, srcs=[1])
    np.testing.assert_array_equal(got[1]["data"], [4, 5])
    # the payload is seen on the re-check right after it lands
    assert len(clock.sleeps) == 3
    assert sum(clock.sleeps) < 1e-3


def test_importing_the_runtime_does_not_load_networkx():
    """Shard and sweep workers import :mod:`repro`; networkx loads
    only for overlay analysis."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "import sys, repro, repro.sharding.coordinator; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
