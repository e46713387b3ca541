"""Cross-shard message fabric: windowed, barriered, replay-friendly.

A shard cycle exchanges messages in *legs* (view requests → replies →
status); each ``(window, leg, src → dst)`` edge carries one payload — a
flat dict of numpy arrays (scalars ride as 0-d arrays).  Collecting a
leg blocks until every peer's payload for that window has arrived:
that blocking collect *is* the shard barrier.

Two implementations share the contract:

* :class:`InProcessExchange` — a condition-variable mailbox for the
  threaded in-process mode (collect pops, memory stays bounded).
* :class:`SpoolExchange` — one file per edge under a spool directory,
  written atomically (tmp + rename) and **idempotently**: a payload
  that already exists is never rewritten.  Files persist for the whole
  run, which is the crash-recovery mechanism — a shard worker is
  deterministic given its incoming payloads, so a respawned worker
  replays from window 0, re-reading history at disk speed and
  re-posting no-ops, until it catches up with its live peers (see
  :mod:`repro.sharding.coordinator`).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "ShardExchangeError",
    "ShardExchangeAborted",
    "ShardExchangeTimeout",
    "InProcessExchange",
    "SpoolExchange",
]


class ShardExchangeError(RuntimeError):
    """Base class of exchange failures."""


class ShardExchangeAborted(ShardExchangeError):
    """A peer shard failed; the barrier can never complete."""


class ShardExchangeTimeout(ShardExchangeError):
    """A barrier leg did not complete within the timeout."""


Payload = Mapping[str, np.ndarray]

# First re-check delay of a spool barrier that finds a payload missing.
_FIRST_POLL = 1e-4


def _freeze(payload: Payload) -> dict[str, np.ndarray]:
    return {key: np.asarray(value) for key, value in payload.items()}


def _atomic_write(path: Path, mode: str, write: Callable[[IO], None]) -> None:
    """Write ``path`` through a temp file beside it and ``os.replace``;
    the temp file is removed if writing fails."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class InProcessExchange:
    """Thread-safe mailbox keyed by ``(window, leg, src, dst)``."""

    def __init__(self, shards: int, timeout: float = 60.0):
        self.shards = shards
        self.timeout = timeout
        self._box: dict[tuple[int, int, int, int], dict[str, np.ndarray]] = {}
        self._cond = threading.Condition()
        self._abort_reason: str | None = None

    def post(self, window: int, leg: int, src: int, dst: int,
             payload: Payload) -> None:
        with self._cond:
            self._box[(window, leg, src, dst)] = _freeze(payload)
            self._cond.notify_all()

    def collect(self, window: int, leg: int, dst: int,
                srcs: Iterable[int]) -> dict[int, dict[str, np.ndarray]]:
        """Pop every ``src → dst`` payload of the leg (blocking barrier)."""
        wanted = list(srcs)
        deadline = time.monotonic() + self.timeout
        with self._cond:
            while True:
                if self._abort_reason is not None:
                    raise ShardExchangeAborted(self._abort_reason)
                keys = [(window, leg, src, dst) for src in wanted]
                if all(key in self._box for key in keys):
                    return {
                        src: self._box.pop(key)
                        for src, key in zip(wanted, keys)
                    }
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardExchangeTimeout(
                        f"shard {dst} window {window} leg {leg}: peers "
                        f"{wanted} incomplete after {self.timeout:.0f}s"
                    )
                self._cond.wait(timeout=remaining)

    def abort(self, reason: str) -> None:
        """Fail every pending and future collect (peer died)."""
        with self._cond:
            self._abort_reason = reason
            self._cond.notify_all()


class SpoolExchange:
    """File-per-edge exchange over a shared directory.

    Layout: ``<root>/w000012-l1-s00d01.npz`` — window 12, leg 1, shard
    0 → shard 1.  Posts are atomic (``os.replace``) and idempotent;
    collects poll for the peers' files.  Nothing is ever deleted: the
    directory is the run's replayable message log.

    The files are the only signal, so the fabric works unchanged on a
    shared filesystem.  A barrier that finds a payload missing
    re-checks after 0.1 ms and doubles the sleep on every further miss,
    up to ``poll`` (the longest sleep between checks, 2 ms by default):
    a peer that posts moments later is seen within a fraction of a
    millisecond, and a long wait costs one directory check per
    ``poll``.
    """

    def __init__(self, root: str | Path, shards: int,
                 poll: float = 0.002, timeout: float = 120.0):
        self.root = Path(root)
        self.shards = shards
        self.poll = poll
        self.timeout = timeout
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, window: int, leg: int, src: int, dst: int) -> Path:
        return self.root / f"w{window:06d}-l{leg}-s{src:02d}d{dst:02d}.npz"

    def post(self, window: int, leg: int, src: int, dst: int,
             payload: Payload) -> None:
        path = self._path(window, leg, src, dst)
        if path.exists():
            # Replay after a crash: the payload is deterministic, so
            # the existing file is byte-equivalent — skipping the
            # write keeps posts race-free against a concurrent reader.
            return
        _atomic_write(path, "wb",
                      lambda fh: np.savez(fh, **_freeze(payload)))

    def collect(self, window: int, leg: int, dst: int,
                srcs: Iterable[int]) -> dict[int, dict[str, np.ndarray]]:
        wanted = list(srcs)
        deadline = time.monotonic() + self.timeout
        paths = {src: self._path(window, leg, src, dst) for src in wanted}
        missing = wanted
        delay = _FIRST_POLL
        while True:
            missing = [src for src in missing if not paths[src].exists()]
            if not missing:
                break
            if time.monotonic() >= deadline:
                raise ShardExchangeTimeout(
                    f"shard {dst} window {window} leg {leg}: no payload "
                    f"from shards {missing} after {self.timeout:.0f}s"
                )
            time.sleep(delay)
            delay = min(2 * delay, self.poll)
        out: dict[int, dict[str, np.ndarray]] = {}
        for src, path in paths.items():
            with np.load(path) as npz:
                out[src] = {key: npz[key] for key in npz.files}
        return out

    def abort(self, reason: str) -> None:
        """No-op: process death is the spool mode's abort signal."""
