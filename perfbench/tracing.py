"""The traced pass: spans around the calls into each layer.

Spans are recorded from the benchmark's own code.  :class:`Tracer`
replaces selected attributes of the program's public classes and
modules with timing proxies for the duration of a ``with`` block and
restores them afterwards; nothing in the program changes.  A span is
``[name, parent, start, end, count]`` — ``parent`` is the index of the
span open when it started (``-1`` for a top-level span), ``count`` an
optional work count (points evaluated).  Spans stay in memory until
the run ends.

Sharded runs are traced in the benchmark's own shard workers
(:func:`traced_spool_run`): each calls the program's ``run_shard``
over a timing proxy of the spool exchange and ships its spans back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import time
from collections import defaultdict
from pathlib import Path

from repro.core import eventpath, fastpath
from repro.core.kernels import get_backend
from repro.scenario import Scenario, Session
from repro.sharding import engine as shard_engine
from repro.sharding import views as shard_views
from repro.sharding.coordinator import _build_engine as build_shard_engine
from repro.sharding.exchange import SpoolExchange
from repro.sharding.plan import ShardPlan
from repro.topology import array_views
from repro.utils.rng import SeedSequenceTree

__all__ = [
    "Tracer",
    "self_times",
    "layer_totals",
    "layer_targets",
    "traced_session_run",
    "traced_spool_run",
]

#: Span names of the construction layer's parts; inside an engine
#: constructor they are reported as ``init.<part>``.
INIT_PARTS = ("rng_tree", "swarm_state", "overlay")

#: Seconds the traced shard workers of one run may take in all.
SHARD_TIMEOUT_S = 150.0

KERNELS = ("fused_pso_update", "batch_eval", "pbest_fold",
           "scatter_min_fold", "merge_candidates")


class Tracer:
    """In-memory span recorder that patches timing proxies into place."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A proxy for ``fn`` recording one span named ``name`` per call.

        ``count(args, kwargs)`` optionally gives the call's work count.
        """
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([
                name, open_[-1] if open_ else -1, clock(), 0.0,
                count(args, kwargs) if count is not None else 0,
            ])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][3] = clock()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install proxies for ``(owner, attribute, span, count)`` targets."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so the children's
    durations are exactly the part of the parent's interval they cover.
    """
    out = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            out[span[1]] -= span[3] - span[2]
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Inclusive seconds, self seconds, calls and work count per layer key.

    Keys are span names, except that construction parts recorded inside
    an engine constructor become ``init.<part>``, and an engine
    constructor nested in another (the event engine builds on the fast
    engine) becomes ``init.engine.nested`` so construction is counted
    once.  ``top`` holds the summed duration of the top-level spans.
    """
    selfs = self_times(spans)
    in_init: list[bool] = []
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}
    )
    top = 0.0
    for i, (name, parent, start, end, count) in enumerate(spans):
        inside = parent >= 0 and in_init[parent]
        in_init.append(inside or name == "init.engine")
        key = name
        if inside and name in INIT_PARTS:
            key = f"init.{name}"
        elif inside and name == "init.engine":
            key = "init.engine.nested"
        entry = totals[key]
        entry["s"] += end - start
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        entry["count"] += count
        if parent < 0:
            top += end - start
    totals["top"]["s"] = top
    return dict(totals)


def _points(args, kwargs) -> int:
    """Rows × particles of a ``batch_eval(functions, group, live, pos)``."""
    pos = args[4] if len(args) > 4 else kwargs["pos"]
    return int(pos.shape[0] * pos.shape[1])


def layer_targets() -> list[tuple]:
    """The layer boundaries the traced pass times, as patch targets."""
    backend = type(get_backend("numpy"))
    targets = [
        (fastpath.FastEngine, "__init__", "init.engine", None),
        (eventpath.CohortEventEngine, "__init__", "init.engine", None),
        (shard_engine.ShardEngine, "__init__", "init.engine", None),
        (SeedSequenceTree, "rng", "rng_tree", None),
        (fastpath, "initial_swarm_state", "swarm_state", None),
        (fastpath, "stack_states", "swarm_state", None),
        (fastpath, "make_array_provider", "overlay", None),
        (shard_engine, "make_shard_views", "overlay", None),
        (shard_views, "merge_candidates", "kernels.merge_candidates", None),
        (eventpath, "scatter_min_fold", "kernels.scatter_min_fold", None),
        (array_views.NewscastArrayViews, "begin_cycle",
         "topology.begin_cycle", None),
        (array_views._ArrayViewBase, "gossip_targets",
         "topology.gossip_targets", None),
        (array_views._ArrayViewBase, "on_join", "topology.on_join", None),
        (array_views._ArrayViewBase, "on_crash", "topology.on_crash", None),
        (shard_views.ShardNewscastViews, "begin_cycle",
         "topology.begin_cycle", None),
        (shard_views.ShardNewscastViews, "gossip_targets",
         "topology.gossip_targets", None),
        (fastpath.FastEngine, "run_one_cycle", "engine.loop", None),
        (eventpath.CohortEventEngine, "run", "engine.loop", None),
    ]
    for kernel in KERNELS:
        count = _points if kernel == "batch_eval" else None
        targets.append((backend, kernel, f"kernels.{kernel}", count))
    return targets


def traced_session_run(scenario: Scenario):
    """One traced ``Session.run``: ``(record, wall seconds, spans)``."""
    tracer = Tracer()
    with tracer.patched(layer_targets()):
        t0 = time.perf_counter()
        result = Session(scenario).run()
        wall = time.perf_counter() - t0
    return result.records[0], wall, tracer.spans


# -- sharded runs ------------------------------------------------------------------


class TimedExchange:
    """Timing proxy of a shard exchange: spans around ``post``/``collect``."""

    def __init__(self, inner, tracer: Tracer):
        self.post = tracer.wrap("shard.post", inner.post)
        self.collect = tracer.wrap("shard.collect", inner.collect)
        self.abort = inner.abort


def _shard_targets() -> list[tuple]:
    return layer_targets() + [
        (shard_engine.ShardEngine, leg, "shard.compute", None)
        for leg in ("begin_cycle", "exchange_apply", "finalize_cycle",
                    "resolve")
    ]


def _shard_worker(spec: dict, shards: int, root: str, shard: int,
                  spawned_at: float, traced: bool) -> None:
    """Spool shard worker (top-level: spawn imports it by name).

    Builds its engine the way the program's own spool worker does and
    runs it over the spool, under the tracer's proxies when ``traced``.
    """
    entered = time.time()
    scenario = Scenario.from_dict(spec)
    tracer = Tracer()
    with tracer.patched(_shard_targets() if traced else []):
        engine = build_shard_engine(
            scenario, 0, ShardPlan(scenario.nodes, shards), shard
        )
        exchange = SpoolExchange(Path(root) / "msgs", shards)
        fragment = shard_engine.run_shard(
            engine, TimedExchange(exchange, tracer) if traced else exchange,
            Session(scenario).max_cycles(),
        )
    out = Path(root) / f"traced{shard:03d}.json"
    out.write_text(json.dumps({
        "fragment": fragment,
        "spans": tracer.spans,
        "spawn_s": entered - spawned_at,
    }))


def traced_spool_run(scenario: Scenario, shards: int, root: Path,
                     traced: bool = True):
    """Run ``scenario`` over the benchmark's own spool shard workers.

    Returns ``(per-shard outputs, wall seconds)``; each output holds
    the shard's result fragment, its spans and its spawn latency.
    With ``traced=False`` the same workers run without proxies (and
    record no spans): the baseline ``trace.overhead_s`` is taken from.
    """
    root.mkdir(parents=True)
    ctx = multiprocessing.get_context("spawn")
    spec = scenario.to_dict()
    t0 = time.perf_counter()
    procs = []
    try:
        for shard in range(shards):
            proc = ctx.Process(
                target=_shard_worker,
                args=(spec, shards, str(root), shard, time.time(), traced),
            )
            proc.start()
            procs.append(proc)
        deadline = time.monotonic() + SHARD_TIMEOUT_S
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        wall = time.perf_counter() - t0
    finally:
        for proc in procs:
            if proc.exitcode is None:
                proc.terminate()
                proc.join()
    codes = [proc.exitcode for proc in procs]
    if any(code != 0 for code in codes):
        raise RuntimeError(f"traced shard workers exited with {codes}")
    outputs = [
        json.loads((root / f"traced{shard:03d}.json").read_text())
        for shard in range(shards)
    ]
    return outputs, wall
