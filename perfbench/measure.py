"""The two passes: untraced end-to-end metrics and traced layer metrics.

Both passes run the workload through ``Session(scenario).run(policy)``
repeatedly for the requested number of seconds, check every run's
record, and report medians.  :class:`Tally` counts runs attempted and
runs that raised or failed a check.
"""

from __future__ import annotations

import contextlib
import gc
import math
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro.core.eventpath import CohortEventEngine
from repro.core.fastpath import FastEngine
from repro.scenario import Session
from repro.scenario.policy import ExecutionPolicy
from repro.sharding.plan import ShardPlan
from repro.utils.rng import SeedSequenceTree

from perfbench.tracing import (
    KERNELS,
    Tracer,
    build_shard_engine,
    layer_totals,
    traced_session_run,
    traced_spool_run,
)
from perfbench.workloads import Workload, check_record, make_workload

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Tally",
    "tail_percentile",
    "untraced_pass",
    "traced_pass",
]

#: End-to-end metrics of the untraced pass: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "evals_per_s": "evaluations/s",
    "cycle_ms.p50": "ms",
    "cycle_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

_KERNEL_METRICS = {
    f"kernels.{kernel}_{field}": unit
    for kernel in KERNELS
    for field, unit in (("s", "s"), ("calls", "count"))
}

#: Layer metrics of the traced pass: name -> unit.
PER_LAYER = {
    "init.engine_s": "s",
    "init.us_per_node": "us",
    "init.rng_tree_s": "s",
    "init.rng_tree_calls": "count",
    "init.swarm_state_s": "s",
    "init.overlay_s": "s",
    **_KERNEL_METRICS,
    "kernels.batch_eval_points": "count",
    "topology.begin_cycle_self_s": "s",
    "topology.gossip_targets_s": "s",
    "topology.on_join_s": "s",
    "topology.on_join_calls": "count",
    "topology.on_crash_calls": "count",
    "engine.loop_self_s": "s",
    "gossip.messages": "count",
    "gossip.adoptions": "count",
    "gossip.adoption_ratio": "ratio",
    "gossip.to_dead": "count",
    "newscast.exchanges": "count",
    "adversary.false_offers": "count",
    "adversary.filtered": "count",
    "adversary.filter_ratio": "ratio",
    "adversary.verifications": "count",
    "problem.reevaluations": "count",
    "shard.spawn_s": "s",
    "shard.init_s": "s",
    "shard.compute_s": "s",
    "shard.post_s": "s",
    "shard.collect_s": "s",
    "shard.imbalance": "ratio",
    "spool.bytes_per_node_cycle": "B/node-cycle",
    "spool.files": "count",
    "spool_mb": "MB",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: Timed runs a pass makes even when they outlast ``--seconds``.
MIN_RUNS = 4

_WINDOW_FILE = re.compile(r"^w(\d+)-")


class Tally:
    """Runs attempted and runs that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, problems: list[str]) -> bool:
        """Count one checked run; report and count its problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"CHECK FAILED [{label}]: {problem}", file=sys.stderr)
        return not problems

    @contextlib.contextmanager
    def guard(self, label: str):
        """Count an exception escaping the block as one failed run."""
        try:
            yield
        except Exception:  # noqa: BLE001 - the run boundary reports and counts
            self.attempted += 1
            self.failed += 1
            print(f"RUN FAILED [{label}]:\n{traceback.format_exc()}",
                  file=sys.stderr)


def tail_percentile(samples: list[float], guaranteed: int) -> tuple[float, float]:
    """``(value, percentile)`` of the tail timing.

    The percentile is p95, or the highest one below it that leaves at
    least ten samples beyond it among the ``guaranteed`` samples every
    run of the workload produces; fixing it by design keeps its meaning
    when a faster program fits more runs into the measured time.  It
    is read by nearest rank from all ``samples``.
    """
    q = min(0.95, max(0, guaranteed - 10) / guaranteed)
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank], 100.0 * q


def _diffs(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


class _CycleClock:
    """Scenario observer stamping the end of every cycle."""

    def __init__(self):
        self.stamps: list[float] = []

    def observe(self, engine) -> None:
        self.stamps.append(time.perf_counter())


@contextlib.contextmanager
def _window_clock(stamps: list[float]):
    """Stamp the start of every cohort window of the event engine.

    The engine draws each window's stream from the seed tree path
    ``("eventpath", "window", i)``; the stamp rides on that call.
    """
    original = SeedSequenceTree.rng

    def rng(self, *path):
        if path[:2] == ("eventpath", "window"):
            stamps.append(time.perf_counter())
        return original(self, *path)

    SeedSequenceTree.rng = rng
    try:
        yield
    finally:
        SeedSequenceTree.rng = original


@contextlib.contextmanager
def _construction_clock(durations: list[float]):
    """Time every outermost engine construction inside the block.

    Wraps the public engine constructors in place; the event engine
    builds on the fast engine, so only the outermost call is timed.
    """
    tracer = Tracer()
    targets = [(cls, "__init__", "init.engine", None)
               for cls in (FastEngine, CohortEventEngine)]
    with tracer.patched(targets):
        yield
    durations.extend(end - start for _, parent, start, end, _ in tracer.spans
                     if parent < 0)


def _shard_setup_seconds(workload: Workload) -> float:
    """Seconds the slowest shard takes to build, outside any run.

    The spool fabric builds each shard in its own process, out of this
    process's reach, so every shard is built here in turn, the way the
    program's spool worker builds it, from a collected heap.
    """
    scenario = workload.scenario
    plan = ShardPlan(scenario.nodes, workload.shards)
    times = []
    for shard in range(workload.shards):
        gc.collect()
        t0 = time.perf_counter()
        build_shard_engine(scenario, 0, plan, shard)
        times.append(time.perf_counter() - t0)
    return max(times)


def spool_stats(root: Path) -> tuple[int, int]:
    """``(files, bytes)`` left under a spool directory."""
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _spool_window_times(root: Path) -> list[float]:
    """Per-window seconds from the spool's message file mtimes.

    A window is complete when its last message file lands; the
    spacing between completions is the barrier window time.
    """
    done: dict[int, float] = {}
    for path in root.rglob("w*"):
        match = _WINDOW_FILE.match(path.name)
        if match:
            w = int(match.group(1))
            done[w] = max(done.get(w, 0.0), path.stat().st_mtime)
    if not done:
        raise RuntimeError(f"no window files under spool {root}")
    return _diffs([done[w] for w in sorted(done)])


def _timed_run(workload: Workload, spool: Path):
    """One timed ``Session.run``: ``(record, wall, setup, steps, spool)``.

    ``setup`` is the seconds of the run's engine construction (``None``
    on sharded runs, whose engines are built in the shard processes);
    ``steps`` are per-cycle times on the cycle engine and per-window
    times on the event and sharded workloads; ``spool`` is ``(files,
    bytes)`` for sharded runs, else ``None``.
    """
    scenario = workload.scenario
    gc.collect()  # leave no earlier run's garbage to this run's timing
    if workload.shards > 1:
        t0 = time.perf_counter()
        policy = ExecutionPolicy(shards=workload.shards, spool=str(spool))
        result = Session(scenario).run(policy=policy)
        wall = time.perf_counter() - t0
        try:
            steps = _spool_window_times(spool)
            stats = spool_stats(spool)
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        return result.records[0], wall, None, steps, stats
    builds: list[float] = []
    if scenario.engine == "event":
        stamps: list[float] = []
        with _construction_clock(builds), _window_clock(stamps):
            t0 = time.perf_counter()
            result = Session(scenario).run()
            wall = time.perf_counter() - t0
        steps = _diffs(stamps)
    else:
        clock = _CycleClock()
        with _construction_clock(builds):
            t0 = time.perf_counter()
            result = Session(scenario.with_(observers=(clock,))).run()
            wall = time.perf_counter() - t0
        steps = _diffs(clock.stamps)
    if len(builds) != 1:
        raise RuntimeError(f"expected one engine construction, saw {len(builds)}")
    return result.records[0], wall, builds[0], steps, None


def _warm_up(workload: Workload, workdir: Path) -> None:
    """One untimed run of the tiny version: imports and first-call costs."""
    tiny = make_workload(workload.name, workload.scenario.seed, tiny=True)
    _timed_run(tiny, workdir / "warm-up")


def _check_run(tally: Tally, workload: Workload, label: str, record,
               reference: dict | None) -> dict:
    """Check one record, and its identity with the first run of the seed."""
    problems = check_record(workload, record)
    as_dict = record.to_dict()
    if reference is not None and as_dict != reference:
        problems.append("record differs from the first run of the same seed")
    tally.check(label, problems)
    return as_dict if reference is None else reference


def _peak_rss_mb(who: int) -> float:
    """Peak resident memory of this process or of its largest child, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_pass(workload: Workload, seconds: float, workdir: Path,
                  tally: Tally, min_runs: int = MIN_RUNS) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off: ``(metrics, extras)``.

    After an untimed warm-up, timed runs repeat until ``seconds`` have
    passed and at least ``min_runs`` completed.  ``setup_s`` is timed
    inside each run, or, on sharded workloads, by building the shards
    once after each run, so its samples spread over the pass as the
    runs do.  ``extras`` holds figures printed beside the metrics
    (sample counts, spool size).
    """
    _warm_up(workload, workdir)
    walls: list[float] = []
    setups: list[float] = []
    steps: list[float] = []
    steps_per_run = 0
    spools: list[tuple[int, int]] = []
    reference = None
    own_peak = 0.0
    start = time.perf_counter()
    while len(walls) < min_runs or time.perf_counter() - start < seconds:
        label = f"{workload.name} run {len(walls)}"
        spool = workdir / f"spool{len(walls)}"
        record = None
        with tally.guard(label):
            record, wall, setup, run_steps, stats = _timed_run(workload, spool)
            if setup is None:
                setup = _shard_setup_seconds(workload)
        if record is None:
            break
        reference = _check_run(tally, workload, label, record, reference)
        walls.append(wall)
        setups.append(setup)
        # Later runs raise this process's peak only by where the
        # allocator happens to reuse the first run's freed arrays.
        own_peak = own_peak or _peak_rss_mb(resource.RUSAGE_SELF)
        steps.extend(run_steps)
        steps_per_run = steps_per_run or len(run_steps)
        if stats is not None:
            spools.append(stats)
    peak = max(own_peak, _peak_rss_mb(resource.RUSAGE_CHILDREN))
    if workload.shards > 1 and reference is not None:
        # The in-process threaded fabric must give the same record;
        # this comparison run is not timed.
        label = f"{workload.name} threaded comparison"
        with tally.guard(label):
            result = Session(workload.scenario).run(
                policy=ExecutionPolicy(shards=workload.shards)
            )
            problems = check_record(workload, result.records[0])
            if result.records[0].to_dict() != reference:
                problems.append("threaded-fabric record differs from spool")
            tally.check(label, problems)
    if not walls or not steps:
        return {}, {}
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    p95, pct = tail_percentile(steps, min_runs * steps_per_run)
    evaluations = reference["total_evaluations"]
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "evals_per_s": evaluations / (wall - setup),
        "cycle_ms.p50": 1e3 * statistics.median(steps),
        "cycle_ms.p95": 1e3 * p95,
        "peak_rss_mb": peak,
    }
    extras = {
        "runs": len(walls),
        "step_samples": len(steps),
        "tail_percentile": pct,
        "error_rate": tally.failed / max(1, tally.attempted),
    }
    if spools:
        extras["spool_mb"] = statistics.median(b for _, b in spools) / 2**20
    return metrics, extras


# -- traced pass -------------------------------------------------------------------


def _record_counts(record) -> dict:
    """Coordination and problem-layer counts of one record."""
    m = record.messages
    adversary = record.adversary or {}
    dynamics = record.dynamics or {}
    false_offers = int(adversary.get("false_offers", 0))
    filtered = int(adversary.get("filtered", 0))
    return {
        "gossip.messages": m.coordination_messages,
        "gossip.adoptions": m.coordination_adoptions,
        "gossip.adoption_ratio": (
            m.coordination_adoptions / m.coordination_messages
            if m.coordination_messages else 0.0
        ),
        "gossip.to_dead": m.transport_to_dead,
        "newscast.exchanges": m.newscast_exchanges,
        "adversary.false_offers": false_offers,
        "adversary.filtered": filtered,
        "adversary.filter_ratio": filtered / false_offers if false_offers else 0.0,
        "adversary.verifications": int(adversary.get("verifications", 0)),
        "problem.reevaluations": int(dynamics.get("reevaluations", 0)),
    }


def _span_metrics(totals: dict, nodes: int) -> dict:
    """Construction, kernel, topology and loop metrics from layer totals."""
    def get(key: str, field: str = "s") -> float:
        return totals.get(key, {}).get(field, 0.0)

    out = {
        "init.engine_s": get("init.engine"),
        "init.us_per_node": 1e6 * get("init.engine") / nodes,
        "init.rng_tree_s": get("init.rng_tree"),
        "init.rng_tree_calls": get("init.rng_tree", "calls"),
        "init.swarm_state_s": get("init.swarm_state"),
        "init.overlay_s": get("init.overlay"),
        "kernels.batch_eval_points": get("kernels.batch_eval", "count"),
        "topology.begin_cycle_self_s": get("topology.begin_cycle", "self_s"),
        "topology.gossip_targets_s": get("topology.gossip_targets"),
        "topology.on_join_s": get("topology.on_join"),
        "topology.on_join_calls": get("topology.on_join", "calls"),
        "topology.on_crash_calls": get("topology.on_crash", "calls"),
        "engine.loop_self_s": (
            get("engine.loop", "self_s") + get("shard.compute", "self_s")
        ),
    }
    for kernel in KERNELS:
        out[f"kernels.{kernel}_s"] = get(f"kernels.{kernel}")
        out[f"kernels.{kernel}_calls"] = get(f"kernels.{kernel}", "calls")
    return out


def _merge_totals(all_totals: list[dict]) -> dict:
    """Sum layer totals over shard processes."""
    merged: dict[str, dict[str, float]] = {}
    for totals in all_totals:
        for key, entry in totals.items():
            into = merged.setdefault(key, dict.fromkeys(entry, 0.0))
            for field, value in entry.items():
                into[field] += value
    return merged


def _check_fragments(workload: Workload, record, outputs: list[dict]) -> list[str]:
    """The traced shards must reproduce the untraced run's record."""
    fragments = [out["fragment"] for out in outputs]
    got = {
        "best_value": fragments[0]["best_value"],
        "cycles": fragments[0]["cycles"],
        "stop_reason": fragments[0]["stop_reason"],
        "total_evaluations": sum(f["evaluations"] for f in fragments),
        "coordination_messages": sum(f["messages_sent"] for f in fragments),
        "coordination_adoptions": sum(f["adoptions"] for f in fragments),
        "newscast_exchanges": sum(f["exchanges"] for f in fragments),
    }
    want = {
        "best_value": record.best_value,
        "cycles": record.cycles,
        "stop_reason": record.stop_reason,
        "total_evaluations": record.total_evaluations,
        "coordination_messages": record.messages.coordination_messages,
        "coordination_adoptions": record.messages.coordination_adoptions,
        "newscast_exchanges": record.messages.newscast_exchanges,
    }
    return [
        f"traced shards give {key}={got[key]!r}, untraced {want[key]!r}"
        for key in want if got[key] != want[key]
    ]


def _untraced_shard_wall(workload: Workload, record, root: Path,
                         tally: Tally, label: str) -> float:
    """Wall seconds of the benchmark's own shard workers, untraced."""
    try:
        outputs, wall = traced_spool_run(workload.scenario, workload.shards,
                                         root, traced=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    tally.check(label, _check_fragments(workload, record, outputs))
    return wall


def _traced_shard_metrics(workload: Workload, record, root: Path,
                          tally: Tally, label: str) -> tuple[dict, float]:
    """One traced spool run: ``(metrics, wall)``."""
    scenario = workload.scenario
    try:
        outputs, wall = traced_spool_run(scenario, workload.shards, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    tally.check(label, _check_fragments(workload, record, outputs))
    per_shard = [layer_totals(out["spans"]) for out in outputs]
    metrics = _span_metrics(_merge_totals(per_shard), scenario.nodes)
    compute = [t.get("shard.compute", {}).get("s", 0.0) for t in per_shard]
    post = [t.get("shard.post", {}).get("s", 0.0) for t in per_shard]
    collect = [t.get("shard.collect", {}).get("s", 0.0) for t in per_shard]
    mean_compute = statistics.fmean(compute)
    metrics.update({
        "shard.spawn_s": max(out["spawn_s"] for out in outputs),
        "shard.init_s": max(t.get("init.engine", {}).get("s", 0.0)
                            for t in per_shard),
        "shard.compute_s": mean_compute,
        "shard.post_s": statistics.fmean(post),
        "shard.collect_s": statistics.fmean(collect),
        "shard.imbalance": max(compute) / mean_compute if mean_compute else 0.0,
        "trace.coverage": sum(t["top"]["s"] for t in per_shard)
        / (len(per_shard) * wall),
    })
    return metrics, wall


def traced_pass(workload: Workload, seconds: float, workdir: Path,
                tally: Tally) -> dict:
    """Per-layer metrics: alternating untraced and traced runs.

    Each traced run must reproduce the untraced record exactly.  Layer
    metrics are medians over the traced runs; ``trace.overhead_s`` is
    the median traced wall minus the median untraced wall of the same
    run path.  On sharded workloads that path is the benchmark's own
    shard workers, run once without and once with proxies.
    """
    _warm_up(workload, workdir)
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    runs: list[dict] = []
    reference = None
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        label = f"{workload.name} traced pair {len(runs)}"
        record = None
        with tally.guard(label):
            record, wall, _, _, stats = _timed_run(workload, workdir / "spool")
        if record is None:
            break
        reference = _check_run(tally, workload, label, record, reference)
        pairs = len(runs)
        with tally.guard(label):
            metrics = _record_counts(record)
            if stats is not None:
                files, size = stats
                metrics["spool.files"] = files
                metrics["spool_mb"] = size / 2**20
                metrics["spool.bytes_per_node_cycle"] = size / (
                    workload.scenario.nodes * record.cycles
                )
            if workload.shards > 1:
                baseline = _untraced_shard_wall(
                    workload, record, workdir / "untraced", tally, label
                )
                layer, traced_wall = _traced_shard_metrics(
                    workload, record, workdir / "traced", tally, label
                )
            else:
                baseline = wall
                traced, traced_wall, spans = traced_session_run(
                    workload.scenario
                )
                problems = check_record(workload, traced)
                if traced.to_dict() != record.to_dict():
                    problems.append("traced record differs from untraced")
                tally.check(label, problems)
                totals = layer_totals(spans)
                layer = _span_metrics(totals, workload.scenario.nodes)
                layer["trace.coverage"] = totals["top"]["s"] / traced_wall
            metrics.update(layer)
            untraced_walls.append(baseline)
            traced_walls.append(traced_wall)
            runs.append(metrics)
        if len(runs) == pairs:
            break
    if not runs:
        return {}
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name in out:
        values = [run[name] for run in runs if name in run]
        if values:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
    )
    return out
