"""Workload generation and output checks.

A workload is a function of ``(name, seed)``: :func:`make_workload`
builds the :class:`~repro.scenario.spec.Scenario` and the execution
policy the program receives, plus the expectations its output is
checked against.  ``tiny=True`` shrinks every workload to a few dozen
nodes for the benchmark's own tests; the shape of the run (engine,
overlay, churn, adversary, fabric) is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.functions.problem import DynamicsSpec
from repro.scenario import Scenario
from repro.scenario.result import RunRecord
from repro.scenario.spec import TransportSpec
from repro.simulator.adversary import AdversarySpec
from repro.utils.config import ChurnConfig

__all__ = ["WORKLOADS", "Workload", "make_workload", "check_record"]

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("cycle-newscast", "shard-spool", "event-churn-hostile")

#: Particles per node (k) and evaluations per gossip cycle (r).
K = R = 8


@dataclass(frozen=True)
class Workload:
    """One generated workload: the program's input and its expectations.

    ``shards`` > 1 runs the scenario over that many spool-backed shard
    processes (``ExecutionPolicy(shards=..., spool=...)``).
    ``expected_evaluations`` is the fixed budget on budget-bound workloads (``None`` when the horizon bounds the run).
    ``max_quality`` is the tolerance on the final solution quality.
    """

    name: str
    scenario: Scenario
    shards: int
    expected_stop: str
    expected_evaluations: int | None
    max_quality: float


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate workload ``name`` from ``seed`` (the only varying input)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if name == "cycle-newscast":
        # The paper's protocol at its default shape: NEWSCAST, strict
        # per-node streams, NumPy kernels, Rosenbrock 10-D.
        nodes, cycles = (32, 10) if tiny else (2000, 100)
        scenario = Scenario(
            function="rosenbrock", nodes=nodes, particles_per_node=K,
            gossip_cycle=R, total_evaluations=nodes * R * cycles,
            engine="fast", topology="newscast", rng_mode="strict",
            kernel_backend="numpy", seed=seed,
        )
        return Workload(name, scenario, 1, "budget",
                        scenario.total_evaluations,
                        1e7 if tiny else 50.0)
    if name == "shard-spool":
        # One overlay over two shard processes exchanging through the
        # file spool: the only workload on the sharding layer and disk.
        nodes, cycles = (40, 4) if tiny else (20000, 20)
        scenario = Scenario(
            function="sphere", nodes=nodes, particles_per_node=K,
            gossip_cycle=R, total_evaluations=nodes * R * cycles,
            engine="fast", topology="newscast", rng_mode="strict",
            kernel_backend="numpy", seed=seed,
        )
        return Workload(name, scenario, 2, "budget",
                        scenario.total_evaluations,
                        3e4 if tiny else 500.0)
    if name == "event-churn-hostile":
        # Same kernels and overlay, driven by the cohort event engine
        # under churn, message loss, false-best Byzantine nodes with
        # the plausibility filter on, and a shifting optimum.  The
        # per-node budget is out of reach, so the horizon ends the run.
        nodes, horizon, floor, period = (
            (32, 20.0, 16, 5.0) if tiny else (2000, 150.0, 1000, 25.0)
        )
        scenario = Scenario(
            function="griewank", nodes=nodes, particles_per_node=K,
            gossip_cycle=R, total_evaluations=nodes * 10**6,
            engine="event", event_backend="fast", horizon=horizon,
            rng_mode="strict", seed=seed,
            churn=ChurnConfig(crash_rate=0.5, join_rate=0.5,
                              min_population=floor),
            transport=TransportSpec(loss_rate=0.05),
            adversary=AdversarySpec(fraction=0.1, behavior="false-best",
                                    defense=True),
            dynamics=DynamicsSpec(kind="shift", period=period),
        )
        return Workload(name, scenario, 1, "horizon", None,
                        100.0 if tiny else 5.0)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def check_record(workload: Workload, record: RunRecord) -> list[str]:
    """Problems with one run's record; an empty list means it passed."""
    problems = []
    if record.stop_reason != workload.expected_stop:
        problems.append(
            f"stop reason {record.stop_reason!r}, "
            f"expected {workload.expected_stop!r}"
        )
    expected = workload.expected_evaluations
    if expected is not None and record.total_evaluations != expected:
        problems.append(
            f"{record.total_evaluations} evaluations, expected {expected}"
        )
    if record.total_evaluations < 1:
        problems.append("no evaluations")
    if not math.isfinite(record.quality):
        problems.append(f"quality {record.quality!r} is not finite")
    elif not 0.0 <= record.quality <= workload.max_quality:
        problems.append(
            f"quality {record.quality!r} outside [0, {workload.max_quality}]"
        )
    return problems

