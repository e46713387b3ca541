"""Benchmark entry point: one workload, one pass, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cycle-newscast --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics.
The program is imported from ``src/`` beside this directory.  Human
readable lines come first; the last line of standard output is the
JSON result.  A failed output check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

# BLAS/OpenMP pools would let each shard process use every core; pin
# them before NumPy is imported (spawned workers inherit the setting).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    try:
        with open("/proc/mounts") as fh:
            mounts = [line.split() for line in fh]
    except OSError:
        return "unknown"
    best, fs = "", "unknown"
    resolved = str(path.resolve())
    for fields in mounts:
        point = fields[1]
        inside = resolved == point or resolved.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best):
            best, fs = point, fields[2]
    return fs


def environment(workdir: Path) -> dict:
    """The machine and software a result was measured on."""
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "spool_filesystem": _filesystem(workdir),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.measure import (
        END_TO_END, PER_LAYER, Tally, traced_pass, untraced_pass,
    )
    from perfbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = environment(workdir)
    env["load_before"] = os.getloadavg()
    tally = Tally()
    extras: dict = {}
    try:
        if args.trace:
            units = PER_LAYER
            metrics = traced_pass(workload, args.seconds, workdir, tally)
        else:
            units = END_TO_END
            metrics, extras = untraced_pass(workload, args.seconds, workdir,
                                            tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other pass uses it
    env["load_after"] = os.getloadavg()

    correct = tally.failed == 0 and set(metrics) == set(units)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    print("environment " + json.dumps(env))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    for name, value in extras.items():
        print(f"  {name:32s} {value:>16.6g}")
    print(f"  {'runs attempted':32s} {tally.attempted:>16d}")
    print(f"  {'runs failed':32s} {tally.failed:>16d}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one started.

    Spawned shard processes make multiprocessing start a tracker
    process that by design outlives its parent; the benchmark must
    leave no process behind, so it closes the tracker's pipe and waits
    for it to exit.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into ``SystemExit`` so every ``finally`` runs.

    The program's spool coordinator and the traced shard runs
    terminate and join their shard processes in ``finally`` blocks.
    """
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
