"""Shared helpers for the benchmark harness.

Every ``test_expN_*`` benchmark regenerates one paper artefact at
``smoke`` scale (seconds, shape-preserving), times it once via
pytest-benchmark's pedantic mode, **asserts the paper's qualitative
shape** on the data, and writes the full paper-style report (tables +
ASCII figures) to ``<name>.txt`` under a per-session pytest temporary
directory, echoing the path.  The committed ``benchmarks/reports/``
files are reference copies; a test run never rewrites them.

Full paper scale is available outside pytest::

    python -m repro.experiments exp1 --scale full
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def report_dir(tmp_path_factory) -> Path:
    """Per-session directory collecting the per-benchmark report files."""
    path = tmp_path_factory.mktemp("reports")
    print(f"\n[benchmark reports are written to {path}]")
    return path


def save_report(report_dir: Path, name: str, text: str) -> None:
    """Persist (and echo) one benchmark's paper-style report."""
    path = report_dir / f"{name}.txt"
    path.write_text(text)
    print(f"\n[report saved to {path}]\n{text}")
