"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see
README.md, "Experiments") and prints the regenerated table after timing, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the full
evaluation in one command.
"""

import json
from pathlib import Path

import pytest


def emit(record) -> None:
    """Print an experiment record beneath the benchmark output."""
    print()
    print(record.to_text())


def record_bench(export: str, workload: str, payload: dict) -> None:
    """Merge one workload's numbers into the ``export`` JSON file (cwd).

    The ``BENCH_*.json`` exports are consolidated across benchmark
    files and runs, keyed by workload; an unreadable file starts over.
    """
    path = Path(export)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[workload] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    """Benchmarks default to the fast sweeps; set REPRO_FULL=1 for the
    full (slow) parameter ranges."""
    import os

    return os.environ.get("REPRO_FULL", "") != "1"
