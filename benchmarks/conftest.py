"""Benchmark-suite configuration.

The experiment ``bench_*.py`` modules each regenerate one of E1..E8 from
:mod:`repro.experiments.registry`.  Tables are printed to stdout (run pytest
with ``-s`` to see them inline; they are always emitted so ``tee`` captures
them) and the timing-sensitive kernels are measured with
pytest-benchmark.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table: marks benchmarks that print a paper-style table"
    )


@pytest.fixture(scope="session")
def report_sink():
    """Accumulates printed tables so a session summary can be emitted."""
    lines = []
    yield lines
    if lines:
        print("\n".join(lines))
