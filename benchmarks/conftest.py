"""Shared configuration for the benchmark suite.

Each benchmark module reproduces one experiment (E1–E11, each named in its
module docstring with the paper result it checks): it
sweeps the relevant parameter, prints a table of the measured shape via
:func:`repro.bench.reporting.record_experiment` (persisted as JSON under
``benchmarks/results/``), and registers one representative timing with
pytest-benchmark so that ``pytest benchmarks/ --benchmark-only`` gives a
stable, comparable set of numbers.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """A fixed seed so that benchmark workloads are reproducible."""
    return 20190612  # PODS 2019 ;-)
