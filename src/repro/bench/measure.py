"""Measurement helpers used by the benchmarks."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.trees.edits import EditOperation

__all__ = [
    "Summary",
    "summarize",
    "measure_preprocessing",
    "measure_delays",
    "measure_updates",
]


@dataclass(frozen=True)
class Summary:
    """Summary statistics of a sample of measurements (seconds)."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize a non-empty sample of timings."""
    values = sorted(samples)
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0)
    p95_index = min(len(values) - 1, int(0.95 * len(values)))
    return Summary(
        count=len(values),
        mean=statistics.fmean(values),
        median=values[len(values) // 2],
        p95=values[p95_index],
        maximum=values[-1],
    )


def measure_preprocessing(factory: Callable[[], object]) -> float:
    """Wall-clock seconds to build an enumerator (preprocessing phase)."""
    start = time.perf_counter()
    factory()
    return time.perf_counter() - start


def measure_delays(enumerator, max_answers: Optional[int] = None) -> Summary:
    """Per-answer delays of an enumerator (uses its ``delay_probe``)."""
    return summarize(enumerator.delay_probe(max_answers=max_answers))


def measure_updates(enumerator, edits: Sequence[EditOperation]) -> Summary:
    """Apply a workload of edits and summarize the per-update times."""
    times: List[float] = []
    for edit in edits:
        start = time.perf_counter()
        enumerator.apply(edit)
        times.append(time.perf_counter() - start)
    return summarize(times)
