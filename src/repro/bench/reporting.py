"""Plain-text reporting of benchmark results.

The benchmarks print small tables mirroring the paper's claims (one per
experiment E1–E11; each ``benchmarks/bench_*.py`` docstring names the result
it checks) so that a run of ``pytest benchmarks/ --benchmark-only -s``
prints a readable record next to the JSON it persists.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

__all__ = ["format_table", "record_experiment"]


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format a fixed-width text table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = [title, "-" * len(title)]
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def record_experiment(
    experiment_id: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
    directory: Optional[str] = None,
) -> str:
    """Print an experiment table and persist it as JSON next to the benchmarks.

    Returns the formatted table (so the caller can also assert on it).  The
    JSON files under ``benchmarks/results/`` hold the exact numbers of the
    recorded run.
    """
    table = format_table(f"[{experiment_id}] {title}", headers, rows)
    print("\n" + table)
    if notes:
        print(notes)
    if directory is None:
        directory = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))), "benchmarks", "results")
    try:
        os.makedirs(directory, exist_ok=True)
        payload = {
            "experiment": experiment_id,
            "title": title,
            "headers": list(headers),
            "rows": [list(map(str, row)) for row in rows],
            "notes": notes,
        }
        with open(os.path.join(directory, f"{experiment_id}.json"), "w", encoding="utf8") as handle:
            json.dump(payload, handle, indent=2)
    except OSError:  # pragma: no cover - reporting must never break a benchmark
        pass
    return table
