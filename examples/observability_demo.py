"""Observability tour: metrics, a delay SLO, events, and a Chrome trace.

The paper's headline guarantees are *latency* guarantees — output-linear
enumeration delay (Theorem 6.5) and logarithmic-time updates (Lemma 7.3) —
so the engine ships the instruments to watch them in production:

* ``Engine.metrics()`` — fixed-bucket latency histograms (per-answer delay,
  per-edit update latency, ingest build time, shard protocol round trips,
  failover/repair durations) merged across every shard worker, with
  ``p50/p95/p99/max``; ``Engine.metrics_text()`` is the same thing in the
  Prometheus text exposition format, ready to scrape.
* ``Engine(delay_budget=...)`` — a live SLO on per-answer delay: every
  sample is recorded and every breach is logged as a structured event
  (a breach never raises).
* ``Engine.events()`` — the operational event ring: shard deaths, timeouts,
  slow protocol round trips, fault-plan firings, delay violations.
* ``Engine(trace=True)`` + ``Engine.dump_trace(path)`` — request tracing
  across the parent *and* the shard workers, exported as one Chrome-trace
  JSON (load it in ``chrome://tracing`` or https://ui.perfetto.dev).

This demo runs a sharded, replicated engine with a deliberately injected
worker crash, so the exported trace shows a real failover retry.

Run with:  PYTHONPATH=src python examples/observability_demo.py
"""

from __future__ import annotations

import json
import os
import tempfile

from repro import Engine
from repro.automata.queries import select_labeled
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree

LABELS = ("a", "b", "c", "d")


def show_histogram(metrics, name: str) -> None:
    entry = metrics.get(name)
    if entry is None or entry["count"] == 0:
        print(f"  {name:32s} (no samples)")
        return
    print(
        f"  {name:32s} n={entry['count']:<6d} "
        f"p50={entry['p50'] * 1e6:9.1f}µs  p95={entry['p95'] * 1e6:9.1f}µs  "
        f"p99={entry['p99'] * 1e6:9.1f}µs  max={entry['max'] * 1e6:9.1f}µs"
    )


def main() -> None:
    with Engine(
        workers=2,
        replicas=2,
        trace=True,
        delay_budget=0.25,  # an answer slower than 250 ms breaches the SLO
        fault_plan="*:stream_chunk:0:crash",  # kill a worker mid-stream
    ) as engine:
        query = select_labeled("a", LABELS)
        docs = [
            engine.add_tree(random_tree(80, LABELS, seed), query, doc_id=f"doc{seed}")
            for seed in (1, 2, 3)
        ]

        # Enumerate everything once; the injected crash kills one replica on
        # the first pushed stream chunk, and the stream transparently fails
        # over to the surviving replica (identical order, no lost answers).
        total = sum(len(list(doc.stream())) for doc in docs)
        print(f"enumerated {total} answers across {len(docs)} documents")
        print(f"failovers survived: {engine.failovers_total}")

        for doc in docs:
            doc.apply_edits([Relabel(0, "a"), Relabel(1, "b")])
        engine.await_repairs()  # let the crashed replica finish restoring

        # ----------------------------------------------------------- metrics
        metrics = engine.metrics()
        print("\nlatency histograms (merged across all shard workers):")
        for name in (
            "answer_delay_seconds",
            "update_batch_seconds",
            "ingest_build_seconds",
            "protocol_round_trip_seconds",
            "failover_seconds",
        ):
            show_histogram(metrics, name)
        print(
            "counters: "
            + ", ".join(
                f"{name}={metrics.get(name, {}).get('value', 0)}"
                for name in (
                    "delay_violations",
                    "failovers_total",
                    "shard_deaths_total",
                )
            )
        )

        scrape = engine.metrics_text()
        print(f"\nPrometheus exposition: {len(scrape.splitlines())} lines, e.g.")
        for line in scrape.splitlines()[:4]:
            print(f"  {line}")

        # ------------------------------------------------------------ events
        print("\noperational events (newest last):")
        for event in engine.events()[-5:]:
            fields = {k: v for k, v in event.items() if k not in ("kind", "ts")}
            print(f"  {event['kind']:16s} {fields}")

        # ------------------------------------------------------------- trace
        path = os.path.join(tempfile.mkdtemp(prefix="repro-trace-"), "trace.json")
        engine.dump_trace(path)
        with open(path, encoding="utf8") as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        rows = {
            e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
        }
        print(
            f"\nChrome trace: {len(spans)} spans across processes "
            f"{sorted(rows)} -> {path}"
        )
        print("open it in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
