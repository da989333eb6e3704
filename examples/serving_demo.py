"""Serving demo: compile once, persist, reload in a fresh process, serve pages.

This example walks the full :class:`repro.Engine` serving workflow:

1. an "offline" step compiles a standing query through the engine's
   content-addressed catalog path (compile once → persist);
2. a **subprocess** — a genuinely fresh Python process — loads the compiled
   query from the catalog (no translate / homogenize; its first build
   compiles the box plans) and verifies it enumerates the same answers;
3. an :class:`~repro.Engine` then serves several documents under the
   standing query with edit-stable pages while edits arrive: pages keep
   resuming across edits that don't touch what their cursor still has to
   read, and raise a precise invalidation when an edit does;
4. a **sharded engine** (``Engine(workers=2)``) serves the same documents
   from worker processes sharing the same catalog directory — same answers,
   merged stats.

Run with:  PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import repro
from repro import Engine
from repro.automata.queries import select_labeled
from repro.errors import CursorInvalidatedError
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree

LABELS = ("a", "b", "c", "d")
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD_SOURCE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.engine import QueryCatalog
from repro.forest_algebra.maintenance import MaintainedTerm
from repro.incremental.maintainer import IncrementalCircuitMaintainer
from repro.trees.generators import random_tree

catalog = QueryCatalog(sys.argv[2])
loaded = catalog.load(sys.argv[3])
tree = random_tree(400, ("a", "b", "c", "d"), 1)
start = time.perf_counter()
maintainer = IncrementalCircuitMaintainer(MaintainedTerm(tree), loaded.automaton)
build_seconds = time.perf_counter() - start
count = sum(1 for _ in maintainer.enumerator().assignments())
print(f"{loaded.load_seconds:.6f} {build_seconds:.6f} {count}")
"""


def main() -> None:
    query_source = select_labeled("a", LABELS)

    with tempfile.TemporaryDirectory(prefix="repro-catalog-") as catalog_dir:
        # ---- offline: compile once through the engine, persist in its catalog
        engine = Engine(catalog=catalog_dir)
        start = time.perf_counter()
        query = engine.compile(query_source)
        warm = engine.add_tree(random_tree(400, LABELS, 1), query)
        cold_start_seconds = time.perf_counter() - start
        expected_count = warm.count()
        print(f"compiled + persisted query {query.digest[:12]}… "
              f"(cold start: compile + first build {cold_start_seconds * 1000:.1f} ms, "
              f"answers on doc #0: {expected_count})")

        # ---- fresh process: load instead of compiling
        result = subprocess.run(
            [sys.executable, "-c", CHILD_SOURCE, SRC_DIR, catalog_dir, query.digest],
            capture_output=True,
            text=True,
            check=True,
        )
        load_seconds, build_seconds, child_count = result.stdout.split()
        catalog_start = float(load_seconds) + float(build_seconds)
        print(f"fresh process: catalog load {float(load_seconds) * 1000:.2f} ms + first build "
              f"{float(build_seconds) * 1000:.1f} ms — "
              f"{cold_start_seconds / catalog_start:.1f}x faster than the cold start")
        assert int(child_count) == expected_count, "subprocess answers diverged!"
        print(f"fresh process enumerated the same {child_count} answers\n")

        # ---- serve several documents under the standing query, with edits
        docs = [engine.add_tree(random_tree(300, LABELS, seed), query) for seed in (1, 2, 3)]
        doc = docs[0]
        print(f"serving {len(engine)} documents; doc {doc.doc_id} has {doc.count()} answers")

        page = doc.page(page_size=10)
        print(f"page 1: {len(page.answers)} answers (offset {page.offset})")

        # keep editing; the page's cursor resumes across unrelated edits and
        # is invalidated — precisely, never silently — by a conflicting one
        for node in doc.runtime.tree.nodes():
            if node.is_root():
                continue
            report = doc.apply_edits([Relabel(node.node_id, node.label)])
            if report.cursors_invalidated:
                print(f"edit at node #{node.node_id} (epoch {report.epoch}) hit the "
                      f"cursor's remaining trunk: {report.cursors_invalidated} cursor invalidated")
                break
            page = doc.page(cursor=page)
            print(f"edit at node #{node.node_id} (epoch {report.epoch}): cursor resumed, "
                  f"next page offset {page.offset} ({len(page.answers)} answers)")
            if page.exhausted:
                page = doc.page(page_size=10)
        try:
            doc.page(cursor=page)
        except CursorInvalidatedError as exc:
            print(f"as reported: {exc.report.describe()}")

        # reopen against the updated document
        fresh_page = doc.page(page_size=1000)
        print(f"reopened page at epoch {doc.epoch}: "
              f"{len(fresh_page.answers)} answers on the updated document")
        single_counts = [d.count() for d in docs]
        engine.close()

        # ---- sharded: worker processes sharing the same catalog directory
        with Engine(catalog=catalog_dir, workers=2) as sharded:
            docs = [sharded.add_tree(random_tree(300, LABELS, seed), query_source)
                    for seed in (1, 2, 3)]
            sharded_counts = [d.count() for d in docs]
            assert sharded_counts == single_counts, "sharded answers diverged!"
            print(f"\nsharded engine ({sharded.workers} workers, shared catalog): "
                  f"same per-document counts {sharded_counts}")
            print("merged stats:", json.dumps(
                {k: v for k, v in sharded.stats().items() if k != "per_shard"}, indent=2))


if __name__ == "__main__":
    main()
