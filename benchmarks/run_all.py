"""Benchmark regression harness: record per-backend medians as BENCH_*.json.

Runs the three headline measurements of the paper's claims — preprocessing
(Theorem 8.1, linear), updates (Theorem 8.1, logarithmic) and delay
(Theorem 6.5, output-linear) — once per relation backend on the stock
workloads of the benchmark suite, and writes one ``BENCH_<name>.json``
trajectory per measurement into ``benchmarks/results/``.

Future PRs re-run this script and compare the fresh numbers against the
committed files, so every performance change leaves an auditable trail:

    PYTHONPATH=src python benchmarks/run_all.py            # full run
    PYTHONPATH=src python benchmarks/run_all.py --quick    # <30 s smoke

``--quick`` shrinks the sweep (used by ``make check`` as a perf smoke test);
``--compare`` only prints the bitset-vs-pairs speedups without writing files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.workloads import (
    mixed_workload,
    query_for_name,
    serving_traffic,
    tree_for_experiment,
)
from repro.core.enumerator import TreeRuntime

BACKENDS = ("pairs", "bitset")


@contextlib.contextmanager
def _gc_paused():
    """Collect, then pause the cyclic GC around a timed region.

    Generational collections otherwise fire at deterministic allocation
    counts, landing full-heap pauses inside specific measurements and
    skewing individual medians.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
SEED = 20190612


def _fresh_enumerator(size: int, query_name: str, backend: str) -> TreeRuntime:
    tree = tree_for_experiment(size, "random", seed=SEED)
    return TreeRuntime(tree, query_for_name(query_name), relation_backend=backend)


def _clear_query_caches() -> None:
    """Forget the process's compiled automata so the next build is cold.

    Without this every sample after the very first would reuse the compiled
    automaton and its box plans, and the recorded numbers would conflate
    cache warming with genuine preprocessing speed.
    """
    from repro.core.enumerator import clear_automata

    clear_automata()


def bench_preprocessing(sizes, reps: int):
    """Median seconds to build the full enumeration structure, per backend/size.

    ``median_s`` is the *cold* build (query caches cleared first: translation,
    homogenization and box plans all run), which is what the seed baseline
    measured; ``warm_median_s`` is a second build of a content-equal query,
    showing what a serving deployment pays per additional document.  Reps are
    interleaved across backends (round-robin) so that slow drift — host load,
    allocator state — hits every backend equally instead of biasing whichever
    backend runs last.
    """
    cold = {backend: {size: [] for size in sizes} for backend in BACKENDS}
    warm = {backend: {size: [] for size in sizes} for backend in BACKENDS}
    for _ in range(reps):
        for backend in BACKENDS:
            for size in sizes:
                tree = tree_for_experiment(size, "random", seed=SEED)
                query = query_for_name("select-a")
                _clear_query_caches()
                with _gc_paused():
                    start = time.perf_counter()
                    TreeRuntime(tree, query, relation_backend=backend)
                    cold[backend][size].append(time.perf_counter() - start)
                query = query_for_name("select-a")
                with _gc_paused():
                    start = time.perf_counter()
                    TreeRuntime(tree, query, relation_backend=backend)
                    warm[backend][size].append(time.perf_counter() - start)
    results = {
        backend: {
            str(size): {
                "median_s": statistics.median(cold[backend][size]),
                "warm_median_s": statistics.median(warm[backend][size]),
                "reps": reps,
            }
            for size in sizes
        }
        for backend in BACKENDS
    }
    return {
        "bench": "preprocessing_linear",
        "workload": {"query": "select-a", "shape": "random", "seed": SEED, "sizes": list(sizes)},
        "backends": results,
    }


def bench_update(sizes, n_updates: int, passes: int = 2):
    """Median per-update seconds and trunk size, per backend/size.

    Each backend runs the workload ``passes`` times, interleaved with the
    other backends, and keeps the best median — one host load spike during
    a single pass then cannot poison a backend's number.
    """
    medians = {backend: {size: [] for size in sizes} for backend in BACKENDS}
    trunk_medians = {backend: {} for backend in BACKENDS}
    for _ in range(passes):
        for backend in BACKENDS:
            for size in sizes:
                tree = tree_for_experiment(size, "random", seed=SEED)
                enumerator = TreeRuntime(
                    tree, query_for_name("select-a"), relation_backend=backend
                )
                edits = mixed_workload(tree, n_updates, seed=SEED + 1)
                times = []
                trunks = []
                with _gc_paused():
                    for edit in edits:
                        start = time.perf_counter()
                        stats = enumerator.apply(edit)
                        times.append(time.perf_counter() - start)
                        trunks.append(stats.trunk_size)
                medians[backend][size].append(statistics.median(times))
                trunk_medians[backend][size] = statistics.median(trunks)
    results = {
        backend: {
            str(size): {
                "median_s": min(medians[backend][size]),
                "median_trunk": trunk_medians[backend][size],
                "updates": n_updates,
            }
            for size in sizes
        }
        for backend in BACKENDS
    }
    return {
        "bench": "update_logarithmic",
        "workload": {
            "query": "select-a",
            "shape": "random",
            "seed": SEED,
            "sizes": list(sizes),
            "updates": n_updates,
        },
        "backends": results,
    }


def _iter_delays(iterator, max_answers=None):
    """Per-``next()`` wall-clock delays of an answer iterator."""
    delays = []
    while True:
        start = time.perf_counter()
        try:
            next(iterator)
        except StopIteration:
            break
        delays.append(time.perf_counter() - start)
        if max_answers is not None and len(delays) >= max_answers:
            break
    return delays


def bench_delay(size: int, max_answers: int):
    """Median and p95 per-answer delay, per backend, on the descendant query.

    Also measures the **engine facade**: the same document and query, once
    as a directly built bitset ``TreeRuntime`` walked through
    ``assignments()`` and once served by ``Engine.add_tree`` and walked
    through ``Document.stream()``.  Each side is built once; one harness
    then measures :data:`GATE_PAIRS` back-to-back pairs of per-answer delay
    medians, alternating which side runs first, and takes the median of the
    per-pair ratios.  The facade must be free — the engine builds the same
    document and ``stream()`` hands back the runtime's own iterator — and
    the smoke gate holds it to <5% overhead on the bitset delay median.
    """
    results = {}
    for backend in BACKENDS:
        enumerator = _fresh_enumerator(size, "descendant", backend)
        with _gc_paused():
            delays = enumerator.delay_probe(max_answers=max_answers)
        delays_sorted = sorted(delays)
        p95 = delays_sorted[min(len(delays_sorted) - 1, int(0.95 * len(delays_sorted)))]
        results[backend] = {
            "median_s": statistics.median(delays),
            "p95_s": p95,
            "answers": len(delays),
        }

    from repro import Engine

    tree = tree_for_experiment(size, "random", seed=SEED)
    runtime = TreeRuntime(tree, query_for_name("descendant"), relation_backend="bitset")
    with Engine() as engine:
        doc = engine.add_tree(tree, query_for_name("descendant"))
        sides = {
            "direct": lambda: iter(runtime.assignments()),
            "facade": lambda: iter(doc.stream()),
        }
        for make in sides.values():  # first walks fill lazily built tables
            _iter_delays(make(), max_answers)
        medians = {"direct": [], "facade": []}
        with _gc_paused():
            for pair in range(GATE_PAIRS):
                for side in ("direct", "facade") if pair % 2 == 0 else ("facade", "direct"):
                    medians[side].append(
                        statistics.median(_iter_delays(sides[side](), max_answers))
                    )
    ratios = [facade / direct for direct, facade in zip(medians["direct"], medians["facade"])]
    overhead = statistics.median(ratios)
    return {
        "bench": "delay_constant",
        "workload": {"query": "descendant", "shape": "random", "seed": SEED, "size": size},
        "backends": results,
        "engine_facade": {
            "pairs": GATE_PAIRS,
            "direct_median_s": statistics.median(medians["direct"]),
            "engine_median_s": statistics.median(medians["facade"]),
            "pair_ratios": ratios,
            "overhead_ratio": overhead,
            # The engine carries the observability instrumentation in its
            # *off* state here (no trace, no delay budget), so this same
            # ratio doubles as the tracing-off overhead gate: all the hooks
            # left in the hot path together must cost <5%.
            "tracing_off_overhead_ratio": overhead,
        },
    }


#: the standing queries of the serving workload (one compiled query each,
#: shared by all the documents it serves): two lightweight queries, where
#: serving cost is dominated by the per-document build and the catalog is
#: roughly neutral, and one heavyweight nondeterministic query (hundreds of
#: states after translation), where compilation dominates and the catalog
#: must pay off clearly — the smoke gate checks the heavyweight one.
SERVING_QUERIES = ("select-a", "descendant", "nondet-6")
HEAVY_SERVING_QUERY = "nondet-6"


def _serving_traffic_run(
    engine, trees, queries, doc_edits, rounds, page_size, pages_per_round, edits_per_batch,
    batched_ingest=False, kill_shard_after=None,
):
    """Drive one engine (local or sharded) through the serving traffic.

    Same deterministic schedule whatever the engine: add the documents,
    open one page cursor per document, then replay the interleaved
    edit-batch / page-fetch events.  Returns the measured medians plus the
    final canonical answers per document (the sharded-equivalence check).

    ``batched_ingest=True`` adds all the documents through one
    ``engine.add_documents`` call (the pipelined path: one batch per shard,
    every batch in flight at once) instead of one synchronous ``add_tree``
    round trip per document; ``ingest_total_s`` measures whichever path ran.

    ``kill_shard_after=(n, shard)`` SIGKILLs one worker after the n-th
    traffic event (failover measurement for replicated engines): the
    schedule, and the final answers, must be unaffected — only the wall
    clock (``traffic_total_s``) may pay for the failover and rebuild.
    """
    from repro.errors import CursorInvalidatedError

    build_times = []
    if batched_ingest:
        with _gc_paused():
            start = time.perf_counter()
            docs = engine.add_documents(trees, queries=queries, doc_ids=range(len(trees)))
            ingest_total_s = time.perf_counter() - start
        build_times = [ingest_total_s / max(1, len(docs))]
    else:
        docs = []
        for index, (tree, query) in enumerate(zip(trees, queries)):
            with _gc_paused():
                start = time.perf_counter()
                docs.append(engine.add_tree(tree, query, doc_id=index))
                build_times.append(time.perf_counter() - start)
        ingest_total_s = sum(build_times)

    pages = {}
    opened = 0
    for doc in docs:
        pages[doc.doc_id] = doc.page(page_size=page_size)
        opened += 1
    resumed_across_edits = 0
    invalidated = 0
    edit_times = []
    page_times = []
    edit_pos = {doc.doc_id: 0 for doc in docs}
    n_docs = len(docs)
    traffic_start = time.perf_counter()
    for event_index, (kind, doc_index) in enumerate(
        serving_traffic(n_docs, rounds, seed=SEED + 5)
    ):
        if kill_shard_after is not None and event_index == kill_shard_after[0]:
            process = engine._pool._shards[kill_shard_after[1]].process
            process.kill()
            process.join(timeout=10.0)
        doc = docs[doc_index]
        if kind == "edit":
            pos = edit_pos[doc.doc_id]
            batch = doc_edits[doc.doc_id][pos : pos + edits_per_batch]
            edit_pos[doc.doc_id] = pos + edits_per_batch
            if not batch:
                continue
            with _gc_paused():
                start = time.perf_counter()
                report = doc.apply_edits(batch)
                edit_times.append(time.perf_counter() - start)
            resumed_across_edits += report.cursors_resumed
            invalidated += report.cursors_invalidated
        else:
            for _ in range(pages_per_round):
                page = pages[doc.doc_id]
                # an exhausted stream released its cursor id: reopen fresh
                reopened = page.exhausted
                with _gc_paused():
                    start = time.perf_counter()
                    try:
                        page = doc.page(page_size=page_size) if reopened else doc.page(cursor=page)
                    except CursorInvalidatedError:
                        page = doc.page(page_size=page_size)
                        reopened = True
                    page_times.append(time.perf_counter() - start)
                if reopened:
                    opened += 1
                pages[doc.doc_id] = page
    traffic_total_s = time.perf_counter() - traffic_start
    # answers in enumeration order: the legs must agree on the order too
    final_answers = {
        doc.doc_id: [
            sorted([str(var), str(pos)] for var, pos in answer) for answer in doc.stream()
        ]
        for doc in docs
    }
    return {
        "doc_build_median_s": statistics.median(build_times),
        "ingest_total_s": ingest_total_s,
        "traffic_total_s": traffic_total_s,
        "edit_batch_median_s": statistics.median(edit_times) if edit_times else None,
        "page_fetch_median_s": statistics.median(page_times) if page_times else None,
        "cursors": {
            "opened": opened,
            "resumed_across_edit_batches": resumed_across_edits,
            "invalidated_by_edit_batches": invalidated,
            # resumed / (resumed + invalidated): the measured precision of the
            # fine-grained cursor dependency test on this traffic schedule
            "resume_rate": (
                resumed_across_edits / (resumed_across_edits + invalidated)
                if (resumed_across_edits + invalidated)
                else None
            ),
        },
        "final_answers": final_answers,
    }


def bench_serving(
    n_docs: int,
    size: int,
    rounds: int,
    page_size: int,
    edits_per_batch: int = 2,
    pages_per_round: int = 3,
    shard_workers: int = 2,
):
    """The serving workload: N documents × standing queries × edit/page traffic.

    Runs through the unified :class:`repro.Engine` API and measures the
    serving-specific quantities:

    * **cold start vs catalog start** — per standing query, what a fresh
      process pays without the catalog (``compile_s``: translate +
      homogenize, then ``cold_first_build_s``: the first document build,
      which also compiles the box plans) against what it pays with it
      (``load_s``: median catalog load, then ``warm_first_build_s``: the
      first build with the loaded plans installed).  Both phases are timed
      separately so the speedups compare like with like;
    * **per-document build** — attaching one more document to an
      already-loaded query (the only preprocessing a serving process pays);
    * **traffic medians** — per-edit-batch and per-page times over a
      read-heavy interleaved schedule (each round of
      ``repro.bench.workloads.serving_traffic``: one edit batch on one
      document, several page fetches on another), plus how many cursors
      resumed across edit batches vs were invalidated (a cursor resumes when
      the batch's trunks are disjoint from the regions it still has to read);
    * **the sharded variant** — the identical document set and traffic
      schedule through ``Engine(workers=N)`` (worker processes sharing the
      same catalog directory): per-shard routing costs show up in the
      medians, and the final per-document answers must be byte-identical to
      the single-process run (``answers_match_single_process``, gated by the
      smoke).
    """
    import shutil
    import tempfile

    from repro import Engine
    from repro.core.enumerator import compiled_automaton_for, register_automaton
    from repro.engine import QueryCatalog
    from repro.engine.sharding import STREAM_CREDIT

    catalog_dir = tempfile.mkdtemp(prefix="repro-serving-bench-")
    try:
        catalog = QueryCatalog(catalog_dir)
        compile_s = {}
        cold_first_build_s = {}
        persist_s = {}
        load_s = {}
        warm_first_build_s = {}
        warmup_tree = tree_for_experiment(size, "random", seed=SEED)
        for query_name in SERVING_QUERIES:
            # -- cold start: translate + homogenize, then a first document
            #    build that also compiles the box plans
            _clear_query_caches()
            query = query_for_name(query_name)
            with _gc_paused():
                start = time.perf_counter()
                automaton = compiled_automaton_for(query)
                compile_s[query_name] = time.perf_counter() - start
            with _gc_paused():
                start = time.perf_counter()
                TreeRuntime(warmup_tree, query)
                cold_first_build_s[query_name] = time.perf_counter() - start
            with _gc_paused():
                start = time.perf_counter()
                catalog.save(query, automaton=automaton)
                persist_s[query_name] = time.perf_counter() - start
            # -- catalog start: load the persisted compiled query (median of
            #    several), then a first build with the loaded plans installed
            load_times = []
            loaded = None
            for _ in range(7):
                with _gc_paused():
                    loaded = catalog.load(catalog.digest_of(query), use_cache=False)
                    load_times.append(loaded.load_seconds)
            load_s[query_name] = statistics.median(load_times)
            _clear_query_caches()
            fresh_query = query_for_name(query_name)
            register_automaton(loaded.digest, loaded.automaton)
            with _gc_paused():
                start = time.perf_counter()
                TreeRuntime(warmup_tree, fresh_query)
                warm_first_build_s[query_name] = time.perf_counter() - start

        # -- the same document set and edit workload for both engine modes
        trees = [tree_for_experiment(size, "random", seed=SEED + i) for i in range(n_docs)]
        queries = [query_for_name(SERVING_QUERIES[i % len(SERVING_QUERIES)]) for i in range(n_docs)]
        doc_edits = {
            i: mixed_workload(trees[i], rounds * edits_per_batch, seed=SEED + 17 + i)
            for i in range(n_docs)
        }

        # -- single-process engine over the shared catalog (fresh-process shape)
        _clear_query_caches()
        with Engine(catalog=catalog_dir) as engine:
            single = _serving_traffic_run(
                engine, trees, queries, doc_edits, rounds, page_size, pages_per_round, edits_per_batch
            )

        # -- sharded variant: same traffic, worker processes, same catalog dir
        _clear_query_caches()
        with Engine(catalog=catalog_dir, workers=shard_workers) as engine:
            sharded = _serving_traffic_run(
                engine, trees, queries, doc_edits, rounds, page_size, pages_per_round, edits_per_batch
            )

        # -- pipelined sharded variant (PR 5): batched add_documents ingest
        #    (one batch per shard, builds overlapping across workers), the
        #    same traffic, and push-streaming throughput on the biggest
        #    result set (the descendant-query document) with the protocol's
        #    chunk/round-trip counters.
        _clear_query_caches()
        with Engine(catalog=catalog_dir, workers=shard_workers) as engine:
            pipelined = _serving_traffic_run(
                engine, trees, queries, doc_edits, rounds, page_size, pages_per_round,
                edits_per_batch, batched_ingest=True,
            )
            stream_doc = engine.document(1 % n_docs)  # the descendant query
            before = engine.stats()["streaming"]
            with _gc_paused():
                start = time.perf_counter()
                stream_answers = sum(1 for _ in stream_doc.stream())
                stream_seconds = time.perf_counter() - start
            after = engine.stats()["streaming"]
            streaming = {
                "chunk_size": after["chunk_size"],
                "credit": STREAM_CREDIT,
                "chunks": after["chunks"] - before["chunks"],
                "round_trips": after["round_trips"] - before["round_trips"],
            }
        # -- replicated variant (PR 6): the same traffic on a fault-tolerant
        #    fleet (replicas=2), once clean and once with a worker SIGKILL'd
        #    mid-traffic — the failover/rebuild cost shows up only as wall
        #    clock, never in the answers.
        replica_workers = max(3, shard_workers)
        _clear_query_caches()
        with Engine(catalog=catalog_dir, workers=replica_workers, replicas=2) as engine:
            replicated = _serving_traffic_run(
                engine, trees, queries, doc_edits, rounds, page_size, pages_per_round,
                edits_per_batch, batched_ingest=True,
            )
        _clear_query_caches()
        n_events = rounds * 2  # edit + page events per round, roughly
        with Engine(catalog=catalog_dir, workers=replica_workers, replicas=2) as engine:
            failover = _serving_traffic_run(
                engine, trees, queries, doc_edits, rounds, page_size, pages_per_round,
                edits_per_batch, batched_ingest=True,
                kill_shard_after=(max(1, n_events // 3), 0),
            )
            engine.await_repairs()
            fleet_stats = engine.stats()
            failover_counters = {
                key: fleet_stats[key]
                for key in (
                    "deaths_total",
                    "failovers_total",
                    "migrations_total",
                    "timeouts_total",
                )
            }
        # -- build-cache variant (PR 7): a duplicated-structure ingest — the
        #    same document added n_docs times — once with the cross-document
        #    build cache disabled and once enabled, as GATE_PAIRS
        #    back-to-back pairs alternating which leg runs first.  The cache
        #    hash-conses whole built subtrees (box + enumeration index), so
        #    with the cache on every document after the first builds from
        #    the cache.  The descendant query makes the leg build-dominated
        #    (its box and index construction dwarfs the per-document fixed
        #    costs — tree copy, term construction, content hashing — that
        #    the cache cannot remove).
        dup_tree = tree_for_experiment(size, "random", seed=SEED)
        dup_query_name = "descendant"

        def _dup_ingest(cached, with_answers):
            _clear_query_caches()
            options = {} if cached else {"build_cache_size": 0}
            with Engine(catalog=catalog_dir, **options) as engine:
                times = []
                docs = []
                for index in range(n_docs):
                    query = query_for_name(dup_query_name)
                    start = time.perf_counter()
                    docs.append(engine.add_tree(dup_tree.copy(), query, doc_id=f"dup-{index}"))
                    times.append(time.perf_counter() - start)
                answers = {
                    doc.doc_id: [
                        sorted([str(var), str(pos)] for var, pos in answer)
                        for answer in doc.stream()
                    ]
                    for doc in docs
                } if with_answers else None
                counters = {
                    key: value
                    for key, value in engine.stats().items()
                    if key.startswith("build_cache_")
                }
            return times, answers, counters

        legs = {False: [], True: []}  # cached? -> [(times, answers, counters)]
        with _gc_paused():  # one collection for all the pairs
            for pair in range(GATE_PAIRS):
                for cached in (False, True) if pair % 2 == 0 else (True, False):
                    legs[cached].append(_dup_ingest(cached, with_answers=pair == 0))
        cold_totals = [sum(times) for times, _answers, _counters in legs[False]]
        warm_totals = [sum(times) for times, _answers, _counters in legs[True]]
        speedups = [cold / warm for cold, warm in zip(cold_totals, warm_totals)]
        build_cache_section = {
            "n_docs": n_docs,
            "doc_size": size,
            "query": dup_query_name,
            "pairs": GATE_PAIRS,
            "cold": {  # cache disabled: every document pays the full build
                "ingest_total_s": statistics.median(cold_totals),
                "doc_build_median_s": statistics.median(
                    t for times, _answers, _counters in legs[False] for t in times
                ),
            },
            "warm": {  # cache enabled: documents 2..n build from the cache
                "ingest_total_s": statistics.median(warm_totals),
                "doc_build_median_s": statistics.median(
                    t for times, _answers, _counters in legs[True] for t in times
                ),
                **legs[True][-1][2],
            },
            "pair_speedups": speedups,
            "ingest_speedup": statistics.median(speedups),
            "answers_match_cache_disabled": legs[False][0][1] == legs[True][0][1],
        }

        # -- observability variant (PR 8): the sharded fleet with the live
        #    per-answer delay SLO armed (``delay_budget``).  Every worker
        #    records each enumerated answer's delay into the merged
        #    ``answer_delay_seconds`` histogram; on a healthy fleet the p95
        #    must sit far under the budget with zero violations (gated by
        #    the smoke), and the recorded p99 lands in the committed file.
        obs_budget_s = 0.25
        _clear_query_caches()
        with Engine(
            catalog=catalog_dir, workers=shard_workers, delay_budget=obs_budget_s
        ) as engine:
            obs_docs = [engine.add_tree(trees[i], queries[i]) for i in range(n_docs)]
            with _gc_paused():
                obs_answers = sum(1 for doc in obs_docs for _ in doc.stream())
            for index, doc in enumerate(obs_docs):
                doc.apply_edits(doc_edits[index][:edits_per_batch])
            obs_metrics = engine.metrics()
        obs_delay = obs_metrics["answer_delay_seconds"]
        obs_section = {
            "workers": shard_workers,
            "delay_budget_s": obs_budget_s,
            "answers_observed": obs_answers,
            "delay_histogram": {
                "count": obs_delay["count"],
                "p50_s": obs_delay["p50"],
                "p95_s": obs_delay["p95"],
                "p99_s": obs_delay["p99"],
                "max_s": obs_delay["max"],
            },
            "delay_violations": obs_metrics.get("delay_violations", {}).get("value", 0),
            "update_batch_p95_s": obs_metrics["update_batch_seconds"]["p95"],
            "protocol_round_trip_p95_s": obs_metrics["protocol_round_trip_seconds"]["p95"],
        }

        # -- network variant (PR 9): the identical traffic served over real
        #    TCP — an EngineServer wrapping the sharded engine, driven by a
        #    RemoteEngine on a loopback socket.  The wire tier must be
        #    observationally invisible (byte-identical answers, gated by the
        #    smoke), and on a long small-chunk stream the credit window
        #    must batch chunk pushes into fewer round trips than chunks
        #    (also gated).
        from repro.net import EngineServer, RemoteEngine

        _clear_query_caches()
        with Engine(catalog=catalog_dir, workers=shard_workers) as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address) as remote:
                    network = _serving_traffic_run(
                        remote, trees, queries, doc_edits, rounds, page_size,
                        pages_per_round, edits_per_batch, batched_ingest=True,
                    )
                    # a long TCP stream with small chunks: one credit grant
                    # per 16 chunks consumed
                    net_chunk_size = 32
                    remote.stream_chunk_size = net_chunk_size
                    stream_doc = remote.document(1 % n_docs)  # the descendant query
                    before = remote.net_stats()
                    with _gc_paused():
                        start = time.perf_counter()
                        net_stream_answers = sum(1 for _ in stream_doc.stream())
                        net_stream_seconds = time.perf_counter() - start
                    after = remote.net_stats()
                    round_trip_hist = remote.metrics()["net_round_trip_seconds"]
                    net_stream = {
                        "answers": net_stream_answers,
                        "seconds": net_stream_seconds,
                        "answers_per_s": (
                            net_stream_answers / net_stream_seconds
                            if net_stream_seconds
                            else None
                        ),
                        "chunk_size": net_chunk_size,
                        "chunks": after["chunks"] - before["chunks"],
                        "round_trips": after["round_trips"] - before["round_trips"],
                        "credit": STREAM_CREDIT,
                    }
            finally:
                server.stop()

        single_final = single.pop("final_answers")
        answers_match = single_final == sharded.pop("final_answers")
        pipelined_match = single_final == pipelined.pop("final_answers")
        replicated_match = single_final == replicated.pop("final_answers")
        failover_match = single_final == failover.pop("final_answers")
        network_match = single_final == network.pop("final_answers")
    finally:
        shutil.rmtree(catalog_dir, ignore_errors=True)

    cold_start_s = {q: compile_s[q] + cold_first_build_s[q] for q in SERVING_QUERIES}
    catalog_start_s = {q: load_s[q] + warm_first_build_s[q] for q in SERVING_QUERIES}
    return {
        "bench": "serving_multidoc",
        "workload": {
            "queries": list(SERVING_QUERIES),
            "shape": "random",
            "seed": SEED,
            "n_docs": n_docs,
            "doc_size": size,
            "rounds": rounds,
            "page_size": page_size,
            "edits_per_batch": edits_per_batch,
            "pages_per_round": pages_per_round,
        },
        "compile_s": compile_s,
        "cold_first_build_s": cold_first_build_s,
        "persist_s": persist_s,
        "load_s": load_s,
        "warm_first_build_s": warm_first_build_s,
        "cold_start_s": cold_start_s,
        "catalog_start_s": catalog_start_s,
        "catalog_start_speedup": {
            q: cold_start_s[q] / catalog_start_s[q] if catalog_start_s[q] else float("inf")
            for q in SERVING_QUERIES
        },
        "heavy_query": HEAVY_SERVING_QUERY,
        "doc_build_median_s": single["doc_build_median_s"],
        "edit_batch_median_s": single["edit_batch_median_s"],
        "page_fetch_median_s": single["page_fetch_median_s"],
        "cursors": single["cursors"],
        "ingest_total_s": single["ingest_total_s"],
        "sharded": {
            "workers": shard_workers,
            "doc_build_median_s": sharded["doc_build_median_s"],
            "ingest_total_s": sharded["ingest_total_s"],
            "edit_batch_median_s": sharded["edit_batch_median_s"],
            "page_fetch_median_s": sharded["page_fetch_median_s"],
            "cursors": sharded["cursors"],
            "answers_match_single_process": answers_match,
        },
        "sharded_pipelined": {
            "workers": shard_workers,
            "ingest_total_s": pipelined["ingest_total_s"],
            "ingest_per_doc_s": pipelined["ingest_total_s"] / n_docs,
            # the acceptance comparison: batched, overlapped ingest vs the
            # one-round-trip-per-document sequential sharded ingest above
            # (overlap needs >1 CPU to show as wall clock; the round-trip
            # serialization is gone either way)
            "ingest_speedup_vs_sequential_sharded": (
                sharded["ingest_total_s"] / pipelined["ingest_total_s"]
                if pipelined["ingest_total_s"]
                else float("inf")
            ),
            "edit_batch_median_s": pipelined["edit_batch_median_s"],
            "page_fetch_median_s": pipelined["page_fetch_median_s"],
            "cursors": pipelined["cursors"],
            "stream": {
                "answers": stream_answers,
                "seconds": stream_seconds,
                "answers_per_s": stream_answers / stream_seconds if stream_seconds else None,
                **streaming,
            },
            "answers_match_single_process": pipelined_match,
        },
        "network": {
            "workers": shard_workers,
            "transport": "tcp-loopback",
            "ingest_total_s": network["ingest_total_s"],
            "traffic_total_s": network["traffic_total_s"],
            "edit_batch_median_s": network["edit_batch_median_s"],
            "page_fetch_median_s": network["page_fetch_median_s"],
            "round_trip_p50_s": round_trip_hist["p50"],
            "round_trip_p95_s": round_trip_hist["p95"],
            "round_trips_measured": round_trip_hist["count"],
            "cursors": network["cursors"],
            "stream": net_stream,
            "answers_match_single_process": network_match,
        },
        "build_cache": build_cache_section,
        "obs": obs_section,
        "replicated": {
            "workers": replica_workers,
            "replicas": 2,
            "ingest_total_s": replicated["ingest_total_s"],
            "traffic_total_s": replicated["traffic_total_s"],
            "edit_batch_median_s": replicated["edit_batch_median_s"],
            "page_fetch_median_s": replicated["page_fetch_median_s"],
            "cursors": replicated["cursors"],
            "answers_match_single_process": replicated_match,
            # one worker SIGKILL'd a third of the way through the schedule:
            # the overhead ratio is the failover + background-rebuild cost
            # relative to the clean replicated run (gated by the smoke)
            "failover": {
                "killed_shard": 0,
                "traffic_total_s": failover["traffic_total_s"],
                "overhead_vs_clean": (
                    failover["traffic_total_s"] / replicated["traffic_total_s"]
                    if replicated["traffic_total_s"]
                    else float("inf")
                ),
                "answers_match_single_process": failover_match,
                **failover_counters,
            },
        },
    }


def _attach_seed_baseline(payload, out_dir):
    """Merge the recorded seed baseline (pairs backend, pre-bitset code) in.

    ``SEED_BASELINE.json`` was measured once on the seed revision with the
    same workloads; keeping it next to the trajectories lets every BENCH file
    document its speedup against the seed configuration.
    """
    path = os.path.join(out_dir, "SEED_BASELINE.json")
    if not os.path.exists(path) or payload["bench"] not in (
        "preprocessing_linear",
        "update_logarithmic",
        "delay_constant",
    ):
        return
    with open(path, encoding="utf8") as handle:
        baseline = json.load(handle)
    section = {
        "preprocessing_linear": "preprocessing",
        "update_logarithmic": "update",
        "delay_constant": "delay",
    }[payload["bench"]]
    base = baseline.get(section, {})
    bitset = payload["backends"]["bitset"]
    if payload["bench"] == "delay_constant":
        size = str(payload["workload"]["size"])
        if size in base and bitset["median_s"]:
            payload["seed_baseline"] = base[size]
            payload["speedup_vs_seed_pairs"] = base[size]["median_s"] / bitset["median_s"]
    else:
        payload["seed_baseline"] = {s: base[s] for s in bitset if s in base}
        payload["speedup_vs_seed_pairs"] = {
            s: base[s]["median_s"] / bitset[s]["median_s"] for s in bitset if s in base
        }


#: Slack factor for the delay-regression gate: the quick smoke runs on a
#: smaller tree than the committed trajectory and on whatever machine is at
#: hand, so only a regression beyond this factor fails the gate.
DELAY_REGRESSION_SLACK = 2.0

#: The engine facade (Document.stream()) is measured against the direct
#: runtime iterator in the same run, same harness — it must stay within 5%
#: of the bitset delay median (it hands back the runtime's own iterator, so
#: the honest expectation is ~0%).
ENGINE_FACADE_SLACK = 1.05

#: Back-to-back pairs behind each ratio gate of the smoke (the facade
#: overhead, the build-cache speedup).  Each pair runs both sides,
#: alternating which goes first, and the gate reads the median of the
#: per-pair ratios: a burst of host load moves one pair, not the verdict.
GATE_PAIRS = 9

#: Killing one worker of the replicated fleet mid-traffic may cost failover
#: retries and the background rebuild, but must not balloon the traffic wall
#: clock: the with-kill run is budgeted at this factor over the clean
#: replicated run...
FAILOVER_OVERHEAD_SLACK = 1.15
#: ...plus an absolute allowance for the one injected death, because a
#: single worker respawn (fork + catalog load + replay-rebuild of the
#: migrated documents) is a fixed cost: on quick sweeps, where the clean run
#: is only a second or two, it would otherwise eat the whole 15% ratio
#: budget by itself.
FAILOVER_RESPAWN_ALLOWANCE_S = 0.75

#: The seeded serving workload resumed 2 of 24 cursor decisions under the old
#: whole-box ``id()`` trunk test; the fine-grained slot-mask test must beat
#: this floor on every serving variant (gated by the quick smoke).
CURSOR_RESUME_RATE_FLOOR = 2 / 24


def _delay_regression_gate(payload, out_dir):
    """Fail the perf smoke if the bitset delay regressed vs the committed file.

    Compares the fresh bitset delay median against the committed
    ``BENCH_delay_constant.json`` (the recorded trajectory every PR must not
    regress).  Returns ``True`` when the gate passes (or when there is no
    committed trajectory to compare against).
    """
    path = os.path.join(out_dir, "BENCH_delay_constant.json")
    if not os.path.exists(path):
        print("  delay gate: no committed BENCH_delay_constant.json, skipping")
        return True
    with open(path, encoding="utf8") as handle:
        committed = json.load(handle)
    committed_median = committed["backends"]["bitset"]["median_s"]
    fresh_median = payload["backends"]["bitset"]["median_s"]
    limit = committed_median * DELAY_REGRESSION_SLACK
    ok = fresh_median <= limit
    print(
        f"  delay gate: fresh bitset median {fresh_median*1e6:.1f}us vs committed "
        f"{committed_median*1e6:.1f}us (limit {limit*1e6:.1f}us) -> "
        f"{'ok' if ok else 'REGRESSION'}"
    )
    return ok


def _speedup_lines(payload):
    """Human-readable bitset-vs-pairs speedups for one payload."""
    lines = []
    if payload["bench"] == "serving_multidoc":
        cursors = payload["cursors"]
        for query_name in payload["workload"]["queries"]:
            lines.append(
                f"  {query_name}: cold start (compile {payload['compile_s'][query_name]*1e3:.1f}ms"
                f" + first build {payload['cold_first_build_s'][query_name]*1e3:.1f}ms) -> "
                f"catalog start (load {payload['load_s'][query_name]*1e3:.2f}ms"
                f" + first build {payload['warm_first_build_s'][query_name]*1e3:.1f}ms)  "
                f"({payload['catalog_start_speedup'][query_name]:.1f}x)"
            )
        lines.append(
            f"  per-doc build {payload['doc_build_median_s']*1e3:.2f}ms, "
            f"edit batch {payload['edit_batch_median_s']*1e3:.2f}ms, "
            f"page fetch {payload['page_fetch_median_s']*1e3:.2f}ms"
        )
        rate = cursors.get("resume_rate")
        lines.append(
            f"  cursors: {cursors['opened']} opened, "
            f"{cursors['resumed_across_edit_batches']} resumed across edit batches, "
            f"{cursors['invalidated_by_edit_batches']} invalidated"
            + (f" (resume rate {rate:.2f})" if rate is not None else "")
        )
        sharded = payload.get("sharded")
        if sharded:
            lines.append(
                f"  sharded ({sharded['workers']} workers): per-doc build "
                f"{sharded['doc_build_median_s']*1e3:.2f}ms, edit batch "
                f"{sharded['edit_batch_median_s']*1e3:.2f}ms, page fetch "
                f"{sharded['page_fetch_median_s']*1e3:.2f}ms, answers match "
                f"single-process: {sharded['answers_match_single_process']}"
            )
        pipelined = payload.get("sharded_pipelined")
        if pipelined:
            stream = pipelined["stream"]
            lines.append(
                f"  pipelined ({pipelined['workers']} workers): batched ingest "
                f"{pipelined['ingest_total_s']*1e3:.1f}ms total "
                f"({pipelined['ingest_per_doc_s']*1e3:.2f}ms/doc, "
                f"{pipelined['ingest_speedup_vs_sequential_sharded']:.2f}x vs sequential sharded), "
                f"answers match single-process: {pipelined['answers_match_single_process']}"
            )
            lines.append(
                f"  pipelined stream: {stream['answers']} answers in {stream['seconds']*1e3:.1f}ms "
                f"({stream['chunks']} chunks / {stream['round_trips']} round trips, "
                f"credit {stream['credit']} x {stream['chunk_size']})"
            )
        network = payload.get("network")
        if network:
            stream = network["stream"]
            lines.append(
                f"  network ({network['workers']} workers, TCP loopback): edit batch "
                f"{network['edit_batch_median_s']*1e3:.2f}ms, page fetch "
                f"{network['page_fetch_median_s']*1e3:.2f}ms, round trip "
                f"p50 {network['round_trip_p50_s']*1e6:.0f}us / "
                f"p95 {network['round_trip_p95_s']*1e6:.0f}us, answers match "
                f"single-process: {network['answers_match_single_process']}"
            )
            lines.append(
                f"  network stream: {stream['answers']} answers in "
                f"{stream['seconds']*1e3:.1f}ms ({stream['chunks']} chunks / "
                f"{stream['round_trips']} credit round trips, window "
                f"{stream['credit']})"
            )
        cache = payload.get("build_cache")
        if cache:
            lines.append(
                f"  build cache (duplicated ingest, {cache['n_docs']} docs): cold "
                f"{cache['cold']['ingest_total_s']*1e3:.1f}ms -> warm "
                f"{cache['warm']['ingest_total_s']*1e3:.1f}ms "
                f"({cache['ingest_speedup']:.2f}x, median of {cache['pairs']} pairs), "
                f"{cache['warm']['build_cache_hits']} hits / "
                f"{cache['warm']['build_cache_misses']} misses, answers match "
                f"cache-disabled: {cache['answers_match_cache_disabled']}"
            )
        obs = payload.get("obs")
        if obs:
            delay_hist = obs["delay_histogram"]
            lines.append(
                f"  obs ({obs['workers']} workers, {obs['delay_budget_s']*1e3:.0f}ms budget): "
                f"answer delay n={delay_hist['count']} "
                f"p50 {delay_hist['p50_s']*1e6:.1f}us / p95 {delay_hist['p95_s']*1e6:.1f}us / "
                f"p99 {delay_hist['p99_s']*1e6:.1f}us / max {delay_hist['max_s']*1e6:.1f}us, "
                f"{obs['delay_violations']} violations"
            )
        replicated = payload.get("replicated")
        if replicated:
            failover = replicated["failover"]
            lines.append(
                f"  replicated ({replicated['workers']} workers x "
                f"{replicated['replicas']} replicas): traffic "
                f"{replicated['traffic_total_s']*1e3:.1f}ms, edit batch "
                f"{replicated['edit_batch_median_s']*1e3:.2f}ms, answers match "
                f"single-process: {replicated['answers_match_single_process']}"
            )
            lines.append(
                f"  failover (1 worker killed mid-traffic): traffic "
                f"{failover['traffic_total_s']*1e3:.1f}ms "
                f"({(failover['overhead_vs_clean'] - 1) * 100:+.1f}% vs clean), "
                f"{failover['deaths_total']} death(s), "
                f"{failover['failovers_total']} failover(s), "
                f"{failover['migrations_total']} migration(s), answers match "
                f"single-process: {failover['answers_match_single_process']}"
            )
        return lines
    pairs = payload["backends"]["pairs"]
    bitset = payload["backends"]["bitset"]
    if payload["bench"] == "delay_constant":
        ratio = pairs["median_s"] / bitset["median_s"] if bitset["median_s"] else float("inf")
        lines.append(f"  delay: pairs {pairs['median_s']*1e6:.1f}us -> bitset "
                     f"{bitset['median_s']*1e6:.1f}us  ({ratio:.2f}x)")
        facade = payload.get("engine_facade")
        if facade:
            lines.append(
                f"  engine facade: direct {facade['direct_median_s']*1e6:.2f}us -> "
                f"stream() {facade['engine_median_s']*1e6:.2f}us "
                f"({(facade['overhead_ratio'] - 1) * 100:+.1f}% overhead, "
                f"median of {facade['pairs']} pairs)"
            )
    else:
        for size in pairs:
            ratio = pairs[size]["median_s"] / bitset[size]["median_s"]
            lines.append(
                f"  n={size}: pairs {pairs[size]['median_s']*1e3:.2f}ms -> bitset "
                f"{bitset[size]['median_s']*1e3:.2f}ms  ({ratio:.2f}x)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sweep (<30 s), for make check")
    parser.add_argument("--compare", action="store_true", help="print speedups only, write nothing")
    parser.add_argument("--out", default=RESULTS_DIR, help="output directory for BENCH_*.json")
    parser.add_argument(
        "--only",
        default=None,
        help="run a single benchmark by name (preprocessing_linear, "
        "update_logarithmic, delay_constant, serving_multidoc) — useful to "
        "refresh one committed trajectory without touching the others",
    )
    parser.add_argument(
        "--smoke-out",
        default=None,
        help="also write the computed payloads (any mode, including --quick) "
        "to this directory — CI uploads them as build artifacts",
    )
    args = parser.parse_args(argv)

    if args.quick:
        recipes = [
            ("preprocessing_linear", lambda: bench_preprocessing((256, 1024), reps=3)),
            ("update_logarithmic", lambda: bench_update((1024,), n_updates=20)),
            ("delay_constant", lambda: bench_delay(512, max_answers=150)),
            ("serving_multidoc", lambda: bench_serving(4, 256, rounds=10, page_size=20)),
        ]
    else:
        recipes = [
            ("preprocessing_linear", lambda: bench_preprocessing((256, 512, 1024, 2048, 4096), reps=5)),
            ("update_logarithmic", lambda: bench_update((256, 1024, 4096, 8192), n_updates=40)),
            ("delay_constant", lambda: bench_delay(1024, max_answers=300)),
            ("serving_multidoc", lambda: bench_serving(8, 1024, rounds=40, page_size=50)),
        ]
    if args.only is not None:
        recipes = [(name, make) for name, make in recipes if name == args.only]
        if not recipes:
            parser.error(f"unknown benchmark {args.only!r}")

    failed = False
    for _name, make in recipes:
        payload = make()
        _attach_seed_baseline(payload, args.out)
        print(f"[{payload['bench']}]")
        for line in _speedup_lines(payload):
            print(line)
        speedups = payload.get("speedup_vs_seed_pairs")
        if isinstance(speedups, dict):
            rendered = ", ".join(f"n={s}: {v:.2f}x" for s, v in speedups.items())
            print(f"  vs seed pairs: {rendered}")
        elif isinstance(speedups, float):
            print(f"  vs seed pairs: {speedups:.2f}x")
        if args.smoke_out:
            os.makedirs(args.smoke_out, exist_ok=True)
            smoke_path = os.path.join(args.smoke_out, f"BENCH_{payload['bench']}.json")
            with open(smoke_path, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        if args.quick:
            # Quick sweeps are a smoke test, not a trajectory: never overwrite
            # the committed full-sweep BENCH files with 2-size/3-rep numbers.
            pass
        elif not args.compare:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"BENCH_{payload['bench']}.json")
            with open(path, "w", encoding="utf8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"  wrote {os.path.relpath(path)}")
        if args.quick:
            if payload["bench"] == "serving_multidoc":
                # Serving smoke: on the heavyweight standing query (where
                # compilation dominates) a catalog start must clearly beat a
                # cold start.  Lightweight queries are dominated by the
                # per-document build either way and are recorded, not gated.
                heavy = payload["heavy_query"]
                ok = payload["catalog_start_speedup"][heavy] > 1.2
                if not ok:
                    print(
                        f"  catalog start not paying off on {heavy} "
                        f"({payload['catalog_start_speedup'][heavy]:.2f}x <= 1.2x)"
                    )
                # Sharding smoke: worker processes must serve byte-identical
                # answers to the single-process engine.
                if not payload["sharded"]["answers_match_single_process"]:
                    print("  sharded answers DIVERGED from single-process answers")
                    ok = False
                # Cursor resume-rate gate (PR 10): the fine-grained dependency
                # test must beat the seeded whole-box test's 2/24 resume rate
                # on the recorded serving workload — on every serving variant.
                for variant, block in (
                    ("local", payload),
                    ("sharded", payload["sharded"]),
                    ("pipelined", payload["sharded_pipelined"]),
                    ("replicated", payload["replicated"]),
                    ("network", payload["network"]),
                ):
                    rate = block["cursors"]["resume_rate"]
                    if rate is None:
                        print(f"  {variant} traffic had no cursor decisions to measure")
                        ok = False
                    elif rate <= CURSOR_RESUME_RATE_FLOOR:
                        print(
                            f"  {variant} cursor resume rate {rate:.2f} did not beat "
                            f"the seeded whole-box floor "
                            f"({CURSOR_RESUME_RATE_FLOOR:.2f} = 2/24)"
                        )
                        ok = False
                # Pipelined smoke (PR 5): batched ingest must serve the same
                # answers as the single-process engine through the same
                # traffic, and a large sharded stream() must pay fewer round
                # trips than it receives chunks (the credit window works).
                pipelined = payload["sharded_pipelined"]
                if not pipelined["answers_match_single_process"]:
                    print("  pipelined sharded answers DIVERGED from single-process answers")
                    ok = False
                stream = pipelined["stream"]
                if stream["chunks"] < 2:
                    print(
                        f"  pipelined stream too small to exercise credit "
                        f"({stream['chunks']} chunks of {stream['answers']} answers)"
                    )
                    ok = False
                elif stream["round_trips"] >= stream["chunks"]:
                    print(
                        f"  pipelined stream paid {stream['round_trips']} round trips "
                        f"for {stream['chunks']} chunks (credit window not working)"
                    )
                    ok = False
                # Network smoke (PR 9): the TCP serving tier must hand back
                # byte-identical answers through the same traffic, and a
                # long remote stream must pay fewer credit round trips than
                # it receives chunks (the credit window batches grants).
                network = payload["network"]
                if not network["answers_match_single_process"]:
                    print("  network answers DIVERGED from single-process answers")
                    ok = False
                net_stream = network["stream"]
                if net_stream["chunks"] < 2:
                    print(
                        f"  network stream too small to exercise credit "
                        f"({net_stream['chunks']} chunks of "
                        f"{net_stream['answers']} answers)"
                    )
                    ok = False
                elif net_stream["round_trips"] >= net_stream["chunks"]:
                    print(
                        f"  network stream paid {net_stream['round_trips']} round "
                        f"trips for {net_stream['chunks']} chunks (credit "
                        f"window not working)"
                    )
                    ok = False
                # Build-cache smoke (PR 7): on the duplicated-structure
                # ingest the warm (cache-enabled) leg must beat the cold
                # (cache-disabled) leg with real hits — by the median of the
                # per-pair speedups — and disabling the cache must not change
                # a single answer byte.
                cache = payload["build_cache"]
                if not cache["answers_match_cache_disabled"]:
                    print("  build-cache answers DIVERGED from cache-disabled answers")
                    ok = False
                if cache["warm"]["build_cache_hits"] == 0:
                    print("  build cache recorded zero hits on a duplicated-structure ingest")
                    ok = False
                if cache["ingest_speedup"] <= 1.2:
                    print(
                        f"  build cache not paying off on duplicated ingest "
                        f"({cache['ingest_speedup']:.2f}x <= 1.2x, median of "
                        f"{cache['pairs']} pairs)"
                    )
                    ok = False
                # Failover smoke (PR 6): the replicated fleet — clean and with
                # one worker SIGKILL'd mid-traffic — must serve byte-identical
                # answers to the single-process engine, and the kill may not
                # blow up the traffic wall clock.  The absolute floor keeps
                # the ratio meaningful on quick workloads where the clean run
                # is only a few hundred ms (respawn noise would dominate).
                replicated = payload["replicated"]
                failover = replicated["failover"]
                if not replicated["answers_match_single_process"]:
                    print("  replicated answers DIVERGED from single-process answers")
                    ok = False
                if not failover["answers_match_single_process"]:
                    print("  failover answers DIVERGED from single-process answers")
                    ok = False
                if failover["deaths_total"] != 1:
                    print(
                        f"  failover leg saw {failover['deaths_total']} deaths "
                        f"(expected exactly the 1 injected kill)"
                    )
                    ok = False
                # Observability smoke (PR 8): with the delay SLO armed the
                # merged per-answer delay histogram must hold exactly one
                # sample per enumerated answer and its p95 must sit under
                # the budget (zero violations on a healthy fleet).
                obs = payload["obs"]
                delay_hist = obs["delay_histogram"]
                if delay_hist["count"] != obs["answers_observed"]:
                    print(
                        f"  obs histogram holds {delay_hist['count']} delay samples "
                        f"for {obs['answers_observed']} enumerated answers"
                    )
                    ok = False
                if delay_hist["p95_s"] > obs["delay_budget_s"]:
                    print(
                        f"  obs delay p95 {delay_hist['p95_s']*1e6:.1f}us exceeds the "
                        f"{obs['delay_budget_s']*1e3:.0f}ms budget"
                    )
                    ok = False
                if obs["delay_violations"] != 0:
                    print(
                        f"  obs recorded {obs['delay_violations']} delay violations "
                        f"on a healthy fleet"
                    )
                    ok = False
                budget = (replicated["traffic_total_s"] * FAILOVER_OVERHEAD_SLACK
                          + FAILOVER_RESPAWN_ALLOWANCE_S)
                if failover["traffic_total_s"] > budget:
                    print(
                        f"  failover traffic {failover['traffic_total_s']*1e3:.0f}ms "
                        f"exceeded its budget {budget*1e3:.0f}ms "
                        f"(clean {replicated['traffic_total_s']*1e3:.0f}ms x "
                        f"{FAILOVER_OVERHEAD_SLACK} + "
                        f"{FAILOVER_RESPAWN_ALLOWANCE_S*1e3:.0f}ms respawn allowance)"
                    )
                    ok = False
            else:
                # Perf smoke: the default bitset backend must not be slower
                # than the reference pairs backend on any headline
                # measurement, and the bitset delay must not regress against
                # the committed trajectory.
                backends = payload["backends"]
                if payload["bench"] == "delay_constant":
                    ok = backends["bitset"]["median_s"] <= backends["pairs"]["median_s"] * 1.5
                    if not _delay_regression_gate(payload, args.out):
                        ok = False
                    # Facade / tracing-off smoke: Engine.stream() — which now
                    # carries every observability hook in its off state — must
                    # add <5% to the bitset delay median of this same run, by
                    # the median of the per-pair ratios.
                    facade = payload["engine_facade"]
                    if facade["tracing_off_overhead_ratio"] > ENGINE_FACADE_SLACK:
                        print(
                            f"  engine facade (tracing off) overhead "
                            f"{(facade['tracing_off_overhead_ratio'] - 1) * 100:.1f}% "
                            f"(median of {facade['pairs']} pairs) "
                            f"exceeds {(ENGINE_FACADE_SLACK - 1) * 100:.0f}%"
                        )
                        ok = False
                else:
                    ok = all(
                        backends["bitset"][size]["median_s"]
                        <= backends["pairs"][size]["median_s"] * 1.5
                        for size in backends["pairs"]
                    )
            if not ok:
                print(f"  PERF SMOKE FAILED for {payload['bench']}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
