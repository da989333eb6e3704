"""The unified `repro.engine` API: differential, sharding, catalog, errors.

What is pinned here:

* **Differential equivalence** — `Engine` answers are byte-identical to the
  per-document ``TreeRuntime`` / ``WordRuntime`` / ``Spanner.enumerator``
  paths on each relation backend (the ``bitset`` runtime and the ``pairs``
  oracle), on the initial document and after every edit (tree, word and
  regex-spanner workloads through the same ``Query`` / ``Document`` /
  ``ResultPage`` types).
* **Sharded equivalence** — ``Engine(workers=N)`` serves byte-identical
  answers, epochs, pages and cursor invalidations to a single-process
  engine and to a bare ``LocalStore``, under interleaved edits and
  cursor paging; workers share one catalog directory and *load* (never
  recompile) the parent's persisted compiled query.
* **Catalog manifest** — version + per-digest metadata, ``gc(keep=...)``,
  and the precise :class:`CatalogVersionError` on incompatible versions.
* **Exception hierarchy** — every public exception derives from
  :class:`ReproError` and is importable from top-level :mod:`repro`.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

import pytest

import repro
from repro import (
    BackendError,
    CatalogError,
    CatalogVersionError,
    CursorInvalidatedError,
    Engine,
    EngineError,
    InvalidEditError,
    ReproError,
    ServingError,
    ShardDiedError,
    ShardProtocolError,
    ShardTimeoutError,
    StaleIteratorError,
)
from repro.automata.queries import select_descendant_pairs, select_labeled
from repro.core.enumerator import TreeRuntime, WordRuntime, clear_automata
from repro.engine import Document, LocalStore, Query, QueryCatalog, ResultPage
from repro.net import EngineServer, RemoteEngine
from repro.spanners.compile import regex_to_wva
from repro.trees.edits import Delete, Insert, Relabel
from repro.trees.generators import random_tree, tree_of_shape
from repro.trees.unranked import UnrankedTree

LABELS = ("a", "b", "c", "d")
BACKENDS = ("pairs", "bitset")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: run in a child interpreter in which ``import numpy`` fails
NUMPY_FREE_SCRIPT = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
import repro
from repro import Engine
from repro.automata.brute_force import unranked_satisfying_assignments
from repro.automata.queries import select_labeled
from repro.core.enumerator import TreeRuntime
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree

labels = ("a", "b", "c", "d")
tree = random_tree(30, labels, 3)
query = select_labeled("a", labels)
with Engine() as engine:
    doc = engine.add_tree(tree, query)
    assert len(list(doc.stream())) == sum(1 for n in tree.nodes() if n.label == "a")
    leaf = next(n for n in doc.runtime.tree.nodes() if n.is_leaf())
    doc.apply_edits([Relabel(leaf.node_id, "a")])
    page = doc.page(page_size=4)
    assert list(page.answers) == doc.answers()[:4]
    spans = engine.add_word(list("aabba"), "x{a+}b.*", alphabet="ab")
    assert spans.query.spans(spans.answers()[0]) == {"x": (0, 2)}
oracle = TreeRuntime(tree, query, relation_backend="pairs")
assert set(oracle.assignments()) == unranked_satisfying_assignments(query, tree)
print("ok", repro.__version__)
"""


def canonical(assignments):
    """Canonical JSON text of an answer set (byte-level comparison)."""
    rows = sorted(sorted([str(var), pos] for var, pos in a) for a in assignments)
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def tree_query():
    return select_labeled("a", LABELS)


def word_query():
    return regex_to_wva(".*x{aa}.*", ["a", "b"])


# ======================================================================= API
class TestEngineApi:
    def test_one_import_covers_all_three_workloads(self, tmp_path):
        """from repro import Engine: tree, word and spanner through one API."""
        with Engine(catalog=tmp_path / "catalog") as engine:
            tree_doc = engine.add_tree(random_tree(40, LABELS, 3), tree_query())
            word_doc = engine.add_word("abaab", word_query())
            span_doc = engine.add_word(list("aabba"), "x{a+}b.*", alphabet="ab")
            for doc in (tree_doc, word_doc, span_doc):
                assert isinstance(doc, Document)
                assert isinstance(doc.query, Query)
                # compile → persist: every query went through the catalog
                assert doc.query.digest in engine.catalog
                page = doc.page(page_size=3)
                assert isinstance(page, ResultPage)
                answers = doc.answers()
                assert list(page.answers) == answers[: len(page.answers)]
            assert tree_doc.query.kind == "tree"
            assert word_doc.query.kind == "word"
            assert span_doc.query.kind == "word"
            assert span_doc.query.pattern == "x{a+}b.*"
            spans = span_doc.query.spans(span_doc.answers()[0])
            assert spans == {"x": (0, 2)}

    def test_compile_is_content_keyed_and_idempotent(self):
        with Engine() as engine:
            q1 = engine.compile(tree_query())
            q2 = engine.compile(tree_query())
            assert q1 is q2  # equal content → one handle
            assert engine.compile(q1) is q1

    def test_kind_mismatch_and_bad_sources(self):
        with Engine() as engine:
            with pytest.raises(EngineError, match="word query"):
                engine.add_tree(random_tree(10, LABELS, 0), word_query())
            with pytest.raises(EngineError, match="alphabet"):
                engine.compile("x{a+}")
            with pytest.raises(EngineError, match="cannot compile"):
                engine.compile(12345)

    def test_document_lifecycle_and_errors(self):
        engine = Engine()
        doc = engine.add_word("abab", word_query(), doc_id="w1")
        assert "w1" in engine and len(engine) == 1
        assert engine.document("w1") is doc
        with pytest.raises(ServingError):
            engine.add_word("bb", word_query(), doc_id="w1")
        with pytest.raises(ServingError):
            engine.document("nope")
        doc.remove()
        assert len(engine) == 0
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.add_word("ab", word_query())
        engine.close()  # idempotent

    def test_stream_is_invalidated_by_edits(self):
        with Engine() as engine:
            doc = engine.add_tree(random_tree(60, LABELS, 5), tree_query())
            stream = doc.stream()
            next(stream)
            leaf = next(n for n in doc.runtime.tree.nodes() if n.is_leaf())
            doc.apply_edits([Relabel(leaf.node_id, "b")])
            with pytest.raises(StaleIteratorError):
                list(stream)

    def test_runtime_needs_no_numpy(self):
        """The package, the engine and the pairs oracle import and run
        without numpy installed."""
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_SCRIPT, SRC_DIR],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == ["ok", repro.__version__]

    @pytest.mark.parametrize("name", ["bitsets", "matrix", "numpy"])
    def test_backend_typo_fails_fast_as_backend_error(self, name):
        with pytest.raises(BackendError, match="valid backends are 'pairs', 'bitset'"):
            WordRuntime(list("ab"), word_query(), relation_backend=name)
        # BackendError is also the historical ValueError
        with pytest.raises(ValueError):
            WordRuntime(list("ab"), word_query(), relation_backend=name)
        # the engine serves the bitset runtime only: it takes no backend
        with pytest.raises(TypeError):
            Engine(backend=name)


# ============================================================== differential
class TestDifferentialVsRuntimes:
    """Engine answers byte-identical to the per-document runtimes, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tree_workload_matches_tree_runtime(self, backend):
        tree = tree_of_shape("random", 80, LABELS, 11)
        query = select_descendant_pairs(LABELS)
        runtime = TreeRuntime(tree, query, relation_backend=backend)
        with Engine() as engine:
            doc = engine.add_tree(tree, query)
            assert canonical(doc.stream()) == canonical(runtime.assignments())
            leaf = next(n for n in runtime.tree.nodes() if n.is_leaf())
            edits = [
                Relabel(leaf.node_id, "b"),
                Insert(runtime.tree.root.node_id, "a"),
                Delete(leaf.node_id),
            ]
            for edit in edits:
                runtime.apply(edit)
                doc.apply_edits([edit])
                assert canonical(doc.stream()) == canonical(runtime.assignments())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_word_workload_matches_word_runtime(self, backend):
        word = list("abaabbaab")
        query = word_query()
        runtime = WordRuntime(word, query, relation_backend=backend)
        with Engine() as engine:
            doc = engine.add_word(word, query)
            assert canonical(doc.stream()) == canonical(runtime.assignments())
            positions = runtime.position_ids()
            runtime.replace(positions[1], "a")
            doc.apply_edits([("replace", positions[1], "a")])
            assert canonical(doc.stream()) == canonical(runtime.assignments())
            runtime.insert_after(positions[0], "a")
            doc.apply_edits([("insert_after", positions[0], "a")])
            assert canonical(doc.stream()) == canonical(runtime.assignments())
            runtime.delete(positions[2])
            doc.apply_edits([("delete", positions[2])])
            assert canonical(doc.stream()) == canonical(runtime.assignments())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spanner_workload_matches_spanner_path(self, backend):
        from repro.spanners import Spanner

        pattern = ".* k{[ab]+} = v{[ab]+} .*"
        alphabet = ("a", "b", "=", ";", " ")
        document = list("ab=ba;a=b ab = ba ")
        spanner = Spanner(pattern, alphabet)
        runtime = spanner.enumerator(document, relation_backend=backend)
        with Engine() as engine:
            doc = engine.add_word(document, pattern, alphabet=alphabet)
            assert canonical(doc.stream()) == canonical(runtime.assignments())
            # the Spanner object itself also compiles to the same query
            assert engine.compile(spanner).digest == doc.query.digest

    def test_page_cursor_is_bound_to_its_document(self):
        with Engine() as engine:
            doc_a = engine.add_tree(random_tree(30, LABELS, 1), tree_query())
            doc_b = engine.add_tree(random_tree(30, LABELS, 2), tree_query())
            page_a = doc_a.page(page_size=2)
            doc_b.page(page_size=2)  # doc_b's cursor 0 exists too
            with pytest.raises(EngineError, match="belongs to document"):
                doc_b.page(cursor=page_a)

    def test_failed_construction_cleans_owned_catalog_dir(self):
        import glob

        before = set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-engine-catalog-*")))
        with pytest.raises(ValueError):
            Engine(workers=1, start_method="not-a-start-method")
        after = set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-engine-catalog-*")))
        assert after == before  # the mkdtemp'd shared dir was removed

    def test_pagination_equals_full_enumeration(self):
        with Engine() as engine:
            doc = engine.add_tree(tree_of_shape("random", 120, LABELS, 7), tree_query())
            expected = doc.answers()
            paged = [a for page in doc.pages(page_size=7) for a in page]
            assert paged == expected  # same order, duplicate-free, complete
            offsets = [p.offset for p in doc.pages(page_size=7)]
            assert offsets == sorted(offsets)


# ================================================================== sharding
def _run_traffic(engine_like, docs, edits_by_doc):
    """One deterministic interleaved edit/page schedule; returns a transcript."""
    transcript = []
    pages = {doc.doc_id: doc.page(page_size=3) for doc in docs}
    for round_index in range(4):
        for doc in docs:
            edits = edits_by_doc[doc.doc_id]
            if round_index < len(edits):
                report = doc.apply_edits([edits[round_index]])
                transcript.append(("epoch", doc.doc_id, report.epoch))
            page = pages[doc.doc_id]
            try:
                # an exhausted stream releases its cursor id: reopen
                page = doc.page(page_size=3) if page.exhausted else doc.page(cursor=page)
                transcript.append(
                    ("page", doc.doc_id, canonical(page.answers), page.offset, page.exhausted)
                )
            except CursorInvalidatedError as exc:
                transcript.append(("invalidated", doc.doc_id, exc.report.answers_delivered))
                page = doc.page(page_size=3)
                transcript.append(
                    ("page", doc.doc_id, canonical(page.answers), page.offset, page.exhausted)
                )
            pages[doc.doc_id] = page
    for doc in docs:
        transcript.append(("final", doc.doc_id, canonical(doc.stream()), doc.epoch))
    return transcript


class _LocalStoreAdapter:
    """Drive a LocalStore document (cursor API) through the Document interface."""

    class _Doc:
        def __init__(self, served):
            self._served = served
            self.doc_id = served.doc_id
            self._cursors = {}

        @property
        def epoch(self):
            return self._served.epoch

        def page(self, cursor=None, page_size=3):
            if cursor is None:
                opened = self._served.open_cursor(page_size=page_size)
                page = opened.fetch()
            else:
                opened = self._cursors[cursor.cursor_id]
                page = opened.fetch()
            result = ResultPage(
                answers=tuple(page.answers),
                offset=page.offset,
                exhausted=page.exhausted,
                cursor_id=opened.cursor_id,
                document_id=self.doc_id,
                epoch=self._served.epoch,
            )
            self._cursors[opened.cursor_id] = opened
            return result

        def apply_edits(self, edits):
            return self._served.apply_edits(edits)

        def stream(self):
            return self._served.answers()


def _interleaved_workload(trees):
    edits_by_doc = {}
    for index, tree in enumerate(trees):
        leaves = [n.node_id for n in tree.nodes() if n.is_leaf()]
        edits_by_doc[index] = [
            Relabel(leaves[0], "b"),
            Insert(tree.root.node_id, "a"),
            Relabel(leaves[1], "a"),
            Delete(leaves[2]),
        ]
    return edits_by_doc


class TestSharding:
    def test_sharded_equals_single_process_and_local_store(self, tmp_path):
        """The acceptance gate: interleaved edits + cursor pages, byte-equal."""
        trees = [random_tree(60, LABELS, seed) for seed in range(4)]
        query = tree_query()
        edits = _interleaved_workload(trees)

        with Engine(catalog=tmp_path / "cat", workers=2) as sharded:
            docs = [sharded.add_tree(t, query, doc_id=i) for i, t in enumerate(trees)]
            sharded_transcript = _run_traffic(sharded, docs, edits)
        with Engine(catalog=tmp_path / "cat2") as single:
            docs = [single.add_tree(t, query, doc_id=i) for i, t in enumerate(trees)]
            single_transcript = _run_traffic(single, docs, edits)
        store = LocalStore()
        store_docs = [
            _LocalStoreAdapter._Doc(store.add_tree(t, query, doc_id=i))
            for i, t in enumerate(trees)
        ]
        store_transcript = _run_traffic(store, store_docs, edits)

        assert sharded_transcript == single_transcript == store_transcript

    def test_workers_share_one_catalog_and_do_not_recompile(self, tmp_path):
        catalog_dir = tmp_path / "shared"
        query = select_descendant_pairs(LABELS)
        with Engine(catalog=catalog_dir, workers=2) as engine:
            compiled = engine.compile(query)
            # the parent persisted the compiled query before any worker use
            catalog = QueryCatalog(os.fspath(catalog_dir))
            assert compiled.digest in catalog
            docs = [
                engine.add_tree(random_tree(30, LABELS, seed), query) for seed in range(3)
            ]
            expected = [canonical(doc.stream()) for doc in docs]
        # a fresh single-process engine over the same catalog directory loads
        # the persisted entry and serves byte-identical answers
        with Engine(catalog=catalog_dir) as fresh:
            docs = [
                fresh.add_tree(random_tree(30, LABELS, seed), query) for seed in range(3)
            ]
            assert [canonical(doc.stream()) for doc in docs] == expected

    def test_sharded_word_documents_and_temporary_catalog(self):
        with Engine(workers=2) as engine:
            owned = engine.catalog.root
            assert os.path.isdir(owned)  # auto-created shared directory
            docs = [
                engine.add_word("abaab", word_query()),
                engine.add_word("aabb", word_query()),
                engine.add_word(list("aaa"), "x{a+}", alphabet="ab"),
            ]
            with Engine() as single:
                singles = [
                    single.add_word("abaab", word_query()),
                    single.add_word("aabb", word_query()),
                    single.add_word(list("aaa"), "x{a+}", alphabet="ab"),
                ]
                for sharded_doc, local_doc in zip(docs, singles):
                    assert canonical(sharded_doc.stream()) == canonical(local_doc.stream())
            report = docs[0].apply_edits([("replace", 1, "a")])
            assert report.epoch == 1 and docs[0].epoch == 1
            stats = engine.stats()
            assert stats["workers"] == 2
            assert stats["documents"] == 3
            assert len(stats["per_shard"]) == 2
        assert not os.path.exists(owned)  # owned temp catalog removed on close

    def test_sharded_error_propagation(self):
        tree = random_tree(20, LABELS, 2)
        root_id = tree.root.node_id
        with Engine(workers=1) as engine:
            doc = engine.add_tree(tree, tree_query())
            with pytest.raises(ServingError, match="EditOperation"):
                doc.apply_edits([("replace", 0, "a")])
            with pytest.raises(InvalidEditError):
                # deleting an internal node is invalid; the worker's exception
                # travels back and is re-raised with its original type
                doc.apply_edits([Delete(root_id)])
            with pytest.raises(EngineError, match="worker"):
                doc.runtime  # noqa: B018 — property access raises in sharded mode

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_start_methods(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable on {sys.platform}")
        with Engine(workers=1, start_method=start_method) as engine:
            doc = engine.add_word("abaa", word_query())
            single_answers = canonical(doc.stream())
        with Engine() as local:
            assert canonical(local.add_word("abaa", word_query()).stream()) == single_answers


# ================================================== pipelined shard protocol
class TestPipelinedIngest:
    """`add_documents`: one batch per shard, all batches in flight at once."""

    def test_batch_matches_sequential_adds_and_order(self, tmp_path):
        trees = [random_tree(40, LABELS, seed) for seed in range(5)]
        query = tree_query()
        with Engine(catalog=tmp_path / "a", workers=2) as engine:
            docs = engine.add_documents(trees, query, doc_ids=[10, 11, 12, 13, 14])
            assert [doc.doc_id for doc in docs] == [10, 11, 12, 13, 14]
            batched = [canonical(doc.stream()) for doc in docs]
            assert all(doc.epoch == 0 for doc in docs)
        with Engine(catalog=tmp_path / "b", workers=2) as engine:
            docs = [engine.add_tree(tree, query) for tree in trees]
            assert batched == [canonical(doc.stream()) for doc in docs]
        with Engine() as engine:
            docs = engine.add_documents(trees, query)  # LocalStore facade
            assert batched == [canonical(doc.stream()) for doc in docs]

    def test_mixed_kinds_and_per_item_queries(self):
        with Engine(workers=2) as engine:
            docs = engine.add_documents(
                [random_tree(20, LABELS, 1), "abaab", list("aabb")],
                queries=[tree_query(), word_query(), word_query()],
            )
            assert [doc.kind for doc in docs] == ["tree", "word", "word"]
            with Engine() as single:
                singles = single.add_documents(
                    [random_tree(20, LABELS, 1), "abaab", list("aabb")],
                    queries=[tree_query(), word_query(), word_query()],
                )
                for sharded_doc, local_doc in zip(docs, singles):
                    assert canonical(sharded_doc.stream()) == canonical(local_doc.stream())

    def test_duplicate_ids_fail_fast_before_any_work(self):
        trees = [random_tree(20, LABELS, seed) for seed in range(3)]
        with Engine(workers=1) as engine:
            engine.add_tree(trees[0], tree_query(), doc_id="taken")
            with pytest.raises(ServingError, match="already in use"):
                engine.add_documents(trees, tree_query(), doc_ids=["x", "taken", "y"])
            # parent-side validation rejects the batch before shipping it
            assert engine.doc_ids() == ["taken"]

    def test_worker_side_item_failure_keeps_earlier_documents(self):
        """A failure only the worker can see: the batch reply names it,
        earlier items stay registered, the original type is re-raised."""
        trees = [random_tree(20, LABELS, seed) for seed in range(3)]
        with Engine(workers=1) as engine:
            compiled = engine.compile(tree_query())
            # plant a document in the worker the parent does not know about
            engine._pool.request(
                0,
                "add_batch",
                [("ghost", trees[0], compiled.source, compiled.digest)],
            )
            with pytest.raises(ServingError, match="already in use"):
                engine.add_documents(trees, compiled, doc_ids=["x", "ghost", "y"])
            # the item before the collision was added and is usable
            assert "x" in engine
            assert canonical(engine.document("x").stream())
            assert "y" not in engine and "ghost" not in engine

    def test_bad_arguments(self):
        with Engine() as engine:
            with pytest.raises(EngineError, match="needs a query"):
                engine.add_documents(["ab"])
            with pytest.raises(EngineError, match="differ in length"):
                engine.add_documents(["ab"], word_query(), doc_ids=[1, 2])
            with pytest.raises(EngineError, match="differ in length"):
                engine.add_documents(["ab"], queries=[word_query(), word_query()])

    def test_remove_invalidates_live_streams_in_both_modes(self):
        tree = random_tree(80, LABELS, 3)
        for workers in (0, 1):
            with Engine(workers=workers) as engine:
                doc = engine.add_tree(tree, tree_query())
                stream = doc.stream()
                next(stream)
                doc.remove()
                with pytest.raises(StaleIteratorError):
                    list(stream)

    def test_remove_invalidates_unadvanced_streams_too(self):
        """The base epoch/version is captured at stream *creation*: a stream
        never advanced before the removal must not serve the dropped
        document's answers — identically in both modes."""
        tree = random_tree(80, LABELS, 3)
        for workers in (0, 1):
            with Engine(workers=workers) as engine:
                doc = engine.add_tree(tree, tree_query())
                stream = doc.stream()  # created, never advanced
                doc.remove()
                with pytest.raises(StaleIteratorError):
                    next(stream)


class TestStreamingProtocol:
    """Sharded stream(): worker-pushed chunks under credit, not page loops."""

    def test_large_stream_fewer_round_trips_than_chunks(self):
        tree = random_tree(300, LABELS, 3)
        query = select_descendant_pairs(LABELS)
        with Engine(workers=1) as engine:
            doc = engine.add_tree(tree, query)
            answers = list(doc.stream())
            stats = engine.stats()
        streaming = stats["streaming"]
        assert len(answers) > 4 * streaming["chunk_size"]  # a genuinely big set
        assert streaming["chunks"] >= 5
        # the acceptance gate: pushed chunks beat one round trip per page
        assert streaming["round_trips"] < streaming["chunks"]
        with Engine() as single:
            assert canonical(answers) == canonical(single.add_tree(tree, query).stream())

    def test_stream_stale_after_any_edit_matches_local_semantics(self):
        tree = random_tree(120, LABELS, 4)
        leaf = next(n for n in tree.nodes() if n.is_leaf())
        for workers in (0, 1):
            with Engine(workers=workers) as engine:
                doc = engine.add_tree(tree, tree_query())
                stream = doc.stream()
                first = next(stream)
                doc.apply_edits([Relabel(leaf.node_id, "b")])
                with pytest.raises(StaleIteratorError):
                    list(stream)
                # a fresh stream serves the updated document
                fresh = list(doc.stream())
                assert first is not None and fresh is not None

    def test_concurrent_streams_demultiplex_by_request_id(self):
        """Chunks of two streams on one shard interleave; answers must not mix."""
        trees = [random_tree(200, LABELS, seed) for seed in (7, 8)]
        query = select_descendant_pairs(LABELS)
        with Engine() as single:
            expected = [canonical(single.add_tree(t, query).stream()) for t in trees]
        with Engine(workers=1) as engine:  # both documents on the same shard
            doc_a, doc_b = engine.add_documents(trees, query)
            stream_a = doc_a.stream()
            stream_b = doc_b.stream()
            first_a = next(stream_a)  # opens A, worker pushes A-chunks
            # B opened second, read first: its chunks arrive behind A's
            collected_b = list(stream_b)
            collected_a = [first_a, *stream_a]
            assert canonical(collected_a) == expected[0]
            assert canonical(collected_b) == expected[1]

    def test_out_of_order_reply_collection(self):
        with Engine(workers=2) as engine:
            docs = engine.add_documents(
                [random_tree(30, LABELS, seed) for seed in range(4)], tree_query()
            )
            pool = engine._pool
            # same shard: two requests in flight, collected in reverse order
            shard = engine._shard_of[docs[0].doc_id]
            doc_on_shard = [d.doc_id for d in docs if engine._shard_of[d.doc_id] == shard]
            first = pool.submit(shard, "epoch", doc_on_shard[0])
            second = pool.submit(shard, "stats")
            stats_payload = pool.collect(shard, second)  # buffers the epoch reply
            assert stats_payload["documents"] == len(doc_on_shard)
            assert pool.collect(shard, first) == 0
            # across shards: submit everywhere, collect in reverse shard order
            ids = [pool.submit(s, "stats") for s in range(len(pool))]
            payloads = [pool.collect(s, rid) for s, rid in reversed(list(enumerate(ids)))]
            assert sum(p["documents"] for p in payloads) == len(docs)


class TestProtocolFaults:
    """Worker death: precise errors, no hangs, surviving shards stay usable."""

    @staticmethod
    def _kill_worker(engine, shard):
        process = engine._pool._shards[shard].process
        process.kill()
        process.join(timeout=5.0)

    def test_kill_mid_stream_raises_precise_error_no_hang(self):
        tree = random_tree(400, LABELS, 5)
        query = select_descendant_pairs(LABELS)
        with Engine(workers=1) as engine:
            doc = engine.add_tree(tree, query)
            stream = doc.stream()
            next(stream)
            self._kill_worker(engine, 0)
            with pytest.raises(ShardDiedError, match="shard worker 0"):
                list(stream)  # buffered chunks may drain; then the death error
            with pytest.raises(ShardDiedError, match="dead"):
                doc.count()  # the dead shard stays precisely unusable

    def test_kill_mid_batch_add_names_document_ids(self):
        trees = [random_tree(25, LABELS, seed) for seed in range(4)]
        with Engine(workers=2) as engine:
            engine.add_tree(random_tree(10, LABELS, 0), tree_query())  # warm shard 0
            self._kill_worker(engine, 1)
            with pytest.raises(ShardDiedError, match=r"document ids") as excinfo:
                engine.add_documents(trees, tree_query(), doc_ids=["a", "b", "c", "d"])
            # round-robin placement after the warm-up add: the dead shard 1
            # held exactly the documents 'a' and 'c'
            assert "'a'" in str(excinfo.value) and "'c'" in str(excinfo.value)
            # the other half of the batch landed on the living shard
            assert "b" in engine and "d" in engine

    def test_pool_survives_one_dead_worker(self):
        alive_tree = random_tree(30, LABELS, 1)
        with Engine(workers=2) as engine:
            alive = engine.add_tree(alive_tree, tree_query())  # shard 0
            victim = engine.add_tree(random_tree(30, LABELS, 2), tree_query())  # shard 1
            before = canonical(alive.stream())
            self._kill_worker(engine, 1)
            with pytest.raises(ShardDiedError):
                victim.count()
            # the surviving shard still serves, edits and pages
            assert canonical(alive.stream()) == before
            leaf = next(n.node_id for n in alive_tree.nodes() if n.is_leaf())
            assert alive.apply_edits([Relabel(leaf, "b")]).epoch == 1
            page = alive.page(page_size=5)
            assert len(page.answers) <= 5
            # new documents route around the dead shard
            rerouted = engine.add_documents(
                [random_tree(15, LABELS, seed) for seed in range(3)], tree_query()
            )
            assert [engine._shard_of[d.doc_id] for d in rerouted] == [0, 0, 0]
            stats = engine.stats()
            assert stats["per_shard"][1] is None  # dead shard: numbers gone
            assert stats["shards"][1]["alive"] is False
            # no phantom in-flight work left behind by the dead shard
            assert stats["shards"][1]["inflight_requests"] == 0
            assert stats["queue_depth"] == 0

    def test_failed_edit_batch_resyncs_epoch_mirror(self):
        tree = tree_of_shape("random", 60, LABELS, 9)
        with Engine(workers=1) as engine:
            doc = engine.add_tree(tree, tree_query())
            leaf = next(n for n in tree.nodes() if n.is_leaf())
            root_id = tree.root.node_id
            stream = doc.stream()
            next(stream)
            with pytest.raises(InvalidEditError):
                # first edit applies, second is invalid: a *partial* batch —
                # the epoch still advances inside the worker
                doc.apply_edits([Relabel(leaf.node_id, "b"), Delete(root_id)])
            assert doc.epoch == 1  # mirror resynced from the worker
            with pytest.raises(StaleIteratorError):
                list(stream)  # the partial batch made the stream stale


def _isolated_answers_tree():
    """A document whose 'a'-answers all live in one region (the c-subtree)."""
    nested = (
        "r",
        [
            ("c", [("a", ["a", "a"]), ("a", ["a", "a", "a"]), ("a", ["a"])]),
            ("d", [("b", ["b", "b"]), ("b", ["b", "b"]), ("b", ["b"]), "b"]),
        ],
    )
    return UnrankedTree.from_nested(nested)


ISOLATED_LABELS = ("r", "c", "d", "a", "b")


class TestResumeRateCounter:
    """`cursors_resumed_across_edit_batches`: the measured cursor resume rate."""

    @staticmethod
    def _probe_targets(tree, query):
        """Find, in a scratch local store, (resume_target, invalidate_target):
        a b-node whose relabel trunk is provably disjoint from a freshly
        fetched page-3 cursor, and an a-leaf (relabelling it away removes an
        answer the cursor still has to read, so the changed slots overlap
        its remaining-read masks)."""
        from repro.engine.local import LocalStore

        store = LocalStore()
        doc = store.add_tree(tree.copy(), query)
        cursor = doc.open_cursor(page_size=3)
        cursor.fetch()
        resume_target = next(
            node.node_id
            for node in doc.enumerator.tree.nodes()
            if not node.is_root()
            and node.label == "b"
            and not store.would_invalidate(doc.doc_id, cursor, node.node_id)
        )
        invalidate_target = next(
            node.node_id
            for node in doc.enumerator.tree.nodes()
            if node.label == "a" and node.is_leaf()
        )
        return resume_target, invalidate_target

    def _orchestrate(self, engine):
        """One resume + one invalidation, deterministically; returns reports."""
        tree = _isolated_answers_tree()
        query = select_labeled("a", ISOLATED_LABELS)
        resume_target, invalidate_target = self._probe_targets(tree, query)
        doc = engine.add_tree(tree, query)
        page = doc.page(page_size=3)
        resumed = invalidated = 0
        report = doc.apply_edits([Relabel(resume_target, "b")])
        resumed += report.cursors_resumed
        invalidated += report.cursors_invalidated
        page = doc.page(cursor=page)  # the resumed cursor keeps paging
        report = doc.apply_edits([Relabel(invalidate_target, "b")])  # removes an answer
        resumed += report.cursors_resumed
        invalidated += report.cursors_invalidated
        with pytest.raises(CursorInvalidatedError):
            doc.page(cursor=page)
        return resumed, invalidated

    def test_counter_matches_orchestrated_reports_local(self):
        with Engine() as engine:
            resumed, invalidated = self._orchestrate(engine)
            stats = engine.stats()
        assert (resumed, invalidated) == (1, 1)  # the scenario exercises both
        assert stats["cursors_resumed_across_edit_batches"] == resumed
        assert stats["cursors_invalidated"] == invalidated

    def test_counter_merges_across_shards(self):
        with Engine(workers=2) as engine:
            totals = [self._orchestrate(engine) for _ in range(2)]  # one per shard
            stats = engine.stats()
        assert totals == [(1, 1), (1, 1)]
        assert stats["cursors_resumed_across_edit_batches"] == 2
        assert stats["cursors_invalidated"] == 2

    @pytest.mark.timeout(60)
    def test_counter_survives_failover_replica_rebuild(self):
        """Replication regression: a replica rebuilt after a crash restarts
        its store-level counters at zero, and every batch is applied on R
        replicas at once.  The engine's totals must be the *logical* counts —
        monotonic across failover, not doubled by replication (the old
        shard-summed merge got both wrong)."""
        with Engine(workers=3, replicas=2) as engine:
            docs = [
                engine.add_tree(random_tree(20, LABELS, seed), tree_query(), doc_id=seed)
                for seed in range(3)
            ]
            assert self._orchestrate(engine) == (1, 1)
            assert engine.stats()["cursors_resumed_across_edit_batches"] == 1
            TestProtocolFaults._kill_worker(engine, 0)
            for doc in docs:
                doc.count()  # observe the death, wherever it landed
            engine.await_repairs()  # rebuilds lost replicas with zeroed stores
            assert self._orchestrate(engine) == (1, 1)
            stats = engine.stats()
        assert stats["cursors_resumed_across_edit_batches"] == 2
        assert stats["cursors_invalidated"] == 2

    @pytest.mark.timeout(120)
    def test_failover_with_open_cursors_matches_clean_run(self):
        """Kill a replica of the cursor's document between edit batches, with
        the cursor open: the surviving replica keeps serving byte-identical
        pages, the rebuilt replica rejoins, and the engine-level
        resume/invalidate counters end up exactly where a clean (kill-free)
        run ends up — the fine-grained delta reports must not confuse the
        replicated counter merge or the failover page path."""

        def run(kill: bool):
            transcript = []
            with Engine(workers=3, replicas=2) as engine:
                pads = [
                    engine.add_tree(
                        random_tree(16, LABELS, seed), tree_query(), doc_id=f"pad{seed}"
                    )
                    for seed in range(3)
                ]
                tree = _isolated_answers_tree()
                query = select_labeled("a", ISOLATED_LABELS)
                resume_target, invalidate_target = self._probe_targets(tree, query)
                doc = engine.add_tree(tree, query, doc_id="main")
                page = doc.page(page_size=2)
                transcript.append(sorted(map(sorted, page.answers)))
                report = doc.apply_edits([Relabel(resume_target, "b")])
                transcript.append((report.cursors_resumed, report.cursors_invalidated))
                if kill:
                    victim = min(engine._replicas_of["main"])
                    TestProtocolFaults._kill_worker(engine, victim)
                    for d in pads + [doc]:
                        d.count()  # observe the death, wherever it landed
                    engine.await_repairs()
                page = doc.page(cursor=page)  # the open cursor keeps paging
                transcript.append(sorted(map(sorted, page.answers)))
                report = doc.apply_edits([Relabel(invalidate_target, "b")])
                transcript.append((report.cursors_resumed, report.cursors_invalidated))
                with pytest.raises(CursorInvalidatedError):
                    doc.page(cursor=page)
                stats = engine.stats()
                transcript.append(
                    (
                        stats["cursors_resumed_across_edit_batches"],
                        stats["cursors_invalidated"],
                    )
                )
            return transcript

        assert run(kill=True) == run(kill=False)


# ======================================================= replication/failover
class TestReplication:
    """``Engine(workers=N, replicas=R)``: placement, mirroring, validation."""

    def test_replication_parameter_validation(self):
        with pytest.raises(EngineError, match="replication"):
            Engine(replicas=2)  # replication needs a sharded engine
        with pytest.raises(EngineError, match="replicas"):
            Engine(workers=2, replicas=3)  # more copies than workers
        with pytest.raises(EngineError, match="replicas"):
            Engine(workers=2, replicas=0)

    def test_every_document_lands_on_r_distinct_shards(self):
        with Engine(workers=3, replicas=2) as engine:
            docs = engine.add_documents(
                [random_tree(15, LABELS, seed) for seed in range(5)], tree_query()
            )
            for doc in docs:
                replicas = engine._replicas_of[doc.doc_id]
                assert len(replicas) == 2
                assert len(set(replicas)) == 2
            stats = engine.stats()
            assert stats["replicas"] == 2
            assert stats["documents"] == 5  # logical documents, not copies
            replica_rows = [row["replica_of"] for row in stats["shards"]]
            assert sum(len(row) for row in replica_rows) == 10  # 5 docs x 2

    def test_replicated_traffic_matches_single_process(self, tmp_path):
        """The replicated fleet's transcript is byte-identical to one process."""
        trees = [tree_of_shape("random", 60, LABELS, seed) for seed in range(3)]
        query = select_descendant_pairs(LABELS)
        edits = {}
        for doc_index, tree in enumerate(trees):
            leaves = [n.node_id for n in tree.nodes() if n.is_leaf()]
            edits[doc_index] = [
                Relabel(leaves[0], "b"),
                Insert(tree.root.node_id, "c"),
                Relabel(leaves[1], "a"),
                Delete(leaves[2]),
            ]
        with Engine(catalog=tmp_path / "cat", workers=3, replicas=2) as replicated:
            docs = [replicated.add_tree(t, query, doc_id=i) for i, t in enumerate(trees)]
            replicated_transcript = _run_traffic(replicated, docs, edits)
        with Engine(catalog=tmp_path / "cat2") as single:
            docs = [single.add_tree(t, query, doc_id=i) for i, t in enumerate(trees)]
            single_transcript = _run_traffic(single, docs, edits)
        assert replicated_transcript == single_transcript


class TestFailover:
    """Kill any single worker mid-workload: zero documents, zero answers lost."""

    @pytest.mark.timeout(60)
    def test_single_kill_loses_nothing(self):
        trees = [tree_of_shape("random", 50, LABELS, seed) for seed in range(4)]
        with Engine(workers=3, replicas=2) as engine:
            docs = [engine.add_tree(t, tree_query(), doc_id=i) for i, t in enumerate(trees)]
            baseline = {d.doc_id: canonical(d.stream()) for d in docs}
            pages = {d.doc_id: d.page(page_size=2) for d in docs}
            TestProtocolFaults._kill_worker(engine, 0)
            # every read, page continuation and edit keeps working
            for doc in docs:
                follow_up = doc.page(cursor=pages[doc.doc_id])
                both = list(pages[doc.doc_id].answers) + list(follow_up.answers)
                assert both == list(doc.page(page_size=4).answers)
            assert {d.doc_id: canonical(d.stream()) for d in docs} == baseline
            for doc in docs:
                leaf = next(n.node_id for n in trees[doc.doc_id].nodes() if n.is_leaf())
                assert doc.apply_edits([Relabel(leaf, doc.doc_id % 2 and "a" or "b")]).epoch == 1
            # background repair brings every document back to 2 replicas
            engine.await_repairs()
            for doc in docs:
                assert len(engine._replicas_of[doc.doc_id]) == 2
            stats = engine.stats()
            assert stats["deaths_total"] == 1
            assert stats["failovers_total"] >= 1
            assert stats["migrations_total"] >= 1
            assert stats["repairs_pending"] == 0
            assert stats["shards"][0]["generation"] == 1  # respawned worker
            # the rebuilt replica serves identical bytes: kill the *other*
            # original copy, forcing reads onto the restored one
            post_edit = {d.doc_id: canonical(d.stream()) for d in docs}
            TestProtocolFaults._kill_worker(engine, 1)
            assert {d.doc_id: canonical(d.stream()) for d in docs} == post_edit
            engine.await_repairs()
            for doc in docs:
                assert len(engine._replicas_of[doc.doc_id]) == 2

    @pytest.mark.timeout(60)
    def test_crash_mid_batch_with_replicas_keeps_every_document(self):
        """A worker crashing before its ingest reply loses no documents: each
        one also landed on its other replica (and is re-replicated after)."""
        trees = [random_tree(20, LABELS, seed) for seed in range(6)]
        with Engine(workers=3, replicas=2, fault_plan="1:add_batch:0:crash") as engine:
            docs = engine.add_documents(trees, tree_query())  # shard 1 dies mid-batch
            assert len(docs) == 6
            for doc in docs:
                assert doc.count() >= 0  # every document is reachable
            engine.await_repairs()
            for doc in docs:
                assert len(engine._replicas_of[doc.doc_id]) == 2
            assert engine.stats()["deaths_total"] == 1

    @pytest.mark.timeout(60)
    def test_stream_fails_over_mid_flight_without_loss(self):
        """A replica dying mid-stream is invisible: the stream reopens on a
        survivor and replays past the answers already yielded.  The answer
        set deliberately exceeds the push-stream credit window (32 x 256), so
        the kill lands while chunks are still owed."""
        tree = tree_of_shape("random", 600, LABELS, 7)
        query = select_descendant_pairs(LABELS)
        with Engine(workers=2, replicas=2) as engine:
            doc = engine.add_tree(tree, query)
            expected = canonical(doc.stream())
            assert doc.count() > 32 * 256  # must outrun the buffered window
            stream = doc.stream()
            first = [next(stream) for _ in range(3)]
            victim = engine._pick_read_replica(doc.doc_id)
            TestProtocolFaults._kill_worker(engine, victim)
            collected = canonical(first + list(stream))
            assert collected == expected
            assert engine.failovers_total >= 1

    def test_orchestrated_replicated_stats(self):
        """The failover counters, end to end, in one deterministic scenario."""
        with Engine(workers=3, replicas=2, deadline=5.0) as engine:
            docs = [
                engine.add_tree(random_tree(20, LABELS, seed), tree_query(), doc_id=seed)
                for seed in range(3)
            ]
            stats = engine.stats()
            assert stats["deaths_total"] == 0
            assert stats["timeouts_total"] == 0
            assert stats["failovers_total"] == 0
            assert stats["migrations_total"] == 0
            assert stats["repairs_pending"] == 0
            assert all(row["generation"] == 0 for row in stats["shards"])
            victim_docs = [
                d.doc_id for d in docs if 0 in engine._replicas_of[d.doc_id]
            ]
            TestProtocolFaults._kill_worker(engine, 0)
            for doc in docs:
                doc.count()  # reads fail over; the death is observed here
            engine.await_repairs()
            stats = engine.stats()
            assert stats["deaths_total"] == 1
            assert stats["timeouts_total"] == 0
            assert stats["failovers_total"] >= 1
            # exactly the dead shard's documents were re-migrated
            assert stats["migrations_total"] == len(victim_docs)
            assert stats["repairs_pending"] == 0
            assert [row["generation"] for row in stats["shards"]] == [1, 0, 0]
            # replica_of names every document twice across the fleet
            placed = sorted(
                doc_id for row in stats["shards"] for doc_id in row["replica_of"]
            )
            assert placed == sorted(list(range(3)) * 2)

    @pytest.mark.timeout(60)
    def test_placement_counters_stay_balanced_through_churn(self):
        """``_placed`` (the per-shard placement load steering `_pick_shards`)
        must mirror the live replica map after any mix of adds, removes and
        failovers, and never go negative — every replica-release path routes
        through one helper."""

        def check(engine):
            live = {}
            for shards in engine._replicas_of.values():
                for shard in shards:
                    live[shard] = live.get(shard, 0) + 1
            assert all(count >= 0 for count in engine._placed.values())
            assert {s: c for s, c in engine._placed.items() if c} == live

        with Engine(workers=3, replicas=2) as engine:
            docs = [
                engine.add_tree(random_tree(20, LABELS, seed), tree_query(), doc_id=seed)
                for seed in range(5)
            ]
            check(engine)
            engine.remove(docs[0].doc_id)
            check(engine)
            TestProtocolFaults._kill_worker(engine, 1)
            for doc in docs[1:]:
                doc.count()  # observe the death
            engine.await_repairs()
            check(engine)
            engine.remove(docs[1].doc_id)
            engine.add_documents([random_tree(15, LABELS, 9)], tree_query())
            check(engine)


class TestDeadlines:
    """No protocol wait may outlive its deadline; hung workers are failed over."""

    @pytest.mark.timeout(30)
    def test_hung_worker_mid_request_raises_timeout(self):
        with Engine(workers=1, deadline=0.5, fault_plan="0:count:0:hang") as engine:
            doc = engine.add_tree(random_tree(20, LABELS, 3), tree_query())
            with pytest.raises(ShardTimeoutError, match="count") as excinfo:
                doc.count()
            assert excinfo.value.shard == 0
            assert excinfo.value.deadline == 0.5
            assert excinfo.value.elapsed >= 0.4
            stats = engine.stats()
            assert stats["timeouts_total"] == 1
            assert stats["deaths_total"] == 1  # a timeout *is* a death
            assert stats["shards"][0]["alive"] is False

    @pytest.mark.timeout(30)
    def test_hung_worker_mid_stream_raises_timeout(self):
        # the document needs > STREAM_PAGE_SIZE answers so the stream spans
        # several chunks; the worker hangs pushing the second one
        tree = tree_of_shape("random", 100, LABELS, 7)
        with Engine(
            workers=1, deadline=0.5, fault_plan="0:stream_chunk:1:hang"
        ) as engine:
            doc = engine.add_tree(tree, select_descendant_pairs(LABELS))
            stream = doc.stream()
            with pytest.raises(ShardTimeoutError):
                list(stream)
            assert engine.stats()["timeouts_total"] == 1

    @pytest.mark.timeout(30)
    def test_hung_worker_fails_over_under_replication(self):
        """With replicas, a hang is just a slow crash: reads keep answering."""
        with Engine(
            workers=3, replicas=2, deadline=0.5, fault_plan="*:count:0:hang"
        ) as engine:
            doc = engine.add_tree(random_tree(20, LABELS, 3), tree_query())
            answers = list(doc.stream())
            assert doc.count() == len(answers)  # first count hangs, fails over
            stats = engine.stats()
            assert stats["timeouts_total"] >= 1
            assert stats["failovers_total"] >= 1
            engine.await_repairs()
            assert len(engine._replicas_of[doc.doc_id]) == 2


class TestFaultInjection:
    """The fault plan itself, and the parent's protocol hardening."""

    def test_garbage_reply_is_rejected_with_precise_error(self):
        with Engine(workers=1, fault_plan="0:count:0:garbage") as engine:
            doc = engine.add_tree(random_tree(20, LABELS, 3), tree_query())
            with pytest.raises(ShardProtocolError, match="shard worker 0") as excinfo:
                doc.count()
            message = str(excinfo.value)
            assert "garbage" in message  # names the malformed message shape
            assert "request_id, status" in message  # and the expected shape
            # the lying worker is dead, not trusted further
            with pytest.raises(ShardDiedError):
                doc.count()

    def test_garbage_reply_is_a_death_for_failover_purposes(self):
        with Engine(workers=2, replicas=2, fault_plan="0:count:0:garbage") as engine:
            doc = engine.add_tree(random_tree(20, LABELS, 3), tree_query())
            answers = list(doc.stream())
            assert doc.count() == len(answers)  # ShardProtocolError -> failover
            engine.await_repairs()
            assert canonical(doc.stream()) == canonical(answers)

    def test_crash_before_edit_reply_keeps_replicas_consistent(self):
        """The worst crash window: the edit may or may not have landed on the
        crashed replica.  Survivors agree, and the rebuilt replica replays
        the full edit log, so the fleet converges either way."""
        tree = tree_of_shape("random", 60, LABELS, 9)
        leaf = next(n.node_id for n in tree.nodes() if n.is_leaf())
        with Engine(workers=2, replicas=2, fault_plan="1:edits:0:crash") as engine:
            doc = engine.add_tree(tree, tree_query())
            report = doc.apply_edits([Relabel(leaf, "b")])
            assert report.epoch == 1
            after_edit = canonical(doc.stream())
            engine.await_repairs()
            assert len(engine._replicas_of[doc.doc_id]) == 2
            # force reads onto the rebuilt replica: kill the survivor
            survivor = next(
                s for s in engine._replicas_of[doc.doc_id]
                if engine._pool.generation(s) == 0
            )
            TestProtocolFaults._kill_worker(engine, survivor)
            assert canonical(doc.stream()) == after_edit
            assert doc.apply_edits([Relabel(leaf, "a")]).epoch == 2

    def test_fault_spec_parsing(self):
        from repro.engine.faults import FaultRule, parse_fault_spec

        plan = parse_fault_spec("1:edits:0:crash; *:page:2:hang; 0:add_batch:*:slow:0.05")
        assert [r.action for r in plan.rules] == ["crash", "hang", "slow"]
        assert plan.rules[1].shard is None and plan.rules[1].nth == 2
        assert plan.rules[2].nth is None and plan.rules[2].param == 0.05
        with pytest.raises(EngineError, match="fault clause"):
            parse_fault_spec("1:edits:crash")
        with pytest.raises(EngineError, match="action"):
            parse_fault_spec("1:edits:0:explode")
        # one-shot rules disarm; wildcard-nth rules keep firing
        rule = FaultRule(None, "page", 1, "crash")
        assert [rule.matches(0, "page") for _ in range(3)] == [False, True, False]
        always = FaultRule(None, "page", None, "slow", 0.0)
        assert [always.matches(0, "page") for _ in range(3)] == [True, True, True]

    def test_malformed_fault_specs_name_the_offending_clause(self):
        """Every parse error carries the exact clause that failed — vital
        when ``REPRO_FAULTS`` holds a long multi-clause plan."""
        from repro.engine.faults import parse_fault_spec

        # unknown action: the clause and the valid action list are both named
        with pytest.raises(
            EngineError,
            match=r"bad fault clause '1:edits:0:explode'.*unknown fault action 'explode'",
        ) as excinfo:
            parse_fault_spec("0:count:0:garbage; 1:edits:0:explode")
        assert "crash, hang, slow, garbage" in str(excinfo.value)
        # non-integer nth / shard
        with pytest.raises(EngineError, match=r"bad fault clause '\*:page:two:hang'"):
            parse_fault_spec("*:page:two:hang")
        with pytest.raises(EngineError, match=r"bad fault clause 'one:page:0:hang'"):
            parse_fault_spec("one:page:0:hang")
        # malformed float param
        with pytest.raises(
            EngineError, match=r"bad fault clause '0:add_batch:\*:slow:fast'"
        ):
            parse_fault_spec("0:add_batch:*:slow:fast")
        # wrong field counts name the clause and the expected shape
        for bad in ("1:edits:crash", "1:edits:0:crash:1.0:extra"):
            with pytest.raises(
                EngineError,
                match=rf"bad fault clause '{bad}': expected shard:op:nth:action",
            ):
                parse_fault_spec(bad)

    def test_fault_plan_from_environment(self, monkeypatch):
        from repro.engine.faults import FAULTS_ENV_VAR

        monkeypatch.setenv(FAULTS_ENV_VAR, "0:count:0:garbage")
        with Engine(workers=1) as engine:
            doc = engine.add_tree(random_tree(15, LABELS, 2), tree_query())
            with pytest.raises(ShardProtocolError):
                doc.count()

    def test_deferred_stream_closes_cleared_on_shard_death(self):
        """Regression: deferred stream closes queued for a worker that dies
        before flushing them must be dropped with the death — a leak here
        poisoned the respawned worker's stream bookkeeping."""
        # > 4 x 256 answers: the stream is still owed chunks when abandoned,
        # so the close is genuinely deferred
        tree = tree_of_shape("random", 100, LABELS, 7)
        with Engine(workers=1) as engine:
            doc = engine.add_tree(tree, select_descendant_pairs(LABELS))
            stream = doc.stream()
            next(stream)
            stream.close()  # abandoning mid-stream defers the close message
            state = engine._pool._shards[0]
            assert state.deferred_closes  # the close is parked, not yet sent
            TestProtocolFaults._kill_worker(engine, 0)
            with pytest.raises(ShardDiedError):
                doc.count()  # the send observes the death
            assert state.deferred_closes == []  # nothing leaked past the death


# ============================================================ catalog gc race
class TestCatalogGcRace:
    def test_truncated_entry_raises_catalog_error_not_json_crash(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        query = tree_query()
        catalog.save(query)
        digest = catalog.digest_of(query)
        clear_automata()  # as in a process that holds no automaton for it yet
        with open(catalog.path_of(digest), "w", encoding="utf8") as handle:
            handle.write('{"format": 1, "kind": "tre')  # a torn write
        fresh = QueryCatalog(os.fspath(tmp_path))
        with pytest.raises(CatalogError, match="corrupt"):
            fresh.load(digest)
        with pytest.raises(CatalogError, match="corrupt"):
            fresh.get(query)  # corrupt entries never silently recompile

    def test_entry_collected_by_concurrent_gc_compiles_instead(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        query = tree_query()
        catalog.save(query)
        digest = catalog.digest_of(query)
        clear_automata()  # as in a process that holds no automaton for it yet
        fresh = QueryCatalog(os.fspath(tmp_path))
        os.unlink(fresh.path_of(digest))  # another process gc'd it just now
        entry = fresh.get(query)  # no exists-probe race left: compiles
        assert entry.kind == "tree"
        with pytest.raises(CatalogError, match="concurrent gc"):
            QueryCatalog(os.fspath(tmp_path)).load(digest)

    def test_gc_on_pre_manifest_catalog(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        keep_query = tree_query()
        drop_query = select_descendant_pairs(LABELS)
        catalog.save(keep_query)
        catalog.save(drop_query)
        os.unlink(catalog.manifest_path)  # a PR-3-era catalog
        reopened = QueryCatalog(os.fspath(tmp_path))
        removed = reopened.gc(keep=[keep_query])
        assert removed == [reopened.digest_of(drop_query)]
        assert reopened.load(reopened.digest_of(keep_query), use_cache=False).kind == "tree"

    def test_worker_survives_parent_gc_of_standing_query(self, tmp_path):
        query = select_descendant_pairs(LABELS)
        tree = random_tree(40, LABELS, 6)
        with Engine(catalog=tmp_path / "cat", workers=1) as engine:
            compiled = engine.compile(query)
            engine.catalog.gc(keep=[])  # parent collects the digest ...
            doc = engine.add_tree(tree, compiled)  # ... while the worker needs it
            sharded = canonical(doc.stream())
        with Engine() as single:
            assert sharded == canonical(single.add_tree(tree, query).stream())


# =================================================================== catalog
class TestCatalogManifestAndGc:
    def test_manifest_records_version_and_per_digest_metadata(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        query = tree_query()
        catalog.save(query)
        manifest = catalog.read_manifest()
        assert manifest["library_version"] == repro.__version__
        meta = catalog.entry_meta(query)
        assert meta["kind"] == "tree"
        assert meta["automaton_states"] > 0 and meta["file_bytes"] > 0
        # the manifest is not an entry
        assert catalog.digests() == [catalog.digest_of(query)]

    def test_gc_deletes_unreferenced_digests(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        keep_query = tree_query()
        drop_query = select_descendant_pairs(LABELS)
        catalog.save(keep_query)
        catalog.save(drop_query)
        removed = catalog.gc(keep=[keep_query])
        assert removed == [catalog.digest_of(drop_query)]
        assert catalog.digests() == [catalog.digest_of(keep_query)]
        assert catalog.entry_meta(drop_query) is None
        # gc accepts digests too, and is idempotent
        assert catalog.gc(keep=[catalog.digest_of(keep_query)]) == []
        # the surviving entry still loads
        assert catalog.load(catalog.digest_of(keep_query), use_cache=False).kind == "tree"

    def test_incompatible_manifest_raises_catalog_version_error(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        catalog.save(tree_query())
        manifest_path = catalog.manifest_path
        with open(manifest_path, encoding="utf8") as handle:
            manifest = json.load(handle)
        manifest["library_version"] = "99.0.0"
        with open(manifest_path, "w", encoding="utf8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CatalogVersionError, match="99.0.0"):
            QueryCatalog(os.fspath(tmp_path))
        manifest["library_version"] = repro.__version__
        manifest["manifest_format"] = 999
        with open(manifest_path, "w", encoding="utf8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CatalogVersionError, match="format"):
            QueryCatalog(os.fspath(tmp_path))

    def test_pre_manifest_catalog_stays_readable(self, tmp_path):
        catalog = QueryCatalog(os.fspath(tmp_path))
        query = tree_query()
        catalog.save(query)
        os.unlink(catalog.manifest_path)  # simulate a PR-3-era catalog
        reopened = QueryCatalog(os.fspath(tmp_path))
        assert reopened.read_manifest() is None
        assert reopened.load(reopened.digest_of(query), use_cache=False).kind == "tree"


# ==================================================================== errors
class TestUnifiedErrors:
    EXPORTED = [
        "ReproError",
        "BackendError",
        "CatalogError",
        "CatalogVersionError",
        "CircuitStructureError",
        "CursorInvalidatedError",
        "EngineError",
        "InvalidAutomatonError",
        "InvalidEditError",
        "InvalidTreeError",
        "RegexSyntaxError",
        "ServingError",
        "StaleIteratorError",
        "UnsupportedUpdateError",
    ]

    def test_every_public_exception_derives_from_repro_error(self):
        for name in self.EXPORTED:
            exc_type = getattr(repro, name)
            assert issubclass(exc_type, ReproError), name

    def test_refinements(self):
        assert issubclass(BackendError, ValueError)
        assert issubclass(CatalogVersionError, repro.CatalogError)
        assert issubclass(CursorInvalidatedError, StaleIteratorError)
        assert issubclass(ServingError, EngineError)

    @pytest.mark.parametrize("transport", ["local", "sharded", "tcp"])
    @pytest.mark.parametrize("edit", [("replace", 0), ("delete", 0, 1), ("insert_after",)])
    def test_malformed_word_edit_is_one_serving_error(self, transport, edit):
        """A word edit of the wrong shape fails before it applies, with the
        same typed error in-process, in a shard worker and over TCP."""
        with contextlib.ExitStack() as stack:
            engine = stack.enter_context(Engine(workers=1 if transport == "sharded" else 0))
            if transport == "tcp":
                server = EngineServer(engine, idle_timeout=None).start()
                stack.callback(server.stop)
                engine = stack.enter_context(RemoteEngine(server.address))
            doc = engine.add_word(list("abab"), word_query())
            with pytest.raises(ServingError) as info:
                doc.apply_edits([edit])
            assert type(info.value) is ServingError
            assert str(info.value) == (
                f"unknown word edit {edit!r}; expected ('replace', position_id, letter), "
                "('insert_after', position_id or None, letter) or ('delete', position_id)"
            )
            assert doc.epoch == 0

    def test_one_handler_catches_the_pipeline(self):
        with Engine() as engine:
            with pytest.raises(ReproError):
                engine.compile("x{a+}")  # missing alphabet → EngineError
            with pytest.raises(ReproError):
                engine.document("missing")  # ServingError
        with pytest.raises(ReproError):
            TreeRuntime(random_tree(5, LABELS, 0), tree_query(), relation_backend="nope")

