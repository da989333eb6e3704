"""Tests for the serving layer — catalog persistence, stores, cursors.

The acceptance-critical properties pinned here:

* a compiled query persisted by :class:`QueryCatalog` loads **in a fresh
  process** (a spawned subprocess) and enumerates byte-identical answers to
  an in-process compile;
* answers from a freshly loaded compiled query equal a from-scratch compile
  on **both relation backends** (differential);
* a process holds **one compiled automaton per query digest**, whichever
  path reached it (a runtime, ``Engine.compile``, the catalog), and a
  query object pickles without it;
* cursor semantics: pagination is duplicate-free across pages, a cursor
  **resumes** after edits whose trunk is disjoint from the cursor's, and an
  edit hitting the cursor's trunk **deterministically** invalidates it with
  a precise report.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.automata.queries import select_descendant_pairs, select_labeled
from repro.automata.serialize import query_digest
from repro import Engine
from repro.core.enumerator import (
    COMPILED_AUTOMATA_LIMIT,
    TreeRuntime,
    WordRuntime,
    clear_automata,
    compiled_automaton_for,
    lookup_automaton,
    register_automaton,
)
from repro.errors import CatalogError, CursorInvalidatedError, ServingError
from repro.circuits.build import export_box_plans
from repro.engine.catalog import QueryCatalog
from repro.engine.codec import compiled_query_from_json
from repro.engine.local import LocalStore
from repro.spanners.compile import regex_to_wva
from repro.trees.edits import Relabel
from repro.trees.generators import tree_of_shape
from repro.trees.unranked import UnrankedTree

LABELS = ("a", "b", "c", "d")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def canonical_answers(assignments):
    """Canonical JSON text of an answer set (for byte-level comparisons)."""
    rows = sorted(sorted([str(var), node] for var, node in a) for a in assignments)
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def fresh_compile_answers(tree, query):
    """Answers from a from-scratch compile (bypassing every cache)."""
    clear_automata()
    plain = query.__class__(
        query.states, query.variables, query.initial, query.delta, query.final
    )
    return canonical_answers(TreeRuntime(tree, plain).assignments())


def _delta_names_an_unknown_value(automaton):
    automaton["delta"][0][1] = len(automaton["values"])


def _final_state_outside_states(automaton):
    states = set(automaton["states"])
    automaton["final"].append(next(i for i in range(len(automaton["values"])) if i not in states))


# =========================================================================== catalog
class TestQueryCatalog:
    def test_save_load_roundtrip_equal_answers(self, tmp_path):
        query = select_descendant_pairs(LABELS)
        tree = tree_of_shape("random", 160, LABELS, 11)
        catalog = QueryCatalog(str(tmp_path))
        warm = TreeRuntime(tree, query)
        expected = canonical_answers(warm.assignments())
        catalog.save(query)
        assert query in catalog
        assert catalog.digests() == [catalog.digest_of(query)]

        loaded = catalog.load(catalog.digest_of(query), use_cache=False)
        assert loaded.from_disk
        assert loaded.load_seconds is not None
        # build a fresh enumeration structure against the *loaded* automaton only
        from repro.forest_algebra.maintenance import MaintainedTerm
        from repro.incremental.maintainer import IncrementalCircuitMaintainer

        term = MaintainedTerm(tree)
        maintainer = IncrementalCircuitMaintainer(term, loaded.automaton)
        got = canonical_answers(maintainer.enumerator().assignments())
        assert got == expected

    def test_digest_is_content_based_and_stable(self):
        q1 = select_labeled("a", LABELS)
        q2 = select_labeled("a", LABELS)  # equal content, distinct object
        q3 = select_labeled("b", LABELS)
        assert query_digest(q1) == query_digest(q2)
        assert query_digest(q1) != query_digest(q3)

    def test_digest_mismatch_raises(self, tmp_path):
        query = select_labeled("a", LABELS)
        catalog = QueryCatalog(str(tmp_path))
        catalog.save(query)
        digest = catalog.digest_of(query)
        text = open(catalog.path_of(digest), encoding="utf8").read()
        with pytest.raises(CatalogError, match="digest mismatch"):
            compiled_query_from_json(text, expected_digest="0" * 64)

    def test_missing_and_corrupt_entries(self, tmp_path):
        catalog = QueryCatalog(str(tmp_path))
        with pytest.raises(CatalogError, match="no compiled query"):
            catalog.load("f" * 64)
        with pytest.raises(CatalogError, match="corrupt"):
            compiled_query_from_json("{not json")

    @pytest.mark.parametrize(
        "text",
        [b"[1]", b'"x"', b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"],
        ids=["list", "string", "nesting-bomb", "not-utf8"],
    )
    def test_unreadable_entry_raises_catalog_error_naming_it(self, tmp_path, text):
        query = select_labeled("a", LABELS)
        catalog = QueryCatalog(str(tmp_path))
        catalog.save(query)
        digest = catalog.digest_of(query)
        path = catalog.path_of(digest)
        with open(path, "wb") as handle:
            handle.write(text)
        with pytest.raises(CatalogError, match="corrupt") as info:
            QueryCatalog(str(tmp_path)).load(digest)
        assert path in str(info.value) and digest in str(info.value)

    @pytest.mark.parametrize("swap_state_table", [False, True], ids=["intact", "swapped"])
    def test_an_older_entrys_plans_section_is_ignored(self, tmp_path, swap_state_table):
        """Older writers added the box plans of a warm automaton; a reader
        serves from the automaton section alone, even if the plans are miswired."""
        query = select_descendant_pairs(LABELS)
        warm = TreeRuntime(tree_of_shape("random", 80, LABELS, 3), query)
        expected = canonical_answers(warm.assignments())
        catalog = QueryCatalog(str(tmp_path))
        digest = catalog.save(query).digest
        path = catalog.path_of(digest)
        with open(path, encoding="utf8") as handle:
            payload = json.load(handle)
        plans = payload["plans"] = export_box_plans(warm.binary_automaton)
        values = plans["values"]
        assert plans["internal"] and values[0] != values[1]
        if swap_state_table:
            values[0], values[1] = values[1], values[0]
        with open(path, "w", encoding="utf8") as handle:
            json.dump(payload, handle)
        clear_automata()
        with Engine(catalog=str(tmp_path)) as engine:
            compiled = engine.compile(select_descendant_pairs(LABELS))
            assert compiled.automaton is not warm.binary_automaton  # loaded from disk
            assert getattr(compiled.automaton, "_box_plan_cache", None) is None
            doc = engine.add_tree(tree_of_shape("random", 80, LABELS, 3), compiled)
            assert canonical_answers(doc.stream()) == expected

    @pytest.mark.parametrize(
        "tamper, message",
        [(_delta_names_an_unknown_value, "index out of range"),
         (_final_state_outside_states, "final states must be a subset")],
    )
    def test_a_malformed_automaton_section_raises_catalog_error_naming_it(
        self, tmp_path, tamper, message
    ):
        catalog = QueryCatalog(str(tmp_path))
        digest = catalog.save(select_descendant_pairs(LABELS)).digest
        path = catalog.path_of(digest)
        with open(path, encoding="utf8") as handle:
            payload = json.load(handle)
        tamper(payload["automaton"])
        with open(path, "w", encoding="utf8") as handle:
            json.dump(payload, handle)
        with pytest.raises(CatalogError, match=f"corrupt.*{message}") as info:
            QueryCatalog(str(tmp_path)).load(digest)
        assert path in str(info.value) and digest in str(info.value)

    def test_get_compiles_without_persisting(self, tmp_path):
        query = select_labeled("a", LABELS)
        catalog = QueryCatalog(str(tmp_path))
        entry = catalog.get(query)
        assert not entry.from_disk
        assert query not in catalog  # get() never writes implicitly

    def test_leftover_tmp_files_are_not_entries(self, tmp_path):
        catalog = QueryCatalog(str(tmp_path))
        catalog.save(select_labeled("a", LABELS))
        # simulate a crash between mkstemp and os.replace
        with open(os.path.join(catalog.root, ".tmp-dead.json"), "w") as handle:
            handle.write("{half written")
        assert len(catalog) == 1
        for digest in catalog.digests():
            catalog.load(digest)  # every listed digest is loadable

    @pytest.mark.parametrize("backend", ["pairs", "bitset"])
    def test_loaded_query_differential_across_backends(self, tmp_path, backend):
        """Loaded compiled query == from-scratch compile, on every backend."""
        query = select_descendant_pairs(LABELS)
        tree = tree_of_shape("random", 120, LABELS, 23)
        expected = fresh_compile_answers(tree, query)

        catalog = QueryCatalog(str(tmp_path))
        catalog.save(query)
        loaded = catalog.load(catalog.digest_of(query), use_cache=False)
        fresh_query = select_descendant_pairs(LABELS)
        clear_automata()  # the process holds the loaded automaton, not its own compile
        register_automaton(loaded.digest, loaded.automaton)
        enumerator = TreeRuntime(tree, fresh_query, relation_backend=backend)
        assert enumerator.binary_automaton is loaded.automaton  # no recompile
        assert canonical_answers(enumerator.assignments()) == expected

    def test_fresh_process_loads_and_matches_byte_identically(self, tmp_path):
        """The acceptance test: persist, reload in a subprocess, compare bytes."""
        query = select_descendant_pairs(LABELS)
        tree = tree_of_shape("random", 140, LABELS, 5)
        warm = TreeRuntime(tree, query)
        expected = canonical_answers(warm.assignments())

        catalog = QueryCatalog(str(tmp_path))
        catalog.save(query)
        digest = catalog.digest_of(query)

        child_source = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.engine.catalog import QueryCatalog
from repro.forest_algebra.maintenance import MaintainedTerm
from repro.incremental.maintainer import IncrementalCircuitMaintainer
from repro.trees.generators import tree_of_shape

catalog = QueryCatalog(sys.argv[2])
loaded = catalog.load(sys.argv[3])
# the same deterministic document the parent enumerated (same ids)
tree = tree_of_shape("random", 140, ("a", "b", "c", "d"), 5)
start = time.perf_counter()
maintainer = IncrementalCircuitMaintainer(MaintainedTerm(tree), loaded.automaton)
build_seconds = time.perf_counter() - start
rows = sorted(
    sorted([str(var), node] for var, node in a)
    for a in maintainer.enumerator().assignments()
)
print(json.dumps({
    "answers": json.dumps(rows, sort_keys=True, separators=(",", ":")),
    "load_seconds": loaded.load_seconds,
}))
"""
        result = subprocess.run(
            [sys.executable, "-c", child_source, SRC_DIR, str(tmp_path), digest],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        payload = json.loads(result.stdout)
        # Byte-identical answers in a process that never ran the compiler.
        assert payload["answers"] == expected
        assert payload["load_seconds"] is not None and payload["load_seconds"] > 0


# =========================================================================== one automaton
class TestOneAutomaton:
    def test_every_path_hands_out_the_held_automaton(self, tmp_path):
        tree = tree_of_shape("random", 40, LABELS, 2)
        older = TreeRuntime(tree, select_descendant_pairs(LABELS))
        automaton = older.binary_automaton
        # content-equal query objects
        assert compiled_automaton_for(select_descendant_pairs(LABELS)) is automaton
        # Engine.compile, with and without a catalog
        with Engine() as engine:
            assert engine.compile(select_descendant_pairs(LABELS)).automaton is automaton
        with Engine(catalog=str(tmp_path / "engine")) as engine:
            assert engine.compile(select_descendant_pairs(LABELS)).automaton is automaton
        # the catalog, for a digest that is on disk and that the process holds
        QueryCatalog(str(tmp_path / "disk")).save(select_descendant_pairs(LABELS))
        entry = QueryCatalog(str(tmp_path / "disk")).get(select_descendant_pairs(LABELS))
        assert entry.automaton is automaton
        # a runtime built after more registrations than the table keeps,
        # while the older runtime still holds the automaton
        for index in range(COMPILED_AUTOMATA_LIMIT + 1):
            compiled_automaton_for(select_labeled("a", ("a", f"other-{index}")))
        newer = TreeRuntime(tree, select_descendant_pairs(LABELS))
        assert newer.binary_automaton is automaton

    def test_unused_automata_stay_bounded(self):
        digest = query_digest(select_labeled("a", ("a", "unused")))
        compiled_automaton_for(select_labeled("a", ("a", "unused")))
        assert lookup_automaton(digest) is not None
        for index in range(COMPILED_AUTOMATA_LIMIT):
            compiled_automaton_for(select_labeled("a", ("a", f"later-{index}")))
        gc.collect()
        assert lookup_automaton(digest) is None

    def test_query_pickles_with_its_digest_only(self):
        source = select_descendant_pairs(LABELS)
        fresh = select_descendant_pairs(LABELS)
        fresh_size = len(pickle.dumps(fresh))
        with Engine() as engine:
            engine.add_tree(tree_of_shape("random", 60, LABELS, 4), engine.compile(source))
        query_digest(fresh)  # memoized on the object, as compile does
        assert len(pickle.dumps(source)) == len(pickle.dumps(fresh)) < fresh_size + 100


# =========================================================================== store
class TestLocalStore:
    def test_documents_share_one_compiled_automaton(self, tmp_path):
        catalog = QueryCatalog(str(tmp_path))
        query = select_labeled("a", LABELS)
        catalog.save(query)
        store = LocalStore(catalog=catalog)
        docs = [
            store.add_tree(tree_of_shape("random", 80, LABELS, seed), query)
            for seed in range(4)
        ]
        automata = {id(d.enumerator.binary_automaton) for d in docs}
        assert len(automata) == 1
        assert store.stats()["compiled_queries"] == 1

    def test_batched_edits_one_epoch_step(self):
        store = LocalStore()
        query = select_labeled("a", LABELS)
        doc = store.add_tree(tree_of_shape("random", 60, LABELS, 1), query)
        nodes = [n for n in doc.enumerator.tree.nodes() if not n.is_root()][:3]
        report = doc.apply_edits([Relabel(n.node_id, "a") for n in nodes])
        assert doc.epoch == 1
        assert report.epoch == 1
        assert len(report.stats) == 3
        assert report.boxes_rebuilt == report.trunk_total() > 0
        # count reflects the batch
        assert doc.count() == sum(
            1 for n in doc.enumerator.tree.nodes() if n.label == "a"
        )

    def test_word_documents_and_edits(self):
        store = LocalStore()
        alphabet = ("a", "b", "c")
        wva = regex_to_wva(".*x{b}.*", alphabet)
        doc = store.add_word(list("abacaba"), wva)
        assert doc.count() == 2  # two b positions
        positions = doc.enumerator.position_ids()
        report = doc.apply_edits([("replace", positions[1], "c")])
        assert report.epoch == 1
        assert doc.count() == 1
        reference = WordRuntime(doc.enumerator.word(), regex_to_wva(".*x{b}.*", alphabet))
        assert sorted(map(sorted, doc.answers())) == sorted(
            map(sorted, reference.assignments())
        )
        with pytest.raises(ServingError, match="unknown word edit"):
            doc.apply_edits([("frobnicate", 0)])

    def test_unknown_document_and_duplicate_ids(self):
        store = LocalStore()
        query = select_labeled("a", LABELS)
        with pytest.raises(ServingError, match="no document"):
            store.document("nope")
        store.add_tree(tree_of_shape("random", 30, LABELS, 1), query, doc_id="x")
        with pytest.raises(ServingError, match="already in use"):
            store.add_tree(tree_of_shape("random", 30, LABELS, 2), query, doc_id="x")

    @pytest.mark.parametrize("name", ["bitsets", "matrix", "numpy"])
    def test_backend_typo_fails_fast(self, name):
        with pytest.raises(ValueError, match="valid backends are 'pairs', 'bitset'"):
            TreeRuntime(tree_of_shape("random", 10, LABELS, 1), select_labeled("a", LABELS),
                        relation_backend=name)
        # the store serves the bitset runtime only: it takes no backend
        with pytest.raises(TypeError):
            LocalStore(relation_backend=name)

    def test_failed_batch_still_invalidates_cursors(self):
        """An exception mid-batch must not leave cursors serving stale pages:
        the edits already applied rebuilt real trunks, so the epoch advances
        and overlapping cursors are invalidated before the error propagates."""
        store = LocalStore()
        query = select_labeled("a", LABELS)
        doc = store.add_tree(tree_of_shape("random", 60, LABELS, 4), query)
        cursor = doc.open_cursor(page_size=2)  # unfetched: depends on the root box
        # a genuinely answer-changing edit (a fingerprint-equal rebuild would
        # let the cursor resume)
        leaf = next(n for n in doc.enumerator.tree.leaves() if n.label != "a")
        with pytest.raises(ServingError, match="EditOperation"):
            doc.apply_edits([Relabel(leaf.node_id, "a"), "bogus"])
        assert doc.epoch == 1  # the applied prefix advanced the epoch
        with pytest.raises(CursorInvalidatedError):
            cursor.fetch()
        # a batch that fails before any edit applied leaves the epoch alone
        with pytest.raises(ServingError):
            doc.apply_edits(["bogus"])
        assert doc.epoch == 1

    def test_remove_closes_every_cursor(self):
        store = LocalStore()
        query = select_labeled("a", LABELS)
        doc = store.add_tree(tree_of_shape("random", 60, LABELS, 4), query)
        cursors = [doc.open_cursor(page_size=3) for _ in range(3)]
        store.remove(doc.doc_id)
        assert all(c.status == "closed" for c in cursors)
        with pytest.raises(ServingError, match="closed"):
            cursors[1].fetch()

    def test_dead_cursors_are_pruned_from_the_document(self):
        store = LocalStore()
        query = select_labeled("a", LABELS)
        doc = store.add_tree(tree_of_shape("random", 60, LABELS, 4), query)
        for _ in range(5):
            doc.open_cursor(page_size=1000).fetch_all()  # exhausts immediately
        closed = doc.open_cursor(page_size=3)
        closed.close()
        live = doc.open_cursor(page_size=3)
        assert doc._cursors == [live]  # exhausted/closed cursors were pruned
        leaf = next(n for n in doc.enumerator.tree.leaves() if n.label != "a")
        doc.apply_edits([Relabel(leaf.node_id, "a")])  # answer-changing: invalidates `live`
        assert doc._cursors == []
        stats = store.stats()
        assert stats["cursors_opened_total"] == 7
        assert stats["cursors_invalidated"] == 1
        assert stats["cursors_open"] == 0


# =========================================================================== cursors
def _tree_with_isolated_answers():
    """A document whose 'a'-answers all live in one region of the tree."""
    nested = (
        "r",
        [
            ("c", [("a", ["a", "a"]), ("a", ["a", "a", "a"]), ("a", ["a"])]),
            ("d", [("b", ["b", "b"]), ("b", ["b", "b"]), ("b", ["b"]), "b"]),
        ],
    )
    return UnrankedTree.from_nested(nested)


class TestCursors:
    def setup_method(self):
        self.store = LocalStore()
        self.query = select_labeled("a", ("r", "c", "d") + LABELS[:2])

    def test_pages_are_duplicate_free_and_complete(self):
        doc = self.store.add_tree(tree_of_shape("random", 150, LABELS, 9),
                                  select_labeled("a", LABELS))
        expected = sorted(map(sorted, doc.answers()))
        cursor = doc.open_cursor(page_size=4)
        pages = []
        seen_offsets = []
        while True:
            page = cursor.fetch()
            seen_offsets.append(page.offset)
            pages.append(page.answers)
            if page.exhausted:
                break
        flat = [a for page in pages for a in page]
        assert len(flat) == len(set(flat))  # duplicate-free across pages
        assert sorted(map(sorted, flat)) == expected  # complete
        assert all(len(p) <= 4 for p in pages)
        assert seen_offsets == sorted(seen_offsets)
        assert cursor.status == "exhausted"

    def test_cursor_resumes_after_unrelated_edit(self):
        doc = self.store.add_tree(_tree_with_isolated_answers(), self.query)
        full = sorted(map(sorted, doc.answers()))
        cursor = doc.open_cursor(page_size=3)
        first = cursor.fetch()
        assert len(first.answers) == 3

        # pick a node whose (relabel) trunk is provably disjoint from the
        # cursor's — the b-region carries no answers, so one must exist
        target = None
        for node in doc.enumerator.tree.nodes():
            if node.is_root() or node.label != "b":
                continue
            if not self.store.would_invalidate(doc.doc_id, cursor, node.node_id):
                target = node
                break
        assert target is not None, "no unrelated edit target found"

        report = doc.apply_edits([Relabel(target.node_id, "b")])
        assert report.cursors_resumed == 1
        assert report.cursors_invalidated == 0
        assert cursor.is_active()

        rest = cursor.fetch_all()
        combined = list(first.answers) + rest
        assert len(combined) == len(set(combined))  # still duplicate-free
        assert sorted(map(sorted, combined)) == full  # the full base-epoch stream

    def test_fresh_cursor_is_invalidated_by_answer_changing_edit(self):
        """Before its first fetch a cursor depends on every slot of the root
        box; an edit that changes the answer set changes a root slot's
        fingerprint — a deterministic invalidation scenario."""
        doc = self.store.add_tree(_tree_with_isolated_answers(), self.query)
        cursor = doc.open_cursor(page_size=5)
        leaf = next(n for n in doc.enumerator.tree.leaves() if n.label == "b")
        report = doc.apply_edits([Relabel(leaf.node_id, "a")])  # adds an answer
        assert report.cursors_invalidated == 1
        with pytest.raises(CursorInvalidatedError) as excinfo:
            cursor.fetch()
        inv = excinfo.value.report
        assert inv.base_epoch == 0
        assert inv.invalidated_epoch == 1
        assert inv.answers_delivered == 0
        assert inv.boxes_hit >= 1
        assert "relabel" in inv.edit
        # the report names the overlapping region: document span + slots
        assert inv.regions
        label, lo, hi, slots = inv.regions[0]
        assert isinstance(label, str) and slots
        assert lo is not None and hi is not None
        assert str(lo) in inv.describe() and "slot" in inv.describe()
        assert cursor.status == "invalidated"
        # the error is re-raised on every subsequent fetch
        with pytest.raises(CursorInvalidatedError):
            cursor.fetch()

    def test_noop_relabel_lets_cursor_resume(self):
        """A relabel to the same label rebuilds the whole trunk, but every
        rebuilt box is slot-for-slot fingerprint-equal to the one it
        replaced, so the fine-grained test sees no changed region: the
        cursor rebinds onto the rebuilt boxes and resumes byte-identically.
        (The coarse whole-box test used to invalidate here.)"""
        doc = self.store.add_tree(_tree_with_isolated_answers(), self.query)
        full = sorted(map(sorted, doc.answers()))
        cursor = doc.open_cursor(page_size=3)
        first = cursor.fetch()
        leaf = next(iter(doc.enumerator.tree.leaves()))
        report = doc.apply_edits([Relabel(leaf.node_id, leaf.label)])
        assert report.boxes_rebuilt > 0  # the trunk really was rebuilt
        assert report.cursors_resumed == 1
        assert report.cursors_invalidated == 0
        assert cursor.is_active()
        combined = list(first.answers) + cursor.fetch_all()
        assert len(combined) == len(set(combined))
        assert sorted(map(sorted, combined)) == full

    def test_label_equivalent_relabel_lets_cursor_resume(self):
        """Relabelling b→d (both unselected) changes content hashes all the
        way up the trunk, yet the automaton treats the labels identically,
        so every rebuilt box has the same build plan — equal slot
        fingerprints — and the cursor survives on the per-slot comparison
        alone, not the content-hash fast path."""
        doc = self.store.add_tree(_tree_with_isolated_answers(), self.query)
        full = sorted(map(sorted, doc.answers()))
        cursor = doc.open_cursor(page_size=3)
        first = cursor.fetch()
        leaf = next(n for n in doc.enumerator.tree.leaves() if n.label == "b")
        report = doc.apply_edits([Relabel(leaf.node_id, "d")])
        assert report.cursors_resumed == 1
        assert report.cursors_invalidated == 0
        combined = list(first.answers) + cursor.fetch_all()
        assert sorted(map(sorted, combined)) == full

    def test_edit_hitting_trunk_invalidates_deterministically(self):
        doc = self.store.add_tree(_tree_with_isolated_answers(), self.query)
        cursor = doc.open_cursor(page_size=2)
        cursor.fetch()
        # an answer-carrying leaf the cursor's remaining region still covers:
        # removing its answer must invalidate
        target = None
        for node in doc.enumerator.tree.nodes():
            if node.is_root() or node.label != "a" or not node.is_leaf():
                continue
            if self.store.would_invalidate(doc.doc_id, cursor, node.node_id):
                target = node
                break
        assert target is not None, "no trunk-hitting edit target found"
        report = doc.apply_edits([Relabel(target.node_id, "b")])
        assert report.cursors_invalidated == 1
        with pytest.raises(CursorInvalidatedError):
            cursor.fetch()

    def test_empty_answer_and_closed_cursor(self):
        # boolean-style query: TOP at the root yields the empty assignment
        from repro.automata.queries import boolean_contains_label

        doc = self.store.add_tree(
            tree_of_shape("random", 40, LABELS, 2), boolean_contains_label("a", LABELS)
        )
        cursor = doc.open_cursor(page_size=10)
        everything = cursor.fetch_all()
        assert frozenset() in everything or everything  # empty answer delivered if present
        cursor.close()
        with pytest.raises(ServingError, match="closed"):
            cursor.fetch()

    def test_cursor_on_word_document(self):
        wva = regex_to_wva(".*x{a}.*", ("a", "b"))
        doc = self.store.add_word(list("ababa"), wva)
        expected = sorted(map(sorted, doc.answers()))
        cursor = doc.open_cursor(page_size=2)
        got = cursor.fetch_all()
        assert sorted(map(sorted, got)) == expected
        assert len(got) == len(set(got))

