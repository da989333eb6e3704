"""Tests for the cross-document build cache (hash-consed subtree builds).

The cache (:class:`repro.circuits.build.BuildCache`) memoizes whole built
subtrees — box plus enumeration index — across the documents of one store,
keyed by ``(automaton digest, relation backend, subtree content hash)``.
(Its second table, per-box index shapes, is pinned in
``tests/test_index_shapes.py``.)
Pinned here:

* content hashing: canonical encoding, None (= uncacheable) propagation,
  automaton digests content-keyed and stable;
* the cache itself: LRU eviction, hit/miss/eviction counters, a capacity of
  0 disables it entirely;
* cross-document sharing: a duplicated document builds from the cache and
  enumerates byte-identical answers, and edits to one document never
  disturb another that shares its subtrees (boxes are immutable);
* configuration: ``Engine(build_cache_size=...)`` reaches the stores on
  every shard and surfaces summed counters through ``Engine.stats()``.
"""

from __future__ import annotations

import json

import pytest

from repro import Engine, EngineError
from repro.automata.queries import select_labeled
from repro.circuits.build import (
    BuildCache,
    automaton_digest,
    encode_content,
    internal_content_hash,
    leaf_content_hash,
)
from repro.core.enumerator import TreeRuntime
from repro.engine.local import LocalStore
from repro.trees.edits import Relabel
from repro.trees.generators import tree_of_shape

LABELS = ("a", "b", "c", "d")


def canonical(assignments):
    rows = sorted(sorted([str(var), node] for var, node in a) for a in assignments)
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def tree_query():
    return select_labeled("a", LABELS)


# --------------------------------------------------------------------- hashing
class TestContentHashing:
    def test_encode_content_is_injective_on_supported_types(self):
        values = ["a", "ab", "", 0, 1, -1, True, False, None, ("a", 1), ("a", (1,))]
        encoded = [encode_content(v) for v in values]
        assert all(e is not None for e in encoded)
        assert len(set(encoded)) == len(values)  # no collisions, incl. 1 vs True

    def test_exotic_labels_are_uncacheable_not_wrongly_shared(self):
        class Exotic:
            pass

        assert encode_content(Exotic()) is None
        assert encode_content(("a", Exotic())) is None  # propagates through tuples
        assert leaf_content_hash(Exotic(), 0) is None

    def test_leaf_hash_depends_on_label_and_payload(self):
        assert leaf_content_hash("a", 0) == leaf_content_hash("a", 0)
        assert leaf_content_hash("a", 0) != leaf_content_hash("b", 0)
        assert leaf_content_hash("a", 0) != leaf_content_hash("a", 1)

    def test_internal_hash_propagates_none_children(self):
        left = leaf_content_hash("a", 0)
        right = leaf_content_hash("b", 1)
        assert internal_content_hash("CONCAT_HH", left, right) is not None
        assert internal_content_hash("CONCAT_HH", None, right) is None
        assert internal_content_hash("CONCAT_HH", left, None) is None
        assert internal_content_hash("CONCAT_HH", left, right) != internal_content_hash(
            "CONCAT_HV", left, right
        )

    def test_automaton_digest_is_content_keyed(self):
        tree = tree_of_shape("random", 20, LABELS, 1)
        a1 = TreeRuntime(tree.copy(), select_labeled("a", LABELS)).binary_automaton
        a2 = TreeRuntime(tree.copy(), select_labeled("b", LABELS)).binary_automaton
        assert automaton_digest(a1) == automaton_digest(a1)  # cached, stable
        assert automaton_digest(a1) != automaton_digest(a2)


# ----------------------------------------------------------------- cache unit
class TestBuildCacheUnit:
    def test_counters_and_lru_eviction(self):
        cache = BuildCache(capacity=2)
        a, b, c = object(), object(), object()
        assert cache.get(("k", "a")) is None  # miss
        cache.put(("k", "a"), a)
        cache.put(("k", "b"), b)
        assert cache.get(("k", "a")) is a  # hit; 'a' becomes most recent
        cache.put(("k", "c"), c)  # evicts 'b', the least recently used
        assert cache.get(("k", "b")) is None
        assert cache.get(("k", "a")) is a and cache.get(("k", "c")) is c
        stats = cache.stats()
        assert stats["build_cache_hits"] == 3
        assert stats["build_cache_misses"] == 2
        assert stats["build_cache_evictions"] == 1
        assert stats["build_cache_size"] == 2
        assert stats["build_cache_capacity"] == 2
        cache.clear()
        assert len(cache) == 0

    @pytest.mark.parametrize("capacity", [0, None])
    def test_zero_capacity_disables(self, capacity):
        cache = BuildCache(capacity=capacity)
        assert not cache.enabled
        cache.put(("k",), object())
        assert len(cache) == 0
        assert cache.stats()["build_cache_capacity"] == 0
        assert cache.stats()["index_shape_capacity"] == 0


# --------------------------------------------------------- cross-document use
class TestCrossDocumentSharing:
    def test_duplicate_document_builds_from_cache_with_equal_answers(self):
        tree = tree_of_shape("random", 80, LABELS, 3)
        store = LocalStore()
        first = store.add_tree(tree.copy(), tree_query())
        after_first = store.stats()
        # leaf hashes include node ids, so a single document never hits itself
        assert after_first["build_cache_hits"] == 0
        assert after_first["build_cache_misses"] > 0

        second = store.add_tree(tree.copy(), tree_query())
        after_second = store.stats()
        # the duplicate reuses every cached subtree: all lookups hit
        assert after_second["build_cache_hits"] == after_first["build_cache_misses"]
        assert after_second["build_cache_misses"] == after_first["build_cache_misses"]
        assert canonical(second.answers()) == canonical(first.answers())

        # and matches a store that never caches, byte for byte
        cold = LocalStore(build_cache_size=0)
        reference = cold.add_tree(tree.copy(), tree_query())
        assert canonical(first.answers()) == canonical(reference.answers())
        assert cold.stats()["build_cache_hits"] == 0
        assert cold.stats()["build_cache_misses"] == 0

    def test_edits_to_one_document_never_disturb_its_cache_twin(self):
        tree = tree_of_shape("random", 60, LABELS, 7)
        store = LocalStore()
        edited = store.add_tree(tree.copy(), tree_query())
        twin = store.add_tree(tree.copy(), tree_query())
        twin_before = canonical(twin.answers())

        target = next(
            n for n in edited.enumerator.tree.nodes() if not n.is_root() and n.label != "a"
        )
        edited.apply_edits([Relabel(target.node_id, "a")])

        # the twin — which shared the edited subtree's boxes — is untouched
        assert canonical(twin.answers()) == twin_before
        # and the edited document matches a from-scratch build of its new tree
        fresh = TreeRuntime(edited.enumerator.tree.copy(), tree_query())
        assert canonical(edited.answers()) == canonical(fresh.assignments())

    def test_tiny_capacity_evicts_but_stays_correct(self):
        tree = tree_of_shape("random", 70, LABELS, 11)
        store = LocalStore(build_cache_size=4)
        first = store.add_tree(tree.copy(), tree_query())
        second = store.add_tree(tree.copy(), tree_query())
        stats = store.stats()
        assert stats["build_cache_evictions"] > 0
        assert stats["build_cache_size"] <= 4
        assert canonical(second.answers()) == canonical(first.answers())


# -------------------------------------------------------------- engine config
class TestEngineBuildCacheConfig:
    def test_negative_size_is_rejected(self):
        with pytest.raises(EngineError, match="build_cache_size"):
            Engine(build_cache_size=-1)

    def test_local_engine_counters_and_disable(self):
        tree = tree_of_shape("random", 60, LABELS, 5)
        with Engine() as engine:
            docs = [engine.add_tree(tree.copy(), tree_query()) for _ in range(3)]
            warm = [canonical(d.stream()) for d in docs]
            stats = engine.stats()
            assert stats["build_cache_hits"] > 0
            assert stats["build_cache_capacity"] > 0
            assert stats["index_shape_hits"] > 0
            assert stats["index_shape_capacity"] == 4 * stats["build_cache_capacity"]
        with Engine(build_cache_size=0) as engine:
            docs = [engine.add_tree(tree.copy(), tree_query()) for _ in range(3)]
            cold = [canonical(d.stream()) for d in docs]
            stats = engine.stats()
            assert stats["build_cache_hits"] == 0
            assert stats["build_cache_misses"] == 0
            assert stats["index_shape_hits"] == stats["index_shape_misses"] == 0
        assert cold == warm  # byte-identical with and without the cache

    def test_sharded_engine_sums_per_worker_caches(self):
        tree = tree_of_shape("random", 50, LABELS, 9)
        with Engine(workers=2, build_cache_size=128) as engine:
            docs = engine.add_documents([tree.copy() for _ in range(4)], tree_query())
            sharded = [canonical(d.stream()) for d in docs]
            stats = engine.stats()
            # 4 identical documents over 2 shards: each shard's second copy hits
            assert stats["build_cache_hits"] > 0
            assert stats["build_cache_capacity"] == 2 * 128
        with Engine(build_cache_size=128) as engine:
            docs = [engine.add_tree(tree.copy(), tree_query()) for _ in range(4)]
            local = [canonical(d.stream()) for d in docs]
        assert sharded == local
