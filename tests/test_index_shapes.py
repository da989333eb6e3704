"""Shared index shapes and the bounded plan cache.

* An index entry served from a store's shape table (see
  :mod:`repro.enumeration.index`) is the entry a from-scratch construction
  of the same box builds: equal tables, and target boxes that are the very
  same objects.
* The shape table is bounded by the build cache's capacity and stays correct
  while it evicts.
* The per-automaton internal plan cache is an LRU; a tight limit changes no
  answer and no answer order.
"""

from __future__ import annotations

import hashlib

from repro.automata.queries import DEFAULT_LABELS
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.circuits import build as build_module
from repro.circuits.build import BuildCache
from repro.core.enumerator import compiled_automaton_for
from repro.engine.local import LocalStore
from repro.enumeration.index import IndexShape, build_box_index
from repro.enumeration.relations import Relation
from repro.trees.edits import random_edit_sequence


def _order_digest(answers) -> str:
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(repr(tuple(sorted(answer))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _edited_document(store, name, size=200, n_edits=40, tree_seed=5, edit_seed=17):
    tree = tree_for_experiment(size, "random", seed=tree_seed)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, n_edits, seed=edit_seed)
    doc = store.add_tree(tree.copy(), query_for_name(name))
    for edit in edits:
        doc.apply_edits([edit])
    return doc


def _internal_boxes(doc):
    return [
        box
        for box in doc.maintainer.root_box.subtree_boxes()
        if not box.is_leaf_box()
    ]


def test_entries_served_from_the_table_equal_a_from_scratch_build():
    store = LocalStore()
    doc = _edited_document(store, "descendant")
    stats = store.stats()
    assert stats["index_shape_hits"] > stats["index_shape_misses"] > 0
    in_table = {id(shape) for shape in store.build_cache._shapes.values()}
    served = [box for box in _internal_boxes(doc) if id(box.shape) in in_table]
    assert len(served) > 100
    for box in served:
        shared_targets, shared = box.targets, box.shape
        try:
            fresh = build_box_index(box)
            fresh_targets = box.targets
        finally:
            box.targets, box.shape = shared_targets, shared
        assert fresh is not shared and fresh_targets is not shared_targets
        assert len(fresh_targets) == len(shared_targets)
        assert all(a is b for a, b in zip(fresh_targets, shared_targets))
        assert fresh.relations == shared.relations
        assert fresh.ends == shared.ends
        assert fresh.fib == shared.fib
        assert fresh.fbb == shared.fbb
        assert fresh.fbb_rows == shared.fbb_rows


def test_equal_shapes_are_interned_to_one_object():
    cache = BuildCache(capacity=1)

    def shape():
        relations = (Relation.identity(2, backend="bitset"),
                     Relation.from_masks(1, 2, [0b11], backend="bitset"))
        return IndexShape(relations, b"\x02\x02", b"\x01\x01", b"", (0, 2), (1,))

    first, second = shape(), shape()
    assert first.same_content(second) and first.content_hash() == second.content_hash()
    assert first is not second
    assert cache.put_shape(("key", 1), first) is first
    assert cache.put_shape(("key", 2), second) is first
    assert cache.get_shape(("key", 2)) is first
    assert cache.get_shape(("key", 3)) is None
    stats = cache.stats()
    assert (stats["index_shape_hits"], stats["index_shape_misses"]) == (1, 1)
    assert stats["index_shape_capacity"] == 4
    # a different relation is a different shape
    other = IndexShape(
        (Relation.identity(2, backend="bitset"),
         Relation.from_masks(1, 2, [0b01], backend="bitset")),
        b"\x02\x02", b"\x01\x01", b"", (0, 2), (1,),
    )
    assert not other.same_content(first) and cache.put_shape(("key", 4), other) is other
    # a shape whose content hash collides with another's is never merged into it
    colliding = IndexShape(
        other.relations, other.ends, other.fib, other.fbb, other.fbb_rows, other.sources
    )
    colliding._hash = first.content_hash()
    assert cache.put_shape(("key", 5), colliding) is colliding


def test_a_four_entry_table_evicts_and_stays_correct():
    bounded = LocalStore(build_cache_size=1)  # shapes: 4 × capacity = 4 entries
    reference = LocalStore(build_cache_size=0)
    doc = _edited_document(bounded, "select-a", n_edits=20)
    ref = _edited_document(reference, "select-a", n_edits=20)
    stats = bounded.stats()
    assert stats["index_shape_capacity"] == 4
    assert stats["index_shape_size"] == 4
    assert stats["index_shape_evictions"] > 0
    assert stats["index_shape_hits"] > 0
    assert reference.stats()["index_shape_hits"] == 0
    assert reference.stats()["index_shape_misses"] == 0
    assert _order_digest(doc.answers()) == _order_digest(ref.answers())


def _nondet_script_digest(monkeypatch, limit):
    automaton = compiled_automaton_for(query_for_name("nondet-6"))
    monkeypatch.setattr(automaton, "_box_plan_cache", None, raising=False)  # fresh plans
    if limit is not None:
        monkeypatch.setattr(build_module, "_INTERNAL_PLAN_LIMIT", limit)
    tree = tree_for_experiment(200, "random", seed=21)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, 200, seed=8)
    store = LocalStore()
    doc = store.add_tree(tree.copy(), query_for_name("nondet-6"))
    digests = [_order_digest(doc.answers())]
    most = 0
    for edit in edits:
        doc.apply_edits([edit])
        most = max(most, len(automaton._box_plan_cache["internal"]))
    digests.append(_order_digest(doc.answers()))
    monkeypatch.undo()
    return digests, most


def test_plan_cache_limit_bounds_a_long_edit_script(monkeypatch):
    unbounded, unbounded_most = _nondet_script_digest(monkeypatch, None)
    bounded, bounded_most = _nondet_script_digest(monkeypatch, 64)
    assert unbounded_most > 64  # the limit really bites
    assert bounded_most <= 64
    assert bounded == unbounded
