"""The compact enumeration index: pinned answer order and heap shape.

* Answer order.  The differential fuzz legs compare backends and transports
  within one build of the library, so none of them would notice the index
  enumerating the same answers in a different order.  These digests pin the
  order itself: each answer is canonicalized as a sorted tuple (so the digest
  does not depend on ``PYTHONHASHSEED``), the sequence is hashed, and the
  values were recorded with the tuple-and-dict index this layout replaced.
  The word digests pin the order of spanner answers on a word under text
  edits; they were recorded while words still had a term maintainer of
  their own, before they became forests of one-node trees.
* Heap shape.  The index tables are flat integer containers the cyclic GC
  does not track, and a built document stays a few dozen tracked objects per
  tree node.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from repro import Engine
from repro.automata.queries import DEFAULT_LABELS
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.enumeration import index as index_module
from repro.trees.edits import random_edit_sequence

#: (before the edit script, after it) per query on the fixed 300-node tree
PINNED_ORDER = {
    "select-a": (
        "6b5de63c43f944e2b8244592a4078f3b832ba225d68c46fc554c7b6e1bd173cb",
        "81d4d2004225b60b6b18675571b77c6a0dacfce3b087068390ab6a5dc1f6bfca",
    ),
    "descendant": (
        "c72ee05aa78106f8321cefa89f1ff8128aac4ec4eee1adb5ddc25a242a62b433",
        "b996986d43ca88fdff9116cc6880e73accb19657f95d157c2860736d710e5bff",
    ),
    "nondet-6": (
        "6b5de63c43f944e2b8244592a4078f3b832ba225d68c46fc554c7b6e1bd173cb",
        "81d4d2004225b60b6b18675571b77c6a0dacfce3b087068390ab6a5dc1f6bfca",
    ),
}

#: (before the edit script, after it) per spanner on a seeded 400-letter word
PINNED_WORD_ORDER = {
    ".*x{a+}b.*": (
        "e1750eecbe9bdf93851a607b4c1a6cb62f579e5568baa48331d520f68e1af80b",
        "f3f96b06bf412cdfb1585aba7f4fa87288c7baffeaf7b7d28985b94b70e14254",
    ),
    ".*x{ab}.*y{c+}a.*": (
        "6cec26ae6732d0c6ccf475a6d4110f3bda9907e92cd472083218de26ebdd273e",
        "d1470ca5cf9459f460978fc977a9f47e3b2e548d06d46599c1848ed6e15590f2",
    ),
}

#: GC-tracked objects per tree node added by ingesting one 2048-node
#: nondet-6 document, plan cache included: 219 with tuple/dict index
#: entries and per-plan sentinel pairs, about 20 with the flat tables
TRACKED_PER_NODE_BOUND = 40


def _order_digest(answers) -> str:
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(repr(tuple(sorted(answer))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _before_and_after(name: str):
    tree = tree_for_experiment(300, "random", seed=13)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, 30, seed=29)
    with Engine() as engine:
        doc = engine.add(tree.copy(), query_for_name(name))
        before = doc.answers()
        for edit in edits:
            doc.apply_edits([edit])
        return before, doc.answers()


@pytest.mark.parametrize("name", sorted(PINNED_ORDER))
def test_answer_order_is_pinned(name):
    before, after = _before_and_after(name)
    assert (_order_digest(before), _order_digest(after)) == PINNED_ORDER[name]


def _word_before_and_after(pattern: str):
    """Answers before and after 200 text edits, and the largest rebuild.

    The script mixes replace, insert_after and delete at random positions,
    inserts at the front once, and appends 30 letters after the last
    position in a row, which drives the term over its height budget.
    """
    rng = random.Random(41)
    word = [rng.choice("abc") for _ in range(400)]
    with Engine() as engine:
        doc = engine.add_word(word, pattern, alphabet="abc")
        before = doc.answers()
        ids = list(range(len(word)))  # mirror of the position ids, left to right
        largest_rebuild = 0
        for step in range(200):
            if step == 20:
                edit = ("insert_after", None, rng.choice("abc"))
            elif 60 <= step < 90:
                edit = ("insert_after", ids[-1], rng.choice("abc"))
            else:
                op = rng.choice(("replace", "insert_after", "delete"))
                if op == "replace":
                    edit = ("replace", rng.choice(ids), rng.choice("abc"))
                elif op == "insert_after":
                    edit = ("insert_after", rng.choice([None] + ids), rng.choice("abc"))
                else:
                    edit = ("delete", rng.choice(ids))
            stats = doc.apply_edits([edit]).stats[0]
            largest_rebuild = max(largest_rebuild, stats.rebuilt_subterm_size)
            if edit[0] == "insert_after":
                at = 0 if edit[1] is None else ids.index(edit[1]) + 1
                ids.insert(at, stats.new_position_id)
            elif edit[0] == "delete":
                ids.remove(edit[1])
        assert ids == doc.runtime.position_ids()
        return before, doc.answers(), largest_rebuild


@pytest.mark.parametrize("pattern", sorted(PINNED_WORD_ORDER))
def test_word_answer_order_is_pinned(pattern):
    before, after, largest_rebuild = _word_before_and_after(pattern)
    assert largest_rebuild > 0  # the appends forced a scapegoat rebuild
    assert (_order_digest(before), _order_digest(after)) == PINNED_WORD_ORDER[pattern]


def test_wide_ordinal_tables_enumerate_identically(monkeypatch):
    # Entries with more targets than a byte can number use int→int dict
    # tables; forcing that layout everywhere must not move a single answer.
    monkeypatch.setattr(index_module, "_BYTE_LIMIT", 0)
    before, after = _before_and_after("descendant")
    assert (_order_digest(before), _order_digest(after)) == PINNED_ORDER["descendant"]
    tree = tree_for_experiment(64, "random", seed=3)
    with Engine() as engine:
        doc = engine.add(tree, query_for_name("descendant"))
        internal = [
            box.index
            for box in doc.runtime.maintainer.root_box.subtree_boxes()
            if not box.is_leaf_box()
        ]
    assert internal and all(type(index.fib) is dict for index in internal)
    for index in internal:
        for table in (index.fib, index.fbb, index.ends):
            assert gc.is_tracked(table) is False


def test_heap_shape_of_a_wide_document():
    query = query_for_name("nondet-6")
    tree = tree_for_experiment(2048, "random", seed=0)
    gc.collect()
    before = len(gc.get_objects())
    with Engine() as engine:
        doc = engine.add(tree, query)
        gc.collect()
        per_node = (len(gc.get_objects()) - before) / tree.size()
        boxes = list(doc.runtime.maintainer.root_box.subtree_boxes())
        for box in boxes:
            index = box.index
            for table in (index.fib, index.fbb, index.ends):
                assert gc.is_tracked(table) is False
            if box.is_leaf_box():
                # plan-built leaves share one empty tuple, not two [] each
                assert gc.is_tracked(box.left_input_masks) is False
                assert gc.is_tracked(box.right_input_masks) is False
    assert per_node < TRACKED_PER_NODE_BOUND
