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
* Provenance and dependency masks.  The same kind of digest over the
  ``(sorted answer, provenance mask)`` stream of the mask-native enumeration
  of a root boxed set, which also takes in the dependency masks a cursor's
  resume-or-invalidate decision reads, at pauses after 1, 7 and 50 answers,
  and again after every answer.  The three queries' root boxed sets hold
  one gate each; random automata cover root boxed sets and left frames with
  several positions.
* Heap shape.  The index tables are flat integer containers the cyclic GC
  does not track, and a built document stays a few dozen tracked objects per
  tree node.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from helpers import random_binary_tree, random_binary_tva
from repro import Engine
from repro.automata.homogenize import homogenize
from repro.automata.queries import DEFAULT_LABELS
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.circuits.build import build_assignment_circuit
from repro.enumeration import index as index_module
from repro.enumeration.assignment_iter import root_boxed_set
from repro.enumeration.duplicate_free import MaskStackEnumeration
from repro.enumeration.index import build_index
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

#: digests of the ``(sorted answer, provenance mask)`` stream of the root
#: boxed set, dependency masks included (see :func:`_provenance_digest`):
#: (before the edit script, after it) per query on the fixed 300-node tree,
#: and one digest for the random automaton of
#: :func:`test_provenance_over_several_positions_is_pinned`
PINNED_PROVENANCE = {
    "select-a": (
        "d611b8db19ecb6e2177dfe828a03096beab9eb0fdd8533bbdd6fd094148d7a39",
        "a2de271e5ec016c7aaaa8b425face8ece3ea4904a8eec83628abb7af0ef95f10",
    ),
    "descendant": (
        "d42f76dd322bbdb11ead7c45b79ddbf026b6cc3a6b468327b0f85346bf97e4b3",
        "f979f4300e84e4df93b50c9e491e2c47839cd47c1d7cc1e99573600e2281cbb9",
    ),
    "nondet-6": (
        "410c3dd9c44c1723f35d4c25c6dd6636527d25fa1560f2088e89c6eb5c9ff09b",
        "551b567bec244c172c0a53f6340ab80016f04fb8a550b5071410e2569800cb88",
    ),
    "several-positions": "fc19058722b2c8e08ef48d504640826930ce499617a4fb009d63bdfcf6b041fa",
}

#: answer counts after which the provenance digest takes in the dependency masks
PROVENANCE_PAUSES = (1, 7, 50)

#: the same digests with the dependency masks taken in after every answer,
#: the random automaton's at another seed: a slot dropped from a mask late
#: in a stream (after answer 2,240 of 4,221 on descendant, say) leaves
#: PINNED_PROVENANCE as it is
PINNED_DEPENDENCY_MASKS = {
    "select-a": (
        "b47ccefb97b022c0dac6ae678126618914ccb6e25bea698b263cd1a2eae3ff72",
        "4fe1e49337f68c64699fb1166ce843d22966b30fa9b75cd0c4dcd13408f738a5",
    ),
    "descendant": (
        "7d23d340f7b4af596039c68a5dacf562b7759e65941b7b48d5b3ad2f787c8f64",
        "9486938c2b5d8bbe07cc0c262f7a138199795dc01b63a261b8aa7bfe4be708df",
    ),
    "nondet-6": (
        "160aeb517fa7e106bc46eefe2b8eaedf9381aa1066bd8975d7b54d7442f5d6e6",
        "11e290ff34f46cbef8a4205399abc53f1e5c02baacbe5fd4e0f03890bb3a7d27",
    ),
    "several-positions": "1f843215e3f3a9deb97317c57c7ef92bc66038223b45dc949602ada793e56f90",
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


def _leaf_span(box):
    """The ids of the first and the last leaf under ``box``."""
    first = last = box
    while first.left_child is not None:
        first = first.left_child
    while last.right_child is not None:
        last = last.right_child
    return first.leaf_payload, last.leaf_payload


def _provenance_digest(gates, pauses=PROVENANCE_PAUSES) -> str:
    """sha256 of the enumeration's ``(sorted answer, provenance mask)`` lines,
    with its dependency masks after each answer count in ``pauses`` (after
    every answer when ``pauses`` is None).

    Box serials are global counters, so a box is named by its label and leaf
    span; the dependency masks are sorted ``(label, first leaf id, last leaf
    id, slot mask)`` tuples.
    """
    digest = hashlib.sha256()
    enumeration = MaskStackEnumeration(gates)
    for count, (answer, mask) in enumerate(enumeration, 1):
        digest.update(repr((tuple(sorted(answer)), mask)).encode())
        digest.update(b"\n")
        if pauses is None or count in pauses:
            deps = sorted(
                (repr(box.label), *_leaf_span(box), slots)
                for box, slots in enumeration.dependency_masks().values()
            )
            digest.update(repr(deps).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def _before_and_after(name: str, read=lambda doc: doc.answers()):
    tree = tree_for_experiment(300, "random", seed=13)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, 30, seed=29)
    with Engine() as engine:
        doc = engine.add(tree.copy(), query_for_name(name))
        before = read(doc)
        for edit in edits:
            doc.apply_edits([edit])
        return before, read(doc)


@pytest.mark.parametrize("name", sorted(PINNED_ORDER))
def test_answer_order_is_pinned(name):
    before, after = _before_and_after(name)
    assert (_order_digest(before), _order_digest(after)) == PINNED_ORDER[name]


def _root_gamma(doc):
    """The document's root boxed set: its final states' root ∪-gates."""
    runtime = doc.runtime
    gates, _empty = root_boxed_set(runtime.maintainer.root_box, runtime.binary_automaton.final)
    return gates


@pytest.mark.parametrize("name", sorted(PINNED_ORDER))
def test_provenance_and_dependency_masks_are_pinned(name):
    def read(doc):
        gates = _root_gamma(doc)
        assert len(gates) == 1  # one position
        return _provenance_digest(gates)

    assert _before_and_after(name, read) == PINNED_PROVENANCE[name]


@pytest.mark.parametrize("name", sorted(PINNED_ORDER))
def test_dependency_masks_after_every_answer_are_pinned(name):
    def read(doc):
        return _provenance_digest(_root_gamma(doc), pauses=None)

    assert _before_and_after(name, read) == PINNED_DEPENDENCY_MASKS[name]


def _several_positions_gamma(seed: int):
    """The root boxed set of a random automaton on a 6-internal-node tree, in
    slot order, checked to hold several positions at the root and in some
    left frame."""
    automaton = homogenize(random_binary_tva(seed, n_states=3, variables=("x", "y")))
    circuit = build_assignment_circuit(random_binary_tree(seed, 6), automaton)
    build_index(circuit)
    gates, _empty = root_boxed_set(circuit.root_box, automaton.final)
    gates.sort(key=lambda gate: gate.slot)  # final states iterate in hash order
    assert len(gates) >= 2
    enumeration = MaskStackEnumeration(gates)
    assert any(
        frame.parent is not None
        and frame is frame.parent.left_frame
        and len(frame.parent.pbl) >= 2
        for _answer in enumeration
        for frame in enumeration._stack
    )
    return gates


def test_provenance_over_several_positions_is_pinned():
    gates = _several_positions_gamma(16)
    assert _provenance_digest(gates) == PINNED_PROVENANCE["several-positions"]


def test_dependency_masks_over_several_positions_after_every_answer_are_pinned():
    # seed 5, not 16: here the ×-provenance slots of an in-flight activation
    # show in the dependency masks
    gates = _several_positions_gamma(5)
    assert (
        _provenance_digest(gates, pauses=None) == PINNED_DEPENDENCY_MASKS["several-positions"]
    )


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
            box.shape
            for box in doc.runtime.maintainer.root_box.subtree_boxes()
            if not box.is_leaf_box()
        ]
    assert internal and all(type(shape.fib) is dict for shape in internal)
    for shape in internal:
        for table in (shape.fib, shape.fbb, shape.ends):
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
            shape = box.shape
            for table in (shape.fib, shape.fbb, shape.ends):
                assert gc.is_tracked(table) is False
            if box.is_leaf_box():
                # plan-built leaves share one empty tuple, not two [] each
                assert gc.is_tracked(box.left_input_masks) is False
                assert gc.is_tracked(box.right_input_masks) is False
    assert per_node < TRACKED_PER_NODE_BOUND
