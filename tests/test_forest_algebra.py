"""Tests for forest algebra terms, the balanced encoder and maintenance
under edits (Section 7 / Lemma 7.4)."""

from __future__ import annotations

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidEditError, TermStructureError
from repro.forest_algebra.encoder import balanced_concat, encode_fragment, encode_tree
from repro.forest_algebra.hollowing import hollowing_from_report
from repro.forest_algebra.maintenance import MaintainedTerm
from repro.forest_algebra.terms import (
    APPLY_VH,
    LEAF_CONTEXT,
    LEAF_TREE,
    DecodedNode,
    apply,
    concat,
    context_leaf,
    decode,
    decode_to_nested,
    find_hole_leaf,
    term_leaves,
    tree_leaf,
    validate_term,
)
from repro.trees.edits import random_edit_sequence
from repro.trees.generators import (
    caterpillar_tree,
    comb_tree,
    full_binary_unranked_tree,
    path_tree,
    random_tree,
    star_tree,
    xml_like_document,
)
from repro.trees.unranked import UnrankedTree


def tree_to_nested_with_ids(tree: UnrankedTree):
    """(label, id, [children]) representation of an UnrankedTree, for comparisons."""

    def rec(node):
        return (node.label, node.node_id, [rec(c) for c in node.children])

    return rec(tree.root)


# --------------------------------------------------------------------------- term basics
class TestTermConstruction:
    def test_leaf_kinds_and_types(self):
        t = tree_leaf("a", 0)
        c = context_leaf("b", 1)
        assert not t.is_context()
        assert c.is_context()
        assert t.alphabet_label() == ("t", "a")
        assert c.alphabet_label() == ("c", "b")

    def test_concat_type_inference(self):
        assert concat(tree_leaf("a", 0), tree_leaf("b", 1)).kind == "concat_HH"
        assert concat(tree_leaf("a", 0), context_leaf("b", 1)).kind == "concat_HV"
        assert concat(context_leaf("a", 0), tree_leaf("b", 1)).kind == "concat_VH"
        with pytest.raises(TermStructureError):
            concat(context_leaf("a", 0), context_leaf("b", 1))

    def test_apply_type_inference(self):
        assert apply(context_leaf("a", 0), tree_leaf("b", 1)).kind == "apply_VH"
        assert apply(context_leaf("a", 0), context_leaf("b", 1)).kind == "apply_VV"
        with pytest.raises(TermStructureError):
            apply(tree_leaf("a", 0), tree_leaf("b", 1))

    def test_weights_and_heights(self):
        term = concat(tree_leaf("a", 0), concat(tree_leaf("b", 1), tree_leaf("c", 2)))
        assert term.weight == 3
        assert term.height == 2
        validate_term(term)

    def test_decode_simple_application(self):
        # a_□ ⊙ (b_t ⊕ c_t)  =  a(b, c)
        term = apply(context_leaf("a", 0), concat(tree_leaf("b", 1), tree_leaf("c", 2)))
        assert decode_to_nested(term) == ("a", 0, [("b", 1, []), ("c", 2, [])])

    def test_decode_context_and_hole(self):
        term = concat(tree_leaf("b", 1), context_leaf("a", 0))
        roots, hole = decode(term)
        assert hole is not None and hole.node_id == 0
        assert find_hole_leaf(term).tree_node_id == 0

    def test_find_hole_on_forest_raises(self):
        with pytest.raises(TermStructureError):
            find_hole_leaf(tree_leaf("a", 0))

    def test_decode_to_nested_rejects_forest(self):
        with pytest.raises(TermStructureError):
            decode_to_nested(concat(tree_leaf("a", 0), tree_leaf("b", 1)))
        with pytest.raises(TermStructureError):
            decode_to_nested(context_leaf("a", 0))

    def test_term_leaves_in_order(self):
        term = concat(tree_leaf("a", 0), concat(tree_leaf("b", 1), tree_leaf("c", 2)))
        assert [l.tree_node_id for l in term_leaves(term)] == [0, 1, 2]


# --------------------------------------------------------------------------- encoder
SHAPE_BUILDERS = [
    ("path", path_tree),
    ("star", star_tree),
    ("caterpillar", caterpillar_tree),
    ("comb", comb_tree),
    ("random", random_tree),
]


class TestEncoder:
    @pytest.mark.parametrize("shape,builder", SHAPE_BUILDERS)
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 64, 257])
    def test_roundtrip(self, shape, builder, size):
        tree = builder(size, seed=7)
        term = encode_tree(tree)
        validate_term(term)
        assert decode_to_nested(term) == tree_to_nested_with_ids(tree)

    @pytest.mark.parametrize("shape,builder", SHAPE_BUILDERS)
    def test_leaf_bijection(self, shape, builder):
        tree = builder(80, seed=3)
        term = encode_tree(tree)
        leaf_ids = [l.tree_node_id for l in term_leaves(term)]
        assert sorted(leaf_ids) == sorted(tree.node_ids())
        assert len(leaf_ids) == len(set(leaf_ids))

    @pytest.mark.parametrize("shape,builder", SHAPE_BUILDERS)
    @pytest.mark.parametrize("size", [64, 512, 2048])
    def test_logarithmic_height(self, shape, builder, size):
        tree = builder(size, seed=11)
        term = encode_tree(tree)
        bound = 3.0 * math.log2(tree.size() + 1) + 6
        assert term.height <= bound, f"{shape}: height {term.height} > {bound}"

    def test_deep_binary_tree_height(self):
        tree = full_binary_unranked_tree(9, seed=0)  # 1023 nodes
        term = encode_tree(tree)
        assert term.height <= 3.0 * math.log2(tree.size() + 1) + 6

    def test_xml_document_roundtrip(self):
        doc = xml_like_document(30, 4, seed=1)
        term = encode_tree(doc)
        assert decode_to_nested(term) == tree_to_nested_with_ids(doc)

    def test_single_node_tree(self):
        tree = UnrankedTree("only")
        term = encode_tree(tree)
        assert term.kind == LEAF_TREE
        assert term.weight == 1

    def test_encode_word(self):
        # a word is a forest of one-node trees (Corollary 8.4)
        term = encode_fragment([DecodedNode(i, letter) for i, letter in enumerate("abcd")])
        roots, hole = decode(term)
        assert hole is None
        assert [r.label for r in roots] == ["a", "b", "c", "d"]
        assert term.height <= 2

    def test_encode_word_empty_raises(self):
        with pytest.raises(TermStructureError):
            encode_fragment([])

    def test_balanced_concat_weight_split(self):
        # one huge item and many small ones: the small ones should not pile up
        # into a linear chain on one side.
        big = encode_tree(random_tree(200, seed=5))
        small = [tree_leaf("x", 1000 + i) for i in range(16)]
        term = balanced_concat([big] + small)
        assert term.height <= big.height + 8

    def test_encode_fragment_with_hole(self):
        tree = random_tree(40, seed=9)
        term = encode_tree(tree)
        roots, hole = decode(term)
        # re-encode an equivalent fragment and decode again: same tree
        rebuilt = encode_fragment(roots)
        assert decode_to_nested(rebuilt) == tree_to_nested_with_ids(tree)


# --------------------------------------------------------------------------- maintenance
LABELS = ("a", "b", "c")


def apply_edits_both(tree: UnrankedTree, edits):
    """Apply edits to a reference copy and to a maintained term; return both."""
    reference = tree.copy()
    maintained = MaintainedTerm(tree.copy())
    reports = []
    for edit in edits:
        new_node = edit.apply_to_tree(reference)
        new_id = new_node.node_id if new_node is not None and hasattr(edit, "label") and not hasattr(edit, "_relabel") else None
        # Relabel returns the node but needs no new id; detect insert kinds explicitly.
        from repro.trees.edits import Insert, InsertRight

        if isinstance(edit, (Insert, InsertRight)):
            reports.append(maintained.apply_edit(edit, new_node_id=new_node.node_id))
        else:
            reports.append(maintained.apply_edit(edit))
    return reference, maintained, reports


class TestMaintainedTerm:
    def test_relabel(self):
        tree = random_tree(20, seed=1)
        maintained = MaintainedTerm(tree.copy())
        target = tree.node_ids()[5]
        report = maintained.relabel(target, "zzz")
        maintained.validate()
        assert any(n.is_leaf() and n.tree_node_id == target for n in report.dirty_bottom_up)
        nested = decode_to_nested(maintained.root)
        reference = tree.copy()
        reference.relabel(target, "zzz")
        assert nested == tree_to_nested_with_ids(reference)

    def test_insert_first_child_on_leaf_and_internal(self):
        tree = UnrankedTree.from_nested(("r", ["a", ("b", ["c"])]))
        reference = tree.copy()
        maintained = MaintainedTerm(tree.copy())
        # insert under a leaf
        a_id = [n.node_id for n in tree.nodes() if n.label == "a"][0]
        new = reference.insert_first_child(a_id, "x")
        maintained.insert_first_child(a_id, new.node_id, "x")
        # insert under an internal node with children
        b_id = [n.node_id for n in tree.nodes() if n.label == "b"][0]
        new2 = reference.insert_first_child(b_id, "y")
        maintained.insert_first_child(b_id, new2.node_id, "y")
        # insert under the root
        new3 = reference.insert_first_child(reference.root.node_id, "z")
        maintained.insert_first_child(tree.root.node_id, new3.node_id, "z")
        maintained.validate()
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)

    def test_insert_right_sibling_various_positions(self):
        tree = UnrankedTree.from_nested(("r", ["a", ("b", ["c", "d"]), "e"]))
        reference = tree.copy()
        maintained = MaintainedTerm(tree.copy())
        for label in ("a", "b", "c", "d", "e"):
            node_id = [n.node_id for n in reference.nodes() if n.label == label][0]
            new = reference.insert_right_sibling(node_id, f"after_{label}")
            maintained.insert_right_sibling(node_id, new.node_id, f"after_{label}")
            maintained.validate()
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)

    def test_insert_right_sibling_of_root_fails(self):
        tree = UnrankedTree("r")
        maintained = MaintainedTerm(tree)
        with pytest.raises(InvalidEditError):
            maintained.insert_right_sibling(tree.root.node_id, 99, "x")

    def test_delete_leaf_cases(self):
        tree = UnrankedTree.from_nested(("r", ["a", ("b", ["c"]), ("d", ["e", "f"])]))
        reference = tree.copy()
        maintained = MaintainedTerm(tree.copy())
        # delete a leaf among siblings
        f_id = [n.node_id for n in reference.nodes() if n.label == "f"][0]
        reference.delete_leaf(f_id)
        maintained.delete_leaf(f_id)
        maintained.validate()
        # delete an only child (its parent becomes a leaf)
        c_id = [n.node_id for n in reference.nodes() if n.label == "c"][0]
        reference.delete_leaf(c_id)
        maintained.delete_leaf(c_id)
        maintained.validate()
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)

    def test_delete_internal_or_root_fails(self):
        tree = UnrankedTree.from_nested(("r", [("b", ["c"])]))
        maintained = MaintainedTerm(tree.copy())
        b_id = [n.node_id for n in tree.nodes() if n.label == "b"][0]
        with pytest.raises(InvalidEditError):
            maintained.delete_leaf(b_id)
        single = MaintainedTerm(UnrankedTree("only"))
        with pytest.raises(InvalidEditError):
            single.delete_leaf(0)

    def test_duplicate_insert_id_fails(self):
        tree = UnrankedTree("r")
        maintained = MaintainedTerm(tree)
        with pytest.raises(InvalidEditError):
            maintained.insert_first_child(tree.root.node_id, tree.root.node_id, "x")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("initial_size", [1, 5, 30])
    def test_random_edit_sequences_match_reference(self, seed, initial_size):
        tree = random_tree(initial_size, seed=seed)
        edits = random_edit_sequence(tree, LABELS, 120, seed=seed + 100)
        reference, maintained, reports = apply_edits_both(tree, edits)
        maintained.validate()
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)
        assert maintained.size() == reference.size()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_height_stays_logarithmic_under_growth(self, seed):
        # grow a tree by repeated insertions at adversarial positions
        tree = UnrankedTree("r")
        maintained = MaintainedTerm(tree.copy())
        reference = tree.copy()
        rng = random.Random(seed)
        for step in range(600):
            nodes = list(reference.nodes())
            anchor = rng.choice(nodes)
            if anchor.parent is not None and rng.random() < 0.3:
                new = reference.insert_right_sibling(anchor.node_id, "n")
                maintained.insert_right_sibling(anchor.node_id, new.node_id, "n")
            else:
                new = reference.insert_first_child(anchor.node_id, "n")
                maintained.insert_first_child(anchor.node_id, new.node_id, "n")
        assert maintained.size() == reference.size() == 601
        budget = maintained.height_budget(maintained.size())
        assert maintained.height() <= budget
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)

    def test_path_growth_stays_balanced(self):
        # repeatedly deepen a path: the nightmare case for unbalanced encodings
        tree = UnrankedTree("r")
        maintained = MaintainedTerm(tree.copy())
        reference = tree.copy()
        deepest = reference.root
        for _ in range(400):
            new = reference.insert_first_child(deepest.node_id, "p")
            maintained.insert_first_child(deepest.node_id, new.node_id, "p")
            deepest = new
        assert maintained.height() <= maintained.height_budget(maintained.size())
        assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)

    def test_trunk_sizes_are_logarithmic(self):
        tree = random_tree(2000, seed=5)
        maintained = MaintainedTerm(tree.copy())
        reference = tree.copy()
        edits = random_edit_sequence(reference, LABELS, 100, seed=9)
        bound = 6.0 * math.log2(maintained.size() + 1) + 20
        big_trunks = 0
        for edit in edits:
            new_node = edit.apply_to_tree(reference)
            from repro.trees.edits import Insert, InsertRight

            if isinstance(edit, (Insert, InsertRight)):
                report = maintained.apply_edit(edit, new_node_id=new_node.node_id)
            else:
                report = maintained.apply_edit(edit)
            if report.rebuilt_subterm_size == 0 and report.trunk_size() > bound:
                big_trunks += 1
        # non-rebuilding updates must have logarithmic trunks
        assert big_trunks == 0
        maintained.validate()

    def test_hollowing_view(self):
        tree = random_tree(200, seed=2)
        maintained = MaintainedTerm(tree.copy())
        reference = tree.copy()
        leaf = next(n for n in reference.nodes() if n.is_leaf() and n.parent is not None)
        report = maintained.delete_leaf(leaf.node_id)
        hollowing = hollowing_from_report(report)
        assert hollowing.trunk_size() == report.trunk_size()
        assert hollowing.is_antichain()

    def test_removed_leaves_reported(self):
        tree = UnrankedTree.from_nested(("r", ["a", "b"]))
        maintained = MaintainedTerm(tree.copy())
        a_id = [n.node_id for n in tree.nodes() if n.label == "a"][0]
        report = maintained.delete_leaf(a_id)
        assert report.removed_leaves == [a_id]

    def test_tree_term_has_one_root(self):
        maintained = MaintainedTerm(UnrankedTree.from_nested(("r", ["a"])))
        with pytest.raises(InvalidEditError):
            maintained.insert_first_root(99, "x")


# --------------------------------------------------------------------------- forests
def _random_forest(rng: random.Random, ids) -> list:
    """Roots of a random forest: mostly one-node trees, some small trees."""
    roots = []
    for _ in range(rng.randint(1, 12)):
        root = DecodedNode(next(ids), rng.choice(LABELS))
        nodes = [root]
        for _ in range(0 if rng.random() < 0.6 else rng.randint(1, 5)):
            child = DecodedNode(next(ids), rng.choice(LABELS))
            rng.choice(nodes).children.append(child)
            nodes.append(child)
        roots.append(root)
    return roots


class TestMaintainedForest:
    """A term built from roots maintains a forest: words are the one-node case."""

    @staticmethod
    def _check(maintained: MaintainedTerm, reference: list) -> None:
        maintained.validate()
        assert maintained.height() <= maintained.height_budget(maintained.size())
        roots, hole = decode(maintained.root)
        assert hole is None
        assert [r.to_nested() for r in roots] == [r.to_nested() for r in reference]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edits_match_reference(self, seed):
        rng = random.Random(seed)
        ids = iter(range(10**6))
        reference = _random_forest(rng, ids)
        maintained = MaintainedTerm(copy.deepcopy(reference))
        self._check(maintained, reference)

        def nodes_with_parents():
            stack = [(root, None) for root in reference]
            while stack:
                node, parent = stack.pop()
                yield node, parent
                stack.extend((child, node) for child in node.children)

        rebuilt = 0
        for step in range(250):
            # long runs of appends after the last root force scapegoat rebuilds
            op = "append" if step % 50 >= 30 else rng.choice(("relabel", "append", "front", "delete"))
            label = rng.choice(LABELS)
            if op == "relabel":
                node, _ = rng.choice(list(nodes_with_parents()))
                node.label = label
                report = maintained.relabel(node.node_id, label)
            elif op == "append":
                new = DecodedNode(next(ids), label)
                report = maintained.insert_right_sibling(reference[-1].node_id, new.node_id, label)
                reference.append(new)
            elif op == "front":
                new = DecodedNode(next(ids), label)
                report = maintained.insert_first_root(new.node_id, label)
                reference.insert(0, new)
            else:
                if len(reference) == 1 and not reference[0].children:
                    continue  # a forest keeps at least one node
                node, parent = rng.choice([(n, p) for n, p in nodes_with_parents() if not n.children])
                (reference if parent is None else parent.children).remove(node)
                report = maintained.delete_leaf(node.node_id)
            rebuilt += report.rebuilt_subterm_size > 0
            self._check(maintained, reference)
        assert rebuilt > 0

        # delete down to one root, then the last node cannot go
        while len(reference) > 1 or reference[0].children:
            node, parent = next((n, p) for n, p in nodes_with_parents() if not n.children)
            (reference if parent is None else parent.children).remove(node)
            maintained.delete_leaf(node.node_id)
            self._check(maintained, reference)
        with pytest.raises(InvalidEditError):
            maintained.delete_leaf(reference[0].node_id)


# --------------------------------------------------------------------------- property tests
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=60),
)
def test_property_random_edits_roundtrip(initial_size, seed, n_edits):
    tree = random_tree(initial_size, seed=seed)
    edits = random_edit_sequence(tree, LABELS, n_edits, seed=seed + 1)
    reference, maintained, _reports = apply_edits_both(tree, edits)
    maintained.validate()
    assert decode_to_nested(maintained.root) == tree_to_nested_with_ids(reference)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=10_000))
def test_property_encoder_height(size, seed):
    tree = random_tree(size, seed=seed)
    term = encode_tree(tree)
    assert term.height <= 3.0 * math.log2(size + 1) + 6
