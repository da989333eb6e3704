"""Tests for the tree data structures: unranked trees, binary trees, edits,
generators and serialization, and the assignments that name answers on
them."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    assignment_from_valuation,
    assignment_of,
    format_assignment,
    valuation_from_assignment,
)
from repro.errors import InvalidEditError, InvalidTreeError
from repro.trees.binary import BinaryTree
from repro.trees.edits import Delete, Insert, InsertRight, Relabel, random_edit_sequence
from repro.trees.generators import (
    ALL_SHAPES,
    caterpillar_tree,
    comb_tree,
    full_binary_unranked_tree,
    path_tree,
    random_binary_tree,
    random_tree,
    random_word_tree,
    star_tree,
    tree_of_shape,
    xml_like_document,
)
from repro.trees.serialization import (
    from_dict,
    from_sexpr,
    from_xml,
    to_dict,
    to_sexpr,
    to_xml,
)
from repro.trees.unranked import UnrankedTree


# --------------------------------------------------------------------------- unranked trees
class TestUnrankedTree:
    def test_single_node(self):
        tree = UnrankedTree("a")
        assert tree.size() == 1
        assert tree.root.is_leaf()
        assert tree.root.is_root()
        assert tree.height() == 0

    def test_from_nested_roundtrip(self):
        nested = ("a", ["b", ("c", ["d", "e"]), "f"])
        tree = UnrankedTree.from_nested(nested)
        assert tree.size() == 6
        assert tree.to_nested() == nested
        tree.validate()

    def test_node_lookup_and_contains(self):
        tree = UnrankedTree.from_nested(("a", ["b", "c"]))
        for node in tree.nodes():
            assert tree.node(node.node_id) is node
            assert node.node_id in tree
        assert 999 not in tree
        with pytest.raises(InvalidTreeError):
            tree.node(999)

    def test_document_order(self):
        tree = UnrankedTree.from_nested(("a", [("b", ["c", "d"]), "e"]))
        labels = [n.label for n in tree.nodes()]
        assert labels == ["a", "b", "c", "d", "e"]

    def test_insert_first_child(self):
        tree = UnrankedTree("root")
        first = tree.insert_first_child(tree.root.node_id, "x")
        second = tree.insert_first_child(tree.root.node_id, "y")
        assert [c.label for c in tree.root.children] == ["y", "x"]
        assert first.parent is tree.root
        assert second.child_index() == 0

    def test_insert_right_sibling(self):
        tree = UnrankedTree.from_nested(("a", ["b", "c"]))
        b = tree.nodes_with_label("b")[0]
        new = tree.insert_right_sibling(b.node_id, "z")
        assert [c.label for c in tree.root.children] == ["b", "z", "c"]
        assert new.parent is tree.root

    def test_insert_right_sibling_of_root_fails(self):
        tree = UnrankedTree("a")
        with pytest.raises(InvalidEditError):
            tree.insert_right_sibling(tree.root.node_id, "b")

    def test_delete_leaf(self):
        tree = UnrankedTree.from_nested(("a", ["b", "c"]))
        b = tree.nodes_with_label("b")[0]
        tree.delete_leaf(b.node_id)
        assert [c.label for c in tree.root.children] == ["c"]
        assert b.node_id not in tree

    def test_delete_internal_node_fails(self):
        tree = UnrankedTree.from_nested(("a", [("b", ["c"])]))
        b = tree.nodes_with_label("b")[0]
        with pytest.raises(InvalidEditError):
            tree.delete_leaf(b.node_id)

    def test_delete_root_fails(self):
        tree = UnrankedTree("a")
        with pytest.raises(InvalidEditError):
            tree.delete_leaf(tree.root.node_id)

    def test_relabel(self):
        tree = UnrankedTree("a")
        tree.relabel(tree.root.node_id, "z")
        assert tree.root.label == "z"

    def test_copy_preserves_ids_and_structure(self):
        tree = random_tree(30, seed=1)
        clone = tree.copy()
        assert clone.to_nested() == tree.to_nested()
        assert clone.node_ids() == tree.node_ids()
        clone.relabel(clone.root.node_id, "zzz")
        assert tree.root.label != "zzz"

    def test_node_ids_are_stable_across_edits(self):
        tree = UnrankedTree.from_nested(("a", ["b", "c"]))
        c = tree.nodes_with_label("c")[0]
        b = tree.nodes_with_label("b")[0]
        tree.delete_leaf(b.node_id)
        tree.insert_first_child(tree.root.node_id, "d")
        assert tree.node(c.node_id) is c

    def test_ancestors_depth_and_subtree_size(self):
        tree = UnrankedTree.from_nested(("a", [("b", [("c", ["d"])])]))
        d = tree.nodes_with_label("d")[0]
        assert d.depth() == 3
        assert [n.label for n in d.ancestors()] == ["c", "b", "a"]
        assert tree.root.subtree_size() == 4

    def test_height_and_leaves(self):
        tree = path_tree(10, seed=0)
        assert tree.height() == 9
        assert sum(1 for _ in tree.leaves()) == 1
        star = star_tree(10, seed=0)
        assert star.height() == 1
        assert sum(1 for _ in star.leaves()) == 9


# --------------------------------------------------------------------------- assignments
class TestAssignments:
    """The public assignment helpers of ``repro.__all__``."""

    def test_valuation_round_trip(self):
        assignment = assignment_of(("x", 3), ("y", 3), ("x", 5))
        valuation = valuation_from_assignment(assignment)
        assert valuation == {3: frozenset({"x", "y"}), 5: frozenset({"x"})}
        assert assignment_from_valuation(valuation) == assignment
        assert assignment_of() == assignment_from_valuation({}) == frozenset()

    def test_format_is_sorted_text(self):
        assert format_assignment(assignment_of(("y", 2), ("x", 10), ("x", 2))) == "{x:2, x:10, y:2}"
        assert format_assignment(assignment_of()) == "{}"


# --------------------------------------------------------------------------- edits
class TestEditOperations:
    def test_each_edit_kind_applies(self):
        tree = UnrankedTree.from_nested(("a", ["b", "c"]))
        b = tree.nodes_with_label("b")[0]
        Relabel(b.node_id, "z").apply_to_tree(tree)
        assert tree.node(b.node_id).label == "z"
        Insert(tree.root.node_id, "n").apply_to_tree(tree)
        assert tree.root.children[0].label == "n"
        InsertRight(b.node_id, "m").apply_to_tree(tree)
        assert [c.label for c in tree.root.children] == ["n", "z", "m", "c"]
        Delete(b.node_id).apply_to_tree(tree)
        assert b.node_id not in tree

    def test_describe(self):
        assert "relabel" in Relabel(1, "a").describe()
        assert "insertR" in InsertRight(1, "a").describe()
        assert "insert(" in Insert(1, "a").describe()
        assert "delete" in Delete(1).describe()

    def test_random_edit_sequence_is_replayable(self):
        tree = random_tree(25, seed=3)
        edits = random_edit_sequence(tree, ["a", "b", "c"], 60, seed=7)
        assert len(edits) == 60
        replay = tree.copy()
        for edit in edits:
            edit.apply_to_tree(replay)
        replay.validate()
        assert replay.size() >= 2

    def test_random_edit_sequence_deterministic(self):
        tree = random_tree(20, seed=3)
        first = random_edit_sequence(tree, ["a", "b"], 30, seed=11)
        second = random_edit_sequence(tree, ["a", "b"], 30, seed=11)
        assert first == second


# --------------------------------------------------------------------------- generators
class TestGenerators:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_shapes_produce_valid_trees(self, shape):
        tree = tree_of_shape(shape, 60, seed=5)
        tree.validate()
        assert tree.size() >= 2

    def test_sizes_are_respected(self):
        for size in (1, 2, 17, 64):
            assert random_tree(size, seed=1).size() == size
            assert path_tree(size, seed=1).size() == size
            assert star_tree(size, seed=1).size() == size

    def test_caterpillar_and_comb_sizes(self):
        assert abs(caterpillar_tree(41, seed=0).size() - 41) <= 1
        assert abs(comb_tree(41, seed=0).size() - 41) <= 2

    def test_full_binary_tree(self):
        tree = full_binary_unranked_tree(4, seed=0)
        assert tree.size() == 2 ** 5 - 1
        assert tree.height() == 4

    def test_xml_like_document_shape(self):
        doc = xml_like_document(10, 3, seed=2)
        assert doc.root.label == "catalog"
        assert len(doc.root.children) == 10
        assert all(len(r.children) == 3 for r in doc.root.children)

    def test_word_tree(self):
        word = random_word_tree(12, seed=0)
        assert len(word.root.children) == 12
        assert all(c.is_leaf() for c in word.root.children)

    def test_generators_are_deterministic(self):
        assert random_tree(30, seed=9).to_nested() == random_tree(30, seed=9).to_nested()

    def test_random_binary_tree_generator(self):
        tree = random_binary_tree(20, seed=4)
        tree.validate()
        assert tree.size() == 2 * 20 + 1


# --------------------------------------------------------------------------- binary trees
class TestBinaryTree:
    def test_from_nested(self):
        tree = BinaryTree.from_nested(("a", "b", ("c", "d", "e")))
        assert tree.size() == 5
        assert tree.height() == 2
        tree.validate()
        assert tree.to_nested() == ("a", "b", ("c", "d", "e"))

    def test_leaves_in_document_order(self):
        tree = BinaryTree.from_nested(("a", ("b", "x", "y"), "z"))
        assert [l.label for l in tree.leaves()] == ["x", "y", "z"]

    def test_bad_nested_raises(self):
        with pytest.raises(InvalidTreeError):
            BinaryTree.from_nested(("a", "b"))

    def test_preorder_ids(self):
        tree = BinaryTree.from_nested(("a", ("b", "c", "d"), "e"))
        labels_by_id = {n.node_id: n.label for n in tree.nodes()}
        assert labels_by_id[0] == "a"
        assert labels_by_id[1] == "b"

    def test_single_leaf(self):
        tree = BinaryTree.from_nested("only")
        assert tree.size() == 1
        assert tree.root.is_leaf()


# --------------------------------------------------------------------------- serialization
class TestSerialization:
    def test_sexpr_roundtrip(self):
        tree = UnrankedTree.from_nested(("a", ["b", ("c", ["d"]), "e"]))
        text = to_sexpr(tree)
        back = from_sexpr(text)
        assert back.to_nested() == tree.to_nested()

    def test_sexpr_parse_errors(self):
        for bad in ["", "(", "(a))", "(a (b)", "()", "a"]:
            with pytest.raises(InvalidTreeError):
                from_sexpr(bad)

    def test_dict_roundtrip(self):
        tree = random_tree(40, seed=6)
        back = from_dict(to_dict(tree))
        assert back.to_nested() == tree.to_nested()

    def test_xml_roundtrip(self):
        tree = UnrankedTree.from_nested(("html", [("body", ["p", "p"]), "footer"]))
        text = to_xml(tree)
        assert text.startswith("<html>")
        back = from_xml(text)
        assert back.to_nested() == tree.to_nested()

    def test_xml_invalid_label(self):
        tree = UnrankedTree("not a name")
        with pytest.raises(InvalidTreeError):
            to_xml(tree)

    def test_xml_parse_errors(self):
        for bad in ["", "<a>", "<a></b>"]:
            with pytest.raises(InvalidTreeError):
                from_xml(bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_sexpr_roundtrip_random(self, size, seed):
        tree = random_tree(size, seed=seed)
        assert from_sexpr(to_sexpr(tree)).to_nested() == tree.to_nested()
