"""End-to-end tests of the full pipeline (Theorem 8.1): unranked TVA →
translated binary TVA → balanced term → circuit → enumeration, with updates.

Every test compares the enumerator's answers against the brute-force oracle
on the unranked tree, before and after sequences of updates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unranked_tva
from repro.automata.boolean_ops import intersect, union
from repro.automata.brute_force import unranked_satisfying_assignments
from repro.automata.queries import (
    boolean_contains_label,
    select_descendant_pairs,
    select_label_pairs,
    select_label_set,
    select_labeled,
    select_leaves,
    select_with_marked_ancestor,
)
from repro.core.baselines import (
    MaterializingEnumerator,
    RecomputeTreeEnumerator,
    RelabelOnlyTreeEnumerator,
    make_enumerator,
)
from repro.core.enumerator import TreeRuntime
from repro.errors import StaleIteratorError, UnsupportedUpdateError
from repro.trees.edits import Delete, Insert, InsertRight, Relabel, random_edit_sequence
from repro.trees.generators import path_tree, random_tree, star_tree, xml_like_document
from repro.trees.unranked import UnrankedTree

LABELS = ("a", "b", "c")

QUERIES = [
    ("labeled", lambda: select_labeled("a", LABELS)),
    ("leaves", lambda: select_leaves(LABELS)),
    ("marked_ancestor", lambda: select_with_marked_ancestor("b", LABELS)),
    ("pairs", lambda: select_label_pairs("a", "b", LABELS)),
    ("descendant", lambda: select_descendant_pairs(LABELS)),
    ("label_set", lambda: select_label_set("a", LABELS)),
    ("boolean", lambda: boolean_contains_label("a", LABELS)),
]


def check_against_oracle(enumerator, query, tree):
    produced = list(enumerator.assignments())
    assert len(produced) == len(set(produced)), "duplicate answers"
    expected = unranked_satisfying_assignments(query, tree)
    assert set(produced) == expected
    return produced


class TestStaticEnumeration:
    @pytest.mark.parametrize("name,factory", QUERIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_oracle_random_trees(self, name, factory, seed):
        query = factory()
        tree = random_tree(14, LABELS, seed=seed)
        enumerator = TreeRuntime(tree, query)
        check_against_oracle(enumerator, query, tree)

    @pytest.mark.parametrize("name,factory", QUERIES)
    @pytest.mark.parametrize("shape", [path_tree, star_tree])
    def test_matches_oracle_adversarial_shapes(self, name, factory, shape):
        query = factory()
        tree = shape(12, LABELS, seed=3)
        enumerator = TreeRuntime(tree, query)
        check_against_oracle(enumerator, query, tree)

    def test_single_node_tree(self):
        query = select_labeled("a", LABELS)
        tree = UnrankedTree("a")
        enumerator = TreeRuntime(tree, query)
        answers = list(enumerator.assignments())
        assert answers == [frozenset({("x", tree.root.node_id)})]

    def test_answers_reference_tree_node_ids(self):
        query = select_labeled("a", LABELS)
        tree = UnrankedTree.from_nested(("b", ["a", ("c", ["a"])]))
        enumerator = TreeRuntime(tree, query)
        a_ids = {n.node_id for n in tree.nodes() if n.label == "a"}
        produced_ids = {node_id for answer in enumerator.assignments() for _var, node_id in answer}
        assert produced_ids == a_ids

    def test_boolean_query_yes_and_no(self):
        query = boolean_contains_label("a", LABELS)
        yes = TreeRuntime(UnrankedTree.from_nested(("b", ["a"])), query)
        no = TreeRuntime(UnrankedTree.from_nested(("b", ["c"])), query)
        assert list(yes.assignments()) == [frozenset()]
        assert list(no.assignments()) == []

    def test_second_order_query_answer_sizes(self):
        query = select_label_set("a", LABELS)
        tree = star_tree(6, ("a",), seed=0)  # all labels 'a'
        enumerator = TreeRuntime(tree, query)
        answers = list(enumerator.assignments())
        assert len(answers) == 2 ** tree.size()
        assert max(len(a) for a in answers) == tree.size()

    def test_stats_reported(self):
        query = select_labeled("a", LABELS)
        tree = random_tree(40, LABELS, seed=4)
        enumerator = TreeRuntime(tree, query)
        stats = enumerator.stats()
        assert stats.tree_size == 40
        assert stats.term_size == 40
        assert stats.circuit_width >= 1
        assert stats.preprocessing_seconds > 0

    def test_answer_tuples_and_valuations(self):
        query = select_label_pairs("a", "b", LABELS)
        tree = UnrankedTree.from_nested(("c", ["a", "b"]))
        enumerator = TreeRuntime(tree, query)
        tuples = set(enumerator.answer_tuples(("x", "y")))
        a_id = tree.nodes_with_label("a")[0].node_id
        b_id = tree.nodes_with_label("b")[0].node_id
        assert tuples == {(a_id, b_id)}
        valuations = list(enumerator.valuations())
        assert valuations == [{a_id: frozenset({"x"}), b_id: frozenset({"y"})}]

    def test_count_and_first(self):
        query = select_labeled("a", LABELS)
        tree = star_tree(20, ("a",), seed=0)
        enumerator = TreeRuntime(tree, query)
        assert enumerator.count() == 20
        assert len(enumerator.first(5)) == 5

    def test_boolean_combinations(self):
        has_a = boolean_contains_label("a", LABELS)
        has_b = boolean_contains_label("b", LABELS)
        both = intersect(has_a, has_b)
        either = union(has_a, has_b)
        tree_ab = UnrankedTree.from_nested(("c", ["a", "b"]))
        tree_a = UnrankedTree.from_nested(("c", ["a", "c"]))
        assert list(TreeRuntime(tree_ab, both).assignments()) == [frozenset()]
        assert list(TreeRuntime(tree_a, both).assignments()) == []
        assert list(TreeRuntime(tree_a, either).assignments()) == [frozenset()]


class TestUpdates:
    @pytest.mark.parametrize("name,factory", QUERIES[:5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_edit_sequences_stay_correct(self, name, factory, seed):
        query = factory()
        tree = random_tree(10, LABELS, seed=seed)
        enumerator = TreeRuntime(tree, query)
        edits = random_edit_sequence(tree, LABELS, 25, seed=seed + 50)
        reference = tree.copy()
        for edit in edits:
            edit.apply_to_tree(reference)
            enumerator.apply(edit)
            produced = set(enumerator.assignments())
            expected = unranked_satisfying_assignments(query, reference)
            assert produced == expected

    def test_update_convenience_methods(self):
        query = select_labeled("a", LABELS)
        tree = UnrankedTree.from_nested(("b", ["c"]))
        enumerator = TreeRuntime(tree, query)
        assert enumerator.count() == 0
        stats = enumerator.insert_first_child(tree.root.node_id, "a")
        assert stats.new_node_id is not None
        assert enumerator.count() == 1
        enumerator.relabel(stats.new_node_id, "b")
        assert enumerator.count() == 0
        enumerator.relabel(stats.new_node_id, "a")
        sibling = enumerator.insert_right_sibling(stats.new_node_id, "a")
        assert enumerator.count() == 2
        enumerator.delete_leaf(sibling.new_node_id)
        assert enumerator.count() == 1

    def test_trunk_sizes_small_on_large_tree(self):
        query = select_labeled("a", LABELS)
        tree = random_tree(800, LABELS, seed=6)
        enumerator = TreeRuntime(tree, query)
        target = tree.node_ids()[200]
        stats = enumerator.relabel(target, "a")
        assert stats.trunk_size <= 6 * (tree.size().bit_length()) + 20
        assert stats.trunk_size < tree.size() / 4

    def test_stale_iterator_detection(self):
        query = select_labeled("a", LABELS)
        tree = star_tree(10, ("a",), seed=0)
        enumerator = TreeRuntime(tree, query)
        iterator = enumerator.assignments()
        next(iterator)
        enumerator.relabel(tree.root.node_id, "b")
        with pytest.raises(StaleIteratorError):
            for _ in iterator:
                pass

    def test_grow_from_single_node(self):
        query = select_leaves(LABELS)
        tree = UnrankedTree("a")
        enumerator = TreeRuntime(tree, query)
        reference = enumerator.tree  # enumerator owns a copy
        for i in range(15):
            target = reference.node_ids()[i % reference.size()]
            enumerator.insert_first_child(target, LABELS[i % 3])
            expected = unranked_satisfying_assignments(query, reference)
            assert set(enumerator.assignments()) == expected


class TestBaselines:
    @pytest.mark.parametrize("strategy", ["this-paper", "recompute", "relabel-only", "materialize"])
    def test_all_strategies_agree(self, strategy):
        query = select_labeled("a", LABELS)
        tree = random_tree(12, LABELS, seed=2)
        enumerator = make_enumerator(strategy, tree, query)
        expected = unranked_satisfying_assignments(query, tree)
        assert set(enumerator.assignments()) == expected

    @pytest.mark.parametrize("strategy", ["this-paper", "recompute", "relabel-only", "materialize"])
    def test_strategies_agree_after_updates(self, strategy):
        query = select_with_marked_ancestor("b", LABELS)
        tree = random_tree(10, LABELS, seed=7)
        enumerator = make_enumerator(strategy, tree, query)
        reference = tree.copy()
        edits = random_edit_sequence(tree, LABELS, 12, seed=3)
        for edit in edits:
            edit.apply_to_tree(reference)
            enumerator.apply(edit)
            assert set(enumerator.assignments()) == unranked_satisfying_assignments(query, reference)

    def test_relabel_only_strict_mode_rejects_structural_updates(self):
        query = select_labeled("a", LABELS)
        tree = random_tree(8, LABELS, seed=1)
        enumerator = RelabelOnlyTreeEnumerator(tree, query, fallback=False)
        enumerator.apply(Relabel(tree.root.node_id, "a"))
        with pytest.raises(UnsupportedUpdateError):
            enumerator.apply(Insert(tree.root.node_id, "a"))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_enumerator("nope", UnrankedTree("a"), select_labeled("a", LABELS))


class TestRandomAutomataEndToEnd:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=6),
    )
    def test_random_unranked_automata(self, automaton_seed, tree_seed, tree_size, n_edits):
        query = random_unranked_tva(automaton_seed, n_states=2, variables=("x",))
        tree = random_tree(tree_size, LABELS, seed=tree_seed)
        enumerator = TreeRuntime(tree, query)
        reference = tree.copy()
        assert set(enumerator.assignments()) == unranked_satisfying_assignments(query, reference)
        edits = random_edit_sequence(tree, LABELS, n_edits, seed=tree_seed + 1)
        for edit in edits:
            edit.apply_to_tree(reference)
            enumerator.apply(edit)
            assert set(enumerator.assignments()) == unranked_satisfying_assignments(query, reference)

