"""Tests for binary TVAs: runs, acceptance, state classification and
homogenization (Section 2, Lemma 2.1), and the agreement of the brute-force
oracles, binary and unranked."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ALL_BINARY_TVAS,
    LABELS,
    boolean_has_a_leaf,
    nondet_witness,
    random_binary_tva,
    random_binary_tree,
    random_unranked_tva,
    select_a_leaf,
    select_pair_ab,
    subset_of_a_leaves,
)
from repro.automata import queries
from repro.automata.binary_tva import BinaryTVA
from repro.automata.brute_force import (
    binary_satisfying_assignments,
    binary_satisfying_assignments_by_valuations,
    unranked_satisfying_assignments,
    unranked_satisfying_assignments_by_valuations,
)
from repro.automata.homogenize import homogenize
from repro.errors import InvalidAutomatonError
from repro.trees.binary import BinaryTree
from repro.trees.generators import random_tree


class TestBinaryTVABasics:
    def test_size_and_labels(self):
        automaton = select_a_leaf()
        assert automaton.size() == 2 + len(automaton.initial) + len(automaton.delta)
        assert automaton.labels() == {"a", "b", "c"}

    def test_validation_unknown_state(self):
        with pytest.raises(InvalidAutomatonError):
            BinaryTVA(["q"], [], [("a", frozenset(), "missing")], [], [])

    def test_validation_unknown_variable(self):
        with pytest.raises(InvalidAutomatonError):
            BinaryTVA(["q"], [], [("a", frozenset({"x"}), "q")], [], [])

    def test_validation_bad_final(self):
        with pytest.raises(InvalidAutomatonError):
            BinaryTVA(["q"], [], [], [], ["other"])

    def test_validation_empty_states(self):
        with pytest.raises(InvalidAutomatonError):
            BinaryTVA([], [], [], [], [])

    def test_accepts_simple(self):
        automaton = select_a_leaf()
        tree = BinaryTree.from_nested(("c", "a", "b"))
        a_leaf = [l for l in tree.leaves() if l.label == "a"][0]
        b_leaf = [l for l in tree.leaves() if l.label == "b"][0]
        assert automaton.accepts(tree, {a_leaf.node_id: {"x"}})
        assert not automaton.accepts(tree, {b_leaf.node_id: {"x"}})
        assert not automaton.accepts(tree, {})

    def test_boolean_query(self):
        automaton = boolean_has_a_leaf()
        with_a = BinaryTree.from_nested(("c", "a", "b"))
        without_a = BinaryTree.from_nested(("c", "b", "b"))
        assert automaton.accepts(with_a, {})
        assert not automaton.accepts(without_a, {})

    def test_check_run(self):
        automaton = select_a_leaf()
        tree = BinaryTree.from_nested(("c", "a", "b"))
        a_leaf = [l for l in tree.leaves() if l.label == "a"][0]
        b_leaf = [l for l in tree.leaves() if l.label == "b"][0]
        run = {tree.root.node_id: "q1", a_leaf.node_id: "q1", b_leaf.node_id: "q0"}
        assert automaton.check_run(tree, {a_leaf.node_id: {"x"}}, run)
        bad_run = dict(run)
        bad_run[tree.root.node_id] = "q0"
        assert not automaton.check_run(tree, {a_leaf.node_id: {"x"}}, bad_run)
        assert not automaton.check_run(tree, {a_leaf.node_id: {"x"}}, {})

    def test_with_final(self):
        automaton = select_a_leaf().with_final(["q0"])
        tree = BinaryTree.from_nested(("c", "a", "b"))
        assert automaton.accepts(tree, {})


class TestStateClassification:
    def test_select_a_leaf_classes(self):
        automaton = select_a_leaf()
        assert automaton.zero_states == {"q0"}
        assert automaton.one_states == {"q1"}
        assert automaton.is_homogenized()

    def test_pair_automaton_classes(self):
        automaton = select_pair_ab()
        assert "q00" in automaton.zero_states
        assert {"q10", "q01", "q11"} <= automaton.one_states
        assert automaton.is_homogenized()

    def test_non_homogenized_automaton_detected(self):
        # One state that can be reached both with and without annotations.
        automaton = BinaryTVA(
            ["q"],
            ["x"],
            [("a", frozenset(), "q"), ("a", frozenset({"x"}), "q")],
            [("a", "q", "q", "q")],
            ["q"],
        )
        assert not automaton.is_homogenized()
        assert automaton.zero_states == {"q"}
        assert automaton.one_states == {"q"}

    def test_trim_removes_unreachable(self):
        automaton = BinaryTVA(
            ["q", "dead"],
            [],
            [("a", frozenset(), "q")],
            [("a", "q", "q", "q")],
            ["q"],
        )
        trimmed = automaton.trim()
        assert trimmed.states == {"q"}
        assert trimmed.is_trimmed()


class TestHomogenize:
    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    def test_homogenize_is_homogenized(self, factory):
        homogenized = homogenize(factory())
        assert homogenized.is_homogenized()

    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogenize_preserves_assignments(self, factory, seed):
        automaton = factory()
        homogenized = homogenize(automaton)
        tree = random_binary_tree(seed, 6)
        assert binary_satisfying_assignments(automaton, tree) == binary_satisfying_assignments(
            homogenized, tree
        )

    def test_homogenize_idempotent_on_homogenized(self):
        automaton = select_a_leaf()
        assert homogenize(automaton) is automaton

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
    )
    def test_homogenize_preserves_assignments_random(self, automaton_seed, tree_seed, n_states):
        automaton = random_binary_tva(automaton_seed, n_states=n_states)
        homogenized = homogenize(automaton)
        assert homogenized.is_homogenized()
        tree = random_binary_tree(tree_seed, 4)
        assert binary_satisfying_assignments(automaton, tree) == binary_satisfying_assignments(
            homogenized, tree
        )


class TestBruteForceOraclesAgree:
    """The two oracles must agree; this validates the DP oracle used everywhere."""

    @pytest.mark.parametrize("factory", [select_a_leaf, nondet_witness, subset_of_a_leaves])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_oracles_agree_on_small_trees(self, factory, seed):
        automaton = factory()
        tree = random_binary_tree(seed, 2)
        assert binary_satisfying_assignments(automaton, tree) == (
            binary_satisfying_assignments_by_valuations(automaton, tree)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000), st.integers(min_value=0, max_value=1_000))
    def test_oracles_agree_random(self, automaton_seed, tree_seed):
        automaton = random_binary_tva(automaton_seed, n_states=2, variables=("x",))
        tree = random_binary_tree(tree_seed, 2)
        assert binary_satisfying_assignments(automaton, tree) == (
            binary_satisfying_assignments_by_valuations(automaton, tree)
        )

    # The unranked DP oracle is the arbiter of every unranked-tree test.
    @pytest.mark.parametrize(
        "query",
        [
            queries.select_labeled("a"),
            queries.select_leaves(),
            queries.select_with_marked_ancestor("b"),
            queries.select_special_with_marked_ancestor("b", "a"),
            queries.select_label_pairs("a", "b"),
            queries.select_descendant_pairs(),
            queries.select_label_set("a"),
            queries.boolean_contains_label("a"),
        ],
        ids=lambda query: query.name,
    )
    @pytest.mark.parametrize("size", [1, 4, 6])
    def test_unranked_oracles_agree_on_library_queries(self, query, size):
        tree = random_tree(size, LABELS, seed=size)
        assert unranked_satisfying_assignments(query, tree) == (
            unranked_satisfying_assignments_by_valuations(query, tree)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=1, max_value=6),
    )
    def test_unranked_oracles_agree_random(self, automaton_seed, tree_seed, size):
        automaton = random_unranked_tva(automaton_seed, n_states=3, variables=("x",))
        tree = random_tree(size, LABELS, seed=tree_seed)
        assert unranked_satisfying_assignments(automaton, tree) == (
            unranked_satisfying_assignments_by_valuations(automaton, tree)
        )
