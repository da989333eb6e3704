"""Tests for the enumeration algorithms of Sections 4–6.

The chain of comparisons is:

* Algorithm 1 (with duplicates) produces at least the captured set;
* Algorithm 2 with the *naive* box enumeration produces exactly the captured
  set, without duplicates;
* Algorithm 3 (indexed box enumeration) produces exactly the same
  (box, relation) pairs as the naive box enumeration;
* the full :class:`CircuitEnumerator` agrees with the brute-force automaton
  oracle, with and without the index, with both relation backends.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ALL_BINARY_TVAS,
    boolean_has_a_leaf,
    nondet_witness,
    random_binary_tva,
    random_binary_tree,
    select_a_leaf,
    select_pair_ab,
    subset_of_a_leaves,
)
from repro.automata.brute_force import binary_satisfying_assignments
from repro.automata.homogenize import homogenize
from repro.circuits.build import build_assignment_circuit
from repro.circuits.gates import BOTTOM, TOP, UnionGate
from repro.circuits.semantics import captured_set
from repro.enumeration import assignment_iter
from repro.enumeration.assignment_iter import CircuitEnumerator
from repro.enumeration.box_enum import indexed_box_enum, naive_box_enum
from repro.enumeration.duplicate_free import enumerate_boxed_set
from repro.enumeration.index import build_index, fbb_of_mask, fib_of_mask
from repro.enumeration.relations import Relation, iter_bits
from repro.enumeration.simple import enumerate_with_duplicates
from repro.trees.binary import BinaryTree


def build_circuit(factory, tree_seed, tree_size=6):
    automaton = homogenize(factory())
    tree = random_binary_tree(tree_seed, tree_size)
    circuit = build_assignment_circuit(tree, automaton)
    return automaton, tree, circuit


def union_gates_of(circuit):
    for box in circuit.boxes():
        for gate in box.union_gates:
            yield gate


# --------------------------------------------------------------------------- Relation
class TestRelation:
    def test_identity_and_pairs(self):
        rel = Relation.identity(3)
        assert rel.pairs() == {(0, 0), (1, 1), (2, 2)}
        assert rel.lower_mask() == 0b111
        assert not rel.is_empty()

    def test_compose_pairs_and_bitset_agree(self):
        first = Relation(3, 2, [(0, 0), (1, 1), (2, 1)], backend="pairs")
        second = Relation(2, 4, [(0, 3), (1, 0), (1, 2)], backend="pairs")
        composed = first.compose(second)
        first_b = Relation(3, 2, [(0, 0), (1, 1), (2, 1)], backend="bitset")
        second_b = Relation(2, 4, [(0, 3), (1, 0), (1, 2)], backend="bitset")
        composed_b = first_b.compose(second_b)
        assert composed.pairs() == composed_b.pairs()
        assert composed == composed_b

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Relation(2, 2).compose(Relation(3, 3))

    def test_uppers_by_lower(self):
        rel = Relation(2, 3, [(0, 0), (0, 2), (1, 1)])
        assert rel.uppers_by_lower() == {0: {0, 2}, 1: {1}}

    @pytest.mark.parametrize("backend", ["pairs", "bitset"])
    def test_empty(self, backend):
        rel = Relation(2, 2, [], backend=backend)
        assert rel.is_empty() and not rel
        assert rel.lower_mask() == 0


# --------------------------------------------------------------------------- Algorithm 1
class TestSimpleEnumeration:
    @pytest.mark.parametrize("factory", [select_a_leaf, select_pair_ab, subset_of_a_leaves])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_covers_captured_set(self, factory, seed):
        _automaton, _tree, circuit = build_circuit(factory, seed)
        for gate in union_gates_of(circuit):
            produced = list(enumerate_with_duplicates(gate))
            assert set(produced) == captured_set(gate)

    def test_duplicates_reflect_multiple_runs(self):
        # nondet_witness has one run per (answer, witness) pair: with two
        # b-leaves, each answer must be produced at least twice.
        automaton = homogenize(nondet_witness())
        tree = BinaryTree.from_nested(("c", ("c", "a", "b"), "b"))
        circuit = build_assignment_circuit(tree, automaton)
        gates = [g for g in circuit.root_gates() if isinstance(g, UnionGate)]
        counter = Counter()
        for gate in gates:
            counter.update(enumerate_with_duplicates(gate))
        assert counter and all(count >= 2 for count in counter.values())


# --------------------------------------------------------------------------- box enumeration
class TestBoxEnumeration:
    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_indexed_matches_naive(self, factory, seed):
        _automaton, _tree, circuit = build_circuit(factory, seed, tree_size=8)
        build_index(circuit)
        for box in circuit.boxes():
            if not box.union_gates:
                continue
            gamma = list(box.union_gates)
            naive = {(id(b), rel.pairs()) for b, rel in naive_box_enum(gamma)}
            indexed = {(id(b), rel.pairs()) for b, rel in indexed_box_enum(gamma)}
            assert naive == indexed

    @pytest.mark.parametrize("seed", range(6))
    def test_indexed_matches_naive_random_automata(self, seed):
        automaton = homogenize(random_binary_tva(seed, n_states=3, variables=("x", "y")))
        tree = random_binary_tree(seed + 100, 8)
        circuit = build_assignment_circuit(tree, automaton)
        build_index(circuit)
        root_gates = [g for g in circuit.root_gates() if isinstance(g, UnionGate)]
        for gate in root_gates:
            naive = {(id(b), rel.pairs()) for b, rel in naive_box_enum([gate])}
            indexed = {(id(b), rel.pairs()) for b, rel in indexed_box_enum([gate])}
            assert naive == indexed

    def test_every_interesting_box_produced_once(self):
        _automaton, _tree, circuit = build_circuit(select_pair_ab, 2, tree_size=10)
        build_index(circuit)
        for box in circuit.boxes():
            if not box.union_gates:
                continue
            produced = [id(b) for b, _ in indexed_box_enum(list(box.union_gates))]
            assert len(produced) == len(set(produced))

    def test_index_fib_points_to_interesting_box(self):
        _automaton, _tree, circuit = build_circuit(select_a_leaf, 4, tree_size=8)
        build_index(circuit)
        for box in circuit.boxes():
            for slot, gate in enumerate(box.union_gates):
                ordinal = box.shape.fib[slot]
                fib_box = box.targets[ordinal] if ordinal else box
                # the fib box contains a var- or ×-gate reachable from the gate
                produced = {id(b) for b, _ in naive_box_enum([gate])}
                assert id(fib_box) in produced

    def test_ancestry_is_reflexive_and_rooted_at_the_box(self):
        _automaton, _tree, circuit = build_circuit(select_pair_ab, 3, tree_size=8)
        build_index(circuit)
        for box in circuit.boxes():
            shape = box.shape
            assert box.targets[0] is None  # the owner is never stored
            assert shape.ends[0] == len(box.targets)
            for ordinal in range(len(box.targets)):
                assert shape.is_ancestor(ordinal, ordinal)
                assert shape.is_ancestor(0, ordinal)

    @pytest.mark.parametrize("seed", range(8))
    def test_target_ancestry_matches_box_tree(self, seed):
        # Ordinals follow the preorder of the box's subtree, and the
        # subtree-end test answers ancestry exactly as the box tree does.
        _automaton, _tree, circuit = build_circuit(select_pair_ab, seed, tree_size=12)
        build_index(circuit)
        for box in circuit.boxes():
            preorder = {}  # id(box) -> (preorder position, ancestor ids)
            stack = [(box, ())]
            while stack:
                current, path = stack.pop()
                preorder[id(current)] = (len(preorder), path + (id(current),))
                for child in reversed(current.children()):
                    stack.append((child, path + (id(current),)))
            targets = [box] + list(box.targets[1:])
            positions = [preorder[id(target)][0] for target in targets]
            assert positions == sorted(positions)
            for first, first_box in enumerate(targets):
                for second, second_box in enumerate(targets):
                    expected = id(first_box) in preorder[id(second_box)][1]
                    assert box.shape.is_ancestor(first, second) is expected

    @staticmethod
    def _first_below(box, slot_mask, hit):
        """The preorder-first box below ``box`` where ``hit(box, reached slots)``
        holds, walking the ∪-wiring down from ``slot_mask`` (None if none)."""
        stack = [(box, slot_mask)]
        while stack:
            current, mask = stack.pop()
            if not mask:
                continue
            if hit(current, mask):
                return current
            if current.is_leaf_box():
                continue
            lefts = rights = 0
            for slot in iter_bits(mask):
                lefts |= current.left_input_masks[slot]
                rights |= current.right_input_masks[slot]
            stack.append((current.right_child, rights))
            stack.append((current.left_child, lefts))
        return None

    @pytest.mark.parametrize("factory", [select_pair_ab, nondet_witness])
    @pytest.mark.parametrize("seed", range(3))
    def test_fib_and_fbb_match_a_downward_walk(self, factory, seed):
        # Definition 6.1 checked directly: fib is the first box holding a
        # var-/×-gate ∪-reachable from the slots, fbb the first box both of
        # whose subtrees hold ∪-reachable gates.
        def interesting(box, mask):
            return bool(mask & box.local_mask)

        def bidirectional(box, mask):
            if box.is_leaf_box():
                return False
            lefts = rights = 0
            for slot in iter_bits(mask):
                lefts |= box.left_input_masks[slot]
                rights |= box.right_input_masks[slot]
            return bool(lefts and rights)

        _automaton, _tree, circuit = build_circuit(factory, seed, tree_size=10)
        build_index(circuit)
        for box in circuit.boxes():
            for i in range(box.n_unions):
                for j in range(i, box.n_unions):
                    mask = (1 << i) | (1 << j)
                    fib = fib_of_mask(box.shape, mask)
                    assert (box.targets[fib] if fib else box) is self._first_below(
                        box, mask, interesting
                    )
                    fbb = fbb_of_mask(box.shape, mask)
                    expected = self._first_below(box, mask, bidirectional)
                    if fbb < 0:
                        assert expected is None
                    else:
                        assert (box.targets[fbb] if fbb else box) is expected


# --------------------------------------------------------------------------- Algorithm 2
class TestDuplicateFreeEnumeration:
    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("box_enum", [naive_box_enum, indexed_box_enum])
    def test_no_duplicates_and_complete(self, factory, seed, box_enum):
        _automaton, _tree, circuit = build_circuit(factory, seed, tree_size=7)
        build_index(circuit)
        for box in circuit.boxes():
            if not box.union_gates:
                continue
            gamma = list(box.union_gates)
            expected = set()
            for gate in gamma:
                expected |= captured_set(gate)
            produced = [a for a, _prov in enumerate_boxed_set(gamma, box_enum)]
            assert len(produced) == len(set(produced)), "duplicate assignment produced"
            assert set(produced) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_provenance_is_correct(self, seed):
        _automaton, _tree, circuit = build_circuit(select_pair_ab, seed, tree_size=7)
        build_index(circuit)
        root_gates = [g for g in circuit.root_box.union_gates]
        if not root_gates:
            pytest.skip("no union gates at the root for this tree")
        captured = {id(g): captured_set(g) for g in root_gates}
        for assignment, provenance in enumerate_boxed_set(root_gates):
            for gate in root_gates:
                if assignment in captured[id(gate)]:
                    assert gate in provenance
                else:
                    assert gate not in provenance

    def test_heavy_nondeterminism_still_duplicate_free(self):
        automaton = homogenize(nondet_witness())
        tree = BinaryTree.from_nested(
            ("c", ("c", ("c", "a", "b"), ("c", "b", "b")), ("c", "a", "b"))
        )
        circuit = build_assignment_circuit(tree, automaton)
        build_index(circuit)
        gates = [g for g in circuit.root_gates() if isinstance(g, UnionGate)]
        produced = [a for a, _ in enumerate_boxed_set(gates)]
        assert len(produced) == len(set(produced))
        expected = binary_satisfying_assignments(automaton, tree)
        assert set(produced) == expected


# --------------------------------------------------------------------------- full enumerator
class TestCircuitEnumerator:
    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_matches_oracle(self, factory, seed, use_index):
        automaton, tree, circuit = build_circuit(factory, seed, tree_size=7)
        enumerator = CircuitEnumerator(circuit, use_index=use_index)
        produced = list(enumerator.assignments())
        assert len(produced) == len(set(produced))
        assert set(produced) == binary_satisfying_assignments(automaton, tree)

    @pytest.mark.parametrize("backend", ["pairs", "bitset"])
    def test_relation_backends_agree(self, backend):
        automaton, tree, circuit = build_circuit(select_pair_ab, 7, tree_size=9)
        enumerator = CircuitEnumerator(circuit, relation_backend=backend)
        assert set(enumerator.assignments()) == binary_satisfying_assignments(automaton, tree)

    @pytest.mark.parametrize("backend", [None, "bitset", "pairs"])
    @pytest.mark.parametrize("use_index", [True, False])
    def test_mask_path_iff_indexed_and_bitset(self, monkeypatch, use_index, backend):
        """The mask-native path runs exactly when the indexed procedure runs
        on the bitset backend (``None`` included); otherwise the generic
        relation path does, with the same answers."""
        mask_path = assignment_iter.enumerate_boxed_masks
        calls = []

        def spy(gates):
            calls.append(gates)
            return mask_path(gates)

        monkeypatch.setattr(assignment_iter, "enumerate_boxed_masks", spy)
        automaton, tree, circuit = build_circuit(select_pair_ab, 5, tree_size=8)
        enumerator = CircuitEnumerator(circuit, use_index=use_index, relation_backend=backend)
        produced = list(enumerator.assignments())
        assert bool(calls) == (use_index and backend != "pairs")
        assert len(produced) == len(set(produced))
        assert set(produced) == binary_satisfying_assignments(automaton, tree)

    def test_empty_assignment_first(self):
        automaton = homogenize(subset_of_a_leaves())
        tree = BinaryTree.from_nested(("c", "a", ("c", "a", "b")))
        circuit = build_assignment_circuit(tree, automaton)
        enumerator = CircuitEnumerator(circuit)
        answers = list(enumerator.assignments())
        assert answers[0] == frozenset()
        assert len(answers) == 4  # subsets of the two a-leaves

    def test_boolean_query(self):
        automaton = homogenize(boolean_has_a_leaf())
        yes_tree = BinaryTree.from_nested(("c", "a", "b"))
        no_tree = BinaryTree.from_nested(("c", "b", "b"))
        yes = CircuitEnumerator(build_assignment_circuit(yes_tree, automaton))
        no = CircuitEnumerator(build_assignment_circuit(no_tree, automaton))
        assert list(yes.assignments()) == [frozenset()]
        assert list(no.assignments()) == []

    def test_delay_probe_counts_answers(self):
        automaton, tree, circuit = build_circuit(select_a_leaf, 11, tree_size=12)
        enumerator = CircuitEnumerator(circuit)
        delays = enumerator.delay_probe()
        assert len(delays) == len(binary_satisfying_assignments(automaton, tree))
        assert all(d >= 0 for d in delays)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=8),
    )
    def test_random_instances_match_oracle(self, automaton_seed, tree_seed, n_states, n_vars, size):
        variables = ["x", "y"][:n_vars]
        automaton = homogenize(
            random_binary_tva(automaton_seed, n_states=n_states, variables=variables)
        )
        tree = random_binary_tree(tree_seed, size)
        circuit = build_assignment_circuit(tree, automaton)
        enumerator = CircuitEnumerator(circuit)
        produced = list(enumerator.assignments())
        assert len(produced) == len(set(produced))
        assert set(produced) == binary_satisfying_assignments(automaton, tree)
