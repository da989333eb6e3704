"""Tests for the assignment-circuit construction (Lemma 3.7) and the
structured-DNNF invariants (Definitions 3.1–3.6)."""

from __future__ import annotations

import dataclasses
import hashlib
import json

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
from repro.automata.brute_force import binary_satisfying_assignments, binary_state_assignments
from repro.automata.homogenize import homogenize
from repro.circuits.build import _canonical_states, build_assignment_circuit, export_box_plans
from repro.circuits.dnnf import circuit_stats, validate_circuit
from repro.circuits.gates import BOTTOM, TOP, ProdGate, UnionGate
from repro.circuits.semantics import captured_set
from repro.circuits.vtree import iter_vtree_edges, vtree_leaf_labels, vtree_partition_is_valid
from repro.enumeration.assignment_iter import CircuitEnumerator
from repro.errors import NotHomogenizedError
from repro.trees.binary import BinaryTree


def build(factory, tree):
    automaton = homogenize(factory())
    circuit = build_assignment_circuit(tree, automaton)
    return automaton, circuit


class TestConstructionBasics:
    def test_requires_homogenized(self):
        # A non-homogenized automaton must be rejected.
        from repro.automata.binary_tva import BinaryTVA

        automaton = BinaryTVA(
            ["q"],
            ["x"],
            [("a", frozenset(), "q"), ("a", frozenset({"x"}), "q")],
            [("a", "q", "q", "q")],
            ["q"],
        )
        tree = BinaryTree.from_nested(("a", "a", "a"))
        with pytest.raises(NotHomogenizedError):
            build_assignment_circuit(tree, automaton)

    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    def test_structure_is_valid(self, factory):
        tree = BinaryTree.from_nested(("c", ("a", "a", "b"), ("b", "c", "a")))
        _automaton, circuit = build(factory, tree)
        validate_circuit(circuit)
        assert vtree_partition_is_valid(circuit)

    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    def test_width_bounded_by_states(self, factory):
        automaton = homogenize(factory())
        tree = random_binary_tree(3, 10)
        circuit = build_assignment_circuit(tree, automaton)
        stats = circuit_stats(circuit)
        assert stats.width <= len(automaton.states)
        assert stats.max_prod_gates_in_box <= stats.width ** 2 or stats.width == 0

    def test_depth_follows_tree_height(self):
        automaton = homogenize(select_a_leaf())
        deep = BinaryTree.from_nested(("a", ("a", ("a", "a", "b"), "b"), "b"))
        circuit = build_assignment_circuit(deep, automaton)
        assert circuit.depth() == deep.height()

    def test_boxes_mirror_tree(self):
        automaton = homogenized = homogenize(select_a_leaf())
        tree = random_binary_tree(1, 8)
        circuit = build_assignment_circuit(tree, automaton)
        assert sum(1 for _ in circuit.boxes()) == tree.size()
        assert len(list(iter_vtree_edges(circuit))) == tree.size() - 1
        # every tree node has a box
        for node in tree.nodes():
            assert circuit.box_of(node.node_id) is not None

    def test_leaf_labels_cover_all_leaves(self):
        automaton = homogenize(select_pair_ab())
        tree = random_binary_tree(2, 6)
        circuit = build_assignment_circuit(tree, automaton)
        labels = vtree_leaf_labels(circuit)
        assert set(labels) == {leaf.node_id for leaf in tree.leaves()}

    def test_gate_count_linear_in_tree(self):
        automaton = homogenize(select_a_leaf())
        small = build_assignment_circuit(random_binary_tree(0, 10), automaton)
        large = build_assignment_circuit(random_binary_tree(0, 40), automaton)
        assert large.gate_count() <= 5 * small.gate_count()


class TestCapturedSets:
    """γ(n, q) must capture exactly the assignments of runs reaching q at n."""

    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gamma_gates_capture_run_assignments(self, factory, seed):
        automaton = homogenize(factory())
        tree = random_binary_tree(seed, 5)
        circuit = build_assignment_circuit(tree, automaton)
        oracle = binary_state_assignments(automaton, tree)
        for node in tree.nodes():
            box = circuit.box_of(node.node_id)
            for state in automaton.states:
                gate = box.state_gate[state]
                expected = frozenset(oracle[node.node_id].get(state, set()))
                assert captured_set(gate) == expected, (node.node_id, state)

    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_root_final_gates_capture_satisfying_assignments(self, factory, seed):
        automaton = homogenize(factory())
        tree = random_binary_tree(seed, 6)
        circuit = build_assignment_circuit(tree, automaton)
        captured = set()
        for gate in circuit.root_gates():
            captured |= captured_set(gate)
        assert captured == binary_satisfying_assignments(automaton, tree)

    def test_zero_states_have_sentinel_gates(self):
        automaton = homogenize(nondet_witness())
        tree = random_binary_tree(5, 6)
        circuit = build_assignment_circuit(tree, automaton)
        for box in circuit.boxes():
            for state, gate in box.state_gate.items():
                if state in automaton.zero_states:
                    assert gate is TOP or gate is BOTTOM
                elif isinstance(gate, UnionGate):
                    # 1-state union gates never capture the empty assignment
                    assert frozenset() not in captured_set(gate)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=2),
    )
    def test_random_automata_circuits_correct(self, automaton_seed, tree_seed, n_states, n_vars):
        variables = ["x", "y"][:n_vars]
        automaton = homogenize(random_binary_tva(automaton_seed, n_states=n_states, variables=variables))
        tree = random_binary_tree(tree_seed, 5)
        circuit = build_assignment_circuit(tree, automaton)
        validate_circuit(circuit)
        captured = set()
        for gate in circuit.root_gates():
            captured |= captured_set(gate)
        assert captured == binary_satisfying_assignments(automaton, tree)


class TestBooleanAndEdgeCases:
    def test_boolean_query_circuit_has_no_union_gates(self):
        automaton = homogenize(boolean_has_a_leaf())
        tree = BinaryTree.from_nested(("c", "a", "b"))
        circuit = build_assignment_circuit(tree, automaton)
        assert circuit.width() == 0
        gates = circuit.root_gates()
        assert any(g is TOP for g in gates)

    def test_single_leaf_tree(self):
        automaton = homogenize(select_a_leaf())
        tree = BinaryTree.from_nested("a")
        circuit = build_assignment_circuit(tree, automaton)
        captured = set()
        for gate in circuit.root_gates():
            captured |= captured_set(gate)
        assert captured == {frozenset({("x", tree.root.node_id)})}

    def test_empty_answer_query(self):
        automaton = homogenize(subset_of_a_leaves())
        tree = BinaryTree.from_nested(("c", "b", "b"))
        circuit = build_assignment_circuit(tree, automaton)
        gates = circuit.root_gates()
        # no a-leaves: only the empty assignment is an answer, via a TOP gate
        assert any(g is TOP for g in gates)
        assert all(not captured_set(g) for g in gates if g is not TOP and g is not BOTTOM)


class TestBoxPlanPersistence:
    """Box plans export to the same bytes, share their ⊤/⊥ entries, and
    number slots independently of the state set's iteration order."""

    #: sha256 of the canonical JSON export below, recorded before the plans
    #: shared one ``(state, ⊤/⊥)`` entry per automaton
    PINNED_EXPORT = "e092ad474017e6608854c3ba244685046eb77ab11f26420213218f9f0fbf62d8"

    @staticmethod
    def _pair_automaton(name=lambda state: state, states=range(5)):
        # int states hash to themselves, so the export does not depend on
        # PYTHONHASHSEED; ``name`` renames states 0-4, ``states`` lists the
        # renamed states in the order the state set is built from
        from repro.automata.binary_tva import BinaryTVA

        labels = ("a", "b", "c")
        zero, marked = 0, 4
        initial = [(label, (), name(zero)) for label in labels]
        initial += [("c", (), name(marked)), ("a", ("x",), name(1)), ("b", ("y",), name(2))]
        delta = []
        for label in labels:
            for p in range(4):
                for q in range(4):
                    if not p & q:
                        delta.append((label, name(p), name(q), name(p | q)))
            for q in range(4):
                delta.append((label, name(marked), name(q), name(q if q else marked)))
                delta.append((label, name(q), name(marked), name(q if q else marked)))
        return BinaryTVA(states, ("x", "y"), initial, delta, [name(3)])

    def _export_blob(self, automaton) -> bytes:
        return json.dumps(
            export_box_plans(automaton), sort_keys=True, separators=(",", ":")
        ).encode()

    def test_export_is_byte_identical(self):
        automaton = self._pair_automaton()
        assert automaton.is_homogenized()
        for seed in range(3):
            build_assignment_circuit(random_binary_tree(seed, 60, ("a", "b", "c")), automaton)
        blob = self._export_blob(automaton)
        assert b'"T"' in blob and b'"B"' in blob
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_EXPORT

    def test_sentinel_entries_are_shared(self):
        automaton = self._pair_automaton()
        build_assignment_circuit(random_binary_tree(4, 60, ("a", "b", "c")), automaton)
        cache = automaton._box_plan_cache
        plans = list(cache["leaf"].values()) + list(cache["internal"].values())
        shared = {}
        for plan in plans:
            for entry in plan.entries:
                if entry[1] is TOP or entry[1] is BOTTOM:
                    assert shared.setdefault(entry, entry) is entry
        assert shared

    def test_slot_order_ignores_state_iteration_order(self):
        # 0, 8, 16, 24 and 32 share hash buckets in a small set, so these two
        # equal state sets iterate in different orders — as the same query
        # compiled in another process or under another PYTHONHASHSEED can
        automata = [
            self._pair_automaton(lambda state: 8 * state, states)
            for states in ([0, 8, 16, 24, 32], [32, 24, 16, 8, 0])
        ]
        assert list(automata[0].states) != list(automata[1].states)
        tree = random_binary_tree(5, 60, ("a", "b", "c"))
        answers = [
            list(CircuitEnumerator(build_assignment_circuit(tree, automaton)).assignments())
            for automaton in automata
        ]
        assert answers[0] == answers[1] and answers[0]
        assert self._export_blob(automata[0]) == self._export_blob(automata[1])

    def test_unserializable_states_still_get_a_slot_order(self):
        # states the catalog codec cannot encode fall back to sorting by repr
        @dataclasses.dataclass(frozen=True)
        class Opaque:
            n: int

        tree = random_binary_tree(6, 40, ("a", "b", "c"))
        answers = [
            set(CircuitEnumerator(build_assignment_circuit(tree, automaton)).assignments())
            for automaton in (
                self._pair_automaton(),
                self._pair_automaton(Opaque, [Opaque(n) for n in range(5)]),
            )
        ]
        assert answers[0] == answers[1] and answers[0]


class TestChildSlotOrder:
    """A parent's plan numbers a child's ∪-slots from the child's stamped
    signature alone: the slot of state ``i`` is the popcount of the child's
    ∪-states below bit ``i``.  So every box must number its ∪-gates in
    canonical state order and stamp the signature of its own gates, or the
    parent's ×- and ∪-inputs land on the wrong child states."""

    def test_slots_follow_canonical_state_order(self):
        # the state set iterates in another order than the canonical one
        automaton = TestBoxPlanPersistence._pair_automaton(
            lambda state: 8 * state, [32, 24, 16, 8, 0]
        )
        index = {state: i for i, state in enumerate(_canonical_states(automaton))}
        assert list(automaton.states) != sorted(automaton.states, key=index.__getitem__)
        circuit = build_assignment_circuit(random_binary_tree(5, 60, ("a", "b", "c")), automaton)
        step = automaton.delta_by_children
        wired = 0
        for box in circuit.boxes():
            present = top = 0
            for state, gate in box.state_gate.items():
                present |= (gate is not BOTTOM) << index[state]
                top |= (gate is TOP) << index[state]
            assert box.state_sig == (present, top)
            unions = box.union_gates
            assert [gate.slot for gate in unions] == list(range(box.n_unions))
            assert [index[gate.state] for gate in unions] == [
                i for i in range(len(index)) if (present & ~top) >> i & 1
            ]
            assert all(box.state_gate[gate.state] is gate for gate in unions)
            if box.is_leaf_box():
                continue
            left, right = box.left_child, box.right_child
            for gate in unions:
                for source in gate.inputs:
                    if isinstance(source, ProdGate):
                        children = [(source.left.state, source.right.state)]
                    elif source.box is left:
                        children = [(source.state, q) for q, g in right.state_gate.items() if g is TOP]
                    else:
                        assert source.box is right
                        children = [(q, source.state) for q, g in left.state_gate.items() if g is TOP]
                    assert any(gate.state in step.get((box.label, *pair), ()) for pair in children)
                    wired += 1
        assert wired
