"""Cross-backend equivalence of the relation backends (pairs/matrix/bitset).

The three backends of :class:`repro.enumeration.relations.Relation` must be
observationally identical: same ``pairs()`` under every operation (creation,
composition chains, restriction, projections), same equality/hash behaviour
across backends, and — end to end — identical answer sets when driving the
full enumeration pipeline.  These tests randomize over relations and over
(automaton, tree) instances and compare every pair of backends.
"""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import (
    ALL_BINARY_TVAS,
    random_binary_tree,
    random_binary_tva,
    select_pair_ab,
)
from repro.automata.brute_force import binary_satisfying_assignments
from repro.automata.homogenize import homogenize
from repro.circuits.build import build_assignment_circuit
from repro.enumeration.assignment_iter import CircuitEnumerator
from repro.enumeration.relations import (
    Relation,
    get_default_backend,
    set_default_backend,
)

BACKENDS = ("pairs", "matrix", "bitset", "numpy")
BACKEND_PAIRS = list(itertools.combinations(BACKENDS, 2))


def random_pairs(rng: random.Random, n_lower: int, n_upper: int, density: float):
    return [
        (lower, upper)
        for lower in range(n_lower)
        for upper in range(n_upper)
        if rng.random() < density
    ]


# --------------------------------------------------------------------------- unit equivalence
class TestRelationBackendEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    def test_random_relations_same_observables(self, seed, first, second):
        rng = random.Random(seed)
        n_lower = rng.randint(1, 9)
        n_upper = rng.randint(1, 9)
        pairs = random_pairs(rng, n_lower, n_upper, 0.35)
        rel_a = Relation(n_lower, n_upper, pairs, backend=first)
        rel_b = Relation(n_lower, n_upper, pairs, backend=second)
        assert rel_a.pairs() == rel_b.pairs()
        assert rel_a.lower_slots() == rel_b.lower_slots()
        assert rel_a.upper_slots() == rel_b.upper_slots()
        assert rel_a.lower_mask() == rel_b.lower_mask()
        assert rel_a.uppers_by_lower() == rel_b.uppers_by_lower()
        assert rel_a.is_empty() == rel_b.is_empty()
        assert len(rel_a) == len(rel_b)
        for lower in range(n_lower):
            assert rel_a.uppers_of(lower) == rel_b.uppers_of(lower)
        # cross-backend equality and hashing (satellite: cached canonical form)
        assert rel_a == rel_b
        assert hash(rel_a) == hash(rel_b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    def test_composition_chains_agree(self, seed, first, second):
        rng = random.Random(1000 + seed)
        dims = [rng.randint(1, 7) for _ in range(5)]
        layer_pairs = [
            random_pairs(rng, dims[i], dims[i + 1], 0.4) for i in range(len(dims) - 1)
        ]
        chain_a = [
            Relation(dims[i], dims[i + 1], layer_pairs[i], backend=first)
            for i in range(len(dims) - 1)
        ]
        chain_b = [
            Relation(dims[i], dims[i + 1], layer_pairs[i], backend=second)
            for i in range(len(dims) - 1)
        ]
        composed_a = chain_a[0]
        composed_b = chain_b[0]
        for next_a, next_b in zip(chain_a[1:], chain_b[1:]):
            composed_a = composed_a.compose(next_a)
            composed_b = composed_b.compose(next_b)
            assert composed_a.pairs() == composed_b.pairs()
        assert composed_a == composed_b

    @pytest.mark.parametrize("first,second", BACKEND_PAIRS)
    def test_mixed_backend_composition(self, first, second):
        a = Relation(3, 4, [(0, 1), (1, 2), (2, 3)], backend=first)
        b = Relation(4, 2, [(1, 0), (2, 1), (3, 0)], backend=second)
        mixed = a.compose(b)
        reference = Relation(3, 4, a.pairs(), backend="pairs").compose(
            Relation(4, 2, b.pairs(), backend="pairs")
        )
        assert mixed.pairs() == reference.pairs()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restrict_upper_native(self, backend):
        rel = Relation(3, 5, [(0, 0), (0, 4), (1, 2), (2, 3)], backend=backend)
        restricted = rel.restrict_upper([0, 2, 3])
        assert restricted.backend in BACKENDS
        assert restricted.pairs() == {(0, 0), (1, 2), (2, 3)}
        assert restricted.n_lower == 3 and restricted.n_upper == 5
        assert rel.restrict_upper([]).is_empty()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_and_from_masks_roundtrip(self, backend):
        ident = Relation.identity(4, backend=backend)
        assert ident.pairs() == {(i, i) for i in range(4)}
        rel = Relation.from_masks(3, 4, [0b1010, 0, 0b0001], backend=backend)
        assert rel.pairs() == {(0, 1), (0, 3), (2, 0)}
        assert rel.masks() == [0b1010, 0, 0b0001]

    def test_eq_short_circuits_on_dimensions(self):
        assert Relation(2, 3, [(0, 0)]) != Relation(3, 2, [(0, 0)])
        assert Relation(2, 3, [(0, 0)]) != Relation(2, 4, [(0, 0)])
        assert Relation(2, 3, []) != object()


# --------------------------------------------------------------------------- end-to-end equivalence
def _answers(circuit_factory, backend):
    circuit = circuit_factory()
    enumerator = CircuitEnumerator(circuit, relation_backend=backend)
    answers = list(enumerator.assignments())
    assert len(answers) == len(set(answers)), f"{backend} produced duplicates"
    return set(answers)


class TestEndToEndBackendEquivalence:
    @pytest.mark.parametrize("factory", ALL_BINARY_TVAS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_backends_same_answers(self, factory, seed):
        automaton = homogenize(factory())
        tree = random_binary_tree(seed, 8)
        expected = binary_satisfying_assignments(automaton, tree)
        for backend in BACKENDS:
            produced = _answers(lambda: build_assignment_circuit(tree, automaton), backend)
            assert produced == expected, f"backend {backend} diverged"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_automata_all_backends(self, seed):
        automaton = homogenize(random_binary_tva(seed, n_states=3, variables=("x", "y")))
        tree = random_binary_tree(seed + 50, 7)
        expected = binary_satisfying_assignments(automaton, tree)
        for backend in BACKENDS:
            produced = _answers(lambda: build_assignment_circuit(tree, automaton), backend)
            assert produced == expected

    def test_default_backend_selection_round_trip(self):
        original = get_default_backend()
        try:
            for backend in BACKENDS:
                set_default_backend(backend)
                assert get_default_backend() == backend
                assert Relation(1, 1, [(0, 0)]).backend == backend
        finally:
            set_default_backend(original)
        with pytest.raises(ValueError):
            set_default_backend("nope")

    def test_default_is_bitset(self):
        assert get_default_backend() == "bitset"

    def test_hand_built_boxes_record_wiring_and_index_correctly(self):
        """The non-plan construction path (Box.add_* API) stays equivalent.

        Hand-builds a three-level circuit fragment through the public gate
        API — exercising add_union_gate's mask classification, the wiring
        fallback (no wire plan), and the generic index path — and checks the
        masks against child_wire_pairs and the indexed enumeration against
        the naive walk.
        """
        from repro.circuits.gates import Box, child_wire_pairs
        from repro.enumeration.box_enum import indexed_box_enum, naive_box_enum
        from repro.enumeration.index import build_box_index

        left = Box("l", leaf_payload=1)
        gate_l = left.add_union_gate("q", [left.add_var_gate(frozenset({("x", 1)}))])
        right = Box("r", leaf_payload=2)
        gate_r = right.add_union_gate("q", [right.add_var_gate(frozenset({("x", 2)}))])
        mid = Box("m", left_child=left, right_child=right)
        prod = mid.add_prod_gate(gate_l, gate_r)
        gate_m0 = mid.add_union_gate("q", [prod])
        gate_m1 = mid.add_union_gate("p", [gate_l])
        top_leaf = Box("t", leaf_payload=3)
        gate_t = top_leaf.add_union_gate("q", [top_leaf.add_var_gate(frozenset({("x", 3)}))])
        root = Box("root", left_child=mid, right_child=top_leaf)
        gate_root = root.add_union_gate("q", [root.add_prod_gate(gate_m0, gate_t), gate_m1])
        for box in (mid, root):
            box.state_gate = {g.state: g for g in box.union_gates}

        assert root.local_mask == 0b1
        assert root.left_input_masks == [0b10]  # gate_m1 is slot 1 of mid
        assert child_wire_pairs(root, "left") == {(1, 0)}
        assert child_wire_pairs(mid, "left") == {(0, 1)}

        for box in (left, right, top_leaf, mid, root):
            build_box_index(box)
        naive = {(id(b), rel.pairs()) for b, rel in naive_box_enum([gate_root])}
        indexed = {(id(b), rel.pairs()) for b, rel in indexed_box_enum([gate_root])}
        assert naive == indexed and naive

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_relation_pairs_identical_on_index_relations(self, backend):
        """The stored index relations agree with the pairs reference backend."""
        automaton = homogenize(select_pair_ab())
        tree = random_binary_tree(3, 9)
        circuit_ref = build_assignment_circuit(tree, automaton)
        CircuitEnumerator(circuit_ref, relation_backend="pairs")
        circuit = build_assignment_circuit(tree, automaton)
        CircuitEnumerator(circuit, relation_backend=backend)
        for box_ref, box in zip(circuit_ref.boxes(), circuit.boxes()):
            # ordinals are preorder positions, so the tables line up
            ref_rels = [rel.pairs() for rel in box_ref.index.relations]
            rels = [rel.pairs() for rel in box.index.relations]
            assert ref_rels == rels
            assert list(box_ref.index.ends) == list(box.index.ends)


class TestBackendValidation:
    """Typos in backend names must fail fast with a helpful message."""

    def test_set_default_backend_lists_backends_and_suggests(self):
        with pytest.raises(ValueError) as excinfo:
            set_default_backend("bitsets")
        message = str(excinfo.value)
        for name in ("'pairs'", "'matrix'", "'bitset'"):
            assert name in message
        assert "did you mean 'bitset'?" in message

    def test_relation_constructor_validates(self):
        with pytest.raises(ValueError, match="did you mean 'matrix'"):
            Relation(2, 2, backend="matrx")

    def test_enumerator_keyword_fails_fast(self):
        from repro.core.enumerator import TreeRuntime
        from repro.automata.queries import select_labeled
        from repro.trees.unranked import UnrankedTree

        tree = UnrankedTree.from_nested(("a", ["b"]))
        with pytest.raises(ValueError, match="valid backends are"):
            TreeRuntime(tree, select_labeled("a", ("a", "b")), relation_backend="biset")

    def test_valid_backends_accepted(self):
        original = get_default_backend()
        try:
            for backend in BACKENDS:
                set_default_backend(backend)
                assert get_default_backend() == backend
        finally:
            set_default_backend(original)
