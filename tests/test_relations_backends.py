"""Cross-backend equivalence of the relation backends (pairs/bitset).

The two backends of :class:`repro.enumeration.relations.Relation` must be
observationally identical: same ``pairs()`` under every operation (creation,
composition chains, projections), same equality/hash behaviour across
backends, and — end to end — identical answer sets when driving the full
enumeration pipeline.  These tests randomize over relations and over
(automaton, tree) instances and compare the bitset runtime with the pairs
oracle, and each of the two with relations modelled as plain Python sets of
pairs (a third implementation, shared with neither backend).

Backend selection is pinned too: every layer that takes ``relation_backend=``
rejects a name outside ``VALID_BACKENDS`` with a :class:`BackendError`, and
``None`` is the ``"bitset"`` runtime everywhere it is keyed on.
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
from repro.automata.queries import select_labeled
from repro.circuits.build import BuildCache, build_assignment_circuit
from repro.core.enumerator import TreeRuntime, WordRuntime, compiled_automaton_for
from repro.enumeration.assignment_iter import CircuitEnumerator
from repro.enumeration.index import _leaf_shape, build_box_index, build_index
from repro.enumeration.relations import VALID_BACKENDS, Relation, validate_backend
from repro.errors import BackendError
from repro.forest_algebra.maintenance import MaintainedTerm
from repro.incremental.maintainer import IncrementalCircuitMaintainer
from repro.spanners.spanner import Spanner
from repro.trees.generators import tree_of_shape
from repro.trees.unranked import UnrankedTree

BACKENDS = ("pairs", "bitset")
BACKEND_PAIRS = list(itertools.combinations(BACKENDS, 2))


def random_pairs(rng: random.Random, n_lower: int, n_upper: int, density: float):
    return [
        (lower, upper)
        for lower in range(n_lower)
        for upper in range(n_upper)
        if rng.random() < density
    ]


def set_compose(first, second):
    """The relational join ``{(a, c) | (a, b) ∈ first, (b, c) ∈ second}``."""
    return {(a, c) for a, b in first for mid, c in second if mid == b}


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
        assert rel_a.lower_mask() == rel_b.lower_mask()
        assert rel_a.uppers_by_lower() == rel_b.uppers_by_lower()
        assert rel_a.masks_view() == rel_b.masks_view()
        assert rel_a.is_empty() == rel_b.is_empty()
        assert len(rel_a) == len(rel_b)
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

    @pytest.mark.parametrize("first,second", list(itertools.product(BACKENDS, repeat=2)))
    def test_mixed_backend_composition(self, first, second):
        a = Relation(3, 4, [(0, 1), (1, 2), (2, 3)], backend=first)
        b = Relation(4, 2, [(1, 0), (2, 1), (3, 0)], backend=second)
        mixed = a.compose(b)
        reference = Relation(3, 4, a.pairs(), backend="pairs").compose(
            Relation(4, 2, b.pairs(), backend="pairs")
        )
        assert mixed.pairs() == reference.pairs()
        # a composition with a bitset operand is a bitset relation
        assert mixed.backend == ("pairs" if first == second == "pairs" else "bitset")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_and_from_masks_roundtrip(self, backend):
        ident = Relation.identity(4, backend=backend)
        assert ident.pairs() == {(i, i) for i in range(4)}
        rel = Relation.from_masks(3, 4, [0b1010, 0, 0b0001], backend=backend)
        assert rel.pairs() == {(0, 1), (0, 3), (2, 0)}
        assert rel.masks_view() == [0b1010, 0, 0b0001]

    def test_eq_short_circuits_on_dimensions(self):
        assert Relation(2, 3, [(0, 0)]) != Relation(3, 2, [(0, 0)])
        assert Relation(2, 3, [(0, 0)]) != Relation(2, 4, [(0, 0)])
        assert Relation(2, 3, []) != object()


# --------------------------------------------------------------------------- set semantics
class TestRelationSetSemantics:
    """Each backend against relations modelled as plain sets of pairs.

    With two backends a cross-backend comparison alone cannot tell which side
    is wrong; the set model is shared with neither, so the bitset runtime and
    the pairs oracle are each held to it directly.
    """

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observables_match_set_semantics(self, seed, backend):
        rng = random.Random(2000 + seed)
        n_lower = rng.randint(1, 9)
        n_upper = rng.randint(1, 9)
        pairs = set(random_pairs(rng, n_lower, n_upper, 0.35))
        rel = Relation(n_lower, n_upper, pairs, backend=backend)
        uppers = {lower: {u for l, u in pairs if l == lower} for lower, _ in pairs}
        assert rel.pairs() == pairs
        assert len(rel) == len(pairs)
        assert rel.is_empty() == (not pairs) == (not rel)
        assert rel.lower_mask() == sum(1 << lower for lower in uppers)
        assert rel.uppers_by_lower() == uppers
        assert rel.masks_view() == [
            sum(1 << upper for upper in uppers.get(lower, ())) for lower in range(n_lower)
        ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_composition_chains_match_set_semantics(self, seed, backend):
        rng = random.Random(3000 + seed)
        dims = [rng.randint(1, 7) for _ in range(5)]
        layers = [set(random_pairs(rng, dims[i], dims[i + 1], 0.4)) for i in range(4)]
        composed = Relation(dims[0], dims[1], layers[0], backend=backend)
        expected = layers[0]
        for i in range(1, 4):
            composed = composed.compose(Relation(dims[i], dims[i + 1], layers[i], backend=backend))
            expected = set_compose(expected, layers[i])
            assert (composed.n_lower, composed.n_upper) == (dims[0], dims[i + 1])
            assert composed.pairs() == expected
        assert composed.backend == backend

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_composition_is_associative(self, seed, backend):
        rng = random.Random(4000 + seed)
        dims = [rng.randint(1, 8) for _ in range(4)]
        a, b, c = (
            Relation(dims[i], dims[i + 1], random_pairs(rng, dims[i], dims[i + 1], 0.3), backend=backend)
            for i in range(3)
        )
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left == right
        assert left.pairs() == set_compose(set_compose(a.pairs(), b.pairs()), c.pairs())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identity_is_neutral_for_composition(self, seed, backend):
        rng = random.Random(5000 + seed)
        n_lower = rng.randint(1, 9)
        n_upper = rng.randint(1, 9)
        rel = Relation(n_lower, n_upper, random_pairs(rng, n_lower, n_upper, 0.35), backend=backend)
        through_lower = Relation.identity(n_lower, backend=backend).compose(rel)
        through_upper = rel.compose(Relation.identity(n_upper, backend=backend))
        assert through_lower.pairs() == through_upper.pairs() == rel.pairs()
        assert through_lower == rel == through_upper

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_from_masks_matches_the_pair_constructor(self, seed, backend):
        rng = random.Random(6000 + seed)
        n_lower = rng.randint(1, 9)
        n_upper = rng.randint(1, 9)
        masks = [rng.getrandbits(n_upper) for _ in range(n_lower)]
        expected = {
            (lower, upper)
            for lower, mask in enumerate(masks)
            for upper in range(n_upper)
            if mask >> upper & 1
        }
        rel = Relation.from_masks(n_lower, n_upper, masks, backend=backend)
        by_pairs = Relation(n_lower, n_upper, expected, backend=backend)
        assert rel.backend == backend
        assert rel.pairs() == expected
        assert rel.masks_view() == masks
        assert rel == by_pairs and hash(rel) == hash(by_pairs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_width_relations(self, backend):
        no_lower = Relation(0, 3, backend=backend)
        no_upper = Relation(3, 0, backend=backend)
        assert no_lower.is_empty() and no_upper.is_empty()
        assert no_lower.masks_view() == [] and no_upper.masks_view() == [0, 0, 0]
        assert Relation.identity(0, backend=backend).pairs() == frozenset()
        through_nothing = no_upper.compose(Relation(0, 2, backend=backend))
        assert (through_nothing.n_lower, through_nothing.n_upper) == (3, 2)
        assert through_nothing.is_empty() and through_nothing.lower_mask() == 0


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

    def test_default_is_bitset(self):
        assert Relation(1, 1, [(0, 0)]).backend == "bitset"
        assert Relation.identity(2).backend == "bitset"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_built_boxes_record_wiring_and_index_correctly(self, backend):
        """The wiring a box stamps from its plan matches its gates.

        Every box's ``local_mask``, ``left_input_masks`` and
        ``right_input_masks`` and both shared wire relations are recomputed
        from the lazily materialized ``gate.inputs``, and the indexed box
        enumeration from the root's ∪-gates yields the same boxes and
        relations as the naive walk.
        """
        from repro.circuits.gates import UnionGate
        from repro.enumeration.box_enum import indexed_box_enum, naive_box_enum
        from repro.enumeration.wiring import wire_relation

        automaton = homogenize(select_pair_ab())
        circuit = build_assignment_circuit(random_binary_tree(3, 9), automaton)
        build_index(circuit, relation_backend=backend)
        for box in circuit.boxes():
            side_of = {box.left_child: 0, box.right_child: 1}
            local = 0
            masks = ([0] * box.n_unions, [0] * box.n_unions)
            wires = (set(), set())
            for gate in box.union_gates:
                for source in gate.inputs:
                    if isinstance(source, UnionGate):
                        side = side_of[source.box]
                        masks[side][gate.slot] |= 1 << source.slot
                        wires[side].add((source.slot, gate.slot))
                    else:
                        assert source.box is box
                        local |= 1 << gate.slot
            assert box.local_mask == local
            if box.is_leaf_box():
                assert box.left_input_masks == box.right_input_masks == ()
                continue
            assert len(side_of) == 2
            assert list(box.left_input_masks) == masks[0]
            assert list(box.right_input_masks) == masks[1]
            assert wire_relation(box, "left", backend).pairs() == wires[0]
            assert wire_relation(box, "right", backend).pairs() == wires[1]

        gamma = [gate for gate in circuit.root_gates() if isinstance(gate, UnionGate)]
        naive = [(box.serial, rel.pairs()) for box, rel in naive_box_enum(gamma, backend)]
        indexed = [(box.serial, rel.pairs()) for box, rel in indexed_box_enum(gamma, backend)]
        assert sorted(naive) == sorted(indexed) and naive
        assert len({serial for serial, _pairs in indexed}) == len(indexed)

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
            ref_rels = [rel.pairs() for rel in box_ref.shape.relations]
            rels = [rel.pairs() for rel in box.shape.relations]
            assert ref_rels == rels
            assert list(box_ref.shape.ends) == list(box.shape.ends)


def _small_tree():
    return UnrankedTree.from_nested(("a", ["b", ("a", ["b"])]))


def _small_circuit():
    return build_assignment_circuit(random_binary_tree(0, 3), homogenize(select_pair_ab()))


#: every layer that takes ``relation_backend=``, called with a backend name
BACKEND_LAYERS = {
    "tree-runtime": lambda backend: TreeRuntime(
        _small_tree(), select_labeled("a", ("a", "b")), relation_backend=backend
    ),
    "word-runtime": lambda backend: WordRuntime(
        list("ab"), Spanner("x{a}b", "ab").wva, relation_backend=backend
    ),
    "spanner-enumerator": lambda backend: Spanner("x{a}b", "ab").enumerator(
        list("ab"), relation_backend=backend
    ),
    "circuit-enumerator": lambda backend: CircuitEnumerator(
        _small_circuit(), relation_backend=backend
    ),
    "maintainer": lambda backend: IncrementalCircuitMaintainer(
        MaintainedTerm(_small_tree()),
        compiled_automaton_for(select_labeled("a", ("a", "b"))),
        relation_backend=backend,
    ),
    "build-index": lambda backend: build_index(_small_circuit(), relation_backend=backend),
}


class TestBackendValidation:
    """Typos in backend names must fail fast with a helpful message."""

    @pytest.mark.parametrize("name", ["bitsets", "matrix", "numpy"])
    def test_unknown_backend_lists_backends_and_suggests(self, name):
        with pytest.raises(BackendError) as excinfo:
            validate_backend(name)
        message = str(excinfo.value)
        listed = message.split("valid backends are ", 1)[1].split(" (did you mean", 1)[0]
        assert listed == "'pairs', 'bitset'"
        assert ("did you mean 'bitset'?" in message) == (name == "bitsets")

    def test_relation_constructor_validates(self):
        with pytest.raises(ValueError, match="did you mean 'pairs'"):
            Relation(2, 2, backend="pair")

    @pytest.mark.parametrize("name", ["biset", "matrix", "numpy"])
    @pytest.mark.parametrize("layer", sorted(BACKEND_LAYERS))
    def test_enumerator_keyword_fails_fast(self, layer, name):
        with pytest.raises(BackendError, match="valid backends are 'pairs', 'bitset'"):
            BACKEND_LAYERS[layer](name)

    def test_valid_backends_accepted(self):
        assert VALID_BACKENDS == BACKENDS
        for backend in BACKENDS:
            assert validate_backend(backend) == backend
            assert Relation(1, 1, [(0, 0)], backend=backend).backend == backend


class TestNoneMeansBitset:
    """``relation_backend=None`` is the ``"bitset"`` runtime at every layer."""

    def test_relation_constructors(self):
        assert Relation.from_masks(2, 2, [0b01, 0b10]).backend == "bitset"
        assert Relation.identity(3) is Relation.identity(3, backend="bitset")
        assert Relation.identity(3, backend="pairs") is not Relation.identity(3)

    def test_leaf_indexes_are_shared_with_bitset(self):
        assert _leaf_shape(3, None) is _leaf_shape(3, "bitset")
        assert _leaf_shape(3, "pairs") is not _leaf_shape(3, None)

    def test_index_relations_are_bitset(self):
        circuit = _small_circuit()
        build_index(circuit, relation_backend=None)
        backends = {rel.backend for box in circuit.boxes() for rel in box.shape.relations}
        assert backends == {"bitset"}

    def test_subtree_cache_keys_meet(self):
        """A ``None`` build and a ``"bitset"`` build share cached subtrees;
        a ``"pairs"`` build shares none of them."""
        tree = tree_of_shape("random", 40, ("a", "b", "c"), 2)
        query = select_labeled("a", ("a", "b", "c"))
        cache = BuildCache()
        TreeRuntime(tree, query, relation_backend=None, build_cache=cache)
        built = cache.misses
        assert built > 0 and cache.hits == 0
        TreeRuntime(tree, query, relation_backend="bitset", build_cache=cache)
        assert (cache.hits, cache.misses) == (built, built)
        TreeRuntime(tree, query, relation_backend="pairs", build_cache=cache)
        assert (cache.hits, cache.misses) == (built, 2 * built)

    def test_index_shape_keys_meet(self):
        tree = tree_of_shape("random", 40, ("a", "b", "c"), 2)
        runtime = TreeRuntime(tree, select_labeled("a", ("a", "b", "c")))
        box = next(
            box for box in runtime.maintainer.root_box.subtree_boxes() if not box.is_leaf_box()
        )
        shared = box.targets, box.shape
        shapes = BuildCache()
        try:
            first = build_box_index(box, relation_backend=None, shapes=shapes)
            second = build_box_index(box, relation_backend="bitset", shapes=shapes)
        finally:
            box.targets, box.shape = shared
        assert (shapes.shape_hits, shapes.shape_misses) == (1, 1)
        assert second is first
