"""Assignment-circuit construction (Lemma 3.7 / Appendix B).

Given a *homogenized* binary TVA and a binary tree, we build bottom-up, for
every tree node ``n``, a **box** containing the gates ``γ(n, q)`` for every
state ``q``:

* leaf node ``n`` with label ``l``:

  - 0-state ``q``: ``γ(n, q)`` is ⊤ if ``(l, ∅, q) ∈ ι`` and ⊥ otherwise;
  - 1-state ``q``: a ∪-gate over one var-gate ``⟨Y : n⟩`` per non-empty
    ``Y`` with ``(l, Y, q) ∈ ι`` (⊥ if there is none);

* internal node ``n`` with label ``l`` and children ``n1, n2``:

  - 0-state ``q``: ⊤ iff some ``(q1, q2, q) ∈ δ_l`` has both child gates ⊤;
  - 1-state ``q``: a ∪-gate over, for every ``(q1, q2, q) ∈ δ_l``, either a
    ×-gate on the two child ∪-gates, or — when one child gate is ⊤ — the
    other child ∪-gate directly (this is the trick that keeps ⊤/⊥ from ever
    being used as inputs).

The per-node work is proportional to the number of transitions that can fire
given the states present in the children, so the whole construction runs in
time ``O(|T| × |A|)`` and produces a complete structured DNNF of width
``|Q|`` and depth ``O(height(T))`` as stated by Lemma 3.7.

Box plans
---------
Every box is built from a **box plan**.  The gate structure of a box depends
only on its label and on the *state signature* of each child — which states
are present and which of those are ⊤.  A signature is two ints: the mask of
the present (non-⊥) states and the mask of the ⊤ states, bit ``i`` standing
for the automaton's ``i``-th state in canonical order
(:func:`_canonical_states`); a child's ∪-slot of state ``i`` is the popcount
of its ∪-states below bit ``i``.  With a fixed automaton a large tree hits
only a handful of distinct signatures, so the construction memoizes, per
automaton, a plan for every label (leaves) and every (label, left
signature, right signature) triple (internal nodes) it encounters: the
δ-product and all per-state classification work run once per distinct
signature — by bit tests over δ tables indexed by canonical state, built
once per label — and every later box with the same signature is built by a
single cache lookup (hashing a label and four ints).  The box reads its
children's signatures from their stamped ``state_sig``.

Plans are stored **struct-of-arrays**: one flat table per gate kind rather
than one record per gate.  An :class:`_InternalPlan` keeps, in slot order,
the ∪-gate input descriptors (``slot_inputs``: ``(source, index)`` pairs
over left/right child ∪-gates and ×-gates), the ×-gate operand slots
(``prod_pairs``, also split into the two parallel tuples of
``enum_tables``), the transposed child wiring (``wire_masks``: child slot →
mask of box slots, lifted lazily into per-backend ``wire_rels`` Relations)
and the per-slot input masks; a :class:`_LeafPlan` keeps the distinct
var-gate variable sets (``var_sets``) and a per-∪-slot bitmask over them
(``slot_var_masks``).  Everything position-independent is computed once per
plan and *shared* by every box built from it: the :class:`Box` constructor
takes the plan and stamps its signature, ∪-count, masks and enumeration
tables (only a leaf's var assignments, which embed the leaf, are its own).
The gate **objects** are materialized lazily (``materialize_unions`` /
``materialize_prods`` / ``materialize_vars``) the first time something walks
the circuit as gates — the mask-native enumeration path reads the flat
tables directly and never creates them.

The two box builders are exposed separately because the incremental
maintenance of Section 7 (Lemma 7.3) re-invokes them on the trunk of each
tree hollowing; the plan cache lives on the automaton, so trunk rebuilds hit
the plans computed during preprocessing.

Above the per-automaton plan cache sits a second, cross-document layer: the
:class:`BuildCache` (see its section below) hash-conses whole *built*
subtrees — box plus enumeration index — across the documents of one store,
keyed by ``(automaton digest, relation backend, subtree content hash)``, and
the index *shapes* of single boxes, keyed by ``(plan, child shapes,
backend)``.
"""

from __future__ import annotations

import hashlib
import re
import weakref
from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.automata.binary_tva import BinaryTVA
from repro.circuits.gates import (
    BOTTOM,
    TOP,
    AssignmentCircuit,
    Box,
    ProdGate,
    UnionGate,
    VarGate,
)
from repro.errors import CircuitStructureError, InvalidAutomatonError, NotHomogenizedError
from repro.trees.binary import BinaryNode, BinaryTree

__all__ = [
    "build_leaf_box",
    "build_internal_box",
    "build_assignment_circuit",
    "export_box_plans",
    "BuildCache",
    "DEFAULT_BUILD_CACHE_SIZE",
    "automaton_digest",
    "encode_content",
    "leaf_content_hash",
    "internal_content_hash",
]

# Input sources of a ∪-gate in an internal-box plan (paired with a slot or
# ×-gate index): the left child's ∪-gate (right gate was ⊤), the right
# child's ∪-gate (left gate was ⊤), or a ×-gate on the two child ∪-gates.
_IN_LEFT = 0
_IN_RIGHT = 1
_IN_PROD = 2


class _InternalPlan:
    """Slot-resolved recipe for building every box with a given signature.

    ``entries`` lists, in canonical state order, either a sentinel value
    (⊤/⊥) or the inputs of the state's ∪-gate as (source, index) pairs with
    the child slots already resolved; ``prod_pairs`` lists the ×-gates to
    create as (left slot, right slot).  Everything that does not depend on
    the concrete child boxes is precomputed and *shared* by every box built
    from the plan: the transposed child wiring ``wire_masks`` (child slot →
    mask of box slots), the per-slot input masks, the local-input mask and
    the box's own state signature (a ``(present mask, ⊤ mask)`` pair over
    canonical state indices).
    """

    __slots__ = (
        "entries",
        "prod_pairs",
        "wire_masks",
        "wire_rels",
        "left_input_masks",
        "right_input_masks",
        "local_mask",
        "signature",
        "enum_tables",
        "n_unions",
        "slot_inputs",
    )

    def __init__(
        self,
        entries,
        prod_pairs,
        wire_masks,
        left_input_masks,
        right_input_masks,
        local_mask,
        signature,
        slot_prod_masks,
    ):
        self.entries = entries
        self.prod_pairs = prod_pairs
        self.wire_masks = wire_masks
        #: backend → (left Relation, right Relation), filled lazily by
        #: repro.enumeration.wiring.wire_relation and shared by every box
        #: built from this plan (relations are immutable).
        self.wire_rels = {}
        self.left_input_masks = left_input_masks
        self.right_input_masks = right_input_masks
        self.local_mask = local_mask
        self.signature = signature
        #: flattened gate tables for the mask-native enumeration of
        #: Algorithm 2 (internal boxes have no var-gates); shared by every
        #: box built from this plan — see Box.enum_tables.
        self.enum_tables = (
            (),
            (),
            tuple(a for a, _b in prod_pairs),
            tuple(b for _a, b in prod_pairs),
            slot_prod_masks,
        )
        self.n_unions = len(left_input_masks)
        #: per-∪-slot input descriptors, in slot order (the union-state
        #: subsequence of ``entries``); read by lazy gate materialization.
        self.slot_inputs = tuple(
            value for _state, value in entries if value.__class__ is tuple
        )

    # ----------------------------------------------- lazy gate materialization
    def materialize_unions(self, box: "Box"):
        """Create the box's ∪-gates and state_gate mapping (inputs stay lazy)."""
        return _materialize_unions(self, box)

    def materialize_prods(self, box: "Box"):
        """Create the box's ×-gates (needs only the children's ∪-gates)."""
        left_unions = box.left_child.union_gates
        right_unions = box.right_child.union_gates
        prods = [
            ProdGate(box, left_unions[a], right_unions[b]) for a, b in self.prod_pairs
        ]
        box._prod_gates = prods
        return prods

    def materialize_vars(self, box: "Box"):
        box._var_gates = []
        return box._var_gates

    def gate_inputs(self, box: "Box", slot: int):
        """Resolve the (source, index) descriptors of one ∪-slot to gate objects."""
        sources = (box.left_child.union_gates, box.right_child.union_gates, box.prod_gates)
        return tuple(sources[source][index] for source, index in self.slot_inputs[slot])

    def enum_tables_for(self, _leaf_payload):
        """The enumeration tables of a box built from this plan: the plan's own."""
        return self.enum_tables

    def gate_counts(self):
        return (self.n_unions, len(self.prod_pairs), 0)


class _LeafPlan:
    """Recipe for building every leaf box with a given label.

    ``var_sets`` lists the distinct non-empty variable sets needing a
    var-gate; ``entries`` lists, per state, a sentinel (⊤/⊥) or the indices
    into ``var_sets`` feeding the state's ∪-gate; ``slot_var_masks`` is the
    same wiring as a per-∪-slot bitmask over var-gate indices (read by the
    mask-native enumeration of Algorithm 2).  ``signature`` is the leaf
    box's ``(present mask, ⊤ mask)`` pair over canonical state indices.
    """

    __slots__ = (
        "entries",
        "var_sets",
        "local_mask",
        "signature",
        "slot_var_masks",
        "n_unions",
        "slot_inputs",
    )

    #: a leaf has no child wiring; every leaf box shares these empty tuples
    left_input_masks = right_input_masks = ()

    def __init__(self, entries, var_sets, local_mask, signature, slot_var_masks):
        self.entries = entries
        self.var_sets = var_sets
        self.local_mask = local_mask
        self.signature = signature
        self.slot_var_masks = slot_var_masks
        self.n_unions = len(slot_var_masks)
        #: per-∪-slot var-gate index tuples, in slot order (the union-state
        #: subsequence of ``entries``); read by lazy gate materialization.
        self.slot_inputs = tuple(
            value for _state, value in entries if value.__class__ is tuple
        )

    # ----------------------------------------------- lazy gate materialization
    def materialize_unions(self, box: "Box"):
        """Create the box's ∪-gates and state_gate mapping (inputs stay lazy)."""
        return _materialize_unions(self, box)

    def materialize_prods(self, box: "Box"):
        box._prod_gates = []
        return box._prod_gates

    def materialize_vars(self, box: "Box"):
        """Create the box's var-gates from the stamped assignments.

        The assignments live in ``box.enum_tables[0]`` (they embed the
        per-leaf payload, so they are per-box even though the plan is
        shared); sharing one VarGate per assignment keeps Svar injective
        within the circuit (Definition 3.1).
        """
        var_gates = [VarGate(box, assignment) for assignment in box.enum_tables[0]]
        box._var_gates = var_gates
        return var_gates

    def gate_inputs(self, box: "Box", slot: int):
        """Resolve one ∪-slot's var-gate index tuple to gate objects."""
        var_gates = box.var_gates
        return tuple(var_gates[i] for i in self.slot_inputs[slot])

    def enum_tables_for(self, leaf_payload):
        """The enumeration tables of a leaf box: no ×-gates, the per-slot var
        masks shared from the plan, and var assignments that embed the leaf
        payload — the one per-box part."""
        return (
            tuple(frozenset((var, leaf_payload) for var in var_set) for var_set in self.var_sets),
            self.slot_var_masks,
            (),
            (),
            (),
        )

    def gate_counts(self):
        return (self.n_unions, 0, len(self.var_sets))


def _materialize_unions(plan, box):
    """Shared ∪-gate materialization for both plan kinds.

    Creates one :class:`UnionGate` per union entry (inputs lazy) plus the
    ``state_gate`` mapping, in ``entries`` order: slot ``s`` is the ``s``-th
    union entry.
    """
    union_gates = []
    state_gate = {}
    for state, value in plan.entries:
        if value.__class__ is tuple:
            gate = UnionGate(box, len(union_gates), state)
            union_gates.append(gate)
            state_gate[state] = gate
        else:
            state_gate[state] = value
    box._union_gates = union_gates
    box._state_gate = state_gate
    return union_gates


def _require_homogenized(automaton: BinaryTVA) -> None:
    if not automaton.is_homogenized():
        raise NotHomogenizedError(
            "the circuit construction of Lemma 3.7 requires a homogenized automaton; "
            "call repro.automata.homogenize() first"
        )


#: most internal plans one automaton keeps (least recently used go first).
#: A wide automaton under steady edits meets new child signatures for as
#: long as it runs — nondet-6 over the edit-refresh corpus (seed 1) grows
#: ~60 plans per 100-step cycle from 1,433 after set-up, with no plateau —
#: so the table is capped well above what one benchmark run reaches (3,213
#: after 30 cycles).  Boxes keep their plan by reference; an evicted plan is
#: only recomputed on its next use.
_INTERNAL_PLAN_LIMIT = 8192


def _plan_cache(automaton: BinaryTVA) -> Dict[str, object]:
    """The per-automaton box-plan cache (attached lazily; automata are immutable).

    Besides the leaf plans and the internal plans (an LRU of at most
    :data:`_INTERNAL_PLAN_LIMIT`) it holds the states in canonical order
    (see :func:`_canonical_states`) with their index, the masks of the 0-
    and 1-states, the shared ``(state, ⊤)`` and ``(state, ⊥)`` plan entries
    by state index (one tuple each per automaton: most states of a wide
    automaton's plans are ⊤ or ⊥, and a tuple holding a sentinel stays
    tracked by the cyclic GC, so a fresh pair per state per plan would make
    every collection walk hundreds of thousands of them) and, filled per
    label on first use, the δ tables of :func:`_label_targets`.
    """
    cache = getattr(automaton, "_box_plan_cache", None)
    if cache is None:
        states = _canonical_states(automaton)
        index = {state: i for i, state in enumerate(states)}
        cache = {
            "leaf": {},
            "internal": OrderedDict(),
            "states": states,
            "index": index,
            "zero": _mask_of(automaton.zero_states, index),
            "one": _mask_of(automaton.one_states, index),
            "top": tuple((state, TOP) for state in states),
            "bottom": tuple((state, BOTTOM) for state in states),
            "delta": {},
        }
        automaton._box_plan_cache = cache
    return cache


def _remember_internal_plan(plans: "OrderedDict", key: Tuple, plan: "_InternalPlan") -> None:
    """Store a new internal plan, evicting the least recently used past the limit."""
    plans[key] = plan
    while len(plans) > _INTERNAL_PLAN_LIMIT:
        plans.popitem(last=False)


def _canonical_states(automaton: BinaryTVA) -> Tuple[object, ...]:
    """The automaton's states sorted by their canonical encoding.

    State ``i`` of this order is bit ``i`` of every state signature, and
    plans give ∪-gates their slots in this order; slot numbering decides
    answer order.  The iteration order of ``automaton.states`` (a frozenset)
    is not fixed: it varies with ``PYTHONHASHSEED`` and with how the set was
    built, so a shard worker that compiles or unpickles the same query could
    otherwise enumerate in another order than the process it mirrors.
    States outside the serializable value universe sort by ``repr``.
    """
    from repro.automata.serialize import canonical_key, encode_value

    def key(state: object) -> str:
        try:
            return canonical_key(encode_value(state))
        except InvalidAutomatonError:
            return repr(state)

    return tuple(sorted(automaton.states, key=key))


def _mask_of(states, index: Dict[object, int]) -> int:
    mask = 0
    for state in states:
        mask |= 1 << index[state]
    return mask


_ONE = re.compile("1")


def _bit_indices(mask: int) -> List[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    return [match.start() for match in _ONE.finditer(bin(mask)[:1:-1])]


def _leaf_plan(automaton: BinaryTVA, label: object) -> _LeafPlan:
    """The build recipe for a leaf box with the given label (leaf-independent)."""
    cache = _plan_cache(automaton)
    zero = cache["zero"]
    one = cache["one"]
    entries_out = list(cache["bottom"])
    present = 0
    top = 0
    var_sets: List[frozenset] = []
    var_index: Dict[frozenset, int] = {}
    slot_var_masks: List[int] = []
    for i, state in enumerate(cache["states"]):
        entries = automaton.initial_by_label_state.get((label, state), ())
        bit = 1 << i
        if zero & bit:
            if any(not vs for vs in entries):
                entries_out[i] = cache["top"][i]
                present |= bit
                top |= bit
        elif one & bit:
            indices: List[int] = []
            seen = set()
            for vs in entries:
                if vs and vs not in seen:
                    seen.add(vs)
                    idx = var_index.get(vs)
                    if idx is None:
                        idx = len(var_sets)
                        var_index[vs] = idx
                        var_sets.append(vs)
                    indices.append(idx)
            if indices:
                entries_out[i] = (state, tuple(indices))
                present |= bit
                slot_var_masks.append(sum(1 << j for j in set(indices)))
    return _LeafPlan(
        tuple(entries_out),
        tuple(var_sets),
        (1 << len(slot_var_masks)) - 1,
        (present, top),
        tuple(slot_var_masks),
    )


def _label_targets(cache: Dict[str, object], automaton: BinaryTVA, label: object) -> Tuple:
    """δ_label by target state, as canonical indices (built once per label).

    One row ``(q, is 0-state, left need, right need, pairs)`` per target
    ``q`` in canonical order, where ``pairs`` lists the ``(q1, q2)`` of
    ``(q1, q2, q) ∈ δ_label`` in the automaton's own δ order (input order
    and ×-gate numbering follow it), and the need masks are the ``q1`` and
    ``q2`` that occur: a target none of whose pairs can fire is skipped
    with two mask tests.  A target that is neither a 0- nor a 1-state
    (an untrimmed automaton's) gets no row: its gate is always ⊥.
    """
    targets = cache["delta"].get(label)
    if targets is None:
        index = cache["index"]
        reachable = cache["zero"] | cache["one"]
        pairs_of: Dict[int, List[Tuple[int, int]]] = {}
        for q1, q2, q in automaton.delta_by_label.get(label, ()):
            pairs_of.setdefault(index[q], []).append((index[q1], index[q2]))
        rows = []
        for q in sorted(pairs_of):
            if not reachable >> q & 1:
                continue
            pairs = tuple(pairs_of[q])
            left_need = 0
            right_need = 0
            for i1, i2 in pairs:
                left_need |= 1 << i1
                right_need |= 1 << i2
            rows.append((q, bool(cache["zero"] >> q & 1), left_need, right_need, pairs))
        targets = cache["delta"][label] = tuple(rows)
    return targets


def _child_slots(signature: Tuple[int, int], n_states: int) -> Tuple[List[Optional[int]], int]:
    """Per state index, a child's ∪-slot (⊤: -1, absent: None); and its ∪-count.

    Slots go to the present non-⊤ states in canonical order, so the slot of
    state ``i`` is the popcount of the ∪-states below bit ``i``.
    """
    present, top = signature
    slots: List[Optional[int]] = [None] * n_states
    for i in _bit_indices(top):
        slots[i] = -1
    unions = _bit_indices(present & ~top)
    for slot, i in enumerate(unions):
        slots[i] = slot
    return slots, len(unions)


def _internal_plan(
    automaton: BinaryTVA,
    label: object,
    left_sig: Tuple[int, int],
    right_sig: Tuple[int, int],
) -> _InternalPlan:
    """The build recipe for an internal box, given the children's signatures.

    A signature is a pair of masks over canonical state indices: the child's
    present (non-⊥) states and its ⊤ states.  Because each state owns its
    own ∪-gate, child states identify child gates uniquely, so deduplication
    on (source, slot) descriptors reproduces the per-gate deduplication of
    the direct construction — and the child slot numbers (hence the box's
    full ∪-wiring) are already determined by the signatures, which is what
    lets the plan precompute the wiring masks.  Entries start as the
    automaton's all-⊥ row, and the targets of δ_label are examined in
    canonical order, each skipped by two mask tests unless one of its
    transitions can fire on the children's present states.
    """
    cache = _plan_cache(automaton)
    states = cache["states"]
    n_states = len(states)
    left, n_left = _child_slots(left_sig, n_states)
    right, n_right = _child_slots(right_sig, n_states)
    left_present, left_top = left_sig
    right_present, right_top = right_sig
    top_entries = cache["top"]
    entries = list(cache["bottom"])
    present = 0
    top = 0
    prod_pairs: List[Tuple[int, int]] = []
    prod_index: Dict[int, int] = {}
    left_input_masks: List[int] = []
    right_input_masks: List[int] = []
    slot_prod_masks: List[int] = []
    local_mask = 0
    left_wire: List[int] = [0] * n_left
    right_wire: List[int] = [0] * n_right
    for q, is_zero, left_need, right_need, pairs in _label_targets(cache, automaton, label):
        if is_zero:
            # ⊤ iff some transition has both child states ⊤
            if left_top & left_need and right_top & right_need:
                for i1, i2 in pairs:
                    if left[i1] == -1 and right[i2] == -1:
                        entries[q] = top_entries[q]
                        present |= 1 << q
                        top |= 1 << q
                        break
            continue
        if not (left_present & left_need and right_present & right_need):
            continue
        inputs: List[Tuple[int, int]] = []
        left_mask = 0
        right_mask = 0
        prod_mask = 0
        union_bit = 1 << len(left_input_masks)
        for i1, i2 in pairs:
            s1 = left[i1]
            if s1 is None:
                continue
            s2 = right[i2]
            if s2 is None:
                continue
            # the input masks double as the per-source "seen" sets
            if s1 < 0:
                if s2 < 0:
                    raise CircuitStructureError(
                        f"1-state {states[q]!r} would capture the empty assignment; "
                        "the automaton is not homogenized"
                    )
                if not right_mask >> s2 & 1:
                    right_mask |= 1 << s2
                    right_wire[s2] |= union_bit
                    inputs.append((_IN_RIGHT, s2))
            elif s2 < 0:
                if not left_mask >> s1 & 1:
                    left_mask |= 1 << s1
                    left_wire[s1] |= union_bit
                    inputs.append((_IN_LEFT, s1))
            else:
                key = s1 * n_right + s2
                prod = prod_index.get(key)
                if prod is None:
                    prod = prod_index[key] = len(prod_pairs)
                    prod_pairs.append((s1, s2))
                if not prod_mask >> prod & 1:
                    prod_mask |= 1 << prod
                    inputs.append((_IN_PROD, prod))
        if inputs:
            entries[q] = (states[q], tuple(inputs))
            present |= 1 << q
            if prod_mask:
                local_mask |= union_bit
            left_input_masks.append(left_mask)
            right_input_masks.append(right_mask)
            slot_prod_masks.append(prod_mask)
    return _InternalPlan(
        tuple(entries),
        tuple(prod_pairs),
        (tuple(left_wire), tuple(right_wire)),
        tuple(left_input_masks),
        tuple(right_input_masks),
        local_mask,
        (present, top),
        tuple(slot_prod_masks),
    )


# --------------------------------------------------------------------------- plan export
# Box plans are pure content: entries, masks and signatures fully determine
# the gates a box build instantiates, and nothing in a plan references a
# concrete box or relation instance (the lazily filled ``wire_rels`` cache is
# dropped on export).  That makes the whole per-automaton plan cache
# exportable as a canonical JSON-compatible payload: two processes hold the
# same plans exactly when their exports are equal bytes, which is how the
# tests compare a parent with its shard workers and one hash seed with
# another.  Plans are not persisted; every process compiles its own as its
# builds need them.

def _encode_plan_value(value: object) -> object:
    """Encode one ``entries`` value: ⊤/⊥ sentinel or an input tuple."""
    if value is TOP:
        return "T"
    if value is BOTTOM:
        return "B"
    return ["u", [list(item) if isinstance(item, tuple) else item for item in value]]


def export_box_plans(automaton: BinaryTVA) -> Dict:
    """Export the automaton's memoized box plans as a JSON-compatible payload.

    States, labels and variable sets are interned in the payload's
    ``values`` table (states first, in canonical order, so the table —
    hence the whole payload — is deterministic for a given plan set, and a
    state's reference is its canonical index); entries and signatures
    reference table indexes, a signature as its ``[state, is ⊤]`` pairs in
    canonical order.  Entry order inside each plan is preserved exactly
    (∪-gate slots follow it).
    """
    from repro.automata.serialize import ValueTable

    cache = _plan_cache(automaton)
    table = ValueTable()
    table.seed(cache["states"])
    table.seed({label for label in cache["leaf"]}
               | {label for label, _ls, _rs in cache["internal"]})
    table.seed({vs for plan in cache["leaf"].values() for vs in plan.var_sets})

    def sig_payload(signature):
        present, top = signature
        return [[i, bool(top >> i & 1)] for i in _bit_indices(present)]

    def entries_payload(entries):
        return [[i, _encode_plan_value(value)] for i, (_state, value) in enumerate(entries)]

    leaf_payload = []
    for label, plan in cache["leaf"].items():
        leaf_payload.append(
            [
                table.ref(label),
                {
                    "entries": entries_payload(plan.entries),
                    "var_sets": [table.ref(vs) for vs in plan.var_sets],
                    "local_mask": plan.local_mask,
                    "signature": sig_payload(plan.signature),
                    "slot_var_masks": list(plan.slot_var_masks),
                },
            ]
        )
    leaf_payload.sort(key=lambda item: item[0])

    internal_payload = []
    for (label, left_sig, right_sig), plan in cache["internal"].items():
        internal_payload.append(
            [
                [table.ref(label), sig_payload(left_sig), sig_payload(right_sig)],
                {
                    "entries": entries_payload(plan.entries),
                    "prod_pairs": [list(pair) for pair in plan.prod_pairs],
                    "wire_masks": [list(plan.wire_masks[0]), list(plan.wire_masks[1])],
                    "left_input_masks": list(plan.left_input_masks),
                    "right_input_masks": list(plan.right_input_masks),
                    "local_mask": plan.local_mask,
                    "signature": sig_payload(plan.signature),
                    "slot_prod_masks": list(plan.enum_tables[4]),
                },
            ]
        )
    internal_payload.sort(key=lambda item: item[0])
    return {"values": table.encoded, "leaf": leaf_payload, "internal": internal_payload}


# --------------------------------------------------------------------------- cross-document build cache
# Documents in a real fleet share structure, and forest-algebra terms are
# content-addressable: a subtree's circuit (boxes + enumeration index) is
# fully determined by (automaton, relation backend, subtree content).  The
# BuildCache below hash-conses whole built subtrees across documents of one
# store: the maintainer consults it per term node before building, so the
# second document with a repeated subtree reuses the first one's boxes and
# index entries outright.  Below whole subtrees, the same cache shares the
# part of each box's index entry that names no box (its shape, see
# repro.enumeration.index), which repeats far more often.  Sharing is safe
# because boxes, indexes, shapes and relations are immutable once built —
# updates replace trunk boxes instead of mutating them (Lemma 7.3), so an
# edit to one document never disturbs another document sharing a subtree.

#: default capacity (entries = cached subtree roots) of the per-store cache;
#: overridable per engine/store via ``build_cache_size=``.
DEFAULT_BUILD_CACHE_SIZE = 2048


def encode_content(value: object) -> Optional[bytes]:
    """Canonical byte encoding of a label value, or None if unhashable.

    Supports the payload types documents actually use (str/int/bool/None and
    tuples thereof).  Exotic label objects return None, which makes the
    subtree — and every subtree above it — simply uncacheable rather than
    wrongly shared.
    """
    cls = value.__class__
    if cls is str:
        return b"s" + value.encode("utf-8") + b"\x00"
    if cls is bool:
        return b"b1" if value else b"b0"
    if cls is int:
        return b"i%d\x00" % value
    if value is None:
        return b"n"
    if cls is tuple:
        parts = [b"("]
        for item in value:
            encoded = encode_content(item)
            if encoded is None:
                return None
            parts.append(encoded)
        parts.append(b")")
        return b"".join(parts)
    return None


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def leaf_content_hash(label: object, leaf_payload: object) -> Optional[bytes]:
    """Content digest of a leaf box: its alphabet label and leaf payload."""
    encoded = encode_content((label, leaf_payload))
    if encoded is None:
        return None
    return _digest(b"L" + encoded)


def internal_content_hash(
    label: object, left_hash: Optional[bytes], right_hash: Optional[bytes]
) -> Optional[bytes]:
    """Content digest of an internal box from its children's digests (O(1))."""
    if left_hash is None or right_hash is None:
        return None
    encoded = encode_content(label)
    if encoded is None:
        return None
    return _digest(b"I" + encoded + left_hash + right_hash)


def automaton_digest(automaton: BinaryTVA) -> bytes:
    """A content digest of the automaton (cached on the instance).

    Uses the canonical serialization of :mod:`repro.automata.serialize`, so
    two automata with identical content — e.g. the same compiled query loaded
    in two processes — share cache keys, while any structural difference
    (states, transitions, finals) changes the digest.
    """
    digest = getattr(automaton, "_content_digest", None)
    if digest is None:
        from repro.automata.serialize import binary_tva_to_payload, canonical_json

        digest = _digest(canonical_json(binary_tva_to_payload(automaton)).encode("utf-8"))
        automaton._content_digest = digest
    return digest


class BuildCache:
    """Bounded LRU caches of built subtrees and index shapes, shared across documents.

    Two tables, one switch:

    * **subtrees** — keys ``(automaton digest, relation backend, subtree
      content hash)``, values the (immutable) root :class:`Box` of a built
      subtree, index included; at most ``capacity`` entries.  The
      ``hits`` / ``misses`` / ``evictions`` counters surface through
      ``LocalStore.stats()`` and ``Engine.stats()`` (summed across shards)
      as ``build_cache_hits`` / ``build_cache_misses`` /
      ``build_cache_evictions``.
    * **index shapes** — keys ``(box plan, left child's shape, right
      child's shape, relation backend)``, values the
      :class:`~repro.enumeration.index.IndexShape` of a box's index entry
      (everything but its target boxes; see :mod:`repro.enumeration.index`);
      at most ``4 × capacity`` entries.  New shapes are interned by content
      through a weak table (it keeps no shape alive that no box and no key
      uses), so equal shapes are one object and the keys above them meet.
      Counted as ``index_shape_hits`` / ``index_shape_misses`` /
      ``index_shape_evictions``.

    A capacity of 0 (or None) disables both — lookups and inserts become
    no-ops, no content hashing happens, and every box builds its index
    from scratch.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "on_hit_seconds",
        "_entries",
        "shape_capacity",
        "shape_hits",
        "shape_misses",
        "shape_evictions",
        "_shapes",
        "_interned",
    )

    def __init__(self, capacity: Optional[int] = DEFAULT_BUILD_CACHE_SIZE):
        self.capacity = int(capacity) if capacity else 0
        if self.capacity < 0:
            self.capacity = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: optional observability hook: called with the lookup latency
        #: (seconds) of every cache *hit*; wired to the engine's
        #: ``build_cache_hit_seconds`` histogram when metrics are on.
        self.on_hit_seconds = None
        self._entries: "OrderedDict[Tuple, Box]" = OrderedDict()
        #: keys outnumber cached subtrees: over 30 edit-refresh cycles
        #: (arrivals included) 2048 / 4096 / 8192 / 16384 keys hit 69 / 80 /
        #: 87 / 91% of lookups, and the shapes only the table keeps alive
        #: take 0.3 / 0.9 / 2.4 / 7.8 MB of a ~135 MB peak RSS
        self.shape_capacity = 4 * self.capacity
        self.shape_hits = 0
        self.shape_misses = 0
        self.shape_evictions = 0
        self._shapes: "OrderedDict[Tuple, object]" = OrderedDict()
        #: content hash → the live shape with that content
        self._interned: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[Box]:
        """Look up a built subtree; counts a hit or a miss."""
        on_hit = self.on_hit_seconds
        start = perf_counter() if on_hit is not None else 0.0
        box = self._entries.get(key)
        if box is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if on_hit is not None:
            on_hit(perf_counter() - start)
        return box

    def put(self, key: Tuple, box: Box) -> None:
        """Insert a built subtree, evicting least-recently-used past capacity."""
        if self.capacity <= 0:
            return
        self._entries[key] = box
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_shape(self, key: Tuple):
        """Look up the index shape of a box by (plan, child shapes, backend)."""
        shape = self._shapes.get(key)
        if shape is None:
            self.shape_misses += 1
            return None
        self._shapes.move_to_end(key)
        self.shape_hits += 1
        return shape

    def put_shape(self, key: Tuple, shape):
        """Intern a newly built shape by content and store it under ``key``.

        Returns the interned shape: an equal one already known, or ``shape``.
        """
        if self.shape_capacity <= 0:
            return shape
        content = shape.content_hash()
        known = self._interned.get(content)
        if known is None or not known.same_content(shape):  # new, or a collision
            known = self._interned[content] = shape
        shapes = self._shapes
        shapes[key] = known
        if len(shapes) > self.shape_capacity:
            shapes.popitem(last=False)
            self.shape_evictions += 1
        return known

    def clear(self) -> None:
        self._entries.clear()
        self._shapes.clear()
        self._interned.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "build_cache_hits": self.hits,
            "build_cache_misses": self.misses,
            "build_cache_evictions": self.evictions,
            "build_cache_size": len(self._entries),
            "build_cache_capacity": self.capacity,
            "index_shape_hits": self.shape_hits,
            "index_shape_misses": self.shape_misses,
            "index_shape_evictions": self.shape_evictions,
            "index_shape_size": len(self._shapes),
            "index_shape_capacity": self.shape_capacity,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BuildCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions}, "
            f"shapes={len(self._shapes)}/{self.shape_capacity})"
        )


def build_leaf_box(label: object, leaf_payload: int, automaton: BinaryTVA) -> Box:
    """Build the box ``B_n`` for a leaf node with the given label.

    ``leaf_payload`` is the identifier of the leaf used in the var-gate
    singletons ``⟨Y : n⟩`` (in the full pipeline this is the id of the
    *unranked* tree node the leaf represents).
    """
    leaf_plans = _plan_cache(automaton)["leaf"]
    plan = leaf_plans.get(label)
    if plan is None:
        plan = _leaf_plan(automaton, label)
        leaf_plans[label] = plan

    return Box(label, plan, leaf_payload=leaf_payload)


def build_internal_box(
    label: object, left_box: Box, right_box: Box, automaton: BinaryTVA
) -> Box:
    """Build the box ``B_n`` for an internal node from its children's boxes.

    The plan is looked up by the label and the children's stamped state
    signatures; every per-slot table of the new box is shared from it.
    """
    internal_plans = _plan_cache(automaton)["internal"]
    key = (label, left_box.state_sig, right_box.state_sig)
    plan = internal_plans.get(key)
    if plan is None:
        plan = _internal_plan(automaton, label, key[1], key[2])
        _remember_internal_plan(internal_plans, key, plan)
    else:
        internal_plans.move_to_end(key)
    return Box(label, plan, left_child=left_box, right_child=right_box)


def build_assignment_circuit(tree: BinaryTree, automaton: BinaryTVA) -> AssignmentCircuit:
    """Build the assignment circuit of ``automaton`` on ``tree`` (Lemma 3.7).

    The automaton must be homogenized (Lemma 2.1).  The circuit's v-tree is
    the input tree itself, with each leaf labelled by the singletons
    ``⟨X : n⟩`` of that leaf.
    """
    _require_homogenized(automaton)

    box_by_node: Dict[int, Box] = {}
    # Post-order traversal without recursion (input trees can be deep).
    order: List[BinaryNode] = []
    stack: List[Tuple[BinaryNode, bool]] = [(tree.root, False)]
    while stack:
        node, visited = stack.pop()
        if visited or node.is_leaf():
            order.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))

    for node in order:
        if node.is_leaf():
            box = build_leaf_box(node.label, node.node_id, automaton)
        else:
            box = build_internal_box(
                node.label,
                box_by_node[node.left.node_id],
                box_by_node[node.right.node_id],
                automaton,
            )
        box_by_node[node.node_id] = box

    return AssignmentCircuit(box_by_node[tree.root.node_id], automaton, box_by_node)
