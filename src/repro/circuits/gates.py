"""Set circuits: gates, boxes and assignment circuits (Section 3).

A *set circuit* has five kinds of gates: ⊤, ⊥, var, × and ∪ (Definition 3.1).
Our circuits are always *complete structured DNNFs* (Definition 3.4): the
gates are partitioned into **boxes**, one box per node of the v-tree, and the
wiring respects the v-tree.  Because the v-tree of an assignment circuit is
(isomorphic to) the input binary tree itself (Lemma 3.7), we do not store a
separate v-tree object: the tree of boxes *is* the v-tree, and each leaf box
remembers the tree leaf it corresponds to (its ``leaf_payload``).

Design notes
------------
* ⊤ and ⊥ are module-level singletons, not gate objects: the construction of
  Lemma 3.7 guarantees they are never used as inputs of other gates, so they
  only ever appear as values of the per-state mapping ``γ(n, q)`` stored in
  each box (``Box.state_gate``).
* ∪-gates carry a ``slot`` (their position inside their box); the
  ∪-reachability relations of Sections 5–6 are stored as relations between
  slot numbers, which keeps them valid when parent boxes are rebuilt during
  updates.
* Boxes know their children but **not** their parent: under updates a box can
  be reused under a freshly rebuilt parent (Lemma 7.3), so parent pointers
  would become stale.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.assignments import Assignment
from repro.errors import CircuitStructureError

__all__ = [
    "TOP",
    "BOTTOM",
    "VarGate",
    "ProdGate",
    "UnionGate",
    "Box",
    "AssignmentCircuit",
]


class _Sentinel:
    """Singleton used for the ⊤ and ⊥ circuit constants."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: The ⊤-gate: captures exactly the empty assignment ``{∅}``.
TOP = _Sentinel("TOP")
#: The ⊥-gate: captures the empty set of assignments.
BOTTOM = _Sentinel("BOTTOM")

#: Monotonic build-serial source for boxes (process-wide).  Serials exist so
#: the serving layer can name a box *stably*: ``id(box)`` values are recycled
#: by the allocator as soon as a box is collected, so an old trunk box and a
#: freshly rebuilt one can alias — a serial never can.  Boxes shared through
#: the cross-document build cache keep the serial of their first build (they
#: are one object, hence one identity).
_BOX_SERIALS = itertools.count(1)


class VarGate:
    """A variable gate; captures the single assignment ``Svar(g)`` (= ``⟨Y : n⟩``)."""

    __slots__ = ("box", "assignment")

    def __init__(self, box: "Box", assignment: Assignment):
        self.box = box
        self.assignment = assignment

    def __repr__(self) -> str:  # pragma: no cover
        return f"VarGate({set(self.assignment)!r})"


class ProdGate:
    """A ×-gate; its two inputs are ∪-gates in the left and right child boxes."""

    __slots__ = ("box", "left", "right")

    def __init__(self, box: "Box", left: "UnionGate", right: "UnionGate"):
        self.box = box
        self.left = left
        self.right = right

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProdGate(left=slot {self.left.slot}, right=slot {self.right.slot})"


class UnionGate:
    """A ∪-gate; captures the union of the sets captured by its inputs.

    Inputs are var-gates or ×-gates of the *same* box, or ∪-gates of a
    *child* box (this normalization — no ∪→∪ wire within a box — is what the
    construction of Lemma 3.7 produces and what the index of Section 6
    assumes; it is checked by :func:`repro.circuits.dnnf.validate_circuit`).

    The ``inputs`` tuple is **lazy**: the box plan knows the wiring as flat
    (source, index) descriptors, so the input gate objects are only created
    when something actually walks them (the generic relation-based
    enumeration, validation, tests).  The mask-native hot paths read the
    stamped ``Box.enum_tables`` / wiring masks instead and never touch
    ``inputs``.
    """

    __slots__ = ("box", "slot", "state", "_inputs")

    def __init__(self, box: "Box", slot: int, state: object):
        self.box = box
        self.slot = slot
        self.state = state
        self._inputs: Optional[Tuple[object, ...]] = None

    @property
    def inputs(self) -> Tuple[object, ...]:
        inputs = self._inputs
        if inputs is None:
            inputs = self._inputs = self.box.plan.gate_inputs(self.box, self.slot)
        return inputs

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnionGate(slot={self.slot}, state={self.state!r}, fan_in={len(self.inputs)})"


class Box:
    """One box of a complete structured DNNF = one node of the v-tree.

    A box is built from a box plan (:mod:`repro.circuits.build`), which fixes
    its gates and wiring, and carries its own entry of the enumeration index
    (:mod:`repro.enumeration.index`) once that is built.

    Attributes
    ----------
    serial:
        Monotonic build serial, stamped at construction and never reused.
        The serving layer keys cursor dependency masks and replaced-trunk
        deltas by serial instead of ``id()`` (addresses are recycled).
    label:
        The tree-node label this box was built for (informational).
    leaf_payload:
        For leaf boxes, the identifier of the tree leaf (used in var-gate
        singletons); ``None`` for internal boxes.
    left_child / right_child:
        Child boxes (``None`` for leaf boxes).
    plan:
        The leaf or internal box plan that built the box.  An internal plan
        also carries the transposed child wiring (``wire_masks``) and the
        per-backend wire relations that every box built from it shares.
    union_gates / state_gate / prod_gates / var_gates:
        The gate objects, materialized from the plan on first access: the
        ∪-gates indexed by their ``slot``, the mapping ``q ↦ γ(n, q)``
        (values :class:`UnionGate`, ``TOP`` or ``BOTTOM``), and the ×- and
        var-gates (for statistics, validation and the generic enumeration).
    state_sig:
        The masks of the box's present (non-⊥) and ⊤ states, bit ``i``
        standing for the automaton's ``i``-th state in canonical order.
    n_unions / local_mask / left_input_masks / right_input_masks:
        The box's ∪-wiring, stamped from the plan: the number of ∪-slots, a
        bitmask over slots whose gate has a local (var-/×-gate) input, and
        per-slot bitmasks of the left/right child slots wired into it (empty
        for a leaf).  The index construction (Lemma 6.3) and Algorithm 3
        read these instead of walking ``gate.inputs``.
    enum_tables:
        The flattened per-box gate tables read by the mask-native
        enumeration of Algorithm 2 (:mod:`repro.enumeration.duplicate_free`):
        a 5-tuple ``(var_assignments, slot_var_masks, prod_lefts,
        prod_rights, slot_prod_masks)`` where ``var_assignments[v]`` is the
        assignment of var-gate ``v``, ``slot_var_masks[s]`` /
        ``slot_prod_masks[s]`` are bitmasks over var-/×-gate indices feeding
        ∪-slot ``s``, and ``prod_lefts[j]`` / ``prod_rights[j]`` are the
        child ∪-slot numbers of ×-gate ``j``.  Shared from an internal plan;
        a leaf's var assignments embed its payload, so they are its own.
    content_hash:
        Content digest of the subtree this box was built for, set by the
        cache-aware build of :mod:`repro.incremental.maintainer`; ``None``
        when the cross-document build cache is off or the content is
        unhashable.  Stored on the (immutable) box so a trunk rebuild
        derives the parent's hash from the children's in O(1).
    targets / shape:
        The box's index entry (Definition 6.1), ``None`` until
        :func:`repro.enumeration.index.build_box_index` runs: the target
        boxes by ordinal (``targets[0]`` is ``None``, standing for the box
        itself) and the shared :class:`~repro.enumeration.index.IndexShape`
        holding everything else.
    """

    __slots__ = (
        "serial",
        "label",
        "leaf_payload",
        "left_child",
        "right_child",
        "plan",
        "state_sig",
        "n_unions",
        "local_mask",
        "left_input_masks",
        "right_input_masks",
        "enum_tables",
        "content_hash",
        "targets",
        "shape",
        "_union_gates",
        "_state_gate",
        "_prod_gates",
        "_var_gates",
    )

    def __init__(
        self,
        label: object,
        plan,
        leaf_payload: Optional[int] = None,
        left_child: Optional["Box"] = None,
        right_child: Optional["Box"] = None,
    ):
        self.serial = next(_BOX_SERIALS)
        self.label = label
        self.leaf_payload = leaf_payload
        self.left_child = left_child
        self.right_child = right_child
        # Struct-of-arrays form: flat tables shared from the plan (a leaf's
        # var assignments excepted); the gate objects are materialized
        # lazily by the properties below.
        self.plan = plan
        self.state_sig: Tuple[int, int] = plan.signature
        self.n_unions: int = plan.n_unions
        self.local_mask: int = plan.local_mask
        self.left_input_masks: Sequence[int] = plan.left_input_masks
        self.right_input_masks: Sequence[int] = plan.right_input_masks
        self.enum_tables: Tuple = plan.enum_tables_for(leaf_payload)
        self.content_hash: Optional[bytes] = None
        self.targets: Optional[Tuple[Optional["Box"], ...]] = None
        self.shape = None
        self._union_gates: Optional[List[UnionGate]] = None
        self._state_gate: Optional[Dict[object, object]] = None
        self._prod_gates: Optional[List[ProdGate]] = None
        self._var_gates: Optional[List[VarGate]] = None

    # ----------------------------------------------------- lazy gate storage
    # The first access to a gate collection materializes just that
    # collection (union/state gates need nothing, ×-gates need only the
    # children's ∪-gates — never a deep recursion).
    @property
    def union_gates(self) -> List[UnionGate]:
        gates = self._union_gates
        if gates is None:
            gates = self.plan.materialize_unions(self)
        return gates

    @property
    def state_gate(self) -> Dict[object, object]:
        if self._state_gate is None:
            self.plan.materialize_unions(self)
        return self._state_gate

    @property
    def prod_gates(self) -> List[ProdGate]:
        gates = self._prod_gates
        if gates is None:
            gates = self.plan.materialize_prods(self)
        return gates

    @property
    def var_gates(self) -> List[VarGate]:
        gates = self._var_gates
        if gates is None:
            gates = self.plan.materialize_vars(self)
        return gates

    # ------------------------------------------------------------------ api
    def is_leaf_box(self) -> bool:
        """Return ``True`` if this box corresponds to a leaf of the v-tree."""
        return self.left_child is None

    def children(self) -> Tuple["Box", ...]:
        """Return the tuple of child boxes (empty for leaf boxes)."""
        if self.is_leaf_box():
            return ()
        return (self.left_child, self.right_child)

    def subtree_boxes(self) -> Iterator["Box"]:
        """Yield the boxes of the subtree rooted here, in preorder."""
        stack = [self]
        while stack:
            box = stack.pop()
            yield box
            if not box.is_leaf_box():
                stack.append(box.right_child)
                stack.append(box.left_child)

    def width(self) -> int:
        """Return the number of ∪-gates of this box (the local width)."""
        return self.n_unions

    def gate_counts(self) -> Tuple[int, int, int]:
        """Return ``(n_union, n_prod, n_var)`` from the plan, without materializing gates."""
        return self.plan.gate_counts()

    def __repr__(self) -> str:  # pragma: no cover
        kind = "leaf" if self.is_leaf_box() else "internal"
        return f"Box(label={self.label!r}, {kind}, unions={self.n_unions})"


class AssignmentCircuit:
    """An assignment circuit of a TVA on a binary tree (Definition 3.3).

    The circuit owns the root box of the tree of boxes, remembers the
    homogenized automaton it was built for, and (when built from an explicit
    :class:`~repro.trees.binary.BinaryTree`) a mapping from tree node ids to
    boxes.  In the incremental pipeline the mapping is maintained by the
    forest-algebra layer instead, and ``box_by_node`` is ``None``.
    """

    def __init__(
        self,
        root_box: Box,
        automaton,
        box_by_node: Optional[Dict[int, Box]] = None,
    ):
        self.root_box = root_box
        self.automaton = automaton
        self.box_by_node = box_by_node

    # ------------------------------------------------------------------ api
    def boxes(self) -> Iterator[Box]:
        """Yield all boxes (preorder over the tree of boxes)."""
        return self.root_box.subtree_boxes()

    def box_of(self, node_id: int) -> Box:
        """Return the box built for the given tree node (static circuits only)."""
        if self.box_by_node is None:
            raise CircuitStructureError("this circuit does not track a node→box mapping")
        return self.box_by_node[node_id]

    def width(self) -> int:
        """Return the circuit width: the maximum number of ∪-gates in a box."""
        return max((box.width() for box in self.boxes()), default=0)

    def depth(self) -> int:
        """Return the depth of the tree of boxes (edges on the longest path)."""
        best = 0
        stack: List[Tuple[Box, int]] = [(self.root_box, 0)]
        while stack:
            box, d = stack.pop()
            best = max(best, d)
            for child in box.children():
                stack.append((child, d + 1))
        return best

    def gate_count(self) -> int:
        """Return the total number of gates (∪, ×, var) in the circuit.

        Counts come from the flat per-box tables (:meth:`Box.gate_counts`),
        so this never materializes the gate objects of plan-built boxes.
        """
        total = 0
        for box in self.boxes():
            n_union, n_prod, n_var = box.gate_counts()
            total += n_union + n_prod + n_var
        return total

    def root_gates(self, final_states: Optional[Iterable[object]] = None) -> List[object]:
        """Return the gates ``γ(root, q)`` for the final states ``q``.

        The satisfying assignments of the automaton are the union of the sets
        captured by these gates (plus the empty assignment when one of them
        is ⊤).
        """
        states = self.automaton.final if final_states is None else final_states
        return [self.root_box.state_gate.get(q, BOTTOM) for q in states]

    def __repr__(self) -> str:  # pragma: no cover
        return f"AssignmentCircuit(width={self.width()}, gates={self.gate_count()})"
