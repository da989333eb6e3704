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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    "child_wire_pairs",
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

    For gates of plan-built boxes the ``inputs`` tuple is **lazy**: the box
    plan knows the wiring as flat (source, index) descriptors, so the input
    gate objects are only created when something actually walks them (the
    generic relation-based enumeration, validation, tests).  The mask-native
    hot paths read the stamped ``Box.enum_tables`` / wiring masks instead and
    never touch ``inputs``.
    """

    __slots__ = ("box", "slot", "state", "_inputs")

    def __init__(
        self,
        box: "Box",
        slot: int,
        state: object,
        inputs: Optional[Tuple[object, ...]] = None,
    ):
        self.box = box
        self.slot = slot
        self.state = state
        self._inputs = inputs

    @property
    def inputs(self) -> Tuple[object, ...]:
        inputs = self._inputs
        if inputs is None:
            inputs = self.box.build_plan.gate_inputs(self.box, self.slot)
            self._inputs = inputs
        return inputs

    @inputs.setter
    def inputs(self, value: Tuple[object, ...]) -> None:
        self._inputs = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnionGate(slot={self.slot}, state={self.state!r}, fan_in={len(self.inputs)})"


class Box:
    """One box of a complete structured DNNF = one node of the v-tree.

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
    union_gates:
        The ∪-gates of the box, indexed by their ``slot``.
    state_gate:
        The mapping ``q ↦ γ(n, q)``; values are :class:`UnionGate`, ``TOP``
        or ``BOTTOM``.
    prod_gates / var_gates:
        The ×-gates and var-gates of the box (for statistics and validation).
    local_mask / left_input_masks / right_input_masks:
        The box's ∪-wiring, recorded once at construction time (when a
        ∪-gate is added): a bitmask over slots whose gate has a local
        (var-/×-gate) input, and per-slot bitmasks of the left/right child
        slots wired into it.  The index construction (Lemma 6.3) and
        Algorithm 3 read these instead of rescanning ``gate.inputs`` with
        ``isinstance``.
    wire_cache:
        Per-(side, backend) cache of the single-level wire
        :class:`~repro.enumeration.relations.Relation` to each child
        (filled lazily by :func:`repro.enumeration.wiring.wire_relation`).
        Safe to cache because gates are never rewired after construction —
        updates rebuild whole boxes (Lemma 7.3).
    enum_tables:
        The flattened per-box gate tables read by the mask-native
        enumeration of Algorithm 2 (:mod:`repro.enumeration.duplicate_free`):
        a 5-tuple ``(var_assignments, slot_var_masks, prod_lefts,
        prod_rights, slot_prod_masks)`` where ``var_assignments[v]`` is the
        assignment of var-gate ``v``, ``slot_var_masks[s]`` /
        ``slot_prod_masks[s]`` are bitmasks over var-/×-gate indices feeding
        ∪-slot ``s``, and ``prod_lefts[j]`` / ``prod_rights[j]`` are the
        child ∪-slot numbers of ×-gate ``j``.  Stamped at construction time
        by :mod:`repro.circuits.build`; computed lazily (once per box) by
        :meth:`enumeration_tables` for hand-built boxes.
    index:
        The :class:`repro.enumeration.index.BoxIndex` attached by the
        preprocessing of Section 6 (``None`` until it is built).
    """

    __slots__ = (
        "serial",
        "label",
        "leaf_payload",
        "left_child",
        "right_child",
        "_union_gates",
        "_state_gate",
        "_prod_gates",
        "_var_gates",
        "n_unions",
        "left_input_masks",
        "right_input_masks",
        "local_mask",
        "_wire_cache",
        "wire_plan",
        "build_plan",
        "state_sig",
        "enum_tables",
        "content_hash",
        "index",
    )

    def __init__(
        self,
        label: object,
        leaf_payload: Optional[int] = None,
        left_child: Optional["Box"] = None,
        right_child: Optional["Box"] = None,
        planned: bool = False,
    ):
        #: monotonic build serial (see _BOX_SERIALS): the box's stable name
        #: in cursor dependency masks, maintainer delta reports and the wire
        #: codec — never recycled, unlike id().
        self.serial = next(_BOX_SERIALS)
        self.label = label
        self.leaf_payload = leaf_payload
        self.left_child = left_child
        self.right_child = right_child
        if planned:
            # Struct-of-arrays form: the builder stamps flat tables
            # (n_unions, masks, enum_tables) and a build plan; the gate
            # *objects* are materialized lazily by the properties below.
            self._union_gates: Optional[List[UnionGate]] = None
            self._state_gate: Optional[Dict[object, object]] = None
            self._prod_gates: Optional[List[ProdGate]] = None
            self._var_gates: Optional[List[VarGate]] = None
        else:
            self._union_gates = []
            self._state_gate = {}
            self._prod_gates = []
            self._var_gates = []
        self.n_unions: int = 0
        # Plan-built boxes share their plan's mask tuples (a leaf has no
        # child wiring at all); hand-built ones fill lists gate by gate.
        self.left_input_masks: Sequence[int] = () if planned else []
        self.right_input_masks: Sequence[int] = () if planned else []
        self.local_mask: int = 0
        self._wire_cache: Optional[Dict[Tuple[str, str], object]] = None
        #: the internal box plan that built this box (carries precomputed
        #: transposed wire masks and shared wire relations); None when built
        #: gate-by-gate and for leaf boxes.
        self.wire_plan: Optional[object] = None
        #: the plan (leaf or internal) that can materialize this box's gate
        #: objects on demand; None for hand-built boxes.
        self.build_plan: Optional[object] = None
        #: state signature stamped by the box plan that built this box: the
        #: masks of its present (non-⊥) and ⊤ states, bit i standing for
        #: the automaton's i-th state in canonical order (see
        #: repro.circuits.build); None for hand-built boxes.
        self.state_sig: Optional[Tuple[int, int]] = None
        #: flattened gate tables for mask-native enumeration (see class docs);
        #: None until stamped by the builder or computed by enumeration_tables.
        self.enum_tables: Optional[Tuple] = None
        #: content digest of the subtree this box was built for, set by the
        #: cache-aware build of repro.incremental.maintainer; None when the
        #: cross-document build cache is off or the content is unhashable.
        #: Stored on the (immutable) box so a trunk rebuild derives the
        #: parent's hash from the children's in O(1).
        self.content_hash: Optional[bytes] = None
        self.index = None

    # ----------------------------------------------------- lazy gate storage
    # Plan-built boxes start as pure struct-of-arrays (flat masks + tables);
    # the first access to a gate collection materializes just that collection
    # (union/state gates need nothing, ×-gates need only the children's
    # ∪-gates — never a deep recursion).  Hand-built boxes get the eager
    # lists from __init__ and never hit the plan.
    @property
    def union_gates(self) -> List[UnionGate]:
        gates = self._union_gates
        if gates is None:
            gates = self.build_plan.materialize_unions(self)
        return gates

    @union_gates.setter
    def union_gates(self, value: List[UnionGate]) -> None:
        self._union_gates = value

    @property
    def state_gate(self) -> Dict[object, object]:
        mapping = self._state_gate
        if mapping is None:
            self.build_plan.materialize_unions(self)
            mapping = self._state_gate
        return mapping

    @state_gate.setter
    def state_gate(self, value: Dict[object, object]) -> None:
        self._state_gate = value

    @property
    def prod_gates(self) -> List[ProdGate]:
        gates = self._prod_gates
        if gates is None:
            gates = self.build_plan.materialize_prods(self)
        return gates

    @prod_gates.setter
    def prod_gates(self, value: List[ProdGate]) -> None:
        self._prod_gates = value

    @property
    def var_gates(self) -> List[VarGate]:
        gates = self._var_gates
        if gates is None:
            gates = self.build_plan.materialize_vars(self)
        return gates

    @var_gates.setter
    def var_gates(self, value: List[VarGate]) -> None:
        self._var_gates = value

    @property
    def wire_cache(self) -> Dict[Tuple[str, str], object]:
        cache = self._wire_cache
        if cache is None:
            cache = self._wire_cache = {}
        return cache

    # ------------------------------------------------------------------ api
    def is_leaf_box(self) -> bool:
        """Return ``True`` if this box corresponds to a leaf of the v-tree."""
        return self.left_child is None

    def add_union_gate(self, state: object, inputs: Iterable[object]) -> UnionGate:
        """Create a ∪-gate in this box with the given inputs and register it.

        The gate's wiring is classified once, here, into ``local_mask`` and
        the per-slot child masks; every later consumer (index construction,
        Algorithm 3) reads those masks instead of re-walking ``inputs``.
        (Boxes built from a box plan get their gates and masks stamped
        directly by :mod:`repro.circuits.build` instead.)
        """
        inputs = tuple(inputs)
        if not inputs:
            raise CircuitStructureError("∪-gates must have at least one input")
        if self.state_sig is not None or self.wire_plan is not None or self.build_plan is not None:
            # Plan-built boxes share their plan's stamped tuples (input masks,
            # enum_tables, state_sig); mutating one would either crash on the
            # shared tuples or silently stale the stamped tables — updates
            # rebuild whole boxes instead (Lemma 7.3).
            raise CircuitStructureError(
                "cannot add gates to a plan-built box; rebuild the box instead"
            )
        self.enum_tables = None  # invalidate lazily computed tables, if any
        slot = len(self.union_gates)
        gate = UnionGate(self, slot, state, inputs)
        has_local = False
        left_mask = 0
        right_mask = 0
        for inp in inputs:
            if isinstance(inp, (VarGate, ProdGate)):
                has_local = True
            elif isinstance(inp, UnionGate):
                if inp.box is self.left_child:
                    left_mask |= 1 << inp.slot
                elif inp.box is self.right_child:
                    right_mask |= 1 << inp.slot
                else:
                    raise CircuitStructureError("∪-gate input from a non-child box")
            else:
                raise CircuitStructureError(f"unexpected input gate {inp!r}")
        self.union_gates.append(gate)
        self.n_unions = slot + 1
        if has_local:
            self.local_mask |= 1 << slot
        self.left_input_masks.append(left_mask)
        self.right_input_masks.append(right_mask)
        return gate

    def add_prod_gate(self, left: UnionGate, right: UnionGate) -> ProdGate:
        """Create a ×-gate in this box and register it."""
        gate = ProdGate(self, left, right)
        self.prod_gates.append(gate)
        return gate

    def add_var_gate(self, assignment: Assignment) -> VarGate:
        """Create a var-gate in this box and register it."""
        gate = VarGate(self, assignment)
        self.var_gates.append(gate)
        return gate

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
        """Return the number of ∪-gates of this box (the local width).

        Maintained as a plain counter so the hot paths (index construction,
        Algorithm 3, the mask-native stack) never materialize the gate
        objects of a plan-built box just to take a length.
        """
        return self.n_unions

    def gate_counts(self) -> Tuple[int, int, int]:
        """Return ``(n_union, n_prod, n_var)`` without materializing gates.

        Plan-built boxes answer from the plan's flat tables; hand-built boxes
        from their eager gate lists.
        """
        plan = self.build_plan
        if plan is not None:
            return plan.gate_counts(self)
        return (len(self._union_gates), len(self._prod_gates), len(self._var_gates))

    def enumeration_tables(self) -> Tuple:
        """Return the flattened gate tables used by mask-native enumeration.

        ``(var_assignments, slot_var_masks, prod_lefts, prod_rights,
        slot_prod_masks)`` — see the class docstring.  Boxes built by the box
        plans of :mod:`repro.circuits.build` get the tables stamped at
        construction time; this fallback walks ``gate.inputs`` exactly once
        per hand-built box, so enumeration itself never rescans inputs or
        dispatches on gate types.
        """
        tables = self.enum_tables
        if tables is not None:
            return tables
        var_index: Dict[int, int] = {}
        prod_index: Dict[int, int] = {}
        var_assignments: List[Assignment] = []
        prod_lefts: List[int] = []
        prod_rights: List[int] = []
        slot_var_masks: List[int] = []
        slot_prod_masks: List[int] = []
        for gate in self.union_gates:
            var_mask = 0
            prod_mask = 0
            for inp in gate.inputs:
                if isinstance(inp, VarGate):
                    idx = var_index.get(id(inp))
                    if idx is None:
                        idx = len(var_assignments)
                        var_index[id(inp)] = idx
                        var_assignments.append(inp.assignment)
                    var_mask |= 1 << idx
                elif isinstance(inp, ProdGate):
                    idx = prod_index.get(id(inp))
                    if idx is None:
                        idx = len(prod_lefts)
                        prod_index[id(inp)] = idx
                        prod_lefts.append(inp.left.slot)
                        prod_rights.append(inp.right.slot)
                    prod_mask |= 1 << idx
            slot_var_masks.append(var_mask)
            slot_prod_masks.append(prod_mask)
        tables = (
            tuple(var_assignments),
            tuple(slot_var_masks),
            tuple(prod_lefts),
            tuple(prod_rights),
            tuple(slot_prod_masks),
        )
        self.enum_tables = tables
        return tables

    def __repr__(self) -> str:  # pragma: no cover
        kind = "leaf" if self.is_leaf_box() else "internal"
        return f"Box(label={self.label!r}, {kind}, unions={self.n_unions})"


def child_wire_pairs(box: Box, side: str) -> FrozenSet[Tuple[int, int]]:
    """Return the ∪-wire relation between a child box and ``box``.

    The result is the set of pairs ``(child_slot, box_slot)`` such that the
    ∪-gate ``child_slot`` of the chosen child box is an input of the ∪-gate
    ``box_slot`` of ``box`` — i.e. the relation ``R(child, box)`` restricted
    to single wires, which is the base case of the index construction
    (Lemma 6.3) and of Algorithm 3.
    """
    if box.is_leaf_box():
        return frozenset()
    masks = box.left_input_masks if side == "left" else box.right_input_masks
    pairs = set()
    for box_slot, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            pairs.add((low.bit_length() - 1, box_slot))
            mask ^= low
    return frozenset(pairs)


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
