"""Validation and statistics for complete structured DNNFs (Definitions 3.4–3.6).

``validate_circuit`` checks every requirement the enumeration algorithms rely
on:

* fan-in rules of set circuits (×-gates have 2 inputs, ∪-gates ≥ 1, ⊤/⊥/var
  gates have none — the latter holds by construction since ⊤/⊥ are sentinels
  and var-gates store no inputs);
* ⊤ and ⊥ are never used as inputs (they only appear in ``state_gate``);
* structuring: every input of a gate is either in the same box or is a
  ∪-gate of a child box; the two inputs of a ×-gate are ∪-gates of the left
  and right child boxes respectively; var-gates only occur in leaf boxes and
  their variables mention only that leaf;
* the extra normalization assumed by the index of Section 6: no ∪→∪ wire
  stays within a single box;
* every ∪-gate is the value ``γ(n, q)`` for its state, and slots are
  consistent with the box's gate list.

``circuit_stats`` reports width, depth, gate counts and the per-box maxima
used to check the width bound of Lemma 3.7 (width ≤ |Q|, ×-gates ≤ width²).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import (
    BOTTOM,
    TOP,
    AssignmentCircuit,
    Box,
    ProdGate,
    UnionGate,
    VarGate,
)
from repro.errors import CircuitStructureError

__all__ = ["validate_circuit", "circuit_stats", "CircuitStats"]


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics of an assignment circuit."""

    boxes: int
    width: int
    depth: int
    union_gates: int
    prod_gates: int
    var_gates: int
    max_prod_gates_in_box: int
    max_fan_in: int

    def gate_count(self) -> int:
        """Total number of (non-sentinel) gates."""
        return self.union_gates + self.prod_gates + self.var_gates


def _validate_box(box: Box) -> None:
    children = box.children()
    for slot, gate in enumerate(box.union_gates):
        if gate.slot != slot or gate.box is not box:
            raise CircuitStructureError("∪-gate slot bookkeeping is inconsistent")
        if not gate.inputs:
            raise CircuitStructureError("∪-gate with no inputs")
        for inp in gate.inputs:
            if inp is TOP or inp is BOTTOM:
                raise CircuitStructureError("⊤/⊥ used as input of a ∪-gate")
            if isinstance(inp, UnionGate):
                if inp.box is box:
                    raise CircuitStructureError(
                        "∪→∪ wire inside a box (normalization assumed by the index)"
                    )
                if inp.box not in children:
                    raise CircuitStructureError("∪-gate input from a non-child box")
            elif isinstance(inp, (VarGate, ProdGate)):
                if inp.box is not box:
                    raise CircuitStructureError("var/×-gate input from a different box")
            else:
                raise CircuitStructureError(f"unknown input object {inp!r}")
    for gate in box.prod_gates:
        if box.is_leaf_box():
            raise CircuitStructureError("×-gate in a leaf box")
        if not isinstance(gate.left, UnionGate) or not isinstance(gate.right, UnionGate):
            raise CircuitStructureError("×-gate inputs must be ∪-gates")
        if gate.left.box is not box.left_child or gate.right.box is not box.right_child:
            raise CircuitStructureError(
                "×-gate inputs must be ∪-gates of the left and right child boxes"
            )
    for gate in box.var_gates:
        if not box.is_leaf_box():
            raise CircuitStructureError("var-gate in an internal box")
        payload_nodes = {node_id for _var, node_id in gate.assignment}
        if payload_nodes and payload_nodes != {box.leaf_payload}:
            raise CircuitStructureError("var-gate mentions a different leaf than its box")
        if not gate.assignment:
            raise CircuitStructureError("var-gate with an empty variable set")
    # Svar injectivity within the box.
    assignments = [g.assignment for g in box.var_gates]
    if len(assignments) != len(set(assignments)):
        raise CircuitStructureError("two var-gates of the same box share the same Svar")
    # state_gate values must be gates of this box or sentinels.
    for state, gate in box.state_gate.items():
        if gate is TOP or gate is BOTTOM:
            continue
        if not isinstance(gate, UnionGate) or gate.box is not box:
            raise CircuitStructureError("state_gate must map to ⊤, ⊥ or a ∪-gate of the box")


def validate_circuit(circuit: AssignmentCircuit) -> None:
    """Validate all structured-DNNF invariants; raise :class:`CircuitStructureError`."""
    width_bound = len(circuit.automaton.states)
    for box in circuit.boxes():
        _validate_box(box)
        if box.width() > width_bound:
            raise CircuitStructureError(
                f"box width {box.width()} exceeds |Q| = {width_bound} (Lemma 3.7)"
            )
        if len(box.prod_gates) > width_bound * width_bound:
            raise CircuitStructureError("box has more than width² ×-gates")


def circuit_stats(circuit: AssignmentCircuit) -> CircuitStats:
    """Compute summary statistics of the circuit."""
    boxes = 0
    width = 0
    unions = 0
    prods = 0
    var_gates = 0
    max_prods = 0
    max_fan_in = 0
    for box in circuit.boxes():
        boxes += 1
        width = max(width, box.width())
        unions += len(box.union_gates)
        prods += len(box.prod_gates)
        var_gates += len(box.var_gates)
        max_prods = max(max_prods, len(box.prod_gates))
        for gate in box.union_gates:
            max_fan_in = max(max_fan_in, len(gate.inputs))
    return CircuitStats(
        boxes=boxes,
        width=width,
        depth=circuit.depth(),
        union_gates=unions,
        prod_gates=prods,
        var_gates=var_gates,
        max_prod_gates_in_box=max_prods,
        max_fan_in=max_fan_in,
    )
