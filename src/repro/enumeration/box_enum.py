"""Box enumeration: naive (Section 5) and index-accelerated (Algorithm 3, Section 6).

Both procedures take a *boxed set* ``Γ`` (a list of ∪-gates of one box) and
yield, for every **interesting box** ``B'`` (a box containing a var- or
×-gate ∪-reachable from ``Γ``), the pair ``(B', R(B', Γ))`` where
``R(B', Γ)`` is the ∪-reachability relation, encoded as a
:class:`~repro.enumeration.relations.Relation` between the slots of ``B'``
and the positions of ``Γ``.  Every interesting box is produced exactly once.

* :func:`naive_box_enum` walks the tree of boxes downward, maintaining the
  relation; its delay is proportional to the depth of the circuit (the
  behaviour Section 5 starts from).
* :func:`indexed_box_enum` is Algorithm 3: it uses the per-box index
  (first interesting box, first bidirectional box, stored relations) to jump
  directly between interesting boxes, so the work between two outputs only
  depends on the circuit width — this is what makes the final delay
  independent of the input tree (Lemma 6.4, Theorem 6.5).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gates import Box, UnionGate
from repro.enumeration.index import fbb_of_mask, fib_of_mask
from repro.enumeration.relations import Relation
from repro.enumeration.wiring import wire_relation
from repro.errors import CircuitStructureError, IndexError_

__all__ = ["naive_box_enum", "indexed_box_enum", "gamma_relation"]


def gamma_relation(gamma: Sequence[UnionGate], backend: Optional[str] = None) -> Relation:
    """The initial relation ``{(g, g) | g ∈ Γ}`` between box slots and Γ positions."""
    if not gamma:
        raise ValueError("the boxed set Γ must be non-empty")
    box = gamma[0].box
    for gate in gamma:
        if gate.box is not box:
            raise CircuitStructureError("a boxed set must contain gates of a single box")
    return Relation(
        box.n_unions,
        len(gamma),
        ((gate.slot, position) for position, gate in enumerate(gamma)),
        backend=backend,
    )


def _is_interesting(box: Box, relation: Relation) -> bool:
    """True iff some ∪-gate of ``box`` related by ``relation`` has a var/×-gate input.

    A single word-AND against the box's ``local_mask`` (recorded at
    construction time) replaces the per-gate ``isinstance`` scan.
    """
    return bool(relation.lower_mask() & box.local_mask)


# --------------------------------------------------------------------------- naive version
def naive_box_enum(
    gamma: Sequence[UnionGate], backend: Optional[str] = None
) -> Iterator[Tuple[Box, Relation]]:
    """Enumerate interesting boxes by walking the circuit downward (Section 5).

    Correct but with delay ``O(depth(C) · poly(w))``; used as the reference
    implementation that Algorithm 3 is tested against.
    """
    gamma = list(gamma)
    box = gamma[0].box
    relation = gamma_relation(gamma, backend=backend)
    stack: List[Tuple[Box, Relation]] = [(box, relation)]
    while stack:
        current, rel = stack.pop()
        if _is_interesting(current, rel):
            yield (current, rel)
        if current.is_leaf_box():
            continue
        for side in ("right", "left"):  # pushed right first so left is handled first
            wire = wire_relation(current, side, rel.backend)
            child_rel = wire.compose(rel)
            if child_rel:
                child = current.left_child if side == "left" else current.right_child
                stack.append((child, child_rel))


# --------------------------------------------------------------------------- Algorithm 3
def indexed_box_enum(
    gamma: Sequence[UnionGate], backend: Optional[str] = None
) -> Iterator[Tuple[Box, Relation]]:
    """Algorithm 3: enumerate interesting boxes using the index.

    The boxes of the circuit must carry their index entries (built by
    :func:`repro.enumeration.index.build_index`).  The enumeration order is
    the one sketched in Figure 1 of the paper: first the subtree of the first
    interesting box, then the right subtrees of the bidirectional boxes on
    the path from the current box down to it.

    The recursion of the paper's presentation is run on an explicit stack of
    ``(kind, box, relation)`` steps — a *descend* step is the body of B-Enum,
    a *walk* step is one iteration of the bidirectional-box walk — so that a
    single ``next()`` performs a bounded number of width-dependent
    operations, with no generator chain proportional to the circuit depth.
    """
    gamma = list(gamma)
    relation = gamma_relation(gamma, backend=backend)
    box = gamma[0].box
    if box.shape is None:
        raise IndexError_("indexed_box_enum requires the index to be built (build_index)")
    #: stack items: (is_walk, box, relation); pushed in reverse of the
    #: paper's order so that popping reproduces it.
    stack: List[Tuple[bool, Box, Relation]] = [(False, box, relation)]
    while stack:
        is_walk, box, relation = stack.pop()
        shape = box.shape
        if shape is None:
            raise IndexError_("indexed_box_enum requires the index to be built (build_index)")
        slot_mask = relation.lower_mask()
        if not slot_mask:
            continue
        backend = relation.backend

        if is_walk:
            # One iteration of the walk over the bidirectional boxes on the
            # path from ``box`` down to its first interesting box (lines 11-16):
            # it continues while the fbb is a proper ancestor of the fib.
            bid = fbb_of_mask(shape, slot_mask)
            if bid < 0:
                continue
            local_first = fib_of_mask(shape, slot_mask)
            if bid == local_first or not shape.is_ancestor(bid, local_first):
                continue
            bidirectional = box.targets[bid] if bid else box
            rel_bidirectional = shape.relations[bid].compose(relation)
            rel_right = wire_relation(bidirectional, "right", backend).compose(rel_bidirectional)
            rel_left = wire_relation(bidirectional, "left", backend).compose(rel_bidirectional)
            # Continue the walk from the left child; enumerate the right
            # subtree first (popped before the walk continuation).
            if rel_left:
                stack.append((True, bidirectional.left_child, rel_left))
            if rel_right:
                stack.append((False, bidirectional.right_child, rel_right))
            continue

        # ---- first interesting box (lines 4-6)
        ordinal = fib_of_mask(shape, slot_mask)
        if ordinal:
            first_interesting = box.targets[ordinal]
            rel_first = shape.relations[ordinal].compose(relation)
        else:
            first_interesting = box
            rel_first = relation
        # after the subtree of the first interesting box, walk the
        # bidirectional boxes from ``box`` (popped last)
        stack.append((True, box, relation))
        # ---- everything below the first interesting box (lines 7-10)
        if not first_interesting.is_leaf_box():
            rel_r = wire_relation(first_interesting, "right", backend).compose(rel_first)
            rel_l = wire_relation(first_interesting, "left", backend).compose(rel_first)
            if rel_r:
                stack.append((False, first_interesting.right_child, rel_r))
            if rel_l:
                stack.append((False, first_interesting.left_child, rel_l))
        yield (first_interesting, rel_first)
