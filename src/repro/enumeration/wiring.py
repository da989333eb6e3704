"""Single-level wire relations between a box and its children.

The relation ``R(child, B)`` restricted to single wires is the base case of
the index construction (Lemma 6.3) and is re-composed on every step of
Algorithm 3.  The wiring is fixed by the box plan (:mod:`repro.circuits.build`)
that built ``B``: the plan carries the transposed masks (child slot → mask of
box slots) and a per-backend cache of the two wire
:class:`~repro.enumeration.relations.Relation` objects, which every box built
from the plan shares.  The cache never goes stale: gates are not rewired
after a box is built — updates rebuild whole boxes (Lemma 7.3) — and
relations are immutable.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits.gates import Box
from repro.enumeration.relations import DEFAULT_BACKEND, Relation

__all__ = ["wire_relation"]


def wire_relation(box: Box, side: str, backend: Optional[str] = None) -> Relation:
    """The wire relation ``R(child, box)`` of an internal box, cached per backend."""
    if backend is None:
        backend = DEFAULT_BACKEND
    plan = box.plan
    rels = plan.wire_rels.get(backend)
    if rels is None:
        left_masks, right_masks = plan.wire_masks
        rels = plan.wire_rels[backend] = (
            Relation.from_masks(len(left_masks), plan.n_unions, left_masks, backend=backend),
            Relation.from_masks(len(right_masks), plan.n_unions, right_masks, backend=backend),
        )
    return rels[0] if side == "left" else rels[1]
