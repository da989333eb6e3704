"""Cached single-level wire relations between a box and its children.

The relation ``R(child, B)`` restricted to single wires is the base case of
the index construction (Lemma 6.3) and is re-composed on every step of
Algorithm 3.  The wiring itself is recorded at construction time: boxes
built from a box plan (:mod:`repro.circuits.build`) reference the plan,
which carries the transposed masks (child slot → mask of box slots) and a
per-backend cache of the two wire :class:`~repro.enumeration.relations.Relation`
objects — every box built from the same plan shares them.  Boxes built
gate-by-gate fall back to transposing their per-slot input masks here, with
the result interned by content and cached on the box.  No cache ever goes
stale: gates are not rewired after a box is built — updates rebuild whole
boxes (Lemma 7.3) — and relations are immutable.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.circuits.gates import Box
from repro.enumeration.relations import DEFAULT_BACKEND, Relation

__all__ = ["wire_relation"]

#: content-interned wire relations (fallback path): keyed by
#: (n_lower, n_upper, masks, backend).  Within one circuit the number of
#: distinct wiring patterns is tiny compared to the number of boxes, but a
#: long-lived process building many distinct circuits would accumulate
#: entries forever, so the cache is capped (FIFO, like _COMPILED_QUERIES);
#: an evicted entry only costs a re-intern on the next miss.
_INTERNED: Dict[Tuple, Relation] = {}
_INTERNED_LIMIT = 1024


def wire_relation(box: Box, side: str, backend: Optional[str] = None) -> Relation:
    """The wire relation ``R(child, box)`` for the given side, cached per backend."""
    if backend is None:
        backend = DEFAULT_BACKEND
    plan = box.wire_plan
    if plan is not None:
        rels = plan.wire_rels.get(backend)
        if rels is None:
            left_masks, right_masks = plan.wire_masks
            n_upper = len(plan.left_input_masks)
            rels = (
                Relation.from_masks(len(left_masks), n_upper, left_masks, backend=backend),
                Relation.from_masks(len(right_masks), n_upper, right_masks, backend=backend),
            )
            plan.wire_rels[backend] = rels
        return rels[0] if side == "left" else rels[1]

    key = (side, backend)
    cached = box.wire_cache.get(key)
    if cached is not None:
        return cached
    child = box.left_child if side == "left" else box.right_child
    upper_masks = box.left_input_masks if side == "left" else box.right_input_masks
    transposed = [0] * child.n_unions
    for box_slot, mask in enumerate(upper_masks):
        while mask:
            low = mask & -mask
            transposed[low.bit_length() - 1] |= 1 << box_slot
            mask ^= low
    masks = tuple(transposed)
    intern_key = (len(masks), box.n_unions, masks, backend)
    relation = _INTERNED.get(intern_key)
    if relation is None:
        relation = Relation.from_masks(len(masks), box.n_unions, masks, backend=backend)
        if len(_INTERNED) >= _INTERNED_LIMIT:
            _INTERNED.pop(next(iter(_INTERNED)))
        _INTERNED[intern_key] = relation
    box.wire_cache[key] = relation
    return relation
