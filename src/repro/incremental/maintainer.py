"""Incremental maintenance of assignment circuits over forest-algebra terms.

This module glues the circuit construction (Lemma 3.7), the enumeration index
(Lemma 6.3) and the balanced-term maintenance (Section 7) together, which is
exactly the content of Lemma 7.3:

* every term node carries the circuit **box** built for it (``TermNode.box``),
  and every box carries its own index entry (``Box.targets`` and
  ``Box.shape``): one record per built node;
* the initial build walks the term bottom-up and builds one indexed box per
  node — time ``O(|T| · poly|Q'|)``;
* after an edit, the :class:`~repro.forest_algebra.maintenance.UpdateReport`
  lists the trunk (dirty term nodes, bottom-up); the maintainer rebuilds
  exactly those boxes with their index entries, reusing every untouched
  subtree, in time ``O(trunk · poly|Q'|)`` — logarithmic in the tree for
  non-rebalancing updates and amortized logarithmic overall;
* while it rebuilds, it records per replaced box which ∪-slots' reachable
  content changed (:class:`BoxDelta`), which is what the serving layer's
  cursors resume or invalidate on.

Enumeration after an update restarts from the (possibly new) root box, as the
paper's model prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.automata.binary_tva import BinaryTVA
from repro.circuits.build import (
    BuildCache,
    _bit_indices,
    automaton_digest,
    build_internal_box,
    build_leaf_box,
    internal_content_hash,
    leaf_content_hash,
)
from repro.circuits.gates import AssignmentCircuit, Box
from repro.enumeration.assignment_iter import CircuitEnumerator
from repro.enumeration.index import build_box_index
from repro.enumeration.relations import DEFAULT_BACKEND, validate_backend
from repro.errors import CircuitStructureError
from repro.forest_algebra.maintenance import MaintainedTerm, UpdateReport
from repro.forest_algebra.terms import TermNode

__all__ = [
    "build_circuit_over_term",
    "BoxDelta",
    "box_changed_mask",
    "IncrementalCircuitMaintainer",
]


@dataclass(frozen=True)
class BoxDelta:
    """One replaced trunk box of an edit batch, with its changed-slot mask.

    ``changed_mask`` has bit ``s`` set iff the content reachable from ∪-slot
    ``s`` differs between ``old_box`` and ``new_box`` — where "content" is
    the slot's *fingerprint*: its child wiring masks, its local var-gate
    assignments and ×-gate child-slot pairs (at their global table indices,
    so an interleave change across slots registers as changed), and,
    recursively, the fingerprints of every child slot it references.  A slot
    absent from either side (the widths differ) is always changed.

    The mask is what makes the serving layer's cursor trunk test
    fine-grained: a paused enumeration whose remaining reads
    (:meth:`~repro.enumeration.duplicate_free.MaskStackEnumeration.dependency_masks`)
    avoid every changed slot produces a byte-identical remaining stream over
    ``new_box``, because every index query and gate-table read it can still
    perform is determined by the reachable-slot fingerprints.  The index
    answers those queries with ordinals that are local to one entry (see
    :mod:`repro.enumeration.index`) and resolved to boxes within the same
    lookup; an enumeration frame never holds one, so renumbered targets in
    ``new_box``'s entry cannot shift the remaining stream.
    """

    old_serial: int
    old_box: Box
    new_box: Box
    changed_mask: int


def _child_changed_mask(old_child: Box, new_child: Box, deltas: Dict[int, "BoxDelta"]) -> int:
    """Changed-slot mask between a replaced box's old and new child.

    ``deltas`` holds this batch's deltas keyed by old-box serial; the trunk
    is processed bottom-up, so a rebuilt child's delta is already there.  A
    child pair that is the same object (untouched subtree, Lemma 7.3) or
    content-hash-equal is unchanged everywhere; anything else — e.g. a
    rebalancing rotation that gave the rebuilt parent a different
    pre-existing child — conservatively counts as changed everywhere.
    """
    if old_child is new_child:
        return 0
    delta = deltas.get(old_child.serial)
    if delta is not None and delta.new_box is new_child:
        return delta.changed_mask
    old_hash = old_child.content_hash
    if old_hash is not None and old_hash == new_child.content_hash:
        return 0
    return -1  # all slots


def box_changed_mask(old: Box, new: Box, deltas: Dict[int, "BoxDelta"]) -> int:
    """Compute the per-slot changed mask between a box and its replacement.

    Slots are compared positionally (the cursor's dependency masks are over
    the old box's slot numbering, which survival pins to the new box's); the
    mask covers ``max`` of the two widths so a vanished slot reads as
    changed.  See :class:`BoxDelta` for what "unchanged" guarantees.
    """
    if old is new:
        return 0
    old_hash = old.content_hash
    if old_hash is not None and old_hash == new.content_hash:
        return 0
    old_n = old.n_unions
    new_n = new.n_unions
    full = (1 << max(old_n, new_n)) - 1
    is_leaf = old.is_leaf_box()
    if is_leaf != new.is_leaf_box():
        return full
    old_tables = old.enum_tables
    new_tables = new.enum_tables
    old_vars, old_var_masks = old_tables[0], old_tables[1]
    new_vars, new_var_masks = new_tables[0], new_tables[1]
    # The automaton state of each ∪-slot is part of the slot fingerprint,
    # because the cursor's root boxed set was *selected* by final states:
    # positional wiring equality alone could in principle pair a slot with
    # a different state's γ-gate.  The ∪-slots are the present non-⊤ states
    # of the stamped signature, in canonical order; equal signatures (two
    # int pairs) give equal slot states, so the per-slot comparison is
    # skipped.
    old_sig = old.state_sig
    new_sig = new.state_sig
    same_states = old_sig == new_sig
    if not same_states:
        old_states = _bit_indices(old_sig[0] & ~old_sig[1])
        new_states = _bit_indices(new_sig[0] & ~new_sig[1])
    if is_leaf:
        left_changed = right_changed = 0
        old_prod_masks = new_prod_masks = None
    else:
        left_changed = _child_changed_mask(old.left_child, new.left_child, deltas)
        right_changed = _child_changed_mask(old.right_child, new.right_child, deltas)
        old_prod_lefts, old_prod_rights, old_prod_masks = old_tables[2:5]
        new_prod_lefts, new_prod_rights, new_prod_masks = new_tables[2:5]
        old_left, old_right = old.left_input_masks, old.right_input_masks
        new_left, new_right = new.left_input_masks, new.right_input_masks
    changed = 0
    for s in range(max(old_n, new_n)):
        bit = 1 << s
        if s >= old_n or s >= new_n:
            changed |= bit
            continue
        if not same_states and old_states[s] != new_states[s]:
            changed |= bit
            continue
        # Gate tables of all-var or all-prod boxes stamp the absent kind as
        # an empty tuple rather than a row of zeros; index defensively.
        vm = old_var_masks[s] if old_var_masks else 0
        if vm != (new_var_masks[s] if new_var_masks else 0):
            changed |= bit
            continue
        equal = True
        while vm:
            low = vm & -vm
            i = low.bit_length() - 1
            vm ^= low
            if old_vars[i] != new_vars[i]:
                equal = False
                break
        if is_leaf:
            if not equal:
                changed |= bit
            continue
        if old_left[s] != new_left[s] or old_right[s] != new_right[s]:
            changed |= bit
            continue
        pm = old_prod_masks[s] if old_prod_masks else 0
        if pm != (new_prod_masks[s] if new_prod_masks else 0):
            changed |= bit
            continue
        left_refs = old_left[s]
        right_refs = old_right[s]
        while equal and pm:
            low = pm & -pm
            j = low.bit_length() - 1
            pm ^= low
            lslot = old_prod_lefts[j]
            rslot = old_prod_rights[j]
            if lslot != new_prod_lefts[j] or rslot != new_prod_rights[j]:
                equal = False
                break
            left_refs |= 1 << lslot
            right_refs |= 1 << rslot
        if not equal or (left_refs & left_changed) or (right_refs & right_changed):
            changed |= bit
    return changed


def _build_box_for_node(node: TermNode, automaton: BinaryTVA) -> Box:
    """Build the circuit box of one term node from its children's boxes."""
    if node.is_leaf():
        return build_leaf_box(node.alphabet_label(), node.tree_node_id, automaton)
    left_box = node.left.box
    right_box = node.right.box
    if left_box is None or right_box is None:
        raise CircuitStructureError("children must carry boxes before their parent is built")
    return build_internal_box(node.alphabet_label(), left_box, right_box, automaton)


def _build_node(
    node: TermNode,
    automaton: BinaryTVA,
    relation_backend: Optional[str],
    cache: Optional[BuildCache],
) -> Box:
    """Build (or fetch from the cross-document cache) one node's box + index.

    A cache hit skips both the box instantiation *and* the per-box index
    construction of Lemma 6.3 — for a repeated subtree the whole built
    subtree (boxes, masks, relations, ordinal tables) is shared.  The content
    hash of an internal node derives from the children's ``box.content_hash``
    in O(1), so trunk rebuilds keep their logarithmic bound.  Hashes live on
    the immutable boxes rather than the term nodes because term nodes are
    mutated in place during rebalancing.  On a miss the same cache serves
    the box's index shape (see :mod:`repro.enumeration.index`), which
    repeats far more often than whole subtrees do.
    """
    content = None
    key = None
    if cache is not None and not cache.enabled:
        cache = None
    if cache is not None:
        if node.is_leaf():
            content = leaf_content_hash(*node.content_signature())
        else:
            left_box = node.left.box
            right_box = node.right.box
            content = internal_content_hash(
                node.content_signature(),
                None if left_box is None else left_box.content_hash,
                None if right_box is None else right_box.content_hash,
            )
        if content is not None:
            key = (
                automaton_digest(automaton),
                relation_backend or DEFAULT_BACKEND,
                content,
            )
            hit = cache.get(key)
            if hit is not None:
                return hit
    box = _build_box_for_node(node, automaton)
    box.content_hash = content
    build_box_index(box, relation_backend=relation_backend, shapes=cache)
    if key is not None:
        cache.put(key, box)
    return box


def build_circuit_over_term(
    term: TermNode,
    automaton: BinaryTVA,
    relation_backend: Optional[str] = None,
    build_cache: Optional[BuildCache] = None,
) -> AssignmentCircuit:
    """Build the assignment circuit and its index of ``automaton`` over a term.

    Boxes are attached to the term nodes (``TermNode.box``) so that later
    updates can reuse them; the returned :class:`AssignmentCircuit` is a view
    rooted at the term root's box.  When a :class:`BuildCache` is supplied,
    every subtree is first looked up by content — repeated structure across
    documents builds once.
    """
    # Bottom-up (post-order) traversal without recursion.
    order: List[TermNode] = []
    stack: List[tuple] = [(term, False)]
    while stack:
        node, visited = stack.pop()
        if visited or node.is_leaf():
            order.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    for node in order:
        node.box = _build_node(node, automaton, relation_backend, build_cache)
    return AssignmentCircuit(term.box, automaton, box_by_node=None)


class IncrementalCircuitMaintainer:
    """Keep an assignment circuit and its index in sync with a maintained term."""

    def __init__(
        self,
        term: MaintainedTerm,
        automaton: BinaryTVA,
        relation_backend: Optional[str] = None,
        build_cache: Optional[BuildCache] = None,
    ):
        self.term = term
        self.automaton = automaton
        if relation_backend is not None:
            validate_backend(relation_backend)  # fail fast, before the build
        self.relation_backend = relation_backend
        self.build_cache = build_cache
        self.version = 0
        #: the boxes replaced by the most recent apply_report call (the old
        #: trunk): old-box serial → :class:`BoxDelta` with the per-slot
        #: changed mask, computed inline during the bottom-up rebuild
        #: (children before parents, so a parent's mask can consult its
        #: rebuilt children's).
        self.last_replaced_deltas: Dict[int, BoxDelta] = {}
        #: observability hooks (both optional).  ``on_update_seconds`` is
        #: called with the wall-clock duration of each :meth:`apply_report`
        #: (the per-edit trunk rebuild of Lemma 7.3, feeding the
        #: ``update_apply_seconds`` histogram); ``on_delay`` is copied onto
        #: every enumerator this maintainer hands out, sampling per-answer
        #: delay (see :class:`repro.obs.DelayMonitor`).
        self.on_update_seconds = None
        self.on_delay = None
        build_circuit_over_term(
            term.root, automaton, relation_backend=relation_backend, build_cache=build_cache
        )

    # ------------------------------------------------------------------ views
    @property
    def root_box(self) -> Box:
        """The box of the current term root (changes when the root is replaced)."""
        return self.term.root.box

    def circuit(self) -> AssignmentCircuit:
        """A circuit view rooted at the current root box."""
        return AssignmentCircuit(self.root_box, self.automaton, box_by_node=None)

    def enumerator(self) -> CircuitEnumerator:
        """A fresh enumerator over the current circuit (no re-preprocessing)."""
        enumerator = CircuitEnumerator(
            self.circuit(), relation_backend=self.relation_backend, build=False
        )
        enumerator.on_delay = self.on_delay
        return enumerator

    # ---------------------------------------------------------------- updates
    def apply_report(self, report: UpdateReport) -> int:
        """Rebuild the boxes and index entries of the trunk of an update.

        Returns the number of boxes rebuilt (the trunk size), the quantity
        Lemma 7.3 bounds by ``O(log |T|)`` per update.  For each box the
        trunk *replaced* (new term nodes contribute none),
        :attr:`last_replaced_deltas` records which ∪-slots' reachable
        content actually changed (:class:`BoxDelta`): the serving layer
        intersects those masks with the slot masks a paused cursor can still
        read to decide, per cursor, between resuming and invalidating.
        """
        on_update = self.on_update_seconds
        start = perf_counter() if on_update is not None else 0.0
        rebuilt = 0
        deltas: Dict[int, BoxDelta] = {}
        for node in report.dirty_bottom_up:
            old_box = node.box
            new_box = _build_node(node, self.automaton, self.relation_backend, self.build_cache)
            node.box = new_box
            if old_box is not None:
                deltas[old_box.serial] = BoxDelta(
                    old_serial=old_box.serial,
                    old_box=old_box,
                    new_box=new_box,
                    changed_mask=box_changed_mask(old_box, new_box, deltas),
                )
            rebuilt += 1
        self.last_replaced_deltas = deltas
        self.version += 1
        if on_update is not None:
            on_update(perf_counter() - start)
        return rebuilt
