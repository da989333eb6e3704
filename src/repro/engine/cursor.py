"""Edit-stable cursors: resumable paginated enumeration with epochs.

The paper's model (Theorem 8.1 / Theorem 8.5) restarts enumeration after
every update — :class:`~repro.errors.StaleIteratorError` at the enumerator
layer.  A serving deployment paginates: a client fetches a page of answers,
edits arrive from other clients, the client comes back for the next page.
Restarting from scratch on every edit would make pagination quadratic and,
worse, *silently* re-deliver answers.  The cursor refines the restart model
with a precise resume-or-invalidate rule built on two facts:

* the mask-native Algorithm 2 runs on an explicit, checkpointable frame
  stack (:class:`repro.enumeration.duplicate_free.MaskStackEnumeration`),
  so "where the enumeration stopped" is a passive value whose remaining
  reads are confined to specific ∪-slots of specific boxes — the **slot-mask
  trunk** reported by
  :meth:`~repro.enumeration.duplicate_free.MaskStackEnumeration.dependency_masks`
  (pending-step lower masks plus the live ×-provenance slots of in-flight
  activations);
* the dirty sets of Lemma 7.3 are upward closed — an edit that rebuilds a
  box rebuilds all its ancestors — so a box *not* rebuilt by an edit roots a
  completely untouched subtree; and for a box that *was* rebuilt, the
  maintainer's :class:`~repro.incremental.maintainer.BoxDelta` records which
  of its ∪-slots root a changed sub-DAG (per-slot fingerprints over the
  union wiring stamped at build time).

Together these give the fine-grained trunk test.  After an edit batch, per
cursor, intersect each referenced box's *remaining-read* slot mask with the
batch's *changed-slot* mask for that box:

* **no overlap** — every slot the frozen enumeration can still read roots
  content-identical structure in the rebuilt circuit (upward closure covers
  the boxes the batch did not touch at all; equal slot fingerprints cover
  the rebuilt ones).  The cursor **resumes**: its frames are rebound from
  the old boxes to their rebuilt equivalents (safe precisely because the
  read slots are fingerprint-equal — and necessary so the *next* batch's
  deltas, keyed by the current boxes' build serials, can be compared against
  this cursor at all), and it continues the byte-identical duplicate-free
  stream of its base epoch with the delay guarantees of Theorem 6.5;
* **overlap** — the cursor is **deterministically invalidated**: the next
  fetch raises :class:`~repro.errors.CursorInvalidatedError` carrying a
  :class:`CursorInvalidation` report naming the overlapping regions (the
  document-node span of each hit box and the ∪-slot indices that overlap),
  and the client reopens a cursor on the updated document.

Boxes are named by their monotonic build ``serial`` everywhere in this
protocol (cursor dependency masks, maintainer deltas, the wire codec): an
``id()``-based comparison would alias a collected old box with a freshly
built one the allocator placed at the same address.  The store checks the
masks *eagerly* at edit time (while both sides of every delta are alive),
which is what makes the signal precise rather than heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.assignments import EMPTY_ASSIGNMENT, Assignment
from repro.circuits.gates import Box
from repro.enumeration.duplicate_free import MaskStackEnumeration
from repro.errors import CursorInvalidatedError, ServingError

__all__ = ["Cursor", "CursorPage", "CursorInvalidation"]

ACTIVE = "active"
EXHAUSTED = "exhausted"
INVALIDATED = "invalidated"
CLOSED = "closed"


def _leaf_span(box: Box) -> Tuple[object, object]:
    """The leftmost and rightmost document leaf ids under a box's subtree."""
    node = box
    while node.left_child is not None:
        node = node.left_child
    lo = node.leaf_payload
    node = box
    while node.right_child is not None:
        node = node.right_child
    return lo, node.leaf_payload


@dataclass(frozen=True)
class CursorInvalidation:
    """Why (and when) a cursor stopped being resumable.

    ``regions`` names the true overlaps between the edit batch's changed
    slots and the cursor's remaining reads, one entry per hit box:
    ``(box_label, first_leaf, last_leaf, slots)`` where the two leaf ids
    bound the document region the box covers and ``slots`` are the
    overlapping ∪-slot indices.  The tuple is plain strings/ints so the
    exact same report — text and all — crosses the wire to
    :class:`~repro.net.client.RemoteEngine` clients unchanged.
    """

    cursor_id: int
    document_id: object
    base_epoch: int
    invalidated_epoch: int
    answers_delivered: int
    edit: str
    boxes_hit: int
    regions: Tuple[Tuple[str, object, object, Tuple[int, ...]], ...] = field(
        default=()
    )

    def describe(self) -> str:
        text = (
            f"cursor {self.cursor_id} on document {self.document_id!r} "
            f"(opened at epoch {self.base_epoch}, {self.answers_delivered} answers delivered) "
            f"was invalidated at epoch {self.invalidated_epoch} by {self.edit}: "
            f"the edit changed {self.boxes_hit} box(es) the cursor's remaining "
            f"enumeration still reads"
        )
        if self.regions:
            parts = [
                f"{label!r} box over document nodes {lo}..{hi} at slot(s) "
                + ",".join(str(s) for s in slots)
                for label, lo, hi, slots in self.regions
            ]
            text += " (overlap: " + "; ".join(parts) + ")"
        return text


@dataclass(frozen=True)
class CursorPage:
    """One fetched page of answers."""

    answers: List[Assignment]
    offset: int  #: index of the first answer within the cursor's stream
    exhausted: bool  #: True when the stream ended within (or at) this page

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)


class Cursor:
    """A resumable, duplicate-free, paginated view of one document's answers.

    Created through :meth:`repro.engine.local.LocalDocument.open_cursor` /
    :meth:`repro.engine.Document.page`.  Pages are
    duplicate-free *across* pages because one underlying enumeration
    (Algorithm 2, Theorem 5.3) produces the whole stream; pagination only
    slices it.
    """

    def __init__(self, document, cursor_id: int, page_size: int):
        if page_size < 1:
            raise ServingError("cursor page_size must be >= 1")
        self.document = document
        self.cursor_id = cursor_id
        self.page_size = page_size
        self.base_epoch = document.epoch
        self.delivered = 0
        self.status = ACTIVE
        self.invalidation: Optional[CursorInvalidation] = None
        gates, self._pending_empty = document._root_boxed_set()
        self._enum: Optional[MaskStackEnumeration] = (
            MaskStackEnumeration(gates) if gates else None
        )

    # ------------------------------------------------------------ introspection
    def referenced_boxes(self) -> List[Box]:
        """The cursor's trunk: boxes its remaining enumeration can still read."""
        if self._enum is None:
            return []
        return self._enum.referenced_boxes()

    def is_active(self) -> bool:
        return self.status == ACTIVE

    # -------------------------------------------------------------- edit hook
    def _note_edits(self, epoch: int, edit_description: str, deltas) -> bool:
        """Called by the owning document after an edit batch.

        ``deltas`` maps old-box serials to
        :class:`~repro.incremental.maintainer.BoxDelta` for every box the
        batch replaced (chained across the batch's edits).  Intersects each
        delta's changed-slot mask with the cursor's remaining-read mask for
        that box; on a true overlap the cursor flips to ``invalidated`` with
        a region-level report, otherwise its frames are rebound to the
        rebuilt boxes and it resumes.  Returns ``True`` on survival.
        """
        if self.status != ACTIVE:
            return False
        if self._enum is None:
            return True  # only the empty answer (or nothing) left: no trunk
        if not deltas:
            return True
        overlaps = []
        rebind = {}
        for serial, (box, read_mask) in self._enum.dependency_masks().items():
            delta = deltas.get(serial)
            if delta is None:
                continue  # not rebuilt: upward closure, untouched subtree
            hit = read_mask & delta.changed_mask
            if hit:
                overlaps.append((delta, hit))
            else:
                rebind[serial] = delta.new_box
        if not overlaps:
            if rebind:
                self._enum.rebind(rebind)
            return True
        regions = []
        for delta, hit in overlaps:
            lo, hi = _leaf_span(delta.old_box)
            slots = []
            while hit:
                low = hit & -hit
                slots.append(low.bit_length() - 1)
                hit ^= low
            regions.append((str(delta.old_box.label), lo, hi, tuple(slots)))
        regions.sort(key=repr)
        self.status = INVALIDATED
        self.invalidation = CursorInvalidation(
            cursor_id=self.cursor_id,
            document_id=self.document.doc_id,
            base_epoch=self.base_epoch,
            invalidated_epoch=epoch,
            answers_delivered=self.delivered,
            edit=edit_description,
            boxes_hit=len(overlaps),
            regions=tuple(regions),
        )
        self._enum = None  # drop the pinned snapshot state
        return False

    # ------------------------------------------------------------------ paging
    def fetch(self, limit: Optional[int] = None) -> CursorPage:
        """Fetch the next page (up to ``limit`` or the cursor's page size).

        Raises :class:`~repro.errors.CursorInvalidatedError` once an edit has
        hit the cursor's trunk, and :class:`~repro.errors.ServingError` on a
        closed cursor.  Fetching an exhausted cursor returns empty pages.
        """
        if self.status == INVALIDATED:
            raise CursorInvalidatedError(self.invalidation.describe(), self.invalidation)
        if self.status == CLOSED:
            raise ServingError(f"cursor {self.cursor_id} is closed")
        want = self.page_size if limit is None else min(limit, self.page_size)
        offset = self.delivered
        answers: List[Assignment] = []
        if self._pending_empty and len(answers) < want:
            answers.append(EMPTY_ASSIGNMENT)
            self._pending_empty = False
        enum = self._enum
        if enum is not None:
            while len(answers) < want:
                try:
                    assignment, _prov = next(enum)
                except StopIteration:
                    self._enum = None
                    break
                answers.append(assignment)
        self.delivered += len(answers)
        exhausted = self._enum is None and not self._pending_empty
        if exhausted and self.status == ACTIVE:
            self.status = EXHAUSTED
            self.document._forget_cursor(self)
        return CursorPage(answers=answers, offset=offset, exhausted=exhausted)

    def fetch_all(self) -> List[Assignment]:
        """Drain the cursor (page loop), returning all remaining answers."""
        out: List[Assignment] = []
        while True:
            page = self.fetch()
            out.extend(page.answers)
            if page.exhausted:
                return out

    def close(self) -> None:
        """Release the cursor's snapshot state (idempotent)."""
        if self.status in (ACTIVE, EXHAUSTED):
            self.status = CLOSED
        self._enum = None
        self.document._forget_cursor(self)
