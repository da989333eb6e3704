"""Algorithm 2: duplicate-free enumeration of a boxed set (Section 5).

``enumerate_boxed_set(Γ)`` enumerates the assignments of ``S(Γ)`` — the union
of the sets captured by the ∪-gates of the boxed set ``Γ`` — without
duplicates, and returns with every assignment its *provenance*
``Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)}`` (the provenance is what the recursive
calls need to stay duplicate-free across the two sides of ×-gates).

The duplicate-freeness argument (Theorem 5.3) rests on Lemma 5.1: in a
complete structured DNNF, the box of a var-/×-gate capturing an assignment
``S`` is *determined* by ``S`` (it is the lca of the leaf boxes of the
variables of ``S``), so enumerating box-wise — one interesting box at a time,
via ``box-enum`` — partitions the assignments, and inside one box the v-tree
splits each assignment uniquely into a left and a right part.

Mask-based provenance (the fast constant-delay path)
----------------------------------------------------
Two implementations coexist:

* The **mask-native path** (:func:`enumerate_boxed_masks`, taken whenever
  the indexed box enumeration runs on the default ``bitset`` backend)
  represents everything position-wise as Python-int bitmasks, mirroring the
  bitset relation backend:

  - a boxed set ``Γ`` is a list ``g`` of per-slot masks with bit ``p`` set on
    ``g[slot]`` iff position ``p`` of ``Γ`` reaches that ∪-slot — i.e. the
    ∪-reachability relation itself, so ``uppers_by_lower`` is a list read,
    not a dict build.  A boxed set with one position is carried as the mask
    of the slots it reaches plus that position's constant mask ``g``;
  - the provenance of a var-/×-gate is one machine word (a mask over Γ
    positions), accumulated with ``|=`` from the per-slot masks through the
    per-box gate tables stamped at construction time
    (:attr:`repro.circuits.gates.Box.enum_tables`) — no ``isinstance``, no
    walk of ``union_gate.inputs``, no ``frozenset`` of gates;
  - the ×-gate left/right matching is word-parallel: a left (right) part's
    provenance mask is translated to a mask over live ×-gates by OR-ing the
    precomputed per-position gate masks, and the final provenance is the OR
    of the matched gates' position masks.

  The whole algorithm — box enumeration (Algorithm 3) included — runs on an
  **explicit stack of frames**, one frame per active sub-boxed-set, so a
  single ``next()`` performs a bounded number of width-dependent word
  operations instead of resuming a generator chain proportional to the
  recursion depth.  Assignments are carried as nested 2-tuples of var-gate
  assignments and only materialized (one ``frozenset`` union) when an answer
  leaves the iterator; ``Prov`` stays a position mask until the public
  boundary converts it back to a set of ∪-gates.

  Delay accounting: with ``w`` the circuit width, the per-interesting-box
  work is ``O(w²)`` word operations (the fbb pair scan dominates), and the
  per-answer provenance bookkeeping is ``O(k)`` word-ORs for an answer
  combining ``k`` ×-gate levels — compared to the ``O(w³)`` set joins and
  ``O(k·w)`` set unions of the frozenset representation.  The overall delay
  is ``O(|S|·(Δ + w²))`` with ``Δ`` the box-enumeration delay of
  Algorithm 3.  Relation composition (a stored fib/fbb relation, or a
  box's child wiring, composed with ``g``) costs what the boxed set's
  positions allow:

  - with several positions, ``stored ∘ g`` ORs one position mask per set
    bit of each stored row, ``O(w²)`` word operations;
  - a *one-position* boxed set gives every slot it reaches the same
    position mask, so ``stored ∘ g`` is a preimage — the rows that meet
    the step's slot mask — with one AND per stored row, ``O(w)`` word
    operations, and is one-position again.  A frame is one-position when
    the root ``Γ`` holds one gate, when a left frame has one ×-left slot,
    and when a right frame has one matched right slot.  The root boxed
    sets of select-a, descendant and nondet-6 hold one gate each.

* The **generic path** keeps the paper-shaped recursive formulation over
  :class:`~repro.enumeration.relations.Relation` objects and frozenset
  provenance.  It accepts any ``box_enum`` procedure (including
  :func:`~repro.enumeration.box_enum.naive_box_enum`, or either procedure
  bound to a backend), is what the ``pairs`` oracle backend runs, and serves
  as the reference the mask-native path is tested against
  (``tests/test_fuzz_differential.py`` pins the equivalence).

The ``box_enum`` argument selects the box-enumeration procedure: the naive
walk of Section 5 or the index-accelerated Algorithm 3; the delay of the
overall enumeration is ``O(|S| · (Δ + w³))`` on the generic path where ``Δ``
is the delay of the chosen box enumeration.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.assignments import Assignment
from repro.circuits.gates import Box, ProdGate, UnionGate, VarGate
from repro.enumeration.box_enum import indexed_box_enum
from repro.enumeration.index import fbb_of_mask, fib_of_mask
from repro.enumeration.relations import Relation, iter_bits
from repro.errors import CircuitStructureError, IndexError_

__all__ = ["enumerate_boxed_set", "enumerate_boxed_masks", "MaskStackEnumeration"]

BoxEnumFn = Callable[[Sequence[UnionGate]], Iterator[Tuple[Box, Relation]]]

# Frame roles: whose consumer a frame's answers feed.
_ROOT, _LEFT, _RIGHT = 0, 1, 2


def enumerate_boxed_set(
    gamma: Sequence[UnionGate],
    box_enum: BoxEnumFn = indexed_box_enum,
) -> Iterator[Tuple[Assignment, FrozenSet[UnionGate]]]:
    """Enumerate ``S(Γ)`` without duplicates, with provenance (Algorithm 2).

    Parameters
    ----------
    gamma:
        The boxed set ``Γ``: a non-empty sequence of ∪-gates of one box.
    box_enum:
        The box-enumeration procedure (:func:`indexed_box_enum` by default,
        :func:`~repro.enumeration.box_enum.naive_box_enum` for the
        depth-dependent variant of Section 5).

    Yields
    ------
    (assignment, provenance):
        Each assignment of ``S(Γ)`` exactly once, together with the subset of
        ``Γ`` capturing it.

    When called with the default box enumeration (the indexed one, on the
    default ``bitset`` backend) and an already-built index, this dispatches
    to the mask-native fast path and converts its position masks back to
    gate sets at this boundary; otherwise the generic relation-based path
    runs.
    """
    gamma = list(gamma)
    if not gamma:
        return
    if box_enum is indexed_box_enum and gamma[0].box.shape is not None:
        for assignment, prov_mask in enumerate_boxed_masks(gamma):
            yield assignment, frozenset(gamma[p] for p in iter_bits(prov_mask))
        return

    for interesting_box, relation in box_enum(gamma):
        yield from _enumerate_in_box(gamma, interesting_box, relation, box_enum)


# =========================================================================== mask-native path
class _Frame:
    """One active sub-boxed-set of the explicit-stack enumeration.

    A frame owns the box-enumeration step stack of its boxed set and, while
    an interesting box is being processed, the mask-typed per-gate state of
    Algorithm 2: var-/×-gate provenance masks and the ×-gate grouping tables
    used for word-parallel left/right matching.

    A step is ``(is_walk, box, g, lower)``: ``lower`` is the mask of the
    box's slots that the boxed set reaches, and ``g`` is either the position
    mask every one of those slots carries (a one-position boxed set, an
    ``int``) or the per-slot list of position masks.
    """

    __slots__ = (
        "role",
        "parent",
        "steps",
        "emitting",
        "box",
        "prod_slot_mask",
        "var_prov",
        "var_assignments",
        "var_pos",
        "prod_prov",
        "prod_lefts",
        "prod_rights",
        "pbl",
        "pbr",
        "right_slots",
        "n_right",
        "right_box",
        "match_mask",
        "left_part",
        "left_frame",
        "right_frame",
    )

    def __init__(self, role: int, parent: Optional["_Frame"], steps: List[Tuple]):
        self.role = role
        self.parent = parent
        self.steps = steps
        self.emitting = False
        self.box = None
        #: mask over ``box`` slots whose ∪-gates fed live ×-gate provenance
        #: at the last activation: the exact part of ``box`` the in-flight
        #: ×-recursion can still read (see dependency_masks)
        self.prod_slot_mask = 0
        self.var_prov = ()
        self.var_assignments = ()
        self.var_pos = 0
        self.prod_prov = None
        self.prod_lefts = ()
        self.prod_rights = ()
        self.pbl = None
        self.pbr = None
        self.right_slots = None
        self.n_right = 0
        self.right_box = None
        self.match_mask = 0
        self.left_part = None
        #: cached child frames, reused across interesting boxes / left parts
        #: (a child frame is always fully exhausted — popped with an empty
        #: step stack — before its slot is reused, so no state can leak).
        self.left_frame = None
        self.right_frame = None


def _compose_masks(stored: Sequence[int], g: Sequence[int]) -> List[int]:
    """``stored ∘ g``: per-lower-slot OR of the Γ-position masks of the mids."""
    out = []
    append = out.append
    for row in stored:
        acc = 0
        while row:
            low = row & -row
            acc |= g[low.bit_length() - 1]
            row ^= low
        append(acc)
    return out


def _compose_masks_lm(stored: Sequence[int], g: Sequence[int]) -> Tuple[List[int], int]:
    """Like :func:`_compose_masks`, also returning the result's lower mask.

    Fusing the lower-mask projection into the composition pass saves a
    separate emptiness scan and a per-step π₁ recomputation on the hot path.
    """
    out = []
    append = out.append
    lower_mask = 0
    bit = 1
    for row in stored:
        acc = 0
        while row:
            low = row & -row
            acc |= g[low.bit_length() - 1]
            row ^= low
        append(acc)
        if acc:
            lower_mask |= bit
        bit <<= 1
    return out, lower_mask


def _preimage(stored: Sequence[int], lower: int) -> int:
    """The slots whose row of ``stored`` meets ``lower``, as a slot mask.

    ``stored ∘ g`` for a one-position ``g``: every non-zero entry of ``g``
    is the same position mask, so the composition carries that mask on
    exactly these rows — one AND per row.
    """
    out = 0
    for slot, row in enumerate(stored):
        if row & lower:
            out |= 1 << slot
    return out


def _materialize(part) -> Assignment:
    """Union the var-gate assignments of a nested 2-tuple part tree."""
    if type(part) is not tuple:
        return part
    leaves = []
    stack = [part]
    while stack:
        p = stack.pop()
        if type(p) is tuple:
            stack.append(p[0])
            stack.append(p[1])
        else:
            leaves.append(p)
    return leaves[0].union(*leaves[1:])


def enumerate_boxed_masks(gamma: Sequence[UnionGate]) -> Iterator[Tuple[Assignment, int]]:
    """Mask-native Algorithm 2: yield ``(assignment, provenance mask)`` pairs.

    The provenance mask has bit ``p`` set iff ``gamma[p]`` captures the
    assignment.  Requires the index of Section 6 to be built on the circuit
    (:func:`repro.enumeration.index.build_index`); the composition chain runs
    on raw per-slot masks regardless of the backend the stored relations use.

    Returns a :class:`MaskStackEnumeration` — a plain iterator whose frame
    stack is checkpointable: pausing between ``next()`` calls freezes the
    whole enumeration state, and :meth:`MaskStackEnumeration.dependency_masks`
    reports exactly which slots of which boxes the remaining enumeration can
    still read (what the serving layer's edit-stable cursors are built on).
    """
    return MaskStackEnumeration(gamma)


class MaskStackEnumeration:
    """The explicit-stack mask-native Algorithm 2 as a checkpointable iterator.

    Equivalent to the generator formulation (``next()`` yields the same
    ``(assignment, provenance mask)`` stream in the same order), but the
    state lives in an inspectable attribute (``_stack`` of :class:`_Frame`)
    instead of suspended generator frames.  That buys two things the serving
    layer needs:

    * **checkpointing** — between two ``next()`` calls the enumeration is a
      passive value; a cursor can hold it across requests (and across edits
      of *other* regions of the document) and resume where it left off;
    * **dependency reporting** — :meth:`dependency_masks` maps each box the
      frozen frames still reference to the mask of ∪-slots the remaining
      stream can actually read (pending-step lower masks plus the live
      ×-provenance slots of in-flight activations).  Because the dirty sets
      of Lemma 7.3 are upward closed (a rebuilt box's ancestors are all
      rebuilt), a box absent from an edit's trunk roots an entirely
      untouched subtree; and for a box that *was* rebuilt, the remaining
      stream is unchanged as long as the per-slot fingerprints of the read
      slots are — the slot-mask trunk test behind cursor
      resume-or-invalidate decisions (:meth:`referenced_boxes` is the
      whole-box projection).  On survival :meth:`rebind` re-points the
      frames at the rebuilt boxes so the next batch can be judged the same
      way.

    Each pending step is ``(is_walk, box, g, lower)``, with ``g`` a position
    mask over the slots in ``lower`` when the frame's boxed set has one
    position, and the per-slot list otherwise (see :class:`_Frame`).
    """

    __slots__ = ("_stack", "on_delay")

    def __init__(self, gamma: Sequence[UnionGate]):
        #: optional per-answer delay sampling hook (the SLO layer's
        #: :class:`repro.obs.slo.DelayMonitor` plugs in here): when set to a
        #: callable, every ``next()`` reports the seconds it spent producing
        #: its answer.  ``None`` (the default) keeps ``__next__`` a single
        #: attribute check away from the raw enumeration loop.
        self.on_delay = None
        gamma = list(gamma)
        if not gamma:
            self._stack: List[_Frame] = []
            return
        box = gamma[0].box
        for gate in gamma:
            if gate.box is not box:
                raise CircuitStructureError("a boxed set must contain gates of a single box")
        if box.shape is None:
            raise IndexError_(
                "mask-native enumeration requires the index to be built (build_index)"
            )
        root_lower = 0
        for gate in gamma:
            root_lower |= 1 << gate.slot
        if root_lower & (root_lower - 1):
            g = [0] * box.n_unions
            for position, gate in enumerate(gamma):
                g[gate.slot] |= 1 << position
        else:
            # one slot (one gate, perhaps repeated) holds every position of Γ
            g = (1 << len(gamma)) - 1
        self._stack = [_Frame(_ROOT, None, [(False, box, g, root_lower)])]

    def __iter__(self) -> "MaskStackEnumeration":
        return self

    def referenced_boxes(self) -> List[Box]:
        """The boxes the remaining enumeration can still read (whole-box view).

        The coarse projection of :meth:`dependency_masks` — every box that
        appears with a nonzero read mask, plus the pending right-child box of
        an in-flight ×-gate combination.  Kept for capacity planning
        (``LocalStore.would_invalidate``) and introspection; the cursor
        resume-or-invalidate decision uses the per-slot masks instead.
        """
        boxes: List[Box] = []
        seen = set()
        for fr in self._stack:
            for candidate in (fr.box, fr.right_box):
                if candidate is not None and candidate.serial not in seen:
                    seen.add(candidate.serial)
                    boxes.append(candidate)
            for step in fr.steps:
                candidate = step[1]
                if candidate.serial not in seen:
                    seen.add(candidate.serial)
                    boxes.append(candidate)
        return boxes

    def dependency_masks(self) -> Dict[int, Tuple[Box, int]]:
        """Per-box slot masks the remaining enumeration can still read.

        Returns ``{box.serial: (box, slot_mask)}`` collected from the live
        frames:

        * every pending box-enumeration step ``(is_walk, box, g, lower)``
          contributes ``lower`` — the walk/descend of Algorithm 3 only ever
          queries ``box``'s index (fib/fbb/targets/ends/relations) masked by
          the step's live lower slots, and those answers are determined by
          the ∪-wiring reachable from them;
        * a frame with an in-flight activation contributes its interesting
          box at :attr:`_Frame.prod_slot_mask` — the slots whose ∪-gates fed
          live ×-gate provenance.  The pending reads of the ×-recursion (the
          box's child pointers, the right-child slots of not-yet-pushed right
          frames) all lie inside the sub-DAG reachable from those slots, so
          the mask subsumes them; remaining var-gate emission is frame-local
          (the assignments were copied at activation) and reads no box at
          all.

        The point of the per-slot form: an edit that rebuilds a referenced
        box but leaves the content reachable from every *read* slot
        unchanged (equal slot fingerprints, see
        ``repro.incremental.maintainer.BoxDelta``) cannot change the
        remaining stream, so a cursor intersecting these masks with the
        edit's changed-slot masks invalidates only on a true overlap.
        """
        deps: Dict[int, Tuple[Box, int]] = {}
        for fr in self._stack:
            box = fr.box
            if box is not None and fr.prod_slot_mask:
                held = deps.get(box.serial)
                deps[box.serial] = (
                    box,
                    fr.prod_slot_mask | (held[1] if held is not None else 0),
                )
            for step in fr.steps:
                box = step[1]
                held = deps.get(box.serial)
                deps[box.serial] = (
                    box,
                    step[3] | (held[1] if held is not None else 0),
                )
        return deps

    def rebind(self, replacements: Dict[int, Box]) -> None:
        """Swap frame box references for their rebuilt equivalents, by serial.

        Called by a surviving cursor after an edit batch whose changed-slot
        masks missed every dependency mask: the replaced boxes are equivalent
        to their replacements *restricted to the slots this enumeration can
        still read*, so swapping the references continues the byte-identical
        stream while keeping the frames pointed at the live document — which
        is what lets the *next* batch's deltas (keyed by the current boxes'
        serials) be compared against this enumeration at all.

        Only on-stack frames are touched: a cached off-stack child frame has
        an empty step stack and every box-valued field it holds is
        overwritten at its next activation before being read.
        """
        for fr in self._stack:
            box = fr.box
            if box is not None:
                new = replacements.get(box.serial)
                if new is not None:
                    fr.box = new
            box = fr.right_box
            if box is not None:
                new = replacements.get(box.serial)
                if new is not None:
                    fr.right_box = new
            steps = fr.steps
            for i, step in enumerate(steps):
                new = replacements.get(step[1].serial)
                if new is not None:
                    steps[i] = (step[0], new, step[2], step[3])

    def __next__(self) -> Tuple[Assignment, int]:
        on_delay = self.on_delay
        if on_delay is None:
            return self._advance()
        start = perf_counter()
        result = self._advance()  # StopIteration ends the stream unsampled
        on_delay(perf_counter() - start)
        return result

    def _advance(self) -> Tuple[Assignment, int]:
        stack = self._stack
        while stack:
            fr = stack[-1]

            # ------------------------------------------- emit answers of the current box
            if fr.emitting:
                part = None
                prov = 0
                vp = fr.var_prov
                i = fr.var_pos
                n = len(vp)
                while i < n:
                    mask = vp[i]
                    if mask:
                        part = fr.var_assignments[i]
                        prov = mask
                        fr.var_pos = i + 1
                        break
                    i += 1
                if part is None:
                    # var answers done: set up the ×-gate recursion (lines 8-16)
                    fr.emitting = False
                    pp = fr.prod_prov
                    if pp is None or not any(pp):
                        continue
                    cur_box = fr.box
                    left_box = cur_box.left_child
                    right_box = cur_box.right_child
                    prod_lefts = fr.prod_lefts
                    prod_rights = fr.prod_rights
                    lpos = [-1] * left_box.n_unions
                    left_lower = 0
                    pbl: List[int] = []
                    rpos = [-1] * right_box.n_unions
                    right_slots: List[int] = []
                    pbr: List[int] = []
                    for j in range(len(pp)):
                        if not pp[j]:
                            continue
                        jbit = 1 << j
                        s = prod_lefts[j]
                        p = lpos[s]
                        if p < 0:
                            lpos[s] = len(pbl)
                            left_lower |= 1 << s
                            pbl.append(jbit)
                        else:
                            pbl[p] |= jbit
                        r = prod_rights[j]
                        p = rpos[r]
                        if p < 0:
                            rpos[r] = len(pbr)
                            right_slots.append(r)
                            pbr.append(jbit)
                        else:
                            pbr[p] |= jbit
                    fr.pbl = pbl
                    fr.pbr = pbr
                    fr.right_slots = right_slots
                    fr.n_right = right_box.n_unions
                    fr.right_box = right_box
                    # one ×-left slot: the left frame's one position is 1
                    left_g = 1 if len(pbl) == 1 else [0 if p < 0 else 1 << p for p in lpos]
                    child = fr.left_frame
                    if child is None:
                        child = _Frame(_LEFT, fr, [(False, left_box, left_g, left_lower)])
                        fr.left_frame = child
                    else:
                        child.steps.append((False, left_box, left_g, left_lower))
                    stack.append(child)
                    continue
            else:
                # --------------------------------------------- advance the box enumeration
                steps = fr.steps
                if not steps:
                    stack.pop()
                    continue
                is_walk, cur_box, g, lower_mask = steps.pop()
                shape = cur_box.shape
                # One position: ``g`` is the position mask that every slot of
                # ``lower_mask`` carries, and so does every composition, whose
                # slots are a preimage.
                one = g.__class__ is int

                if is_walk:
                    # one iteration of the bidirectional-box walk (Algorithm 3):
                    # it continues only while the fbb (ordinal ``bid``) is a
                    # proper ancestor of the fib — preorder ordinal compares
                    bid = fbb_of_mask(shape, lower_mask)
                    if bid < 0:
                        continue
                    if not bid < fib_of_mask(shape, lower_mask) < shape.ends[bid]:
                        continue
                    best = cur_box.targets[bid] if bid else cur_box
                    wire_left, wire_right = best.plan.wire_masks
                    if one:
                        rel_lower = (
                            _preimage(shape.relations[bid].masks_view(), lower_mask)
                            if bid
                            else lower_mask
                        )
                        rel_left = rel_right = g
                        lm_left = _preimage(wire_left, rel_lower)
                        lm_right = _preimage(wire_right, rel_lower)
                    else:
                        rel_bid = (
                            _compose_masks(shape.relations[bid].masks_view(), g) if bid else g
                        )
                        rel_left, lm_left = _compose_masks_lm(wire_left, rel_bid)
                        rel_right, lm_right = _compose_masks_lm(wire_right, rel_bid)
                    if lm_left:
                        steps.append((True, best.left_child, rel_left, lm_left))
                    if lm_right:
                        steps.append((False, best.right_child, rel_right, lm_right))
                    continue

                # descend to the first interesting box (Algorithm 3, lines 4-10)
                ordinal = fib_of_mask(shape, lower_mask)
                if ordinal:
                    first = cur_box.targets[ordinal]
                    stored = shape.relations[ordinal].masks_view()
                    if one:
                        rel_first = g
                        rf_lower = _preimage(stored, lower_mask)
                    else:
                        rel_first, rf_lower = _compose_masks_lm(stored, g)
                else:
                    first = cur_box
                    rel_first = g
                    rf_lower = lower_mask
                if shape.fbb:
                    steps.append((True, cur_box, g, lower_mask))
                if first.left_child is not None:
                    wire_left, wire_right = first.plan.wire_masks
                    if one:
                        rel_l = rel_r = g
                        lm_l = _preimage(wire_left, rf_lower)
                        lm_r = _preimage(wire_right, rf_lower)
                    else:
                        rel_l, lm_l = _compose_masks_lm(wire_left, rel_first)
                        rel_r, lm_r = _compose_masks_lm(wire_right, rel_first)
                    if lm_r:
                        steps.append((False, first.right_child, rel_r, lm_r))
                    if lm_l:
                        steps.append((False, first.left_child, rel_l, lm_l))

                # ---- interesting box found: accumulate gate provenance masks (lines 5-7)
                var_assignments, slot_var_masks, prod_lefts, prod_rights, slot_prod_masks = (
                    first.enum_tables
                )
                n_vars = len(var_assignments)
                n_prods = len(prod_lefts)
                var_prov = [0] * n_vars
                prod_prov = [0] * n_prods if n_prods else None
                prod_slot_mask = 0
                lm = first.local_mask & rf_lower
                if one:
                    # every related slot carries ``g``: collect the var- and
                    # ×-gates they feed, then give each of them ``g`` once
                    vm = qm = 0
                    while lm:
                        low = lm & -lm
                        s = low.bit_length() - 1
                        lm ^= low
                        if n_vars:
                            vm |= slot_var_masks[s]
                        if n_prods and slot_prod_masks[s]:
                            prod_slot_mask |= low
                            qm |= slot_prod_masks[s]
                    while vm:
                        lowv = vm & -vm
                        var_prov[lowv.bit_length() - 1] = g
                        vm ^= lowv
                    while qm:
                        lowq = qm & -qm
                        prod_prov[lowq.bit_length() - 1] = g
                        qm ^= lowq
                else:
                    while lm:
                        low = lm & -lm
                        s = low.bit_length() - 1
                        lm ^= low
                        pm = rel_first[s]
                        if n_vars:
                            vm = slot_var_masks[s]
                            while vm:
                                lowv = vm & -vm
                                var_prov[lowv.bit_length() - 1] |= pm
                                vm ^= lowv
                        if n_prods:
                            qm = slot_prod_masks[s]
                            if qm and pm:
                                prod_slot_mask |= low
                            while qm:
                                lowq = qm & -qm
                                prod_prov[lowq.bit_length() - 1] |= pm
                                qm ^= lowq
                fr.box = first
                fr.prod_slot_mask = prod_slot_mask
                fr.var_prov = var_prov
                fr.var_assignments = var_assignments
                fr.var_pos = 0
                fr.prod_prov = prod_prov
                fr.prod_lefts = prod_lefts
                fr.prod_rights = prod_rights
                fr.emitting = True
                continue

            # ----------------------------------------------------- propagate one answer
            while True:
                role = fr.role
                if role == _ROOT:
                    return (part if type(part) is not tuple else _materialize(part)), prov
                parent = fr.parent
                if role == _LEFT:
                    # translate the left provenance to the matching ×-gates
                    matched = 0
                    pbl = parent.pbl
                    pp = prov
                    while pp:
                        low = pp & -pp
                        matched |= pbl[low.bit_length() - 1]
                        pp ^= low
                    if not matched:
                        break
                    parent.match_mask = matched
                    parent.left_part = part
                    right_positions = 0
                    right_lower = 0
                    right_slots = parent.right_slots
                    for p, prods_p in enumerate(parent.pbr):
                        if prods_p & matched:
                            right_positions |= 1 << p
                            right_lower |= 1 << right_slots[p]
                    if right_positions & (right_positions - 1):
                        right_g = [0] * parent.n_right
                        for p in iter_bits(right_positions):
                            right_g[right_slots[p]] = 1 << p
                    else:
                        right_g = right_positions  # one matched right slot: its position
                    child = parent.right_frame
                    if child is None:
                        child = _Frame(_RIGHT, parent, [(False, parent.right_box, right_g, right_lower)])
                        parent.right_frame = child
                    else:
                        child.steps.append((False, parent.right_box, right_g, right_lower))
                    stack.append(child)
                    break
                # role == _RIGHT: combine with the stored left part (line 16)
                final = 0
                pbr = parent.pbr
                pp = prov
                while pp:
                    low = pp & -pp
                    final |= pbr[low.bit_length() - 1]
                    pp ^= low
                final &= parent.match_mask
                if not final:
                    break
                positions = 0
                prod_prov = parent.prod_prov
                while final:
                    low = final & -final
                    positions |= prod_prov[low.bit_length() - 1]
                    final ^= low
                part = (parent.left_part, part)
                prov = positions
                fr = parent
        raise StopIteration


# =========================================================================== generic path
def _enumerate_in_box(
    gamma: List[UnionGate],
    box: Box,
    relation: Relation,
    box_enum: BoxEnumFn,
) -> Iterator[Tuple[Assignment, FrozenSet[UnionGate]]]:
    """Handle one interesting box ``B'`` with its relation ``R(B', Γ)``.

    This is the body of the outer loop of Algorithm 2 (lines 4-16) in its
    paper-shaped, relation/frozenset-based formulation (the reference the
    mask-native path is tested against).
    """
    uppers_by_lower = relation.uppers_by_lower()

    # W ∘ R(B', Γ): for every var-/×-gate input h of a related ∪-gate, the set
    # of Γ positions it can reach.
    provenance_of: Dict[int, Set[int]] = {}
    gate_by_id: Dict[int, object] = {}
    local_mask = box.local_mask
    for slot, positions in uppers_by_lower.items():
        if not (local_mask >> slot) & 1:
            continue
        union_gate = box.union_gates[slot]
        for inp in union_gate.inputs:
            if isinstance(inp, (VarGate, ProdGate)):
                gate_by_id[id(inp)] = inp
                provenance_of.setdefault(id(inp), set()).update(positions)

    def provenance_gates(positions: Set[int]) -> FrozenSet[UnionGate]:
        return frozenset(gamma[pos] for pos in positions)

    # ---- assignments using a single var-gate (line 7)
    prod_gates: List[ProdGate] = []
    for gate_id, positions in provenance_of.items():
        gate = gate_by_id[gate_id]
        if isinstance(gate, VarGate):
            yield (gate.assignment, provenance_gates(positions))
        else:
            prod_gates.append(gate)

    if not prod_gates:
        return

    # ---- assignments combining a left and a right part through ×-gates (lines 8-16)
    gamma_left: List[UnionGate] = []
    seen_left = set()
    for gate in prod_gates:
        if id(gate.left) not in seen_left:
            seen_left.add(id(gate.left))
            gamma_left.append(gate.left)

    for left_assignment, left_provenance in _enumerate_generic(gamma_left, box_enum):
        left_ids = {id(g) for g in left_provenance}
        matching = [gate for gate in prod_gates if id(gate.left) in left_ids]
        if not matching:
            continue
        gamma_right: List[UnionGate] = []
        seen_right = set()
        for gate in matching:
            if id(gate.right) not in seen_right:
                seen_right.add(id(gate.right))
                gamma_right.append(gate.right)
        for right_assignment, right_provenance in _enumerate_generic(gamma_right, box_enum):
            right_ids = {id(g) for g in right_provenance}
            final_gates = [gate for gate in matching if id(gate.right) in right_ids]
            positions: Set[int] = set()
            for gate in final_gates:
                positions |= provenance_of[id(gate)]
            yield (left_assignment | right_assignment, provenance_gates(positions))


def _enumerate_generic(
    gamma: List[UnionGate], box_enum: BoxEnumFn
) -> Iterator[Tuple[Assignment, FrozenSet[UnionGate]]]:
    """The recursive generic path (no fast-path dispatch on recursion)."""
    if not gamma:
        return
    for interesting_box, relation in box_enum(gamma):
        yield from _enumerate_in_box(gamma, interesting_box, relation, box_enum)
