"""The enumeration index (Definition 6.1, Lemma 6.3).

For every box ``B`` of the circuit the index stores:

* for every ∪-gate ``g`` of ``B``, its **first interesting box** ``fib(g)``:
  the first box (in the preorder of ``B``'s subtree) containing a var- or
  ×-gate ∪-reachable from ``g``;
* for every boxed set ``Γ ⊆ B`` with ``1 ≤ |Γ| ≤ 2``, its **first
  bidirectional box** ``fbb(Γ)``: the first box whose two subtrees both
  contain gates ∪-reachable from ``Γ``;
* the ∪-reachability relation ``R(X, B)`` for every *target box* ``X``
  (every fib/fbb value and the children of ``B``).

Everything is computed bottom-up, per box, from the children's index entries
(equations (3)–(5) of the appendix), which is exactly what makes the index
incrementally maintainable: when an update rebuilds the boxes on a trunk
(Lemma 7.3), recomputing the index entries of those boxes reuses the
untouched entries of the reused subtrees.

Ordinals
--------
The targets of ``B`` are numbered by **ordinals**: their positions in the
preorder of ``B``'s subtree, counting targets only, with ordinal 0 being
``B`` itself.  Comparing two ordinals therefore compares preorder
positions, and the targets inside the subtree of target ``t`` are exactly
the ordinals ``t ≤ u < ends[t]`` — so the lca question Algorithm 3 asks
("is the fbb an ancestor of the fib?") is two integer compares, and the
index stores no lca table.  Ordinals are local to one entry (a global
numbering would be invalidated by every update): each box renumbers the
targets it keeps, so an ordinal never outlives one index lookup.
Enumeration frames hold boxes and slot masks, never ordinals.

An entry lives on its box as two attributes: ``Box.targets``, the target
boxes by ordinal, and ``Box.shape``, the :class:`IndexShape` holding the
relations and the ``ends``, ``fib`` and ``fbb`` ordinal tables, which are
``bytes`` while the ordinals fit a byte (int→int ``dict`` otherwise) —
containers the cyclic garbage collector does not track.  The owning box is
not stored in its own targets (``targets[0]`` is ``None``), so a box and its
entry form no reference cycle that only the collector could break.

Shapes
------
Only ``targets`` names boxes.  Everything else — ``relations``, ``ends``,
``fib``, ``fbb``, ``fbb_rows`` and, per ordinal, the raw ordinal that says
which child target it resolves to (``sources``) — is the entry's
:class:`IndexShape`, an immutable value.  A box plan
(:mod:`repro.circuits.build`) fixes a box's ∪-wiring, so a shape is a pure
function of (plan, left child's shape, right child's shape, relation
backend): two boxes built from one plan over children of equal shapes get
equal shapes, whatever concrete boxes their subtrees hold.  A document hits
few distinct shapes compared to its boxes.  Leaves share one ``(None,)``
targets tuple and one shape per (width, backend).

With a store's :class:`~repro.circuits.build.BuildCache` on,
:func:`build_box_index` looks the shape up by that key first.  A hit only
resolves the per-box ``targets`` through ``sources`` from the children's
targets; a miss runs the construction below and then **interns** the new
shape by content.  Interning is what makes the table hit: the key names the
children's shapes, so two equal shapes reached through different keys would
otherwise stay two objects, and every parent above them would miss again.
Builds without a store and builds with the cache off always run the
construction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.gates import AssignmentCircuit, Box
from repro.enumeration.relations import DEFAULT_BACKEND, Relation
from repro.enumeration.wiring import wire_relation
from repro.errors import CircuitStructureError, IndexError_

__all__ = [
    "IndexShape",
    "build_box_index",
    "build_index",
    "fib_of_mask",
    "fbb_of_mask",
]

#: an entry's ordinal tables are ``bytes`` while its raw ordinal space (see
#: _construct) fits a byte: values below 255, with 255 marking "no fbb"
_BYTE_LIMIT = 255


class IndexShape:
    """The box-free part of an index entry, shared by every entry equal to it.

    All tables are indexed by target ordinal ``t`` (see the module docs)
    except ``fib`` (by ∪-slot) and ``fbb`` (by slot pair):

    ``relations[t]``
        The stored relation ``R(targets[t], B)``; there is one per target.
    ``ends[t]``
        One past the last ordinal inside the subtree of ``targets[t]``.
    ``fib[s]``
        The ordinal of ``fib`` of slot ``s``.
    ``fbb[fbb_rows[i] + j]``
        For slots ``i ≤ j``: the ordinal of ``fbb({g_i, g_j})``, or a value
        ``≥ len(relations)`` when that pair has no bidirectional box.  Empty
        when no pair of the box has one.
    ``sources[t - 1]``
        The raw ordinal of target ``t ≥ 1``: 1 + ``c`` for ordinal ``c`` of
        the left child's entry, ``1 + len(left targets) + c`` for ordinal
        ``c`` of the right child's (ordinal 0 of a child entry being the
        child box itself).

    Shapes compare and hash by identity; :meth:`same_content` and
    :meth:`content_hash` compare by content, without copying any relation's
    masks.
    """

    __slots__ = (
        "relations", "ends", "fib", "fbb", "fbb_rows", "sources", "_pick", "_hash", "__weakref__"
    )

    def __init__(self, relations, ends, fib, fbb, fbb_rows, sources):
        self.relations: Tuple[Relation, ...] = relations
        self.ends: Sequence[int] = ends
        self.fib: Sequence[int] = fib
        self.fbb: Sequence[int] = fbb
        self.fbb_rows: Tuple[int, ...] = fbb_rows
        self.sources: Tuple[int, ...] = sources
        self._pick = None
        self._hash: Optional[int] = None

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """True iff target ``ancestor`` is an ancestor of (or is) ``descendant``."""
        return ancestor <= descendant < self.ends[ancestor]

    def resolve(self, left_box: Box, right_box: Box) -> Tuple[Optional[Box], ...]:
        """The ``targets`` of a box with this shape over the given indexed children."""
        pick = self._pick
        if pick is None:
            pick = self._pick = itemgetter(0, *self.sources)
        return pick((None, left_box) + left_box.targets[1:] + (right_box,) + right_box.targets[1:])

    def content_hash(self) -> int:
        """A hash of the shape's content, computed once."""
        value = self._hash
        if value is None:
            value = self._hash = hash((
                _hashable(self.ends),
                _hashable(self.fib),
                _hashable(self.fbb),
                self.sources,
                tuple(
                    hash((r.n_lower, r.n_upper, tuple(r.masks_view()))) for r in self.relations
                ),
            ))
        return value

    def same_content(self, other: "IndexShape") -> bool:
        """True iff both shapes hold equal tables and relations."""
        return self is other or (
            self.content_hash() == other.content_hash()
            and self.sources == other.sources  # hence as many relations
            and self.fib == other.fib
            and self.fbb == other.fbb
            and self.ends == other.ends
            and all(
                a is b
                or (
                    a.backend == b.backend
                    and a.n_lower == b.n_lower
                    and a.n_upper == b.n_upper
                    and a.masks_view() == b.masks_view()
                )
                for a, b in zip(self.relations, other.relations)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"IndexShape(targets={len(self.relations)}, width={len(self.fib)})"


def _hashable(table):
    """A byte table as is, an int→int dict table as the tuple of its values."""
    return table if table.__class__ is bytes else tuple(table.values())


#: width -> fbb row offsets (``fbb_rows``), shared by every entry of that width
_FBB_ROWS: Dict[int, Tuple[int, ...]] = {}
#: (width, backend) -> the shape every leaf box of that width shares: a leaf
#: is its own fib for every slot, no pair has a fbb, and it has no targets
#: besides itself — which every leaf's targets, one shared tuple, say: an
#: entry never stores its owner
_LEAF_SHAPES: Dict[Tuple[int, str], IndexShape] = {}
_LEAF_TARGETS = (None,)


def _fbb_rows(width: int) -> Tuple[int, ...]:
    """Offsets into the row-major upper triangle: pair ``(i, j)`` sits at ``rows[i] + j``."""
    rows = _FBB_ROWS.get(width)
    if rows is None:
        rows = _FBB_ROWS[width] = tuple(i * (2 * width - i - 1) // 2 for i in range(width))
    return rows


# --------------------------------------------------------------------------- lookups
def fib_of_mask(shape: IndexShape, slot_mask: int) -> int:
    """Ordinal of ``fib(Γ)`` for a boxed set given as a bitmask over slots.

    The preorder-first of the slots' fibs (equation (1)): a minimum over the
    set bits, with no allocation.
    """
    fib = shape.fib
    best = -1
    while slot_mask:
        low = slot_mask & -slot_mask
        value = fib[low.bit_length() - 1]
        if not value:
            return 0
        if best < 0 or value < best:
            best = value
        slot_mask ^= low
    if best < 0:
        raise IndexError_("fib of an empty boxed set requested")
    return best


def fbb_of_mask(shape: IndexShape, slot_mask: int) -> int:
    """Ordinal of ``fbb(Γ)`` for a boxed set given as a bitmask over slots, or -1.

    Following Definition 6.1 and Observation 6.2, the first bidirectional box
    of a larger set is the preorder-minimum of the stored values for the
    pairs (and singletons) included in the set.
    """
    fbb = shape.fbb
    if not fbb:
        return -1
    rows = shape.fbb_rows
    none = len(shape.relations)
    best = none
    outer = slot_mask
    while outer:
        low_i = outer & -outer
        base = rows[low_i.bit_length() - 1]
        inner = outer  # pairs (i, j) with j >= i, including the singleton (i, i)
        outer ^= low_i
        while inner:
            low_j = inner & -inner
            value = fbb[base + low_j.bit_length() - 1]
            if value < best:
                if not value:
                    return 0
                best = value
            inner ^= low_j
    return best if best < none else -1


# --------------------------------------------------------------------------- construction
def _leaf_shape(width: int, relation_backend: Optional[str]) -> IndexShape:
    backend = relation_backend or DEFAULT_BACKEND
    shape = _LEAF_SHAPES.get((width, backend))
    if shape is None:
        shape = _LEAF_SHAPES[(width, backend)] = IndexShape(
            (Relation.identity(width, backend=backend),),
            b"\x01",
            bytes(width),
            b"",
            _fbb_rows(width),
            (),
        )
    return shape


def build_box_index(
    box: Box, relation_backend: Optional[str] = None, shapes=None
) -> IndexShape:
    """Build the index entry of a single box from its children's entries.

    The entry is stamped on the box (``box.targets`` and ``box.shape``) and
    its shape returned.  For internal boxes, both children must already
    carry their entries (the construction is bottom-up).

    ``shapes`` is an enabled :class:`~repro.circuits.build.BuildCache` or
    None.  With one, the box first looks its shape up by (plan, left shape,
    right shape, backend), and a newly constructed shape is interned there
    (see the module docs); the entry is the same either way.
    """
    if box.is_leaf_box():
        box.targets = _LEAF_TARGETS
        shape = box.shape = _leaf_shape(box.n_unions, relation_backend)
        return shape

    left_box = box.left_child
    right_box = box.right_child
    if left_box.shape is None or right_box.shape is None:
        raise IndexError_("children must be indexed before their parent (bottom-up order)")

    shape = key = None
    if shapes is not None:
        key = (box.plan, left_box.shape, right_box.shape, relation_backend or DEFAULT_BACKEND)
        shape = shapes.get_shape(key)
    if shape is None:
        shape, box.targets = _construct(box, relation_backend)
        if key is not None:
            shape = shapes.put_shape(key, shape)
    else:
        box.targets = shape.resolve(left_box, right_box)
    box.shape = shape
    return shape


def _construct(
    box: Box, relation_backend: Optional[str]
) -> Tuple[IndexShape, Tuple[Optional[Box], ...]]:
    """Lemma 6.3 for one internal box: its shape and its targets.

    Every value is first computed in the *raw* ordinal space of the box:
    0 for the box, then all targets of the left child's entry, then all
    targets of the right child's — already preorder, since each child's
    ordinals are.  A pair whose wiring reaches both children has the box as
    its fbb; a single-side pair asks the child's entry for the fbb of the
    OR of its slots' wiring, memoized per OR-mask.  The raw values actually
    used are then renumbered densely, which keeps only the targets this box
    needs.
    """
    n = box.n_unions
    left_box = box.left_child
    right_box = box.right_child
    left_shape = left_box.shape
    right_shape = right_box.shape

    # Input wiring, stamped from the box plan; no isinstance rescan of gate
    # inputs happens here.
    local_mask = box.local_mask
    left_inputs = box.left_input_masks
    right_inputs = box.right_input_masks
    right_base = 1 + len(left_shape.relations)
    n_raw = right_base + len(right_shape.relations)
    byte_tables = n_raw <= _BYTE_LIMIT
    raw_none = _BYTE_LIMIT if byte_tables else n_raw

    # ------------------------------------------------------------------- fib
    used = 1 | (1 << 1) | (1 << right_base)  # the box and both children
    fib_raw: List[int] = []
    for slot in range(n):
        if (local_mask >> slot) & 1:
            value = 0
        elif left_inputs[slot]:
            value = 1 + fib_of_mask(left_shape, left_inputs[slot])
        elif right_inputs[slot]:
            value = right_base + fib_of_mask(right_shape, right_inputs[slot])
        else:
            raise CircuitStructureError("∪-gate with no inputs during index construction")
        used |= 1 << value
        fib_raw.append(value)

    # ------------------------------------------------------------------- fbb
    # A pair whose wiring reaches both children has the box as its fbb (raw
    # 0, the fill value).  Only pairs of slots wired to one side at most are
    # visited: a pair reaching one child asks that child for the fbb of the
    # OR of their wiring masks, memoized per mask; a pair reaching no child
    # has no fbb.
    rows = _fbb_rows(n)
    fbb_raw = [0] * (n * (n + 1) // 2)
    left_only = right_only = neither = 0
    for slot in range(n):
        if left_inputs[slot]:
            if not right_inputs[slot]:
                left_only |= 1 << slot
        elif right_inputs[slot]:
            right_only |= 1 << slot
        else:
            neither |= 1 << slot
    for side_only, inputs, child_shape, offset in (
        (left_only, left_inputs, left_shape, 1),
        (right_only, right_inputs, right_shape, right_base),
    ):
        memo: Dict[int, int] = {}
        child_has_fbb = bool(child_shape.fbb)
        pending = side_only
        while pending:
            low = pending & -pending
            a = low.bit_length() - 1
            pending ^= low
            mask_a = inputs[a]
            # same-side partners b >= a (a itself included) and every
            # unwired slot, in either order
            partners = (side_only & ~(low - 1)) | neither
            while partners:
                low_b = partners & -partners
                b = low_b.bit_length() - 1
                partners ^= low_b
                if child_has_fbb:
                    key = mask_a | inputs[b]
                    value = memo.get(key)
                    if value is None:
                        child = fbb_of_mask(child_shape, key)
                        value = memo[key] = raw_none if child < 0 else offset + child
                        used |= 1 << value
                else:
                    value = raw_none
                fbb_raw[rows[a] + b if a <= b else rows[b] + a] = value
    pending = neither
    while pending:
        low = pending & -pending
        a = low.bit_length() - 1
        pending ^= low
        partners = neither & ~(low - 1)
        while partners:
            low_b = partners & -partners
            fbb_raw[rows[a] + low_b.bit_length() - 1] = raw_none
            partners ^= low_b
    used &= ~(1 << raw_none)
    has_fbb = bool(fbb_raw) and min(fbb_raw) < raw_none

    # ------------------------------------------------- targets, dense ordinals
    left_relation = wire_relation(box, "left", backend=relation_backend)
    right_relation = wire_relation(box, "right", backend=relation_backend)
    targets: List[Optional[Box]] = []
    relations: List[Relation] = []
    ends: List[int] = []
    sources: List[int] = []
    renumber = bytearray(256) if byte_tables else [0] * (n_raw + 1)
    bits = used
    while bits:
        low = bits & -bits
        raw = low.bit_length() - 1
        bits ^= low
        renumber[raw] = len(targets)
        if raw == 0:
            targets.append(None)
            relations.append(Relation.identity(n, backend=relation_backend))
            raw_end = n_raw
        else:
            sources.append(raw)
            if raw < right_base:
                child_box, child_shape, wire, offset = left_box, left_shape, left_relation, 1
            else:
                child_box, child_shape, wire = right_box, right_shape, right_relation
                offset = right_base
            child = raw - offset
            if child:
                targets.append(child_box.targets[child])
                relations.append(child_shape.relations[child].compose(wire))
            else:
                targets.append(child_box)
                relations.append(wire)
            raw_end = offset + child_shape.ends[child]
        # the dense end counts the used raw ordinals below the raw one
        ends.append((used & ((1 << raw_end) - 1)).bit_count())

    if byte_tables:
        renumber[raw_none] = raw_none
        fib = bytes(fib_raw).translate(renumber)
        fbb = bytes(fbb_raw).translate(renumber) if has_fbb else b""
        ends_table = bytes(ends)
    else:
        # too many targets for a byte: int→int dicts, which the cyclic GC
        # does not track either (an ``array`` would be tracked)
        renumber[raw_none] = len(targets)
        fib = dict(enumerate([renumber[value] for value in fib_raw]))
        fbb = dict(enumerate([renumber[value] for value in fbb_raw])) if has_fbb else {}
        ends_table = dict(enumerate(ends))

    shape = IndexShape(tuple(relations), ends_table, fib, fbb, rows, tuple(sources))
    return shape, tuple(targets)


def build_index(circuit: AssignmentCircuit, relation_backend: Optional[str] = None) -> None:
    """Build the full index ``I(C)`` bottom-up over all boxes (Lemma 6.3)."""
    # Post-order traversal of the tree of boxes.
    order: List[Box] = []
    stack: List[Tuple[Box, bool]] = [(circuit.root_box, False)]
    while stack:
        current, visited = stack.pop()
        if visited or current.is_leaf_box():
            order.append(current)
        else:
            stack.append((current, True))
            stack.append((current.right_child, False))
            stack.append((current.left_child, False))
    for current in order:
        build_box_index(current, relation_backend=relation_backend)
