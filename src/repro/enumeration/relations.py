"""∪-reachability relations between boxes (Sections 5–6).

A relation ``R(B', B)`` relates the ∪-gates of a lower box ``B'`` to the
∪-gates of an upper box ``B`` (or, during enumeration, to the positions of a
boxed set ``Γ``): ``(g', g) ∈ R`` iff there is a path of ∪-gates from ``g'``
to ``g``.  The enumeration algorithms only ever *compose* such relations,
project them to one side, or test them for emptiness; the index of Section 6
precomputes the relations needed so that all compositions at enumeration time
involve relations of size at most width².

Two representations are provided:

* ``"bitset"`` — the runtime, and the default (``None`` means ``"bitset"``
  wherever a backend is accepted): one Python-int bitmask per lower slot
  (bit ``u`` set iff ``(l, u) ∈ R``).  Composition, projection and emptiness
  are word-parallel OR/AND loops with **zero per-pair object allocation**:
  composing through a mid slot is a single ``|=`` of a machine word (or a
  few words for widths beyond 64), so a composition of ``w×w`` relations is
  ``O(w·⌈w/64⌉)`` word operations.
* ``"pairs"`` — the naive join over explicit pair sets, the ``O(w³)`` bound
  used in the body of the paper (``O(p·w)`` with ``O(p)`` tuple allocations
  for ``p`` pairs).  It is the paper-shaped oracle: the differential tests
  and the benchmark gates compare the bitset runtime against it.

The ``O(w^ω)`` refinement by Boolean matrix multiplication (the remark after
Lemma 6.4) is not implemented: at the widths the circuits of Lemma 3.7
produce, no measurement showed it beating the bitset loop.

The backend is chosen per relation at creation time and propagated through
compositions; a mixed composition resolves to ``"bitset"``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import BackendError

__all__ = [
    "Relation",
    "DEFAULT_BACKEND",
    "VALID_BACKENDS",
    "validate_backend",
    "iter_bits",
]

#: the backend ``None`` stands for, everywhere a backend is accepted
DEFAULT_BACKEND = "bitset"
#: the selectable composition backends, in documentation order
VALID_BACKENDS = ("pairs", "bitset")

#: interned identity relations, keyed by (n, backend) — see Relation.identity.
_IDENTITY_CACHE: Dict[Tuple[int, str], "Relation"] = {}


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged if valid, else raise a helpful error.

    The error is a :class:`repro.errors.BackendError` (which is also a
    ``ValueError``, for callers that caught the historical type).  It lists
    the valid backends and, on a near-miss (``"bitsets"``, ``"pair"``, ...),
    suggests the one probably meant.  Called everywhere a backend name enters
    the library (``relation_backend=`` keyword arguments, :class:`Relation`
    construction) so typos fail fast with the same message instead of deep
    inside a build.
    """
    if backend in VALID_BACKENDS:
        return backend
    message = (
        f"unknown relation backend {backend!r}; valid backends are "
        + ", ".join(repr(b) for b in VALID_BACKENDS)
    )
    if isinstance(backend, str):
        import difflib

        close = difflib.get_close_matches(backend, VALID_BACKENDS, n=1, cutoff=0.6)
        if close:
            message += f" (did you mean {close[0]!r}?)"
    raise BackendError(message)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Relation:
    """A binary relation between ``n_lower`` lower slots and ``n_upper`` upper slots."""

    __slots__ = ("n_lower", "n_upper", "backend", "_pairs", "_masks", "_canonical")

    def __init__(
        self,
        n_lower: int,
        n_upper: int,
        pairs: Iterable[Tuple[int, int]] = (),
        backend: Optional[str] = None,
    ):
        self.n_lower = n_lower
        self.n_upper = n_upper
        self.backend = DEFAULT_BACKEND if backend is None else validate_backend(backend)
        self._pairs: Optional[FrozenSet[Tuple[int, int]]] = None
        self._masks: Optional[List[int]] = None
        self._canonical: Optional[Tuple[int, ...]] = None
        if self.backend == "bitset":
            masks = [0] * n_lower
            for lower, upper in pairs:
                masks[lower] |= 1 << upper
            self._masks = masks
        else:
            self._pairs = frozenset(pairs)

    # ------------------------------------------------------------ constructors
    @classmethod
    def identity(cls, n: int, backend: Optional[str] = None) -> "Relation":
        """The identity relation on ``n`` slots (interned per size and backend).

        Relations are immutable, so the index construction — which needs one
        identity per box — shares a single object per (n, backend).
        """
        if backend is None:
            backend = DEFAULT_BACKEND
        cached = _IDENTITY_CACHE.get((n, backend))
        if cached is None:
            cached = _IDENTITY_CACHE[(n, backend)] = cls(
                n, n, ((i, i) for i in range(n)), backend=backend
            )
        return cached

    @classmethod
    def from_masks(
        cls, n_lower: int, n_upper: int, masks: Sequence[int], backend: Optional[str] = None
    ) -> "Relation":
        """Build a relation from per-lower-slot bitmasks of upper slots."""
        rel = cls(n_lower, n_upper, (), backend=backend)
        if rel.backend == "bitset":
            rel._masks = list(masks)
        else:
            rel._pairs = frozenset(
                (lower, upper) for lower, mask in enumerate(masks) for upper in iter_bits(mask)
            )
        return rel

    # ----------------------------------------------------------------- access
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Return the relation as a frozenset of (lower, upper) pairs."""
        if self._pairs is None:
            self._pairs = frozenset(
                (lower, upper) for lower, mask in enumerate(self._masks) for upper in iter_bits(mask)
            )
        return self._pairs

    def _masks_ref(self) -> List[int]:
        """The cached per-lower-slot bitmask list (internal: NOT to be mutated).

        A ``pairs`` relation converts once and caches the mask form.
        """
        if self._masks is None:
            masks = [0] * self.n_lower
            for lower, upper in self._pairs:
                masks[lower] |= 1 << upper
            self._masks = masks
        return self._masks

    def masks_view(self) -> List[int]:
        """Return the per-lower-slot bitmask list *without copying*.

        The returned list is the relation's internal cache and MUST be
        treated as read-only — relations are immutable and aggressively
        shared (interned identities, plan-level wire relations, stored index
        relations).  This is the accessor the mask-native enumeration of
        Algorithm 2 uses to thread Γ-position masks through compositions with
        zero per-call allocation; it works for both backends.
        """
        return self._masks_ref()

    def is_empty(self) -> bool:
        """Return ``True`` if the relation contains no pair."""
        if self._masks is not None:
            return not any(self._masks)
        return not self._pairs

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __len__(self) -> int:
        if self._masks is not None:
            return sum(mask.bit_count() for mask in self._masks)
        return len(self._pairs)

    def _canonical_masks(self) -> Tuple[int, ...]:
        """A cached, backend-independent canonical form (per-lower bitmasks)."""
        if self._canonical is None:
            self._canonical = tuple(self._masks_ref())
        return self._canonical

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Relation):
            return NotImplemented
        if self.n_lower != other.n_lower or self.n_upper != other.n_upper:
            return False
        return self._canonical_masks() == other._canonical_masks()

    def __hash__(self) -> int:
        return hash((self.n_lower, self.n_upper, self._canonical_masks()))

    def lower_mask(self) -> int:
        """Return ``π₁(R)`` — the lower slots related to some upper slot — as a bitmask."""
        mask = 0
        for lower, row in enumerate(self._masks_ref()):
            if row:
                mask |= 1 << lower
        return mask

    def uppers_by_lower(self) -> Dict[int, FrozenSet[int]]:
        """Return the relation as a mapping lower slot → set of upper slots.

        A ``pairs`` relation groups its pair set even when it has cached the
        mask form: the mapping's order is the generic path's answer order.
        """
        if self.backend == "bitset":
            return {
                lower: frozenset(iter_bits(mask))
                for lower, mask in enumerate(self._masks)
                if mask
            }
        mapping: Dict[int, Set[int]] = {}
        for lower, upper in self._pairs:
            mapping.setdefault(lower, set()).add(upper)
        return {lower: frozenset(uppers) for lower, uppers in mapping.items()}

    # ------------------------------------------------------------- composition
    def compose(self, upper_relation: "Relation") -> "Relation":
        """Compose ``self : lower × mid`` with ``upper_relation : mid × upper``.

        The result relates ``lower`` to ``upper``; this is the operation
        written ``R(B, B') ∘ R`` in Algorithm 3 and in Lemma 6.3.  The result
        is a ``bitset`` relation unless both operands are ``pairs``.
        """
        if self.n_upper != upper_relation.n_lower:
            raise ValueError(
                f"cannot compose relations: mid dimensions differ "
                f"({self.n_upper} vs {upper_relation.n_lower})"
            )
        if self.backend == "bitset" or upper_relation.backend == "bitset":
            upper_masks = upper_relation._masks_ref()
            out: List[int] = []
            for mid_mask in self._masks_ref():
                acc = 0
                while mid_mask:
                    low = mid_mask & -mid_mask
                    acc |= upper_masks[low.bit_length() - 1]
                    mid_mask ^= low
                out.append(acc)
            return Relation.from_masks(self.n_lower, upper_relation.n_upper, out, backend="bitset")
        # Naive join on pair sets: index the upper relation by its lower side.
        by_mid: Dict[int, List[int]] = {}
        for mid, upper in upper_relation.pairs():
            by_mid.setdefault(mid, []).append(upper)
        joined: Set[Tuple[int, int]] = set()
        for lower, mid in self.pairs():
            for upper in by_mid.get(mid, ()):
                joined.add((lower, upper))
        return Relation(self.n_lower, upper_relation.n_upper, joined, backend="pairs")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Relation({self.n_lower}x{self.n_upper}, {len(self)} pairs, {self.backend})"
