"""Word variable automata (WVAs) — Section 8.

A ``Λ,X``-WVA is a tuple ``A = (Q, δ, I, F)`` with ``δ ⊆ Q × Λ × 2^X × Q``:
reading position ``i`` of the word, carrying letter ``a`` and annotated with
the variable set ``Y``, the automaton moves from ``q`` to any ``q'`` with
``(q, a, Y, q') ∈ δ``.  This is the automaton model of *extended sequential
variable-set automata* used for document spanners [22, 23]: a satisfying
assignment binds (second-order) variables to word positions.

WVAs are the query language of :class:`repro.core.enumerator.WordRuntime`
(Theorem 8.5): enumeration of their satisfying assignments on a word with
linear preprocessing, output-linear delay and logarithmic updates of the
word.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.assignments import Assignment
from repro.errors import InvalidAutomatonError

__all__ = ["WVA"]


class WVA:
    """A (generally nondeterministic) word variable automaton."""

    def __init__(
        self,
        states: Iterable[object],
        variables: Iterable[object],
        transitions: Iterable[Tuple[object, object, Iterable[object], object]],
        initial: Iterable[object],
        final: Iterable[object],
        name: str = "",
    ):
        self.states: FrozenSet[object] = frozenset(states)
        self.variables: FrozenSet[object] = frozenset(variables)
        self.transitions: Tuple[Tuple[object, object, FrozenSet[object], object], ...] = tuple(
            (q, letter, frozenset(var_set), q_next) for q, letter, var_set, q_next in transitions
        )
        self.initial: FrozenSet[object] = frozenset(initial)
        self.final: FrozenSet[object] = frozenset(final)
        self.name = name

        #: (state, letter, variable set) -> successor states
        self.transition_map: Dict[Tuple[object, object, FrozenSet[object]], Set[object]] = {}
        #: letter -> list of (variable set, source, target)
        self.by_letter: Dict[object, List[Tuple[FrozenSet[object], object, object]]] = {}
        for q, letter, var_set, q_next in self.transitions:
            self.transition_map.setdefault((q, letter, var_set), set()).add(q_next)
            self.by_letter.setdefault(letter, []).append((var_set, q, q_next))

        self.validate()

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover
        return f"WVA(name={self.name!r}, |Q|={len(self.states)}, |delta|={len(self.transitions)})"

    def size(self) -> int:
        """Return ``|Q| + |δ|``."""
        return len(self.states) + len(self.transitions)

    def letters(self) -> FrozenSet[object]:
        """The set of letters mentioned by the transition relation."""
        return frozenset(t[1] for t in self.transitions)

    def validate(self) -> None:
        if not self.states:
            raise InvalidAutomatonError("a WVA needs at least one state")
        for q, letter, var_set, q_next in self.transitions:
            if q not in self.states or q_next not in self.states:
                raise InvalidAutomatonError("transition uses an unknown state")
            if not var_set <= self.variables:
                raise InvalidAutomatonError("transition uses unknown variables")
        if not self.initial <= self.states or not self.final <= self.states:
            raise InvalidAutomatonError("initial/final states must be declared states")

    # ----------------------------------------------------------------- running
    def accepts(self, word: Sequence[object], valuation: Mapping[int, Iterable[object]]) -> bool:
        """Does some run accept ``word`` when position ``i`` carries ``valuation.get(i)``?

        Positions are 0-based.
        """
        current: Set[object] = set(self.initial)
        for position, letter in enumerate(word):
            annotation = frozenset(valuation.get(position, ()))
            nxt: Set[object] = set()
            for q in current:
                nxt |= self.transition_map.get((q, letter, annotation), set())
            current = nxt
            if not current:
                return False
        return bool(current & self.final)

    def satisfying_assignments(self, word: Sequence[object]) -> Set[Assignment]:
        """Brute-force oracle: all satisfying assignments on ``word``.

        Dynamic programming over positions, carrying the set of assignments
        per state; exponential in the number of answers, used in tests and as
        the from-scratch baseline for short words.
        """
        table: Dict[object, Set[Assignment]] = {q: {frozenset()} for q in self.initial}
        for position, letter in enumerate(word):
            nxt: Dict[object, Set[Assignment]] = {}
            for var_set, q, q_next in self.by_letter.get(letter, []):
                assignments = table.get(q)
                if not assignments:
                    continue
                extension = frozenset((var, position) for var in var_set)
                bucket = nxt.setdefault(q_next, set())
                for assignment in assignments:
                    bucket.add(assignment | extension)
            table = nxt
            if not table:
                return set()
        result: Set[Assignment] = set()
        for q in self.final:
            result |= table.get(q, set())
        return result
