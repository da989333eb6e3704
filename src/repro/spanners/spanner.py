"""The document-spanner convenience API (Section 8 / Theorem 8.5).

A :class:`Spanner` wraps a spanner regex compiled to a WVA.  It can

* *materialize* all matches on a (short) document with the brute-force WVA
  oracle — handy for tests and ad-hoc use;
* build a :class:`~repro.core.enumerator.WordRuntime` over a document,
  giving enumeration with output-linear delay and logarithmic updates of the
  text (character insertion / deletion / replacement), which is the use case
  the paper's information-extraction motivation describes.

Answers are assignments binding the capture variables to word positions; the
helper :meth:`Spanner.spans` converts an assignment into per-variable
``(start, end)`` spans (half-open intervals of positions) when the captured
positions are contiguous.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.assignments import Assignment
from repro.automata.wva import WVA
from repro.core.enumerator import WordRuntime
from repro.spanners.compile import regex_to_wva

__all__ = ["Spanner"]


class Spanner:
    """A compiled document spanner (regex with capture variables)."""

    def __init__(self, pattern: str, alphabet: Sequence[str], name: Optional[str] = None):
        self.pattern = pattern
        self.alphabet = list(dict.fromkeys(alphabet))
        self.wva: WVA = regex_to_wva(pattern, self.alphabet)
        self.name = name if name is not None else pattern

    # ------------------------------------------------------------------ api
    def variables(self) -> frozenset:
        """The capture variables of the pattern."""
        return self.wva.variables

    def matches(self, document: Sequence[str]) -> Set[Assignment]:
        """Materialize all matches on a document (brute-force; small documents only)."""
        return self.wva.satisfying_assignments(list(document))

    def enumerator(self, document: Sequence[str], relation_backend: Optional[str] = None) -> WordRuntime:
        """An update-aware enumerator over the document (Theorem 8.5).

        ``Engine().add_word(document, spanner)`` serves the same runtime
        through the unified API; this builds one directly, on the relation
        backend of your choice (``"pairs"`` is the reference oracle).
        """
        return WordRuntime(list(document), self.wva, relation_backend=relation_backend)

    @staticmethod
    def spans(assignment: Assignment) -> Dict[object, Tuple[int, int]]:
        """Convert an assignment to per-variable ``(start, end)`` spans.

        Positions bound to a variable must be contiguous (which is the case
        for captures of contiguous sub-expressions); the span is half-open:
        ``(first position, last position + 1)``.  Positions are indices into
        the current word, as :meth:`WordRuntime.assignments_by_index` yields
        them, not the stable position ids of raw answers after an edit.
        """
        result: Dict[object, Tuple[int, int]] = {}
        for variable, positions in valuation_from_assignment_by_var(assignment).items():
            ordered = sorted(positions)
            result[variable] = (ordered[0], ordered[-1] + 1)
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"Spanner({self.pattern!r}, variables={sorted(map(str, self.variables()))})"


def valuation_from_assignment_by_var(assignment: Assignment) -> Dict[object, List[int]]:
    """Group an assignment's positions by variable (helper for span extraction)."""
    grouped: Dict[object, List[int]] = {}
    for variable, position in assignment:
        grouped.setdefault(variable, []).append(position)
    return grouped
