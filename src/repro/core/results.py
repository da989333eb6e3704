"""Result and statistics types returned by the high-level enumerators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.assignments import Assignment

__all__ = ["EnumeratorStats", "UpdateStats", "assignment_to_tuple"]


@dataclass(frozen=True)
class EnumeratorStats:
    """Preprocessing statistics of a :class:`~repro.core.enumerator.TreeRuntime`.

    Attributes
    ----------
    tree_size:
        Number of nodes of the (unranked) input tree.
    term_size / term_height:
        Size and height of the balanced forest-algebra term.
    automaton_states / circuit_width:
        Number of states of the translated homogenized automaton, and the
        actual circuit width (maximum number of ∪-gates in a box) — the
        quantity the delay of Theorem 6.5 is polynomial in.
    circuit_gates:
        Total number of circuit gates (linear in the tree, Lemma 3.7).
    preprocessing_seconds:
        Wall-clock time spent building the term, circuit and index.
    """

    tree_size: int
    term_size: int
    term_height: int
    automaton_states: int
    circuit_width: int
    circuit_gates: int
    preprocessing_seconds: float


@dataclass(frozen=True)
class UpdateStats:
    """What one update cost.

    ``trunk_size`` is the number of circuit boxes rebuilt (Lemma 7.3 bounds
    it by ``O(log |T|)`` for non-rebalancing updates); ``rebuilt_subterm_size``
    is non-zero when the balancing layer re-encoded a subterm (amortized).
    """

    trunk_size: int
    rebuilt_subterm_size: int
    seconds: float
    new_node_id: Optional[int] = None
    new_position_id: Optional[int] = None


def assignment_to_tuple(assignment: Assignment, variables: Tuple[object, ...]) -> Tuple[Optional[int], ...]:
    """Convert an assignment with first-order semantics into an answer tuple.

    For queries where every variable is bound to exactly one node (the
    free first-order variables of Corollary 8.3), the assignment
    ``{⟨x:3⟩, ⟨y:7⟩}`` becomes the tuple ``(3, 7)`` for ``variables=("x","y")``.
    Variables not bound in the assignment yield ``None``.
    """
    by_var: Dict[object, int] = {}
    for var, node_id in assignment:
        by_var[var] = node_id
    return tuple(by_var.get(var) for var in variables)
