"""Assignments, singletons and valuations (Section 2).

The paper represents a query result as an *assignment*: a set of singletons
``⟨Z : n⟩`` pairing a (second-order) variable ``Z`` with a tree node ``n``.
An assignment is in bijection with a *valuation* mapping each node to the set
of variables it carries.  Throughout the library:

* a **singleton** is a ``(variable, node_id)`` pair (a plain tuple);
* an **assignment** is a ``frozenset`` of singletons;
* a **valuation** is a ``dict`` mapping node ids to ``frozenset`` of variables
  (nodes mapped to the empty set are omitted).

Keeping these as plain hashable Python values makes assignments directly
usable as set/dict members, which the tests and the duplicate-elimination
checks rely on heavily.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

__all__ = [
    "Singleton",
    "Assignment",
    "EMPTY_ASSIGNMENT",
    "assignment_of",
    "assignment_from_valuation",
    "valuation_from_assignment",
    "format_assignment",
]

Singleton = Tuple[object, int]
Assignment = FrozenSet[Singleton]

#: The empty assignment (the answer corresponding to the empty valuation).
EMPTY_ASSIGNMENT: Assignment = frozenset()


def assignment_of(*singletons: Singleton) -> Assignment:
    """Build an assignment from explicit singletons.

    >>> assignment_of(("x", 3), ("y", 5)) == frozenset({("x", 3), ("y", 5)})
    True
    """
    return frozenset(singletons)


def assignment_from_valuation(valuation: Mapping[int, Iterable[object]]) -> Assignment:
    """Convert a valuation (node id → variables) into an assignment."""
    return frozenset((var, node_id) for node_id, variables in valuation.items() for var in variables)


def valuation_from_assignment(assignment: Assignment) -> Dict[int, FrozenSet[object]]:
    """Convert an assignment into a valuation (node id → frozenset of variables)."""
    result: Dict[int, set] = {}
    for variable, node_id in assignment:
        result.setdefault(node_id, set()).add(variable)
    return {node_id: frozenset(variables) for node_id, variables in result.items()}


def format_assignment(assignment: Assignment) -> str:
    """Render an assignment as a compact, deterministic string for display."""
    parts = sorted((str(var), node_id) for var, node_id in assignment)
    return "{" + ", ".join(f"{var}:{node_id}" for var, node_id in parts) + "}"
