"""Brute-force oracles used as ground truth in the test suite.

Two independent oracle styles are provided for both binary and unranked
automata:

* **Assignment-set dynamic programming**: compute, for every node and state,
  the *set of assignments* of runs reaching that state, exactly mirroring
  Definition 3.3.  Exponential in the number of answers but independent of the
  enumeration machinery, so it cross-checks the circuits and enumerators.
* **Valuation enumeration**: iterate over *all* valuations of the tree and
  test acceptance.  Doubly exponential, only usable on tiny instances, but it
  exercises completely different code paths and validates the DP oracle.

The agreement of these oracles with the circuit-based enumerators on random
instances is the backbone of the correctness argument for this reproduction.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.assignments import Assignment
from repro.automata.binary_tva import BinaryTVA
from repro.automata.unranked_tva import UnrankedTVA
from repro.trees.binary import BinaryNode, BinaryTree
from repro.trees.unranked import UnrankedNode, UnrankedTree

__all__ = [
    "binary_satisfying_assignments",
    "binary_satisfying_assignments_by_valuations",
    "unranked_satisfying_assignments",
    "unranked_satisfying_assignments_by_valuations",
    "powerset",
]


def powerset(items: Iterable[object]) -> List[FrozenSet[object]]:
    """All subsets of ``items`` as frozensets (the empty set first)."""
    items = list(items)
    return [
        frozenset(combo)
        for combo in chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    ]


# --------------------------------------------------------------------------- binary trees
def binary_state_assignments(
    automaton: BinaryTVA, tree: BinaryTree
) -> Dict[int, Dict[object, Set[Assignment]]]:
    """For each node id and state, the set of assignments of runs reaching it.

    This is the semantics that the assignment circuit of Definition 3.3 must
    capture at its gates ``γ(n, q)``.
    """
    table: Dict[int, Dict[object, Set[Assignment]]] = {}

    # Post-order traversal without recursion (trees in tests can be deep).
    order: List[BinaryNode] = []
    stack: List[Tuple[BinaryNode, bool]] = [(tree.root, False)]
    while stack:
        node, visited = stack.pop()
        if visited or node.is_leaf():
            order.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))

    for node in order:
        per_state: Dict[object, Set[Assignment]] = {}
        if node.is_leaf():
            for var_set, state in automaton.initial_by_label.get(node.label, []):
                assignment = frozenset((var, node.node_id) for var in var_set)
                per_state.setdefault(state, set()).add(assignment)
        else:
            left = table[node.left.node_id]
            right = table[node.right.node_id]
            for q1, left_assignments in left.items():
                for q2, right_assignments in right.items():
                    targets = automaton.delta_by_children.get((node.label, q1, q2), set())
                    if not targets:
                        continue
                    combined = {
                        sl | sr for sl in left_assignments for sr in right_assignments
                    }
                    for q in targets:
                        per_state.setdefault(q, set()).update(combined)
        table[node.node_id] = per_state
    return table


def binary_satisfying_assignments(automaton: BinaryTVA, tree: BinaryTree) -> Set[Assignment]:
    """The set of satisfying assignments of ``automaton`` on ``tree`` (DP oracle)."""
    table = binary_state_assignments(automaton, tree)
    root = table[tree.root.node_id]
    result: Set[Assignment] = set()
    for state in automaton.final:
        result |= root.get(state, set())
    return result


def binary_satisfying_assignments_by_valuations(
    automaton: BinaryTVA, tree: BinaryTree
) -> Set[Assignment]:
    """Satisfying assignments obtained by iterating over all leaf valuations.

    Only usable when ``|X| * #leaves`` is small (the number of valuations is
    ``2^(|X| * #leaves)``).
    """
    leaves = tree.leaves()
    variables = sorted(automaton.variables, key=repr)
    subsets = powerset(variables)
    result: Set[Assignment] = set()
    for choice in product(subsets, repeat=len(leaves)):
        valuation = {leaf.node_id: vs for leaf, vs in zip(leaves, choice) if vs}
        if automaton.accepts(tree, valuation):
            assignment = frozenset(
                (var, leaf.node_id) for leaf, vs in zip(leaves, choice) for var in vs
            )
            result.add(assignment)
    return result


# --------------------------------------------------------------------------- unranked trees
def unranked_state_assignments(
    automaton: UnrankedTVA, tree: UnrankedTree
) -> Dict[int, Dict[object, Set[Assignment]]]:
    """For each node id and state, the set of assignments of runs assigning it."""
    table: Dict[int, Dict[object, Set[Assignment]]] = {}

    order: List[UnrankedNode] = []
    stack: List[Tuple[UnrankedNode, bool]] = [(tree.root, False)]
    while stack:
        node, visited = stack.pop()
        if visited or not node.children:
            order.append(node)
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    for node in order:
        per_state: Dict[object, Set[Assignment]] = {}
        for var_set, q0 in automaton.initial_by_label.get(node.label, []):
            own = frozenset((var, node.node_id) for var in var_set)
            # current: state -> set of assignments accumulated while reading children
            current: Dict[object, Set[Assignment]] = {q0: {own}}
            ok = True
            for child in node.children:
                child_table = table[child.node_id]
                nxt: Dict[object, Set[Assignment]] = {}
                for q, assignments in current.items():
                    for q_child, child_assignments in child_table.items():
                        for q_next in automaton.delta_map.get((q, q_child), set()):
                            bucket = nxt.setdefault(q_next, set())
                            for a in assignments:
                                for b in child_assignments:
                                    bucket.add(a | b)
                current = nxt
                if not current:
                    ok = False
                    break
            if ok:
                for q, assignments in current.items():
                    per_state.setdefault(q, set()).update(assignments)
        table[node.node_id] = per_state
    return table


def unranked_satisfying_assignments(automaton: UnrankedTVA, tree: UnrankedTree) -> Set[Assignment]:
    """The set of satisfying assignments of ``automaton`` on ``tree`` (DP oracle)."""
    table = unranked_state_assignments(automaton, tree)
    root = table[tree.root.node_id]
    result: Set[Assignment] = set()
    for state in automaton.final:
        result |= root.get(state, set())
    return result


def unranked_satisfying_assignments_by_valuations(
    automaton: UnrankedTVA, tree: UnrankedTree
) -> Set[Assignment]:
    """Satisfying assignments by iterating over all valuations of all nodes."""
    nodes = list(tree.nodes())
    variables = sorted(automaton.variables, key=repr)
    subsets = powerset(variables)
    result: Set[Assignment] = set()
    for choice in product(subsets, repeat=len(nodes)):
        valuation = {node.node_id: vs for node, vs in zip(nodes, choice) if vs}
        if automaton.accepts(tree, valuation):
            assignment = frozenset(
                (var, node.node_id) for node, vs in zip(nodes, choice) for var in vs
            )
            result.add(assignment)
    return result
