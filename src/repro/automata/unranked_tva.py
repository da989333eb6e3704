"""Stepwise tree variable automata on *unranked* trees (Section 7).

A ``Λ,X``-TVA on unranked trees is a tuple ``A = (Q, ι, δ, F)`` where

* ``ι ⊆ Λ × 2^X × Q`` assigns possible *initial* states to every node (not
  only leaves) based on its label and the variables annotating it;
* ``δ ⊆ Q × Q × Q`` consumes the states of the children one by one, like a
  word automaton reading its input letter by letter: if the node is currently
  in state ``q`` and the next child evaluated to ``q'``, the node may move to
  any ``q''`` with ``(q, q', q'') ∈ δ``;
* the state of a node is the state reached after reading all of its children,
  starting from one of its initial states;
* ``F ⊆ Q`` is the set of final states (for the root).

Valuations of unranked trees annotate *all* nodes, so the satisfying
assignments may bind variables to internal nodes as well as to leaves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.errors import InvalidAutomatonError
from repro.trees.unranked import UnrankedNode, UnrankedTree

__all__ = ["UnrankedTVA"]


class UnrankedTVA:
    """A (generally nondeterministic) stepwise TVA on unranked trees."""

    def __init__(
        self,
        states: Iterable[object],
        variables: Iterable[object],
        initial: Iterable[Tuple[object, Iterable[object], object]],
        delta: Iterable[Tuple[object, object, object]],
        final: Iterable[object],
        name: str = "",
    ):
        self.states: FrozenSet[object] = frozenset(states)
        self.variables: FrozenSet[object] = frozenset(variables)
        self.initial: Tuple[Tuple[object, FrozenSet[object], object], ...] = tuple(
            (label, frozenset(vs), q) for label, vs, q in initial
        )
        self.delta: Tuple[Tuple[object, object, object], ...] = tuple(delta)
        self.final: FrozenSet[object] = frozenset(final)
        self.name = name

        #: (label, frozenset of variables) -> set of initial states
        self.initial_map: Dict[Tuple[object, FrozenSet[object]], Set[object]] = {}
        #: label -> list of (variable set, state)
        self.initial_by_label: Dict[object, List[Tuple[FrozenSet[object], object]]] = {}
        for label, var_set, q in self.initial:
            self.initial_map.setdefault((label, var_set), set()).add(q)
            self.initial_by_label.setdefault(label, []).append((var_set, q))

        #: (q, q_child) -> set of successor states
        self.delta_map: Dict[Tuple[object, object], Set[object]] = {}
        for q, q_child, q_next in self.delta:
            self.delta_map.setdefault((q, q_child), set()).add(q_next)

        self.validate()

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"UnrankedTVA(name={self.name!r}, |Q|={len(self.states)}, "
            f"|iota|={len(self.initial)}, |delta|={len(self.delta)})"
        )

    def size(self) -> int:
        """Return ``|Q| + |ι| + |δ|``."""
        return len(self.states) + len(self.initial) + len(self.delta)

    def validate(self) -> None:
        """Check that transitions only mention declared states and variables."""
        if not self.states:
            raise InvalidAutomatonError("an unranked TVA needs at least one state")
        for label, var_set, q in self.initial:
            if q not in self.states:
                raise InvalidAutomatonError(f"initial relation uses unknown state {q!r}")
            unknown = var_set - self.variables
            if unknown:
                raise InvalidAutomatonError(f"initial relation uses unknown variables {unknown!r}")
        for q, q_child, q_next in self.delta:
            for s in (q, q_child, q_next):
                if s not in self.states:
                    raise InvalidAutomatonError(f"transition uses unknown state {s!r}")
        if not self.final <= self.states:
            raise InvalidAutomatonError("final states must be a subset of the states")

    # ----------------------------------------------------------------- running
    def initial_states(self, label: object, annotation: FrozenSet[object]) -> FrozenSet[object]:
        """Return ``ι(label, annotation)`` as a frozenset of states."""
        return frozenset(self.initial_map.get((label, frozenset(annotation)), set()))

    def reachable_states(
        self, tree: UnrankedTree, valuation: Mapping[int, Iterable[object]]
    ) -> Dict[int, FrozenSet[object]]:
        """For each node id, the set of states reachable there by some run.

        The computation uses state *sets* per node; because the child states
        are read independently this over-approximates nothing: the stepwise
        semantics composes per-child choices freely, so the set of reachable
        states of a node only depends on the sets of reachable states of its
        children (standard subset argument for nondeterministic stepwise
        automata evaluated bottom-up).
        """
        result: Dict[int, FrozenSet[object]] = {}
        # Post-order traversal without recursion.
        stack: List[Tuple[UnrankedNode, bool]] = [(tree.root, False)]
        while stack:
            node, visited = stack.pop()
            if not visited and node.children:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
                continue
            annotation = frozenset(valuation.get(node.node_id, ()))
            states: Set[object] = set(self.initial_states(node.label, annotation))
            for child in node.children:
                next_states: Set[object] = set()
                for q in states:
                    for q_child in result[child.node_id]:
                        next_states |= self.delta_map.get((q, q_child), set())
                states = next_states
                if not states:
                    break
            result[node.node_id] = frozenset(states)
        return result

    def accepts(self, tree: UnrankedTree, valuation: Mapping[int, Iterable[object]]) -> bool:
        """Return ``True`` if some accepting run exists on ``tree`` under ``valuation``."""
        reachable = self.reachable_states(tree, valuation)
        return bool(reachable[tree.root.node_id] & self.final)

