"""Binary tree variable automata (TVAs) — Section 2 of the paper.

A ``Λ,X``-TVA on binary trees is a tuple ``A = (Q, ι, δ, F)`` where

* ``ι ⊆ Λ × 2^X × Q`` is the *initial relation*: it assigns possible states
  to a leaf based on its label and the set of variables annotating it;
* ``δ ⊆ Λ × Q × Q × Q`` is the *transition relation*: on an internal node
  with label ``l`` whose children evaluated to ``q1`` and ``q2``, the node may
  take any state in ``δ_l(q1, q2)``;
* ``F ⊆ Q`` is the set of final (accepting) states.

The automaton reads variable annotations only on leaves.  It is generally
*nondeterministic*; tractable combined complexity for nondeterministic
automata is one of the paper's contributions, so nothing in this library ever
determinizes an automaton except the explicitly exponential baseline used in
the combined-complexity benchmark.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.assignments import Assignment
from repro.errors import InvalidAutomatonError
from repro.trees.binary import BinaryNode, BinaryTree

__all__ = ["BinaryTVA"]

InitialTriple = Tuple[object, FrozenSet[object], object]
TransitionTuple = Tuple[object, object, object, object]


class BinaryTVA:
    """A (generally nondeterministic) tree variable automaton on binary trees."""

    def __init__(
        self,
        states: Iterable[object],
        variables: Iterable[object],
        initial: Iterable[Tuple[object, Iterable[object], object]],
        delta: Iterable[Tuple[object, object, object, object]],
        final: Iterable[object],
        name: str = "",
    ):
        self.states: FrozenSet[object] = frozenset(states)
        self.variables: FrozenSet[object] = frozenset(variables)
        self.initial: Tuple[InitialTriple, ...] = tuple(
            (label, frozenset(var_set), state) for label, var_set, state in initial
        )
        self.delta: Tuple[TransitionTuple, ...] = tuple(delta)
        self.final: FrozenSet[object] = frozenset(final)
        self.name = name

        # -------- indexes used by the circuit construction and run checking
        #: label -> list of (variable set, state)
        self.initial_by_label: Dict[object, List[Tuple[FrozenSet[object], object]]] = {}
        #: (label, state) -> list of variable sets
        self.initial_by_label_state: Dict[Tuple[object, object], List[FrozenSet[object]]] = {}
        for label, var_set, state in self.initial:
            self.initial_by_label.setdefault(label, []).append((var_set, state))
            self.initial_by_label_state.setdefault((label, state), []).append(var_set)

        #: (label, q1, q2) -> frozenset of result states
        self.delta_by_children: Dict[Tuple[object, object, object], Set[object]] = {}
        #: label -> list of (q1, q2, q)
        self.delta_by_label: Dict[object, List[Tuple[object, object, object]]] = {}
        for label, q1, q2, q in self.delta:
            self.delta_by_children.setdefault((label, q1, q2), set()).add(q)
            self.delta_by_label.setdefault(label, []).append((q1, q2, q))

        self.validate()
        self._zero_states: Optional[FrozenSet[object]] = None
        self._one_states: Optional[FrozenSet[object]] = None

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BinaryTVA(name={self.name!r}, |Q|={len(self.states)}, "
            f"|iota|={len(self.initial)}, |delta|={len(self.delta)})"
        )

    def size(self) -> int:
        """Return ``|A| = |Q| + |ι| + |δ|`` as defined in the paper."""
        return len(self.states) + len(self.initial) + len(self.delta)

    def labels(self) -> FrozenSet[object]:
        """Return the set of labels mentioned by the automaton."""
        return frozenset(t[0] for t in self.initial) | frozenset(t[0] for t in self.delta)

    def validate(self) -> None:
        """Check that transitions only mention declared states and variables."""
        if not self.states:
            raise InvalidAutomatonError("a TVA needs at least one state")
        for label, var_set, state in self.initial:
            if state not in self.states:
                raise InvalidAutomatonError(f"initial relation uses unknown state {state!r}")
            unknown = var_set - self.variables
            if unknown:
                raise InvalidAutomatonError(f"initial relation uses unknown variables {unknown!r}")
        for label, q1, q2, q in self.delta:
            for s in (q1, q2, q):
                if s not in self.states:
                    raise InvalidAutomatonError(f"transition uses unknown state {s!r}")
        if not self.final <= self.states:
            raise InvalidAutomatonError("final states must be a subset of the states")

    # ------------------------------------------------------- state classification
    def _classify_states(self) -> Tuple[FrozenSet[object], FrozenSet[object]]:
        """Compute the sets of 0-states and 1-states by a least fixpoint.

        A 0-state is reachable at the root of some tree under the empty
        valuation; a 1-state is reachable under some non-empty valuation.
        """
        zero: Set[object] = set()
        one: Set[object] = set()
        for label, var_set, state in self.initial:
            if var_set:
                one.add(state)
            else:
                zero.add(state)
        changed = True
        while changed:
            changed = False
            for label, q1, q2, q in self.delta:
                if q not in zero and q1 in zero and q2 in zero:
                    zero.add(q)
                    changed = True
                if q not in one:
                    q1_reach = q1 in zero or q1 in one
                    q2_reach = q2 in zero or q2 in one
                    if (q1 in one and q2_reach) or (q2 in one and q1_reach):
                        one.add(q)
                        changed = True
        return frozenset(zero), frozenset(one)

    @property
    def zero_states(self) -> FrozenSet[object]:
        """States reachable under the empty valuation."""
        if self._zero_states is None:
            self._zero_states, self._one_states = self._classify_states()
        return self._zero_states

    @property
    def one_states(self) -> FrozenSet[object]:
        """States reachable under some non-empty valuation."""
        if self._one_states is None:
            self._zero_states, self._one_states = self._classify_states()
        return self._one_states

    def is_homogenized(self) -> bool:
        """Return ``True`` if every state is a 0-state xor a 1-state (and reachable)."""
        zero, one = self.zero_states, self.one_states
        if zero & one:
            return False
        return zero | one == self.states

    def is_trimmed(self) -> bool:
        """Return ``True`` if every state is reachable at the root of some run."""
        return (self.zero_states | self.one_states) == self.states

    # ----------------------------------------------------------------- running
    def reachable_states(
        self, tree: BinaryTree, valuation: Mapping[int, Iterable[object]]
    ) -> Dict[int, FrozenSet[object]]:
        """Return, for each node id, the set of states some run can assign to it.

        ``valuation`` maps leaf node ids to iterables of variables; missing
        leaves are treated as annotated with the empty set.
        """
        result: Dict[int, FrozenSet[object]] = {}

        def annotation(node: BinaryNode) -> FrozenSet[object]:
            return frozenset(valuation.get(node.node_id, ()))

        # Iterative post-order to avoid recursion limits on deep trees.
        stack: List[Tuple[BinaryNode, bool]] = [(tree.root, False)]
        order: List[BinaryNode] = []
        while stack:
            node, visited = stack.pop()
            if visited or node.is_leaf():
                order.append(node)
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        for node in order:
            if node.is_leaf():
                ann = annotation(node)
                result[node.node_id] = frozenset(
                    state
                    for var_set, state in self.initial_by_label.get(node.label, [])
                    if var_set == ann
                )
            else:
                states_set: Set[object] = set()
                for q1 in result[node.left.node_id]:
                    for q2 in result[node.right.node_id]:
                        states_set |= self.delta_by_children.get((node.label, q1, q2), set())
                result[node.node_id] = frozenset(states_set)
        return result

    def accepts(self, tree: BinaryTree, valuation: Mapping[int, Iterable[object]]) -> bool:
        """Return ``True`` if some accepting run exists on ``tree`` under ``valuation``."""
        reachable = self.reachable_states(tree, valuation)
        return bool(reachable[tree.root.node_id] & self.final)

    def check_run(
        self,
        tree: BinaryTree,
        valuation: Mapping[int, Iterable[object]],
        run: Mapping[int, object],
    ) -> bool:
        """Check whether ``run`` (node id → state) is a valid run under ``valuation``."""
        for node in tree.nodes():
            state = run.get(node.node_id)
            if state is None:
                return False
            if node.is_leaf():
                ann = frozenset(valuation.get(node.node_id, ()))
                if ann not in [
                    vs for vs in self.initial_by_label_state.get((node.label, state), [])
                ]:
                    return False
            else:
                q1 = run.get(node.left.node_id)
                q2 = run.get(node.right.node_id)
                if state not in self.delta_by_children.get((node.label, q1, q2), set()):
                    return False
        return True

    # ------------------------------------------------------------ transformations
    def restrict_to_states(self, keep: Iterable[object]) -> "BinaryTVA":
        """Return the automaton trimmed to the given states."""
        keep_set = set(keep)
        return BinaryTVA(
            states=keep_set,
            variables=self.variables,
            initial=[(l, v, q) for (l, v, q) in self.initial if q in keep_set],
            delta=[
                (l, q1, q2, q)
                for (l, q1, q2, q) in self.delta
                if q in keep_set and q1 in keep_set and q2 in keep_set
            ],
            final=self.final & keep_set,
            name=self.name,
        )

    def trim(self) -> "BinaryTVA":
        """Remove states that are not reachable at the root of any run."""
        reachable = self.zero_states | self.one_states
        if reachable == self.states:
            return self
        if not reachable:
            # Keep a single dead state so the automaton stays well-formed; it
            # accepts nothing.
            only = next(iter(self.states))
            return BinaryTVA([only], self.variables, [], [], [], name=self.name)
        return self.restrict_to_states(reachable)

    def useful_states(self) -> FrozenSet[object]:
        """States that are both reachable and co-reachable (can contribute to acceptance).

        A state is *useful* when it is reachable at the root of some subtree
        run and can be extended upward to an accepting run.  Restricting to
        useful states does not change the satisfying assignments but can
        shrink the automaton dramatically — important for the translated
        automata of Lemma 7.4, whose state space ``Q² ∪ Q⁴`` contains many
        pairs that can never occur.
        """
        reachable = self.zero_states | self.one_states
        useful: Set[object] = set(self.final & reachable)
        changed = True
        while changed:
            changed = False
            for label, q1, q2, q in self.delta:
                if q in useful:
                    if q1 in reachable and q2 in reachable:
                        if q1 not in useful:
                            useful.add(q1)
                            changed = True
                        if q2 not in useful:
                            useful.add(q2)
                            changed = True
        return frozenset(useful)

    def trim_useful(self) -> "BinaryTVA":
        """Restrict the automaton to its useful states (same satisfying assignments)."""
        useful = self.useful_states()
        if useful == self.states:
            return self
        if not useful:
            only = next(iter(self.states))
            return BinaryTVA([only], self.variables, [], [], [], name=self.name)
        return self.restrict_to_states(useful)

    def with_final(self, final: Iterable[object]) -> "BinaryTVA":
        """Return a copy of the automaton with a different set of final states."""
        return BinaryTVA(self.states, self.variables, self.initial, self.delta, final, self.name)
