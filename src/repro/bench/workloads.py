"""Workload generators shared by the benchmarks (experiments E1–E11)."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.automata.queries import (
    DEFAULT_LABELS,
    boolean_contains_label,
    select_descendant_pairs,
    select_label_pairs,
    select_label_set,
    select_labeled,
    select_leaves,
    select_with_marked_ancestor,
)
from repro.automata.unranked_tva import UnrankedTVA
from repro.trees.edits import EditOperation, random_edit_sequence
from repro.trees.generators import tree_of_shape
from repro.trees.unranked import UnrankedTree

__all__ = [
    "tree_for_experiment",
    "query_for_name",
    "mixed_workload",
    "spanner_document",
    "nondeterministic_family",
    "serving_traffic",
]


def tree_for_experiment(size: int, shape: str = "random", seed: int = 0,
                        labels: Sequence[str] = DEFAULT_LABELS) -> UnrankedTree:
    """A tree of the requested size and shape with the default benchmark alphabet."""
    return tree_of_shape(shape, size, labels, seed)


def query_for_name(name: str, labels: Sequence[str] = DEFAULT_LABELS) -> UnrankedTVA:
    """The benchmark queries, by name (used to parametrize benchmarks)."""
    if name == "select-a":
        return select_labeled("a", labels)
    if name == "leaves":
        return select_leaves(labels)
    if name == "marked-ancestor":
        return select_with_marked_ancestor("b", labels)
    if name == "pairs":
        return select_label_pairs("a", "b", labels)
    if name == "descendant":
        return select_descendant_pairs(labels)
    if name == "label-set":
        return select_label_set("a", labels)
    if name == "boolean":
        return boolean_contains_label("a", labels)
    if name.startswith("nondet-"):
        # e.g. "nondet-6": the nondeterministic witness-path family Φ_k —
        # hundreds of states once translated+homogenized, the query class
        # where persistent compiled queries pay off most.
        return nondeterministic_family(int(name.split("-", 1)[1]), labels)
    raise ValueError(f"unknown benchmark query {name!r}")


def mixed_workload(
    tree: UnrankedTree,
    n_updates: int,
    seed: int = 0,
    labels: Sequence[str] = DEFAULT_LABELS,
    structural: bool = True,
) -> List[EditOperation]:
    """A replayable workload of edits (relabels only when ``structural=False``)."""
    weights = (1.0, 1.0, 1.0, 1.0) if structural else (1.0, 0.0, 0.0, 0.0)
    return random_edit_sequence(tree, labels, n_updates, seed=seed, weights=weights)


def spanner_document(length: int, seed: int = 0, alphabet: Sequence[str] = ("a", "b", "c", " ")) -> List[str]:
    """A synthetic document for the word/spanner experiments."""
    rng = random.Random(seed)
    return [rng.choice(list(alphabet)) for _ in range(length)]


def serving_traffic(
    n_docs: int,
    rounds: int,
    seed: int = 0,
) -> List[Tuple[str, int]]:
    """An interleaved edit/page traffic schedule for the serving benchmark.

    A replayable sequence of ``("edit", doc)`` and ``("page", doc)`` events
    over ``n_docs`` documents: each round touches one document with an edit
    batch and pages answers from another — the standing-query serving pattern
    (many documents, one compiled query, reads racing writes).
    """
    rng = random.Random(seed)
    events: List[Tuple[str, int]] = []
    for _ in range(rounds):
        edit_doc = rng.randrange(n_docs)
        page_doc = rng.randrange(n_docs)
        events.append(("edit", edit_doc))
        events.append(("page", page_doc))
    return events


def nondeterministic_family(k: int, labels: Sequence[str] = DEFAULT_LABELS) -> UnrankedTVA:
    """A family of nondeterministic queries of growing automaton size.

    Φ_k(x): ``x`` is an ``a``-node and the tree contains a node whose label is
    ``b`` at distance exactly ``k`` above some leaf — expressed with a
    nondeterministically guessed witness path of length ``k``, which makes
    the automaton size grow linearly in ``k`` while staying nondeterministic
    (a deterministic automaton for the same query would need to track sets of
    depths, blowing up exponentially in general).
    """
    # States: "idle", counting states 0..k for the witness path, "found" once
    # the witness is complete, plus the x-tracking bit folded in.
    states: List[object] = []
    for x_seen in (0, 1):
        states.append(("idle", x_seen))
        states.append(("done", x_seen))
        for depth in range(k + 1):
            states.append(("count", depth, x_seen))
    initial = []
    for label in labels:
        for x_seen, var_set in ((0, frozenset()), (1, frozenset({"x"}))):
            if x_seen and label != "a":
                continue
            initial.append((label, var_set, ("idle", x_seen)))
            # a leaf can nondeterministically start a witness path
            initial.append((label, var_set, ("count", 0, x_seen)))
            if label == "b" and k == 0:
                initial.append((label, var_set, ("done", x_seen)))
    delta = []
    for x1 in (0, 1):
        for x2 in (0, 1):
            x_out = x1 + x2
            if x_out > 1:
                continue
            # idle nodes just merge the x information of their children
            delta.append((("idle", x1), ("idle", x2), ("idle", x_out)))
            delta.append((("idle", x1), ("done", x2), ("done", x_out)))
            delta.append((("done", x1), ("idle", x2), ("done", x_out)))
            # a node one level above a counting child increments the counter;
            # reaching depth k at a b-labelled node is checked via the initial
            # state of the parent: we approximate by completing at depth k.
            for depth in range(k):
                delta.append((("idle", x1), ("count", depth, x2), ("count", depth + 1, x_out)))
                delta.append((("count", depth + 1, x1), ("idle", x2), ("count", depth + 1, x_out)))
            delta.append((("idle", x1), ("count", k, x2), ("done", x_out)))
    final = [("done", 1)]
    return UnrankedTVA(states, ["x"], initial, delta, final, name=f"nondet_depth_{k}")
