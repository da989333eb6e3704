"""A library of ready-made queries as unranked tree variable automata.

Corollary 8.2 assumes the MSO query is given as a tree automaton (compiling
arbitrary MSO to automata is nonelementary and out of scope here).  This
module provides hand-built stepwise TVAs for the query shapes used throughout
the examples, tests and benchmarks:

* :func:`select_labeled` — Φ(x): ``x`` is a node with a given label;
* :func:`select_leaves` — Φ(x): ``x`` is a leaf;
* :func:`select_with_marked_ancestor` — Φ(x): ``x`` has a (strict) ancestor
  with a given label (the query of the lower bound, Theorem 9.2);
* :func:`select_label_pairs` — Φ(x, y): ``x`` and ``y`` carry given labels;
* :func:`select_descendant_pairs` — Φ(x, y): ``y`` is a strict descendant of ``x``;
* :func:`select_label_set` — Φ(X): ``X`` is any set of nodes with a given
  label (a genuinely second-order query, answers of unbounded size);
* :func:`boolean_contains_label` — Boolean query: some node carries the label.

All queries take the label alphabet as a parameter so that the automaton has
initial entries for every label that can appear in the tree.  Boolean
combinations can be formed with :mod:`repro.automata.boolean_ops`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.automata.unranked_tva import UnrankedTVA

__all__ = [
    "select_labeled",
    "select_leaves",
    "select_with_marked_ancestor",
    "select_special_with_marked_ancestor",
    "select_label_pairs",
    "select_descendant_pairs",
    "select_label_set",
    "boolean_contains_label",
    "DEFAULT_LABELS",
]

DEFAULT_LABELS: Tuple[str, ...] = ("a", "b", "c")


def select_labeled(label: object, labels: Sequence[object] = DEFAULT_LABELS, variable: object = "x") -> UnrankedTVA:
    """Φ(x): ``x`` is a node labelled ``label`` (one node per answer)."""
    labels = list(dict.fromkeys(list(labels) + [label]))
    states = ["none", "found"]
    initial = [(l, frozenset(), "none") for l in labels]
    initial.append((label, frozenset({variable}), "found"))
    delta = [
        ("none", "none", "none"),
        ("none", "found", "found"),
        ("found", "none", "found"),
    ]
    return UnrankedTVA(states, [variable], initial, delta, ["found"], name=f"select_{label}")


def select_leaves(labels: Sequence[object] = DEFAULT_LABELS, variable: object = "x") -> UnrankedTVA:
    """Φ(x): ``x`` is a leaf (a node with no children)."""
    states = ["none", "x_leaf", "x_done"]
    initial = [(l, frozenset(), "none") for l in labels]
    initial += [(l, frozenset({variable}), "x_leaf") for l in labels]
    delta = [
        ("none", "none", "none"),
        ("none", "x_leaf", "x_done"),
        ("none", "x_done", "x_done"),
        ("x_done", "none", "x_done"),
        # a node in state x_leaf that reads any child has no transition: the
        # annotated node must stay childless.
    ]
    return UnrankedTVA(states, [variable], initial, delta, ["x_leaf", "x_done"], name="select_leaves")


def select_with_marked_ancestor(
    marked_label: object,
    labels: Sequence[object] = DEFAULT_LABELS,
    variable: object = "x",
) -> UnrankedTVA:
    """Φ(x): ``x`` has a strict ancestor labelled ``marked_label``.

    This is the query of Theorem 9.2 (existential marked ancestor): relabeling
    nodes to/from ``marked_label`` and asking whether a given node has a
    marked ancestor reduces to enumeration under relabelings.
    """
    labels = list(dict.fromkeys(list(labels) + [marked_label]))
    # States are pairs (marked flag of the current node, status of the subtree):
    # status n = no x below, p = x below but not yet covered, k = x below and covered.
    states = [(m, s) for m in (0, 1) for s in ("n", "p", "k")]
    initial = []
    for l in labels:
        m = 1 if l == marked_label else 0
        initial.append((l, frozenset(), (m, "n")))
        initial.append((l, frozenset({variable}), (m, "p")))
    delta = []
    for m in (0, 1):
        for child_m in (0, 1):
            # reading a child with no x below: status unchanged
            for s in ("n", "p", "k"):
                delta.append(((m, s), (child_m, "n"), (m, s)))
            # reading a child with a pending x: covered iff the current node is marked
            delta.append(((m, "n"), (child_m, "p"), (m, "k" if m else "p")))
            # reading a child whose x is already covered
            delta.append(((m, "n"), (child_m, "k"), (m, "k")))
    final = [(0, "k"), (1, "k")]
    return UnrankedTVA(states, [variable], initial, delta, final, name="marked_ancestor")


def select_special_with_marked_ancestor(
    marked_label: object,
    special_label: object,
    labels: Sequence[object] = DEFAULT_LABELS,
    variable: object = "x",
) -> UnrankedTVA:
    """Φ(x): ``x`` is labelled ``special_label`` and has a strict ancestor labelled ``marked_label``.

    This is exactly the query used in the proof of Theorem 9.2: with a single
    ``special`` node in the tree, enumeration returns at most one answer and
    answers the existential marked-ancestor query for that node.
    """
    labels = list(dict.fromkeys(list(labels) + [marked_label, special_label]))
    states = [(m, s) for m in (0, 1) for s in ("n", "p", "k")]
    initial = []
    for l in labels:
        m = 1 if l == marked_label else 0
        initial.append((l, frozenset(), (m, "n")))
        if l == special_label:
            initial.append((l, frozenset({variable}), (m, "p")))
    delta = []
    for m in (0, 1):
        for child_m in (0, 1):
            for s in ("n", "p", "k"):
                delta.append(((m, s), (child_m, "n"), (m, s)))
            delta.append(((m, "n"), (child_m, "p"), (m, "k" if m else "p")))
            delta.append(((m, "n"), (child_m, "k"), (m, "k")))
    final = [(0, "k"), (1, "k")]
    return UnrankedTVA(
        states, [variable], initial, delta, final, name="special_marked_ancestor"
    )


def select_label_pairs(
    label_x: object,
    label_y: object,
    labels: Sequence[object] = DEFAULT_LABELS,
    variables: Tuple[object, object] = ("x", "y"),
) -> UnrankedTVA:
    """Φ(x, y): ``x`` is a node labelled ``label_x`` and ``y`` a node labelled ``label_y``."""
    var_x, var_y = variables
    labels = list(dict.fromkeys(list(labels) + [label_x, label_y]))
    states = [(sx, sy) for sx in (0, 1) for sy in (0, 1)]
    initial = []
    for l in labels:
        initial.append((l, frozenset(), (0, 0)))
    initial.append((label_x, frozenset({var_x}), (1, 0)))
    initial.append((label_y, frozenset({var_y}), (0, 1)))
    if label_x == label_y:
        initial.append((label_x, frozenset({var_x, var_y}), (1, 1)))
    delta = []
    for sx, sy in states:
        for cx, cy in states:
            if sx + cx <= 1 and sy + cy <= 1:
                delta.append(((sx, sy), (cx, cy), (sx + cx, sy + cy)))
    return UnrankedTVA(
        states, [var_x, var_y], initial, delta, [(1, 1)], name=f"pairs_{label_x}_{label_y}"
    )


def select_descendant_pairs(
    labels: Sequence[object] = DEFAULT_LABELS,
    variables: Tuple[object, object] = ("x", "y"),
) -> UnrankedTVA:
    """Φ(x, y): ``y`` is a strict descendant of ``x``."""
    var_x, var_y = variables
    states = ["none", "y_pending", "x_waiting", "done"]
    initial = []
    for l in labels:
        initial.append((l, frozenset(), "none"))
        initial.append((l, frozenset({var_y}), "y_pending"))
        initial.append((l, frozenset({var_x}), "x_waiting"))
    delta = [
        ("none", "none", "none"),
        ("none", "y_pending", "y_pending"),
        ("none", "done", "done"),
        ("x_waiting", "none", "x_waiting"),
        ("x_waiting", "y_pending", "done"),
        ("y_pending", "none", "y_pending"),
        ("done", "none", "done"),
    ]
    return UnrankedTVA(states, [var_x, var_y], initial, delta, ["done"], name="descendant_pairs")


def select_label_set(
    label: object,
    labels: Sequence[object] = DEFAULT_LABELS,
    variable: object = "X",
) -> UnrankedTVA:
    """Φ(X): ``X`` is any (possibly empty) set of nodes labelled ``label``.

    A second-order query: the number of answers is exponential in the number
    of ``label``-nodes and individual answers can be large, exercising the
    output-linear delay of Theorem 8.1.
    """
    labels = list(dict.fromkeys(list(labels) + [label]))
    states = ["zero", "some"]
    initial = [(l, frozenset(), "zero") for l in labels]
    initial.append((label, frozenset({variable}), "some"))
    delta = []
    for s in states:
        for c in states:
            target = "some" if "some" in (s, c) else "zero"
            delta.append((s, c, target))
    return UnrankedTVA(states, [variable], initial, delta, ["zero", "some"], name=f"set_of_{label}")


def boolean_contains_label(label: object, labels: Sequence[object] = DEFAULT_LABELS) -> UnrankedTVA:
    """Boolean query: the tree contains some node labelled ``label``."""
    labels = list(dict.fromkeys(list(labels) + [label]))
    states = ["no", "yes"]
    initial = []
    for l in labels:
        initial.append((l, frozenset(), "yes" if l == label else "no"))
    delta = []
    for s in states:
        for c in states:
            target = "yes" if "yes" in (s, c) else "no"
            delta.append((s, c, target))
    return UnrankedTVA(states, [], initial, delta, ["yes"], name=f"contains_{label}")
