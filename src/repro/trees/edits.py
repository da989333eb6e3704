"""Edit operations on unranked trees (Definition 7.1).

The paper supports four edit operations on the input unranked tree:

* ``relabel(n, l)``  — change the label of node ``n`` to ``l``;
* ``insert(n, l)``   — insert an ``l``-node as *first child* of ``n``;
* ``insertR(n, l)``  — insert an ``l``-node as *right sibling* of ``n``;
* ``delete(n)``      — remove the leaf ``n``.

This module represents them as small immutable dataclasses so that the same
edit object can be applied to the reference :class:`~repro.trees.unranked.UnrankedTree`
(via :meth:`EditOperation.apply_to_tree`) and to the incremental enumeration
structures, and so that workloads of edits can be generated, logged and
replayed in benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.trees.unranked import UnrankedNode, UnrankedTree

__all__ = [
    "EditOperation",
    "Relabel",
    "Insert",
    "InsertRight",
    "Delete",
    "random_edit",
    "random_edit_sequence",
]


@dataclass(frozen=True)
class EditOperation:
    """Base class of the edit operations of Definition 7.1."""

    node_id: int

    def apply_to_tree(self, tree: UnrankedTree) -> Optional[UnrankedNode]:
        """Apply the edit to a plain :class:`UnrankedTree` (reference semantics)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Return a short human-readable description of the edit."""
        raise NotImplementedError


@dataclass(frozen=True)
class Relabel(EditOperation):
    """``relabel(n, l)``."""

    label: object = None

    def apply_to_tree(self, tree: UnrankedTree) -> UnrankedNode:
        return tree.relabel(self.node_id, self.label)

    def describe(self) -> str:
        return f"relabel(#{self.node_id}, {self.label!r})"


@dataclass(frozen=True)
class Insert(EditOperation):
    """``insert(n, l)``: new first child of ``n``."""

    label: object = None

    def apply_to_tree(self, tree: UnrankedTree) -> UnrankedNode:
        return tree.insert_first_child(self.node_id, self.label)

    def describe(self) -> str:
        return f"insert(#{self.node_id}, {self.label!r})"


@dataclass(frozen=True)
class InsertRight(EditOperation):
    """``insertR(n, l)``: new right sibling of ``n``."""

    label: object = None

    def apply_to_tree(self, tree: UnrankedTree) -> UnrankedNode:
        return tree.insert_right_sibling(self.node_id, self.label)

    def describe(self) -> str:
        return f"insertR(#{self.node_id}, {self.label!r})"


@dataclass(frozen=True)
class Delete(EditOperation):
    """``delete(n)``: remove the leaf ``n``."""

    def apply_to_tree(self, tree: UnrankedTree) -> None:
        tree.delete_leaf(self.node_id)
        return None

    def describe(self) -> str:
        return f"delete(#{self.node_id})"


def random_edit(
    tree: UnrankedTree,
    labels: Sequence[object],
    rng: random.Random,
    weights: Optional[Sequence[float]] = None,
    min_size: int = 2,
) -> EditOperation:
    """Draw a random applicable edit for ``tree``.

    Parameters
    ----------
    tree:
        The tree the edit must be applicable to (it is *not* modified).
    labels:
        The label alphabet to draw new labels from.
    rng:
        Source of randomness (pass a seeded :class:`random.Random` for
        reproducible workloads).
    weights:
        Relative weights for (relabel, insert, insertR, delete); defaults to
        a balanced mix.
    min_size:
        Deletions are only generated while the tree is larger than this, so
        that workloads cannot shrink trees away entirely.
    """
    if weights is None:
        weights = (1.0, 1.0, 1.0, 1.0)
    kinds = ["relabel", "insert", "insertR", "delete"]
    nodes = list(tree.nodes())
    for _ in range(64):
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        node = rng.choice(nodes)
        label = rng.choice(list(labels))
        if kind == "relabel":
            return Relabel(node.node_id, label)
        if kind == "insert":
            return Insert(node.node_id, label)
        if kind == "insertR" and node.parent is not None:
            return InsertRight(node.node_id, label)
        if kind == "delete" and node.is_leaf() and node.parent is not None and tree.size() > min_size:
            return Delete(node.node_id)
    # Fall back to a relabel, which is always applicable.
    return Relabel(rng.choice(nodes).node_id, rng.choice(list(labels)))


def random_edit_sequence(
    tree: UnrankedTree,
    labels: Sequence[object],
    count: int,
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
) -> List[EditOperation]:
    """Generate ``count`` edits, each applicable after the previous ones.

    The edits are applied to a *copy* of ``tree`` while being generated so
    that the returned sequence is valid when replayed in order on the
    original tree (or on an enumerator built from it).
    """
    rng = random.Random(seed)
    scratch = tree.copy()
    edits: List[EditOperation] = []
    for _ in range(count):
        edit = random_edit(scratch, labels, rng, weights=weights)
        edit.apply_to_tree(scratch)
        edits.append(edit)
    return edits
