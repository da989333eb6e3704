"""Balanced forest-algebra encoding of unranked trees (Section 7 / Lemma 7.4).

The encoder turns an unranked tree (or a forest/context fragment during
rebuilds) into a forest algebra term of **logarithmic height**, following the
construction of Niewerth [30] in spirit:

* the children of every node are combined with a *weight-balanced* binary
  concatenation (⊕) tree;
* deep trees are handled through **heavy paths**: the subtree of ``v₁`` with
  heavy path ``v₁ → v₂ → … → v_k`` is written as

  ``⊙( λ(v₁)_□ ,  G₁ ⊙ G₂ ⊙ … ⊙ G_{k-1} )``

  where ``G_i`` is the children-forest of ``v_i`` with the subtree of the
  heavy child ``v_{i+1}`` replaced by the context leaf ``λ(v_{i+1})_□`` (and
  ``G_{k-1}`` inlines the final path node's encoding).  The ⊙-chain is
  associative and is built as a *weight-balanced* binary application tree.

Because the heavy child is the largest child and both the ⊕-forests and the
⊙-chains are weight-balanced, the height of the resulting term is ``O(log n)``
(measured and asserted in the tests over adversarial shapes: paths, stars,
caterpillars, combs, random trees).

The same encoder works for *context* fragments (fragments containing the
hole): the node carrying the hole is simply encoded as a ``λ(h)_□`` leaf and
the typing of the operations adapts automatically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import TermStructureError
from repro.forest_algebra.terms import (
    DecodedNode,
    TermNode,
    apply,
    concat,
    context_leaf,
    tree_leaf,
)
from repro.trees.unranked import UnrankedNode, UnrankedTree

__all__ = ["encode_tree", "encode_fragment", "balanced_concat", "balanced_apply"]


# --------------------------------------------------------------------------- balanced combiners
def _balanced_fold(items: Sequence[TermNode], combine) -> TermNode:
    """Combine a sequence of terms with a weight-balanced binary tree of ``combine``.

    The split point is chosen so that the two halves have as equal a total
    weight as possible, which keeps the height logarithmic in the total
    weight even when individual items have very different weights.
    """
    if not items:
        raise TermStructureError("cannot combine an empty sequence of terms")
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return combine(items[0], items[1])
    total = sum(item.weight for item in items)
    # Find the split that best balances the weight, keeping both sides non-empty.
    best_split = 1
    best_imbalance = None
    prefix = 0
    for i in range(1, len(items)):
        prefix += items[i - 1].weight
        imbalance = abs(2 * prefix - total)
        if best_imbalance is None or imbalance < best_imbalance:
            best_imbalance = imbalance
            best_split = i
    left = _balanced_fold(items[:best_split], combine)
    right = _balanced_fold(items[best_split:], combine)
    return combine(left, right)


def balanced_concat(items: Sequence[TermNode]) -> TermNode:
    """Weight-balanced ⊕-combination of a sequence of terms (one forest)."""
    return _balanced_fold(items, concat)


def balanced_apply(items: Sequence[TermNode]) -> TermNode:
    """Weight-balanced ⊙-combination of a chain of contexts (ending in any term)."""
    return _balanced_fold(items, apply)


# --------------------------------------------------------------------------- fragment encoding
def _subtree_sizes(roots: Sequence[DecodedNode]) -> Tuple[Dict[int, int], Dict[int, bool]]:
    """Per subtree of the fragment: node count and whether it contains the hole."""
    sizes: Dict[int, int] = {}
    has_hole: Dict[int, bool] = {}
    stack: List[tuple] = [(root, False) for root in roots]
    while stack:
        node, visited = stack.pop()
        if not visited and node.children:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in node.children)
        has_hole[id(node)] = node.hole_child or any(has_hole[id(c)] for c in node.children)
    return sizes, has_hole


def _encode_node(node: DecodedNode, sizes: Dict[int, int], has_hole: Dict[int, bool]) -> TermNode:
    """Encode the subtree rooted at ``node`` (heavy-path construction)."""
    if node.hole_child:
        return context_leaf(node.label, node.node_id)
    if not node.children:
        return tree_leaf(node.label, node.node_id)

    # Heavy path starting at `node`: follow the largest child until reaching a
    # node with no children (or whose only child is the hole).  When the
    # fragment is a context, the path is routed through the child containing
    # the hole, so that the hole stays on the spine and no concatenation ever
    # sees two contexts.
    path: List[DecodedNode] = [node]
    current = node
    while current.children and not current.hole_child:
        hole_children = [c for c in current.children if has_hole[id(c)]]
        if hole_children:
            heavy = hole_children[0]
        else:
            heavy = max(current.children, key=lambda c: sizes[id(c)])
        path.append(heavy)
        current = heavy

    # Spine elements: the context leaf of the top node, then one element per
    # path step G_i (children forest of path[i] with the heavy child replaced
    # by its context leaf), the last one inlining the final node's encoding.
    spine: List[TermNode] = [context_leaf(node.label, node.node_id)]
    for i in range(len(path) - 1):
        parent = path[i]
        heavy = path[i + 1]
        last_step = i == len(path) - 2
        pieces: List[TermNode] = []
        for child in parent.children:
            if child is heavy:
                if last_step:
                    pieces.append(_encode_node(heavy, sizes, has_hole))
                else:
                    pieces.append(context_leaf(heavy.label, heavy.node_id))
            else:
                pieces.append(_encode_node(child, sizes, has_hole))
        spine.append(balanced_concat(pieces))
    return balanced_apply(spine)


def encode_fragment(roots: Sequence[DecodedNode]) -> TermNode:
    """Encode a forest (or context) fragment given by its root nodes.

    The fragment may contain at most one node flagged ``hole_child``; the
    result is then a context term, otherwise a forest term.  A word is the
    forest of its positions as one-node roots (Corollary 8.4).
    """
    roots = list(roots)
    if not roots:
        raise TermStructureError("cannot encode an empty forest")
    sizes, has_hole = _subtree_sizes(roots)
    encoded = [_encode_node(root, sizes, has_hole) for root in roots]
    return balanced_concat(encoded)


# --------------------------------------------------------------------------- public entry points
def _to_decoded(node: UnrankedNode) -> DecodedNode:
    """Convert an :class:`UnrankedNode` subtree into the encoder's input format."""
    root = DecodedNode(node.node_id, node.label)
    stack: List[tuple] = [(node, root)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            decoded_child = DecodedNode(child.node_id, child.label)
            target.children.append(decoded_child)
            stack.append((child, decoded_child))
    return root


def encode_tree(tree: UnrankedTree) -> TermNode:
    """Encode an unranked tree as a balanced forest algebra term.

    The result is a forest term with a single root; its leaves are in
    bijection with the nodes of ``tree`` (each leaf stores the node id).
    """
    return encode_fragment([_to_decoded(tree.root)])
