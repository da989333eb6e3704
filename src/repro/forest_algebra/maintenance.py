"""Maintenance of balanced forest-algebra terms under edits (Section 7).

:class:`MaintainedTerm` keeps a balanced term representation of an unranked
tree, or of a forest, and applies the edit operations of Definition 7.1 to
it.  A word is a forest of one-node trees whose term is the balanced ⊕HH
concatenation of its positions (Corollary 8.4), so the word updates of
Theorem 8.5 are the same edits on that forest:

* ``relabel``  — change the label of the corresponding term leaf;
* ``insert`` / ``insertR`` — splice a new ``a_t`` leaf next to the right seam
  of the term (found by an ``O(height)`` climb from the anchor leaf); in a
  forest, a right sibling of the last root and a new first root wrap the
  whole term in one ⊕ node;
* ``delete``  — splice the leaf out (possibly re-typing the path to the hole
  when the deleted node was an only child).

Each edit touches ``O(height)`` term nodes.  To keep the height logarithmic,
the maintainer uses *partial rebuilding*: after every edit it walks the path
to the root and, if some subterm's height exceeds the budget
``REBALANCE_FACTOR · log2(weight) + REBALANCE_SLACK``, the highest such
subterm is decoded and re-encoded with the balanced encoder.  This replaces
the worst-case rotation scheme of Niewerth [30] by an amortized scheme with
the same interface; the update-time benchmark
(``benchmarks/bench_update_logarithmic.py``, experiment E4) checks that the
resulting amortized update cost grows logarithmically.

Every edit returns an :class:`UpdateReport` listing the *dirty* term nodes —
new nodes, mutated nodes and all their ancestors — in bottom-up order.  These
are exactly the trunk of the corresponding tree hollowing (Definition 7.2):
the incremental maintainer of Lemma 7.3 rebuilds one circuit box and one
index entry per dirty node and reuses everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InvalidEditError, TermStructureError
from repro.forest_algebra.encoder import encode_fragment, encode_tree
from repro.forest_algebra.terms import (
    APPLY_VH,
    APPLY_VV,
    CONCAT_HH,
    CONCAT_HV,
    CONCAT_VH,
    LEAF_CONTEXT,
    LEAF_TREE,
    DecodedNode,
    TermNode,
    concat,
    decode,
    find_hole_leaf,
    term_leaves,
    tree_leaf,
    validate_term,
)
from repro.trees.edits import Delete, EditOperation, Insert, InsertRight, Relabel
from repro.trees.unranked import UnrankedTree

__all__ = ["MaintainedTerm", "UpdateReport"]

_CONCAT_KINDS = (CONCAT_HH, CONCAT_HV, CONCAT_VH)
_APPLY_KINDS = (APPLY_VV, APPLY_VH)


@dataclass
class UpdateReport:
    """What an edit changed in the maintained term.

    ``dirty_bottom_up`` lists every term node whose circuit box (and index
    entry) must be rebuilt, children before parents — the trunk of the
    hollowing.  ``removed_leaves`` lists tree node ids whose leaves left the
    term.  ``rebuilt_subterm_size`` is non-zero when the rebalancing rebuilt a
    subterm (its size is the amortized cost of the edit).
    """

    dirty_bottom_up: List[TermNode] = field(default_factory=list)
    removed_leaves: List[int] = field(default_factory=list)
    rebuilt_subterm_size: int = 0

    def trunk_size(self) -> int:
        """Number of term nodes whose boxes must be recomputed."""
        return len(self.dirty_bottom_up)


class MaintainedTerm:
    """A balanced forest-algebra term maintained under edits.

    Built from an :class:`UnrankedTree`, the term keeps that tree's single
    root.  Built from a sequence of :class:`DecodedNode` roots, it represents
    a forest that may also grow new roots at either end.
    """

    #: height budget: a subterm of weight w is rebuilt when its height exceeds
    #: REBALANCE_FACTOR * log2(w + 1) + REBALANCE_SLACK.
    REBALANCE_FACTOR = 3.0
    REBALANCE_SLACK = 8

    def __init__(self, content: Union[UnrankedTree, Sequence[DecodedNode]]):
        self.is_forest = not isinstance(content, UnrankedTree)
        self.root: TermNode = encode_fragment(content) if self.is_forest else encode_tree(content)
        self.leaf_of: Dict[int, TermNode] = {
            leaf.tree_node_id: leaf for leaf in term_leaves(self.root)
        }

    # ------------------------------------------------------------------ stats
    def size(self) -> int:
        """Number of term leaves (= number of tree nodes)."""
        return self.root.weight

    def height(self) -> int:
        """Height of the term (edges on the longest root-leaf path)."""
        return self.root.height

    def height_budget(self, weight: int) -> float:
        """The height above which a subterm of the given weight is rebuilt."""
        return self.REBALANCE_FACTOR * math.log2(weight + 1) + self.REBALANCE_SLACK

    def validate(self) -> None:
        """Check the term invariants and the leaf↔node bijection."""
        validate_term(self.root)
        leaves = term_leaves(self.root)
        ids = {leaf.tree_node_id for leaf in leaves}
        if ids != set(self.leaf_of):
            raise TermStructureError("leaf_of map out of sync with the term leaves")
        for node_id, leaf in self.leaf_of.items():
            if leaf.tree_node_id != node_id or leaf.root() is not self.root:
                raise TermStructureError("leaf_of map points to a detached or wrong leaf")

    def leaf_for(self, node_id: int) -> TermNode:
        """The term leaf representing the given tree node (the bijection φ⁻¹)."""
        try:
            return self.leaf_of[node_id]
        except KeyError:
            raise InvalidEditError(f"node {node_id} is not represented in the term") from None

    def _new_leaf(self, new_id: int, label: object) -> TermNode:
        if new_id in self.leaf_of:
            raise InvalidEditError(f"node id {new_id} already exists in the term")
        leaf = tree_leaf(label, new_id)
        self.leaf_of[new_id] = leaf
        return leaf

    # ------------------------------------------------------------ primitive splices
    def _replace(self, old: TermNode, new: TermNode) -> Optional[TermNode]:
        """Put ``new`` where ``old`` was; return the parent (None if it was the root)."""
        parent = old.parent
        if parent is None:
            self.root = new
            new.parent = None
        else:
            if parent.left is old:
                parent.left = new
            else:
                parent.right = new
            new.parent = parent
        old.parent = None
        return parent

    def _refresh_upward(self, node: Optional[TermNode]) -> None:
        while node is not None:
            node.refresh()
            node = node.parent

    # ------------------------------------------------------------------- edits
    def relabel(self, node_id: int, label: object) -> UpdateReport:
        """``relabel(n, l)``: change the label carried by the leaf of ``n``."""
        leaf = self.leaf_for(node_id)
        leaf.label = label
        return self._finalize(modified=[leaf], refresh_from=leaf.parent)

    def insert_first_child(self, parent_id: int, new_id: int, label: object) -> UpdateReport:
        """``insert(n, l)``: insert a new ``l``-node as first child of ``n``."""
        parent_leaf = self.leaf_for(parent_id)
        new_leaf = self._new_leaf(new_id, label)

        if parent_leaf.kind == LEAF_TREE:
            # The parent had no children: its leaf becomes a_□ and the new
            # child is plugged directly below it.
            anchor_parent = parent_leaf.parent
            parent_leaf.kind = LEAF_CONTEXT
            plug = TermNode(APPLY_VH, None, None, parent_leaf, new_leaf)
            if anchor_parent is None:
                self.root = plug
                plug.parent = None
            else:
                if anchor_parent.left is parent_leaf:
                    anchor_parent.left = plug
                else:
                    anchor_parent.right = plug
                plug.parent = anchor_parent
            return self._finalize(
                modified=[parent_leaf, new_leaf, plug], refresh_from=plug.parent
            )

        # The parent already has children: find where its hole is plugged and
        # prepend the new leaf to the plugged forest.
        plug_node, plugged = self._plug_point(parent_leaf)
        new_concat = concat(new_leaf, plugged)
        plug_node.right = new_concat
        new_concat.parent = plug_node
        return self._finalize(modified=[new_leaf, new_concat], refresh_from=plug_node)

    def insert_right_sibling(self, anchor_id: int, new_id: int, label: object) -> UpdateReport:
        """``insertR(n, l)``: insert a new ``l``-node as right sibling of ``n``."""
        # Climb while the anchor node is the *last root* of the current
        # subterm; the insertion seam is immediately after that subterm.
        current = self.leaf_for(anchor_id)
        while True:
            parent = current.parent
            if parent is None:
                if not self.is_forest:
                    raise InvalidEditError("cannot insert a right sibling of the root")
                break  # the anchor is the last root of the forest: wrap the term
            if parent.kind in _CONCAT_KINDS:
                if parent.right is current:
                    current = parent
                    continue
                break  # current is the left part of a concatenation: splice here
            # parent is an application node
            if parent.left is current:
                current = parent
                continue
            break  # current is the forest plugged into a hole: splice here

        new_leaf = self._new_leaf(new_id, label)
        attach_parent = current.parent
        new_concat = concat(current, new_leaf)
        if attach_parent is None:
            self.root = new_concat
        elif attach_parent.left is current:
            attach_parent.left = new_concat
        else:
            attach_parent.right = new_concat
        new_concat.parent = attach_parent
        return self._finalize(modified=[new_leaf, new_concat], refresh_from=attach_parent)

    def insert_first_root(self, new_id: int, label: object) -> UpdateReport:
        """Insert a new one-node tree before the first root of a forest."""
        if not self.is_forest:
            raise InvalidEditError("a tree has exactly one root")
        new_leaf = self._new_leaf(new_id, label)
        self.root = concat(new_leaf, self.root)
        return self._finalize(modified=[new_leaf, self.root], refresh_from=None)

    def delete_leaf(self, node_id: int) -> UpdateReport:
        """``delete(n)``: remove the leaf ``n`` from the represented tree."""
        leaf = self.leaf_for(node_id)
        if leaf.kind != LEAF_TREE:
            raise InvalidEditError(f"tree node {node_id} has children; only leaves can be deleted")
        parent = leaf.parent
        if parent is None:
            raise InvalidEditError("cannot delete the only node of the term")
        del self.leaf_of[node_id]

        if parent.kind in _CONCAT_KINDS:
            sibling = parent.left if parent.right is leaf else parent.right
            grandparent = self._replace(parent, sibling)
            return self._finalize(
                modified=[], refresh_from=grandparent, removed=[node_id], anchor=sibling
            )

        # parent is an application node and the leaf is the whole plugged
        # forest: the node above the hole loses its only child.
        if parent.kind != APPLY_VH or parent.right is not leaf:
            raise TermStructureError("unexpected term shape while deleting a leaf")
        context = parent.left
        hole_leaf = find_hole_leaf(context)
        hole_leaf.kind = LEAF_TREE
        retyped: List[TermNode] = [hole_leaf]
        node = hole_leaf
        while node is not context:
            node = node.parent
            if node.kind == CONCAT_HV or node.kind == CONCAT_VH:
                node.kind = CONCAT_HH
            elif node.kind == APPLY_VV:
                node.kind = APPLY_VH
            elif node.kind in (CONCAT_HH, APPLY_VH):
                raise TermStructureError("forest-typed node on the path to the hole")
            retyped.append(node)
        grandparent = self._replace(parent, context)
        return self._finalize(
            modified=retyped, refresh_from=grandparent, removed=[node_id], anchor=context
        )

    def apply_edit(self, edit: EditOperation, new_node_id: Optional[int] = None) -> UpdateReport:
        """Apply an :class:`~repro.trees.edits.EditOperation` to the term.

        For insertions the caller must pass ``new_node_id``, the id assigned
        to the new node by the reference tree (so that both stay in sync).
        """
        if isinstance(edit, Relabel):
            return self.relabel(edit.node_id, edit.label)
        if isinstance(edit, Insert):
            if new_node_id is None:
                raise InvalidEditError("insert edits need the id of the new node")
            return self.insert_first_child(edit.node_id, new_node_id, edit.label)
        if isinstance(edit, InsertRight):
            if new_node_id is None:
                raise InvalidEditError("insertR edits need the id of the new node")
            return self.insert_right_sibling(edit.node_id, new_node_id, edit.label)
        if isinstance(edit, Delete):
            return self.delete_leaf(edit.node_id)
        raise InvalidEditError(f"unsupported edit operation {edit!r}")

    # --------------------------------------------------------------- internals
    def _plug_point(self, context_leaf_node: TermNode) -> Tuple[TermNode, TermNode]:
        """Find the ⊙-node where the hole of ``context_leaf_node`` is plugged.

        Returns ``(plug_node, plugged_subterm)``; the plugged subterm's roots
        are the children of the tree node represented by the context leaf.
        """
        current = context_leaf_node
        while True:
            parent = current.parent
            if parent is None:
                raise TermStructureError("open hole at the root of the term")
            if parent.kind in _APPLY_KINDS and parent.left is current:
                return parent, parent.right
            current = parent

    def _finalize(
        self,
        modified: Sequence[TermNode],
        refresh_from: Optional[TermNode],
        removed: Sequence[int] = (),
        anchor: Optional[TermNode] = None,
    ) -> UpdateReport:
        """Refresh cached weights, rebalance if needed, and build the report."""
        self._refresh_upward(refresh_from)

        rebuilt_size = 0
        new_subterm: Optional[TermNode] = None
        scan_start = refresh_from if refresh_from is not None else (
            anchor if anchor is not None else (modified[0] if modified else self.root)
        )
        scapegoat = self._find_scapegoat(scan_start)
        if scapegoat is not None:
            new_subterm = self._rebuild(scapegoat)
            rebuilt_size = new_subterm.weight

        dirty: Set[int] = set()

        def mark(node: Optional[TermNode], with_ancestors: bool = True) -> None:
            while node is not None:
                if id(node) in dirty:
                    return
                dirty.add(id(node))
                if not with_ancestors:
                    return
                node = node.parent

        for node in modified:
            # A modified node may have been replaced by the rebuild; only mark
            # it if it is still attached to the current term.
            if node.root() is self.root:
                mark(node)
        if new_subterm is not None:
            for node in new_subterm.subtree_nodes():
                mark(node, with_ancestors=False)
            mark(new_subterm.parent)
        if anchor is not None and anchor.root() is self.root:
            mark(anchor.parent)
        if refresh_from is not None and refresh_from.root() is self.root:
            mark(refresh_from)

        order = self._ordered_dirty(dirty)
        return UpdateReport(
            dirty_bottom_up=order,
            removed_leaves=list(removed),
            rebuilt_subterm_size=rebuilt_size,
        )

    def _find_scapegoat(self, start: Optional[TermNode]) -> Optional[TermNode]:
        """Highest ancestor of ``start`` whose height exceeds its budget."""
        scapegoat = None
        node = start
        while node is not None:
            if node.height > self.height_budget(node.weight):
                scapegoat = node
            node = node.parent
        return scapegoat

    def _rebuild(self, subterm: TermNode) -> TermNode:
        """Decode and re-encode a subterm with the balanced encoder."""
        roots, _hole = decode(subterm)
        new_subterm = encode_fragment(roots)
        if new_subterm.is_context() != subterm.is_context():
            raise TermStructureError("rebuild changed the type of a subterm")
        self._replace(subterm, new_subterm)
        for leaf in term_leaves(new_subterm):
            self.leaf_of[leaf.tree_node_id] = leaf
        self._refresh_upward(new_subterm.parent)
        return new_subterm

    def _ordered_dirty(self, dirty_ids: Set[int]) -> List[TermNode]:
        """Dirty nodes in bottom-up (children before parents) order."""
        order: List[TermNode] = []
        stack: List[Tuple[TermNode, bool]] = [(self.root, False)]
        while stack:
            node, visited = stack.pop()
            if id(node) not in dirty_ids:
                continue
            if visited or node.is_leaf():
                order.append(node)
                continue
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        return order
