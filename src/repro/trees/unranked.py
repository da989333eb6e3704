"""Unranked, ordered, labelled trees (the input model of the paper).

The paper's trees are rooted, ordered and labelled over a finite alphabet
``Λ``; every node may carry a (possibly empty) set of second-order variables
in a valuation.  This module provides the concrete tree objects that users of
the library manipulate, together with the reference implementation of the
edit operations of Definition 7.1 (used both as the user-facing mutation API
and as the correctness oracle for the incremental forest-algebra machinery).

Nodes are identified by small integer ids that are stable across edits: a
node keeps its id for its whole lifetime, and ids of deleted nodes are never
reused.  Query answers produced by the enumerators refer to these ids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidEditError, InvalidTreeError

__all__ = ["UnrankedNode", "UnrankedTree"]


class UnrankedNode:
    """A node of an :class:`UnrankedTree`.

    Attributes
    ----------
    node_id:
        Stable integer identifier, unique within the owning tree.
    label:
        The node label (any hashable object, typically a short string).
    parent:
        The parent node, or ``None`` for the root.
    children:
        The ordered list of child nodes.
    """

    __slots__ = ("node_id", "label", "parent", "children")

    def __init__(self, node_id: int, label: object, parent: Optional["UnrankedNode"] = None):
        self.node_id = node_id
        self.label = label
        self.parent = parent
        self.children: List[UnrankedNode] = []

    # ------------------------------------------------------------------ api
    def is_leaf(self) -> bool:
        """Return ``True`` if the node has no children."""
        return not self.children

    def is_root(self) -> bool:
        """Return ``True`` if the node has no parent."""
        return self.parent is None

    def child_index(self) -> int:
        """Return the index of this node in its parent's child list."""
        if self.parent is None:
            raise InvalidTreeError("the root has no child index")
        return self.parent.children.index(self)

    def depth(self) -> int:
        """Return the number of edges from the root to this node."""
        d = 0
        node = self
        while node.parent is not None:
            node = node.parent
            d += 1
        return d

    def ancestors(self, include_self: bool = False) -> Iterator["UnrankedNode"]:
        """Yield ancestors from the parent (or self) up to the root."""
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def subtree_nodes(self) -> Iterator["UnrankedNode"]:
        """Yield the nodes of the subtree rooted here, in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_size(self) -> int:
        """Return the number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.subtree_nodes())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"UnrankedNode(id={self.node_id}, label={self.label!r}, children={len(self.children)})"


class UnrankedTree:
    """A mutable unranked ordered labelled tree.

    The tree always contains at least one node (the root): the paper's edit
    language cannot create or destroy the whole tree, only grow and shrink it
    around the root.
    """

    def __init__(self, root_label: object):
        self._next_id = 0
        self._nodes: Dict[int, UnrankedNode] = {}
        self.root = self._make_node(root_label, None)

    # ----------------------------------------------------------- construction
    def _make_node(self, label: object, parent: Optional[UnrankedNode]) -> UnrankedNode:
        node = UnrankedNode(self._next_id, label, parent)
        self._nodes[node.node_id] = node
        self._next_id += 1
        return node

    @classmethod
    def from_nested(cls, nested) -> "UnrankedTree":
        """Build a tree from a nested structure ``(label, [children...])``.

        A bare label is accepted as shorthand for a leaf.

        >>> t = UnrankedTree.from_nested(("a", ["b", ("c", ["d"])]))
        >>> t.size()
        4
        """

        def label_of(item):
            return item[0] if isinstance(item, tuple) else item

        def children_of(item):
            return item[1] if isinstance(item, tuple) else []

        tree = cls(label_of(nested))
        stack = [(tree.root, children_of(nested))]
        while stack:
            parent, kids = stack.pop()
            for kid in kids:
                node = tree._make_node(label_of(kid), parent)
                parent.children.append(node)
                stack.append((node, children_of(kid)))
        return tree

    def to_nested(self):
        """Return the nested ``(label, [children...])`` representation."""

        def rec(node: UnrankedNode):
            if node.is_leaf():
                return node.label
            return (node.label, [rec(c) for c in node.children])

        return rec(self.root)

    def copy(self) -> "UnrankedTree":
        """Return a deep copy with the *same node ids*."""
        clone = UnrankedTree.__new__(UnrankedTree)
        clone._next_id = self._next_id
        clone._nodes = {}

        clone.root = UnrankedNode(self.root.node_id, self.root.label, None)
        clone._nodes[clone.root.node_id] = clone.root
        stack = [(self.root, clone.root)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                new = UnrankedNode(child.node_id, child.label, target)
                clone._nodes[new.node_id] = new
                target.children.append(new)
                stack.append((child, new))
        return clone

    # ----------------------------------------------------------------- access
    def node(self, node_id: int) -> UnrankedNode:
        """Return the node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise InvalidTreeError(f"no node with id {node_id} in this tree") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterator[UnrankedNode]:
        """Yield all nodes in document (pre)order."""
        return self.root.subtree_nodes()

    def node_ids(self) -> List[int]:
        """Return the ids of all nodes in document order."""
        return [n.node_id for n in self.nodes()]

    def leaves(self) -> Iterator[UnrankedNode]:
        """Yield all leaves in document order."""
        return (n for n in self.nodes() if n.is_leaf())

    def size(self) -> int:
        """Return the number of nodes."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def height(self) -> int:
        """Return the height (number of edges on the longest root-leaf path)."""
        best = 0
        stack: List[Tuple[UnrankedNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            for c in node.children:
                stack.append((c, d + 1))
        return best

    # ------------------------------------------------------------------ edits
    # These are the reference semantics of Definition 7.1.  The incremental
    # machinery (forest algebra maintenance) applies the same operations to
    # its balanced term and is tested against this implementation.

    def relabel(self, node_id: int, label: object) -> UnrankedNode:
        """``relabel(n, l)``: change the label of ``n`` to ``l``."""
        node = self.node(node_id)
        node.label = label
        return node

    def insert_first_child(self, node_id: int, label: object) -> UnrankedNode:
        """``insert(n, l)``: insert an ``l``-labelled node as first child of ``n``."""
        parent = self.node(node_id)
        node = self._make_node(label, parent)
        parent.children.insert(0, node)
        return node

    def insert_right_sibling(self, node_id: int, label: object) -> UnrankedNode:
        """``insertR(n, l)``: insert an ``l``-labelled node as right sibling of ``n``."""
        anchor = self.node(node_id)
        if anchor.parent is None:
            raise InvalidEditError("cannot insert a right sibling of the root")
        node = self._make_node(label, anchor.parent)
        idx = anchor.parent.children.index(anchor)
        anchor.parent.children.insert(idx + 1, node)
        return node

    def delete_leaf(self, node_id: int) -> None:
        """``delete(n)``: remove the leaf ``n`` from the tree."""
        node = self.node(node_id)
        if not node.is_leaf():
            raise InvalidEditError(f"node {node_id} is not a leaf; only leaves can be deleted")
        if node.parent is None:
            raise InvalidEditError("cannot delete the root: trees must stay non-empty")
        node.parent.children.remove(node)
        del self._nodes[node.node_id]
        node.parent = None

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check internal consistency; raise :class:`InvalidTreeError` if broken."""
        seen = set()
        stack: List[Tuple[UnrankedNode, Optional[UnrankedNode]]] = [(self.root, None)]
        while stack:
            node, parent = stack.pop()
            if node.node_id in seen:
                raise InvalidTreeError(f"node {node.node_id} appears twice")
            seen.add(node.node_id)
            if node.parent is not parent:
                raise InvalidTreeError(f"node {node.node_id} has a wrong parent pointer")
            if self._nodes.get(node.node_id) is not node:
                raise InvalidTreeError(f"node {node.node_id} is not registered in the id map")
            for c in node.children:
                stack.append((c, node))
        if seen != set(self._nodes):
            raise InvalidTreeError("id map contains nodes that are not reachable from the root")

    # ------------------------------------------------------------ conveniences
    def nodes_with_label(self, label: object) -> List[UnrankedNode]:
        """Return all nodes carrying ``label``, in document order."""
        return [n for n in self.nodes() if n.label == label]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"UnrankedTree(size={self.size()}, height={self.height()})"
