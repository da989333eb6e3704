"""Binary trees (every internal node has exactly two children).

Sections 2–6 of the paper are phrased on *binary* trees: the circuit
construction (Lemma 3.7) and the enumeration algorithms run on a binary tree
whose leaves carry variable annotations.  In the full pipeline this binary
tree is the forest-algebra term of Section 7, but the binary-tree layer is
also exposed directly so that the circuit and enumeration machinery can be
used (and tested) on its own, exactly as in the paper's Sections 3–6.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidTreeError

__all__ = ["BinaryNode", "BinaryTree"]


class BinaryNode:
    """A node of a :class:`BinaryTree`; internal nodes have exactly two children."""

    __slots__ = ("node_id", "label", "left", "right", "parent")

    def __init__(
        self,
        node_id: int,
        label: object,
        left: Optional["BinaryNode"] = None,
        right: Optional["BinaryNode"] = None,
    ):
        self.node_id = node_id
        self.label = label
        self.left = left
        self.right = right
        self.parent: Optional[BinaryNode] = None
        if (left is None) != (right is None):
            raise InvalidTreeError("binary nodes have zero or two children")
        if left is not None:
            left.parent = self
        if right is not None:
            right.parent = self

    def is_leaf(self) -> bool:
        """Return ``True`` if the node has no children."""
        return self.left is None

    def children(self) -> Tuple["BinaryNode", ...]:
        """Return the tuple of children (empty for leaves)."""
        if self.is_leaf():
            return ()
        return (self.left, self.right)

    def subtree_nodes(self) -> Iterator["BinaryNode"]:
        """Yield the nodes of this subtree in preorder (node, left, right)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf():
                stack.append(node.right)
                stack.append(node.left)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "leaf" if self.is_leaf() else "internal"
        return f"BinaryNode(id={self.node_id}, label={self.label!r}, {kind})"


class BinaryTree:
    """A binary Λ-tree as in Section 2 of the paper."""

    def __init__(self, root: BinaryNode):
        self.root = root
        self._nodes: Dict[int, BinaryNode] = {n.node_id: n for n in root.subtree_nodes()}
        if len(self._nodes) != sum(1 for _ in root.subtree_nodes()):
            raise InvalidTreeError("duplicate node ids in binary tree")

    # ----------------------------------------------------------- construction
    @classmethod
    def from_nested(cls, nested) -> "BinaryTree":
        """Build a binary tree from nested tuples.

        A leaf is written as a bare label; an internal node as
        ``(label, left, right)``.

        >>> t = BinaryTree.from_nested(("a", "b", ("c", "d", "e")))
        >>> t.size()
        5
        """
        counter = [0]

        def build(item) -> BinaryNode:
            node_id = counter[0]
            counter[0] += 1
            if isinstance(item, tuple):
                if len(item) != 3:
                    raise InvalidTreeError(
                        "internal binary nodes must be written as (label, left, right)"
                    )
                label, left, right = item
                # Children are built after reserving this node's id so that
                # preorder ids match document order.
                left_node = build(left)
                right_node = build(right)
                return BinaryNode(node_id, label, left_node, right_node)
            return BinaryNode(node_id, item)

        return cls(build(nested))

    def to_nested(self):
        """Return the nested tuple representation (inverse of :meth:`from_nested`)."""

        def rec(node: BinaryNode):
            if node.is_leaf():
                return node.label
            return (node.label, rec(node.left), rec(node.right))

        return rec(self.root)

    # ----------------------------------------------------------------- access
    def nodes(self) -> Iterator[BinaryNode]:
        """Yield all nodes in preorder."""
        return self.root.subtree_nodes()

    def leaves(self) -> List[BinaryNode]:
        """Return the leaves in document (left-to-right) order."""
        result = []

        def rec(node: BinaryNode) -> None:
            if node.is_leaf():
                result.append(node)
            else:
                rec(node.left)
                rec(node.right)

        rec(self.root)
        return result

    def size(self) -> int:
        """Return the number of nodes."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def height(self) -> int:
        """Return the height (edges on the longest root-leaf path)."""
        best = 0
        stack: List[Tuple[BinaryNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            if not node.is_leaf():
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
        return best

    def validate(self) -> None:
        """Check the binary-tree invariants (every internal node has 2 children)."""
        for node in self.nodes():
            if (node.left is None) != (node.right is None):
                raise InvalidTreeError(f"node {node.node_id} has exactly one child")
            for child in node.children():
                if child.parent is not node:
                    raise InvalidTreeError(f"bad parent pointer at node {child.node_id}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"BinaryTree(size={self.size()}, height={self.height()})"
