"""Forest algebra terms (Section 7 and Appendix E).

A *forest algebra term* is a binary tree whose leaves are

* ``a_t``  — a single tree node labelled ``a`` (``kind = LEAF_TREE``), or
* ``a_□``  — a single node labelled ``a`` whose only child is the hole
  (``kind = LEAF_CONTEXT``),

and whose internal nodes are the five operations

* ``⊕HH`` — concatenation of two forests (result: forest),
* ``⊕HV`` / ``⊕VH`` — concatenation of a forest and a context (result: context),
* ``⊙VV`` — composition of two contexts (plug the right context into the
  left context's hole; result: context),
* ``⊙VH`` — application of a context to a forest (result: forest).

Each term *node* is typed as a **forest** (no hole below) or a **context**
(exactly one hole below); typing is determined by the kind and is enforced by
the constructors.  Every leaf of a term corresponds to exactly one node of
the unranked tree it represents (the bijection ``φ`` of Lemma 7.4); leaves
store that node's id in ``tree_node_id``.

Terms are the binary trees fed to the circuit construction: a term node's
``alphabet_label()`` is its letter in the term alphabet ``Λ'`` read by the
translated automaton of Lemma 7.4.

Terms are mutable (they are rebalanced in place under updates); each node
maintains its ``weight`` (number of leaves), cached ``height``, a parent
pointer, and an optional reference to the circuit box built for it by the
incremental maintainer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TermStructureError

__all__ = [
    "LEAF_TREE",
    "LEAF_CONTEXT",
    "CONCAT_HH",
    "CONCAT_HV",
    "CONCAT_VH",
    "APPLY_VV",
    "APPLY_VH",
    "TermNode",
    "DecodedNode",
    "tree_leaf",
    "context_leaf",
    "concat",
    "apply",
    "decode",
    "decode_to_nested",
    "term_leaves",
    "validate_term",
    "find_hole_leaf",
]

# Term node kinds (doubling as the Λ' alphabet letters for internal nodes).
LEAF_TREE = "leaf_tree"
LEAF_CONTEXT = "leaf_context"
CONCAT_HH = "concat_HH"
CONCAT_HV = "concat_HV"
CONCAT_VH = "concat_VH"
APPLY_VV = "apply_VV"
APPLY_VH = "apply_VH"

_LEAF_KINDS = (LEAF_TREE, LEAF_CONTEXT)
_INTERNAL_KINDS = (CONCAT_HH, CONCAT_HV, CONCAT_VH, APPLY_VV, APPLY_VH)
_CONTEXT_KINDS = (LEAF_CONTEXT, CONCAT_HV, CONCAT_VH, APPLY_VV)


class TermNode:
    """A node of a forest algebra term."""

    __slots__ = (
        "kind",
        "label",
        "tree_node_id",
        "left",
        "right",
        "parent",
        "weight",
        "height",
        "box",
    )

    def __init__(
        self,
        kind: str,
        label: object = None,
        tree_node_id: Optional[int] = None,
        left: Optional["TermNode"] = None,
        right: Optional["TermNode"] = None,
    ):
        self.kind = kind
        self.label = label
        self.tree_node_id = tree_node_id
        self.left = left
        self.right = right
        self.parent: Optional[TermNode] = None
        self.box = None
        if left is not None:
            left.parent = self
        if right is not None:
            right.parent = self
        self.weight = 1 if left is None else left.weight + right.weight
        self.height = 0 if left is None else 1 + max(left.height, right.height)

    # ------------------------------------------------------------------ api
    def is_leaf(self) -> bool:
        """True for ``a_t`` / ``a_□`` leaves."""
        return self.left is None

    def is_context(self) -> bool:
        """True if the term rooted here contains (exactly) one hole."""
        return self.kind in _CONTEXT_KINDS

    def alphabet_label(self) -> object:
        """The letter of the term alphabet ``Λ'`` carried by this node.

        Leaves are labelled ``("t", a)`` or ``("c", a)``; internal nodes carry
        their operation name.  This is the label the translated binary TVA of
        Lemma 7.4 reads.
        """
        if self.kind == LEAF_TREE:
            return ("t", self.label)
        if self.kind == LEAF_CONTEXT:
            return ("c", self.label)
        return self.kind

    def content_signature(self) -> object:
        """What the cross-document build cache hashes for this node.

        Leaves contribute their Λ' letter *and* their tree node id — the id
        is baked into the leaf box's assignments, so two leaf boxes are
        interchangeable only when both match (documents numbered from 0
        still share every identical subtree).  Internal nodes contribute
        only their operation letter; the children enter the subtree hash
        through the children's box hashes, keeping the per-node hashing
        cost O(1) under trunk rebuilds.
        """
        if self.left is None:
            return (self.alphabet_label(), self.tree_node_id)
        return self.kind

    def refresh(self) -> None:
        """Recompute weight and height from the children (after a mutation)."""
        if self.left is None:
            self.weight = 1
            self.height = 0
        else:
            self.weight = self.left.weight + self.right.weight
            self.height = 1 + max(self.left.height, self.right.height)

    def children(self) -> Tuple["TermNode", ...]:
        return () if self.left is None else (self.left, self.right)

    def subtree_nodes(self) -> Iterator["TermNode"]:
        """All nodes of this subterm, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)

    def root(self) -> "TermNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_leaf():
            return f"TermNode({self.kind}, {self.label!r}, node={self.tree_node_id})"
        return f"TermNode({self.kind}, weight={self.weight}, height={self.height})"


# --------------------------------------------------------------------------- constructors
def tree_leaf(label: object, tree_node_id: int) -> TermNode:
    """The leaf ``a_t``: a single tree node."""
    return TermNode(LEAF_TREE, label, tree_node_id)


def context_leaf(label: object, tree_node_id: int) -> TermNode:
    """The leaf ``a_□``: a single node whose only child is the hole."""
    return TermNode(LEAF_CONTEXT, label, tree_node_id)


def concat(left: TermNode, right: TermNode) -> TermNode:
    """Concatenate two terms at the root level (⊕HH / ⊕HV / ⊕VH).

    At most one of the two arguments may be a context (the result has at most
    one hole).
    """
    left_ctx = left.is_context()
    right_ctx = right.is_context()
    if left_ctx and right_ctx:
        raise TermStructureError("cannot concatenate two contexts (two holes)")
    if left_ctx:
        kind = CONCAT_VH
    elif right_ctx:
        kind = CONCAT_HV
    else:
        kind = CONCAT_HH
    return TermNode(kind, None, None, left, right)


def apply(left: TermNode, right: TermNode) -> TermNode:
    """Plug ``right`` into the hole of the context ``left`` (⊙VV / ⊙VH)."""
    if not left.is_context():
        raise TermStructureError("the left argument of ⊙ must be a context")
    kind = APPLY_VV if right.is_context() else APPLY_VH
    return TermNode(kind, None, None, left, right)


# --------------------------------------------------------------------------- decoding
class DecodedNode:
    """A node of the unranked forest represented by a term (used by decode/encode)."""

    __slots__ = ("node_id", "label", "children", "hole_child")

    def __init__(self, node_id: int, label: object, children: Optional[List["DecodedNode"]] = None,
                 hole_child: bool = False):
        self.node_id = node_id
        self.label = label
        self.children = children if children is not None else []
        self.hole_child = hole_child

    def to_nested(self):
        """Nested ``(label, node_id, [children])`` representation (holes appear as '□')."""
        kids = [c.to_nested() for c in self.children]
        if self.hole_child:
            kids = ["□"]
        return (self.label, self.node_id, kids)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DecodedNode(id={self.node_id}, label={self.label!r}, kids={len(self.children)})"


def decode(term: TermNode) -> Tuple[List[DecodedNode], Optional[DecodedNode]]:
    """Decode a term into the forest it represents.

    Returns ``(roots, hole_parent)`` where ``roots`` is the list of root
    nodes of the represented forest/context and ``hole_parent`` is the node
    whose single child is the hole (``None`` for forests).  Runs in linear
    time in the size of the term.
    """
    # Iterative post-order evaluation to support very deep (unbalanced) terms.
    results: Dict[int, Tuple[List[DecodedNode], Optional[DecodedNode]]] = {}
    stack: List[Tuple[TermNode, bool]] = [(term, False)]
    while stack:
        node, visited = stack.pop()
        if not visited and node.left is not None:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
            continue
        if node.kind == LEAF_TREE:
            results[id(node)] = ([DecodedNode(node.tree_node_id, node.label)], None)
        elif node.kind == LEAF_CONTEXT:
            decoded = DecodedNode(node.tree_node_id, node.label, hole_child=True)
            results[id(node)] = ([decoded], decoded)
        else:
            left_roots, left_hole = results.pop(id(node.left))
            right_roots, right_hole = results.pop(id(node.right))
            if node.kind in (CONCAT_HH, CONCAT_HV, CONCAT_VH):
                hole = left_hole if left_hole is not None else right_hole
                if left_hole is not None and right_hole is not None:
                    raise TermStructureError("concatenation of two contexts while decoding")
                results[id(node)] = (left_roots + right_roots, hole)
            else:  # APPLY_VV / APPLY_VH
                if left_hole is None:
                    raise TermStructureError("⊙ with a left argument that has no hole")
                left_hole.children = right_roots
                left_hole.hole_child = False
                results[id(node)] = (left_roots, right_hole)
    return results[id(term)]


def decode_to_nested(term: TermNode):
    """Decode a term representing a single tree into nested ``(label, id, children)``."""
    roots, hole = decode(term)
    if hole is not None:
        raise TermStructureError("the term is a context, not a tree")
    if len(roots) != 1:
        raise TermStructureError(f"the term represents a forest of {len(roots)} trees, not a tree")
    return roots[0].to_nested()


def term_leaves(term: TermNode) -> List[TermNode]:
    """All leaves of the term in left-to-right order."""
    result: List[TermNode] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            result.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return result


def find_hole_leaf(term: TermNode) -> TermNode:
    """Return the unique ``a_□`` leaf whose hole is still open in this context term.

    Follows the hole: the open hole of a concatenation is in its (unique)
    context child; the open hole of ``⊙VV`` is in its *right* argument (the
    left argument's hole is filled by the right one).
    """
    node = term
    while True:
        if node.kind == LEAF_CONTEXT:
            return node
        if node.kind == LEAF_TREE or node.kind in (CONCAT_HH, APPLY_VH):
            raise TermStructureError("find_hole_leaf called on a forest-typed term")
        if node.kind == CONCAT_HV:
            node = node.right
        elif node.kind == CONCAT_VH:
            node = node.left
        elif node.kind == APPLY_VV:
            node = node.right
        else:  # pragma: no cover - defensive
            raise TermStructureError(f"unknown term kind {node.kind!r}")


# --------------------------------------------------------------------------- validation
def validate_term(term: TermNode) -> None:
    """Check typing, weights, heights, parent pointers and the leaf/node bijection."""
    seen_node_ids: set = set()
    for node in term.subtree_nodes():
        if node.is_leaf():
            if node.kind not in _LEAF_KINDS:
                raise TermStructureError(f"leaf with internal kind {node.kind!r}")
            if node.tree_node_id is None:
                raise TermStructureError("leaf without a tree node id")
            if node.tree_node_id in seen_node_ids:
                raise TermStructureError(f"tree node {node.tree_node_id} appears twice")
            seen_node_ids.add(node.tree_node_id)
            if node.weight != 1 or node.height != 0:
                raise TermStructureError("leaf with wrong cached weight/height")
            continue
        if node.kind not in _INTERNAL_KINDS:
            raise TermStructureError(f"internal node with kind {node.kind!r}")
        left, right = node.left, node.right
        if left is None or right is None:
            raise TermStructureError("internal term node missing a child")
        if left.parent is not node or right.parent is not node:
            raise TermStructureError("broken parent pointer in term")
        if node.weight != left.weight + right.weight:
            raise TermStructureError("cached weight is stale")
        if node.height != 1 + max(left.height, right.height):
            raise TermStructureError("cached height is stale")
        lc, rc = left.is_context(), right.is_context()
        expected = {
            CONCAT_HH: (False, False),
            CONCAT_HV: (False, True),
            CONCAT_VH: (True, False),
            APPLY_VV: (True, True),
            APPLY_VH: (True, False),
        }[node.kind]
        if (lc, rc) != expected:
            raise TermStructureError(
                f"ill-typed {node.kind}: children are ({'C' if lc else 'F'}, {'C' if rc else 'F'})"
            )
    # Decoding must succeed (checks the hole discipline globally).
    decode(term)
