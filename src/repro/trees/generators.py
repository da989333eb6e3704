"""Random and adversarial tree generators.

The benchmarks and property tests need trees of controlled size and shape:
uniform random trees, long paths (worst case for unbalanced encodings), wide
stars (worst case for naive child handling), caterpillars and combs, binary
complete trees, and XML-like documents.  All generators take a seed so that
workloads are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.trees.binary import BinaryTree
from repro.trees.unranked import UnrankedTree

__all__ = [
    "random_tree",
    "path_tree",
    "star_tree",
    "caterpillar_tree",
    "comb_tree",
    "full_binary_unranked_tree",
    "xml_like_document",
    "random_word_tree",
    "random_binary_tree",
    "ALL_SHAPES",
    "tree_of_shape",
]

DEFAULT_LABELS: Sequence[str] = ("a", "b", "c")


def random_tree(
    size: int,
    labels: Sequence[object] = DEFAULT_LABELS,
    seed: int = 0,
    max_children_bias: float = 0.5,
) -> UnrankedTree:
    """Generate a uniform-ish random tree with ``size`` nodes.

    Each new node is attached to a parent chosen at random among existing
    nodes; ``max_children_bias`` in (0, 1] skews the choice towards recent
    nodes (larger bias = deeper trees).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    nodes = [tree.root]
    while len(nodes) < size:
        # Choose the parent among a window of recent nodes with some bias.
        window = max(1, int(len(nodes) * max_children_bias))
        parent = nodes[-rng.randint(1, window)]
        child = tree.insert_first_child(parent.node_id, rng.choice(list(labels)))
        nodes.append(child)
    return tree


def path_tree(size: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """A path of ``size`` nodes (each node has a single child)."""
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    node = tree.root
    for _ in range(size - 1):
        node = tree.insert_first_child(node.node_id, rng.choice(list(labels)))
    return tree


def star_tree(size: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """A root with ``size - 1`` children."""
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    for _ in range(size - 1):
        tree.insert_first_child(tree.root.node_id, rng.choice(list(labels)))
    return tree


def caterpillar_tree(size: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """A path where every path node additionally has one leaf child."""
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    spine = tree.root
    produced = 1
    while produced < size:
        leaf = tree.insert_first_child(spine.node_id, rng.choice(list(labels)))
        produced += 1
        if produced >= size:
            break
        spine = tree.insert_first_child(spine.node_id, rng.choice(list(labels)))
        produced += 1
        # keep the leaf to the right of the spine child for variety
        del leaf
    return tree


def comb_tree(size: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """A right comb: each spine node has a leaf first child and a spine second child."""
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    spine = tree.root
    produced = 1
    while produced + 1 < size:
        spine_child = tree.insert_first_child(spine.node_id, rng.choice(list(labels)))
        tree.insert_first_child(spine.node_id, rng.choice(list(labels)))
        produced += 2
        spine = spine_child
    return tree


def full_binary_unranked_tree(depth: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """A complete binary tree of the given depth, as an unranked tree."""
    rng = random.Random(seed)
    tree = UnrankedTree(rng.choice(list(labels)))
    frontier = [tree.root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            right = tree.insert_first_child(node.node_id, rng.choice(list(labels)))
            left = tree.insert_first_child(node.node_id, rng.choice(list(labels)))
            next_frontier.extend([left, right])
        frontier = next_frontier
    return tree


def xml_like_document(
    n_records: int,
    fields_per_record: int = 3,
    labels: Optional[Sequence[object]] = None,
    seed: int = 0,
) -> UnrankedTree:
    """A shallow, wide document shaped like a typical XML/JSON export.

    ``<catalog> <record> <field/>... </record> ... </catalog>`` with a few
    randomly placed ``highlight`` markers, which the example queries select.
    """
    if labels is None:
        labels = ("field", "value", "highlight")
    rng = random.Random(seed)
    tree = UnrankedTree("catalog")
    for _ in range(n_records):
        record = tree.insert_first_child(tree.root.node_id, "record")
        for _ in range(fields_per_record):
            field_label = "highlight" if rng.random() < 0.15 else rng.choice(list(labels[:2]))
            tree.insert_first_child(record.node_id, field_label)
    return tree


def random_word_tree(length: int, alphabet: Sequence[object] = ("a", "b"), seed: int = 0) -> UnrankedTree:
    """A 'word' encoded as a root with ``length`` leaf children (left to right)."""
    rng = random.Random(seed)
    tree = UnrankedTree("word")
    previous = None
    for _ in range(length):
        if previous is None:
            previous = tree.insert_first_child(tree.root.node_id, rng.choice(list(alphabet)))
        else:
            previous = tree.insert_right_sibling(previous.node_id, rng.choice(list(alphabet)))
    return tree


def random_binary_tree(n_internal: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> BinaryTree:
    """Generate a random *binary* tree with ``n_internal`` internal nodes.

    Used to test the circuit and enumeration layers directly (Sections 3–6),
    independently of the forest-algebra encoding.
    """
    rng = random.Random(seed)
    labels = list(labels)

    def build(remaining: int):
        if remaining == 0:
            return rng.choice(labels)
        left_share = rng.randint(0, remaining - 1)
        return (rng.choice(labels), build(left_share), build(remaining - 1 - left_share))

    return BinaryTree.from_nested(build(n_internal))


ALL_SHAPES = ("random", "path", "star", "caterpillar", "comb", "binary", "xml")


def tree_of_shape(shape: str, size: int, labels: Sequence[object] = DEFAULT_LABELS, seed: int = 0) -> UnrankedTree:
    """Dispatch helper used by benchmarks: build a tree of roughly ``size`` nodes."""
    if shape == "random":
        return random_tree(size, labels, seed)
    if shape == "path":
        return path_tree(size, labels, seed)
    if shape == "star":
        return star_tree(size, labels, seed)
    if shape == "caterpillar":
        return caterpillar_tree(size, labels, seed)
    if shape == "comb":
        return comb_tree(size, labels, seed)
    if shape == "binary":
        depth = max(1, size.bit_length() - 1)
        return full_binary_unranked_tree(depth, labels, seed)
    if shape == "xml":
        return xml_like_document(max(1, size // 4), 3, seed=seed)
    raise ValueError(f"unknown tree shape {shape!r}; expected one of {ALL_SHAPES}")
