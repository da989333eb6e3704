"""Forest algebra terms, balanced encoding and maintenance under edits (Section 7)."""

from repro.forest_algebra.terms import (
    TermNode,
    tree_leaf,
    context_leaf,
    concat,
    apply,
    decode,
    decode_to_nested,
    validate_term,
    term_leaves,
)
from repro.forest_algebra.encoder import encode_tree, encode_fragment
from repro.forest_algebra.maintenance import MaintainedTerm, UpdateReport
from repro.forest_algebra.hollowing import TreeHollowing, hollowing_from_report

__all__ = [
    "TermNode",
    "tree_leaf",
    "context_leaf",
    "concat",
    "apply",
    "decode",
    "decode_to_nested",
    "validate_term",
    "term_leaves",
    "encode_tree",
    "encode_fragment",
    "MaintainedTerm",
    "UpdateReport",
    "TreeHollowing",
    "hollowing_from_report",
]
