"""Enumeration algorithms on assignment circuits (Sections 4-6)."""

from repro.enumeration.relations import Relation
from repro.enumeration.simple import enumerate_with_duplicates
from repro.enumeration.duplicate_free import enumerate_boxed_masks, enumerate_boxed_set
from repro.enumeration.index import build_index, build_box_index
from repro.enumeration.box_enum import indexed_box_enum, naive_box_enum
from repro.enumeration.assignment_iter import CircuitEnumerator

__all__ = [
    "Relation",
    "enumerate_with_duplicates",
    "enumerate_boxed_set",
    "enumerate_boxed_masks",
    "build_index",
    "build_box_index",
    "naive_box_enum",
    "indexed_box_enum",
    "CircuitEnumerator",
]
