"""Tree hollowings (Definition 7.2).

A *tree hollowing* of a binary tree ``T'`` consists of a trunk ``T''`` — a
small tree whose ``□``-labelled leaves point (injectively, to an antichain)
into ``T'`` — and describes the tree obtained by replacing each ``□`` leaf by
the corresponding subtree of ``T'``.  The point of hollowings (Lemma 7.3) is
that the circuit and index only need to be recomputed on the trunk: the boxes
and index entries of the reused subtrees are kept as they are.

In this implementation updates are applied to the balanced term *in place*
(see :mod:`repro.forest_algebra.maintenance`); the hollowing view is derived
from the update report for inspection, testing and benchmarking (its trunk
size is exactly the number of boxes the incremental maintainer rebuilds, the
quantity Lemma 7.3 charges for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.forest_algebra.terms import TermNode

__all__ = ["TreeHollowing", "hollowing_from_report"]


@dataclass
class TreeHollowing:
    """A hollowing described by its trunk nodes and the reused subtree roots."""

    #: nodes of the trunk (part of the new term that was freshly built / modified)
    trunk_nodes: List[TermNode] = field(default_factory=list)
    #: roots of the reused subtrees (the images of the □ leaves of the trunk)
    reused_roots: List[TermNode] = field(default_factory=list)

    def trunk_size(self) -> int:
        """Number of nodes of the trunk (the recomputation cost of Lemma 7.3)."""
        return len(self.trunk_nodes)

    def is_antichain(self) -> bool:
        """Check that the reused subtree roots are pairwise incomparable."""
        reused: Set[int] = {id(node) for node in self.reused_roots}
        for node in self.reused_roots:
            ancestor = node.parent
            while ancestor is not None:
                if id(ancestor) in reused:
                    return False
                ancestor = ancestor.parent
        return True


def hollowing_from_report(report) -> TreeHollowing:
    """Build the hollowing view of an :class:`~repro.forest_algebra.maintenance.UpdateReport`.

    The trunk is the set of dirty term nodes; the reused roots are the
    children of trunk nodes that are not themselves dirty.
    """
    dirty_ids = {id(node) for node in report.dirty_bottom_up}
    reused: List[TermNode] = []
    for node in report.dirty_bottom_up:
        for child in node.children():
            if id(child) not in dirty_ids:
                reused.append(child)
    return TreeHollowing(trunk_nodes=list(report.dirty_bottom_up), reused_roots=reused)
