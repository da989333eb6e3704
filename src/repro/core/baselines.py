"""Baseline enumerators corresponding to the prior work rows of Table 1.

The paper's Table 1 compares update-aware enumeration algorithms for MSO on
trees.  We implement three executable reference points to benchmark the main
algorithm against (experiment E1):

* :class:`MaterializingEnumerator` — the naive approach: materialize the full
  answer set with the brute-force oracle; every update recomputes it from
  scratch.  Exponential-size state, trivially constant delay, O(answer set)
  update time.  Only usable on small instances (it is the ground truth).
* :class:`RecomputeTreeEnumerator` — the static algorithms of Bagan [8] /
  Kazana–Segoufin [25]: linear preprocessing and output-linear delay, but no
  update support — every update rebuilds the term, circuit and index from
  scratch (Θ(|T|) per update).
* :class:`RelabelOnlyTreeEnumerator` — Amarilli, Bourhis, Mengel [4]: same
  data structure as the main algorithm, but only *relabeling* updates are
  handled incrementally; structural updates (leaf insertions/deletions) either
  raise :class:`~repro.errors.UnsupportedUpdateError` or, in ``fallback``
  mode, trigger a full rebuild.

The main algorithm of this paper is :class:`repro.core.enumerator.TreeRuntime`
itself: constant-ish delay *and* logarithmic structural updates.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Set

from repro.assignments import Assignment
from repro.automata.brute_force import unranked_satisfying_assignments
from repro.automata.unranked_tva import UnrankedTVA
from repro.core.enumerator import TreeRuntime
from repro.core.results import UpdateStats
from repro.errors import UnsupportedUpdateError
from repro.trees.edits import Delete, EditOperation, Insert, InsertRight, Relabel
from repro.trees.unranked import UnrankedTree

__all__ = [
    "BaselineStrategy",
    "MaterializingEnumerator",
    "RecomputeTreeEnumerator",
    "RelabelOnlyTreeEnumerator",
    "make_enumerator",
]

#: names accepted by :func:`make_enumerator`
BaselineStrategy = ("this-paper", "recompute", "relabel-only", "materialize")


class MaterializingEnumerator:
    """Materialize all answers with the brute-force oracle (tiny inputs only)."""

    def __init__(self, tree: UnrankedTree, query: UnrankedTVA):
        self.query = query
        self.tree = tree.copy()
        self._answers: List[Assignment] = []
        self._recompute()

    def _recompute(self) -> None:
        self._answers = sorted(
            unranked_satisfying_assignments(self.query, self.tree),
            key=lambda a: sorted((repr(v), n) for v, n in a),
        )

    def assignments(self) -> Iterator[Assignment]:
        return iter(list(self._answers))

    def count(self) -> int:
        return len(self._answers)

    def apply(self, edit: EditOperation) -> UpdateStats:
        start = time.perf_counter()
        edit.apply_to_tree(self.tree)
        self._recompute()
        return UpdateStats(
            trunk_size=self.tree.size(),
            rebuilt_subterm_size=self.tree.size(),
            seconds=time.perf_counter() - start,
        )


class RecomputeTreeEnumerator:
    """Static enumeration (Bagan / Kazana–Segoufin): rebuild everything on update."""

    def __init__(self, tree: UnrankedTree, query: UnrankedTVA, relation_backend: Optional[str] = None):
        self.query = query
        self.relation_backend = relation_backend
        self.tree = tree.copy()
        self._inner = TreeRuntime(self.tree, query, relation_backend=relation_backend, copy_tree=True)

    def assignments(self) -> Iterator[Assignment]:
        """Enumerate answers (same guarantees as the static Theorem 6.5 pipeline)."""
        return self._inner.assignments()

    def __iter__(self) -> Iterator[Assignment]:
        return self.assignments()

    def count(self, limit: Optional[int] = None) -> int:
        return self._inner.count(limit=limit)

    def delay_probe(self, max_answers: Optional[int] = None) -> List[float]:
        return self._inner.delay_probe(max_answers=max_answers)

    def stats(self):
        return self._inner.stats()

    def apply(self, edit: EditOperation) -> UpdateStats:
        """Apply an edit by rebuilding the whole enumeration structure."""
        start = time.perf_counter()
        edit.apply_to_tree(self.tree)
        self._inner = TreeRuntime(
            self.tree, self.query, relation_backend=self.relation_backend, copy_tree=True
        )
        return UpdateStats(
            trunk_size=self.tree.size(),
            rebuilt_subterm_size=self.tree.size(),
            seconds=time.perf_counter() - start,
        )

    # Convenience mirrors of the TreeRuntime API.
    def relabel(self, node_id: int, label: object) -> UpdateStats:
        return self.apply(Relabel(node_id, label))

    def insert_first_child(self, parent_id: int, label: object) -> UpdateStats:
        return self.apply(Insert(parent_id, label))

    def insert_right_sibling(self, anchor_id: int, label: object) -> UpdateStats:
        return self.apply(InsertRight(anchor_id, label))

    def delete_leaf(self, node_id: int) -> UpdateStats:
        return self.apply(Delete(node_id))


class RelabelOnlyTreeEnumerator:
    """The relabeling-only algorithm of [4]: incremental relabels, no structural updates."""

    def __init__(
        self,
        tree: UnrankedTree,
        query: UnrankedTVA,
        relation_backend: Optional[str] = None,
        fallback: bool = True,
    ):
        self.query = query
        self.relation_backend = relation_backend
        #: if True, structural updates fall back to a full rebuild instead of failing
        self.fallback = fallback
        self.tree = tree.copy()
        self._inner = TreeRuntime(self.tree, query, relation_backend=relation_backend, copy_tree=True)

    def assignments(self) -> Iterator[Assignment]:
        return self._inner.assignments()

    def __iter__(self) -> Iterator[Assignment]:
        return self.assignments()

    def count(self, limit: Optional[int] = None) -> int:
        return self._inner.count(limit=limit)

    def delay_probe(self, max_answers: Optional[int] = None) -> List[float]:
        return self._inner.delay_probe(max_answers=max_answers)

    def stats(self):
        return self._inner.stats()

    def apply(self, edit: EditOperation) -> UpdateStats:
        if isinstance(edit, Relabel):
            # Relabels go through the incremental machinery, exactly as in [4].
            stats = self._inner.apply(edit)
            edit.apply_to_tree(self.tree)
            return stats
        if not self.fallback:
            raise UnsupportedUpdateError(
                "the relabeling-only baseline does not support structural updates"
            )
        start = time.perf_counter()
        edit.apply_to_tree(self.tree)
        self._inner = TreeRuntime(
            self.tree, self.query, relation_backend=self.relation_backend, copy_tree=True
        )
        return UpdateStats(
            trunk_size=self.tree.size(),
            rebuilt_subterm_size=self.tree.size(),
            seconds=time.perf_counter() - start,
        )

    def relabel(self, node_id: int, label: object) -> UpdateStats:
        return self.apply(Relabel(node_id, label))

    def insert_first_child(self, parent_id: int, label: object) -> UpdateStats:
        return self.apply(Insert(parent_id, label))

    def delete_leaf(self, node_id: int) -> UpdateStats:
        return self.apply(Delete(node_id))


def make_enumerator(strategy: str, tree: UnrankedTree, query: UnrankedTVA, **kwargs):
    """Factory used by the benchmarks: build an enumerator for a Table 1 row."""
    if strategy == "this-paper":
        return TreeRuntime(tree, query, **kwargs)
    if strategy == "recompute":
        return RecomputeTreeEnumerator(tree, query, **kwargs)
    if strategy == "relabel-only":
        return RelabelOnlyTreeEnumerator(tree, query, **kwargs)
    if strategy == "materialize":
        return MaterializingEnumerator(tree, query)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {BaselineStrategy}")
