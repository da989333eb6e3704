"""The per-document enumeration runtimes: trees (Theorem 8.1) and words (Theorem 8.5).

:class:`TreeRuntime` is the end-to-end object of the paper: given an
unranked tree and a (generally nondeterministic) unranked tree variable
automaton, it

1. translates the automaton to a binary TVA on forest-algebra terms
   (Lemma 7.4) and homogenizes it (Lemma 2.1);
2. encodes the tree as a balanced term (Section 7) and builds the assignment
   circuit (Lemma 3.7) and enumeration index (Lemma 6.3) bottom-up over it;
3. enumerates the satisfying assignments without duplicates with
   output-linear delay (Theorem 6.5 / Theorem 8.1);
4. supports the edit operations of Definition 7.1 by rebuilding only the
   trunk of the corresponding hollowing (Lemma 7.3) — logarithmic work per
   update — after which enumeration restarts on the updated tree.

:class:`WordRuntime` is the word specialization (Corollary 8.4 /
Theorem 8.5), used for document spanners: the query is a word variable
automaton (for instance compiled from a regex with capture variables by
:mod:`repro.spanners`), answers bind variables to word positions, and the
supported updates are character insertion, deletion and replacement.  A
word is a forest of one-node trees, so it runs on the same
:class:`~repro.forest_algebra.maintenance.MaintainedTerm` and the same
runtime body as a tree: the two classes differ only in construction, views
and how their edit verbs map onto the term.

A process holds one compiled automaton per query: a table keyed by the
query's content digest (:func:`repro.automata.serialize.query_digest`) that
:func:`compiled_automaton_for` fills on compile and
:class:`repro.engine.catalog.QueryCatalog` on a disk load.  Compilation
emits δ and ι in the catalog payload's canonical row order, so the automaton
(and every box plan built from it) is the same in every process, whatever
the hash seed.

The runtimes are the building blocks of the public :class:`repro.Engine`
(one maintained document each).  ``relation_backend=`` selects the relation
representation (:mod:`repro.enumeration.relations`): ``None`` or
``"bitset"`` for the runtime, ``"pairs"`` for the paper-shaped oracle that
the differential tests and the backend benchmarks compare it against.

Materialization boundary
------------------------
On the ``bitset`` backend the enumeration below these classes is
mask-native end to end (:mod:`repro.enumeration.duplicate_free`): answers
travel as nested tuples of var-gate assignments and provenance as Γ-position
bitmasks.  The public :class:`~repro.assignments.Assignment` objects are
materialized exactly once per answer at the
:meth:`~repro.enumeration.assignment_iter.CircuitEnumerator.assignments`
boundary the classes here consume, and provenance *sets* of ∪-gates are only
ever built when a caller asks for them through
:func:`repro.enumeration.duplicate_free.enumerate_boxed_set` — nothing in the
``assignments()`` / ``count()`` / ``delay_probe()`` paths allocates them.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.assignments import Assignment, valuation_from_assignment
from repro.automata.binary_tva import BinaryTVA
from repro.automata.homogenize import homogenize
from repro.automata.serialize import binary_tva_from_payload, binary_tva_to_payload, query_digest
from repro.automata.translate import translate_unranked_tva, translate_wva
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.core.results import EnumeratorStats, UpdateStats, assignment_to_tuple
from repro.circuits.dnnf import circuit_stats
from repro.errors import InvalidAutomatonError, InvalidEditError, StaleIteratorError
from repro.forest_algebra.maintenance import MaintainedTerm, UpdateReport
from repro.forest_algebra.terms import DecodedNode, term_leaves
from repro.incremental.maintainer import IncrementalCircuitMaintainer
from repro.trees.edits import Delete, EditOperation, Insert, InsertRight, Relabel
from repro.trees.unranked import UnrankedTree

__all__ = [
    "TreeRuntime",
    "WordRuntime",
    "COMPILED_AUTOMATA_LIMIT",
    "compiled_automaton_for",
    "lookup_automaton",
    "register_automaton",
    "clear_automata",
]


#: how many compiled automata a process keeps alive when nothing else holds
#: them: the latest ones registered.  A runtime, a catalog entry or a
#: :class:`repro.engine.query.Query` holding one keeps it in the table, so
#: only unused automata (each with its box plans) count against the bound.
COMPILED_AUTOMATA_LIMIT = 128

#: query digest → the one compiled automaton this process holds for it
_automata: "weakref.WeakValueDictionary[str, BinaryTVA]" = weakref.WeakValueDictionary()
#: strong references to the latest registered automata, oldest dropped first
_latest: "deque[BinaryTVA]" = deque(maxlen=COMPILED_AUTOMATA_LIMIT)
#: registration is check-then-act; a server's executor thread compiles too
_register_lock = threading.Lock()


def lookup_automaton(digest: str) -> Optional[BinaryTVA]:
    """The compiled automaton this process holds under a query digest, if any."""
    return _automata.get(digest)


def register_automaton(digest: str, automaton: BinaryTVA) -> BinaryTVA:
    """Hold ``automaton`` under ``digest`` unless the process holds one already.

    Returns the held automaton, so every caller ends up with the same object
    (and the same box plans) for a digest.
    """
    with _register_lock:
        held = _automata.get(digest)
        if held is None:
            held = _automata[digest] = automaton
            _latest.append(automaton)
    return held


def clear_automata() -> None:
    """Forget every registered automaton: the next use of a query compiles
    it cold (benchmarks time compilation after this)."""
    _automata.clear()
    _latest.clear()


def _compile(query, translate) -> BinaryTVA:
    """Translate + homogenize, with δ and ι in the catalog payload's row order.

    The translator builds δ and ι from sets, whose order follows the
    interpreter's hash seed, and a plan's input order and ×-gate numbering
    follow δ.  The payload round trip sorts both canonically, so a parent,
    its shard workers and another host hold the same automaton for a query.
    An automaton the value codec cannot encode keeps the translator's order.
    """
    automaton = homogenize(translate(query))
    try:
        return binary_tva_from_payload(binary_tva_to_payload(automaton))
    except InvalidAutomatonError:
        return automaton


def compiled_automaton_for(query) -> BinaryTVA:
    """The compiled (translated + homogenized) binary automaton of a query.

    Dispatches on the query type — :class:`UnrankedTVA` (Lemma 7.4) or
    :class:`WVA` (Theorem 8.5) — and looks the query's digest
    (:func:`repro.automata.serialize.query_digest`) up in the process's
    table, which the catalog fills too: a query of known content is never
    compiled again while anything holds its automaton.  A query without a
    digest (values the codec cannot encode) is compiled for the caller alone.
    """
    if isinstance(query, UnrankedTVA):
        translate = translate_unranked_tva
    elif isinstance(query, WVA):
        translate = translate_wva
    else:
        raise TypeError(
            f"cannot compile {type(query).__name__}; expected an UnrankedTVA or a WVA"
        )
    try:
        digest = query_digest(query)
    except InvalidAutomatonError:
        return _compile(query, translate)
    held = _automata.get(digest)
    if held is None:
        held = register_automaton(digest, _compile(query, translate))
    return held


def _document_updated() -> StaleIteratorError:
    return StaleIteratorError("the document was updated; restart the enumeration")


class _Runtime:
    """One maintained document: balanced term, incremental circuit, enumeration.

    The subclasses build the term and map their edit verbs onto it.  The rest
    is defined here once: the compiled query (:func:`compiled_automaton_for`
    picks Lemma 7.4 or Theorem 8.5 from the query's type), enumeration with
    the stale-iterator check, counting, statistics and the update step.
    """

    def __init__(self, query, term: MaintainedTerm, start: float, relation_backend, build_cache):
        self.query = query
        self.binary_automaton = compiled_automaton_for(query)
        self.term = term
        self.maintainer = IncrementalCircuitMaintainer(
            term,
            self.binary_automaton,
            relation_backend=relation_backend,
            build_cache=build_cache,
        )
        self._preprocessing_seconds = time.perf_counter() - start
        self._version = 0
        #: builds what a stale iterator raises; the serving layer sets one
        #: that names the document, so every transport raises one message
        self.stale_error: Callable[[], Exception] = _document_updated

    # ------------------------------------------------------------------ stats
    def stats(self) -> EnumeratorStats:
        """Preprocessing statistics (sizes, width, wall-clock time)."""
        stats = circuit_stats(self.maintainer.circuit())
        return EnumeratorStats(
            tree_size=self.term.size(),
            term_size=self.term.size(),
            term_height=self.term.height(),
            automaton_states=len(self.binary_automaton.states),
            circuit_width=stats.width,
            circuit_gates=stats.gate_count(),
            preprocessing_seconds=self._preprocessing_seconds,
        )

    # -------------------------------------------------------------- enumeration
    def assignments(self) -> Iterator[Assignment]:
        """Enumerate the satisfying assignments (sets of ``(variable, node id)``).

        The iterator is invalidated by updates: advancing it after an update
        raises :class:`~repro.errors.StaleIteratorError`, as the paper's model
        requires restarting enumeration after each update.
        """
        # The version is captured *eagerly* (this is not a generator): an
        # update or removal landing between creating the iterator and its
        # first answer must invalidate it too.
        version = self._version
        enumerator = self.maintainer.enumerator()

        def iterate() -> Iterator[Assignment]:
            for assignment in enumerator.assignments():
                if self._version != version:
                    raise self.stale_error()
                yield assignment

        return iterate()

    def __iter__(self) -> Iterator[Assignment]:
        return self.assignments()

    def invalidate_iterators(self) -> None:
        """Make every live :meth:`assignments` iterator raise
        :attr:`stale_error`'s error on its next answer.

        Updates do this implicitly; the serving layer calls it when a
        document is removed, so a stream over a dropped document fails the
        same way in local and sharded mode, and when the engine is closed.
        """
        self._version += 1

    def count(self, limit: Optional[int] = None) -> int:
        """Count the answers by enumerating them (early stop at ``limit``)."""
        total = 0
        for _ in self.assignments():
            total += 1
            if limit is not None and total >= limit:
                break
        return total

    def delay_probe(self, max_answers: Optional[int] = None) -> List[float]:
        """Wall-clock delays before each answer (for the delay experiments)."""
        return self.maintainer.enumerator().delay_probe(max_answers=max_answers)

    # ------------------------------------------------------------------ updates
    def _update(
        self,
        report: UpdateReport,
        start: float,
        new_node_id: Optional[int] = None,
        new_position_id: Optional[int] = None,
    ) -> UpdateStats:
        """Rebuild the trunk an edit of the term reported (Lemma 7.3)."""
        trunk = self.maintainer.apply_report(report)
        self._version += 1
        return UpdateStats(
            trunk_size=trunk,
            rebuilt_subterm_size=report.rebuilt_subterm_size,
            seconds=time.perf_counter() - start,
            new_node_id=new_node_id,
            new_position_id=new_position_id,
        )


class TreeRuntime(_Runtime):
    """Enumerate the answers of an unranked TVA on an unranked tree, under updates."""

    def __init__(
        self,
        tree: UnrankedTree,
        query: UnrankedTVA,
        relation_backend: Optional[str] = None,
        build_cache=None,
    ):
        start = time.perf_counter()
        #: reference copy of the tree, kept in sync with the index structures
        self.tree = tree.copy()
        super().__init__(query, MaintainedTerm(self.tree), start, relation_backend, build_cache)

    # ------------------------------------------------------------------ views
    def valuations(self) -> Iterator[Dict[int, FrozenSet[object]]]:
        """Enumerate answers as valuations (node id → set of variables)."""
        for assignment in self.assignments():
            yield valuation_from_assignment(assignment)

    def answer_tuples(self, variables: Optional[Sequence[object]] = None) -> Iterator[Tuple]:
        """Enumerate answers as tuples of node ids, for first-order-style queries."""
        order = tuple(variables) if variables is not None else tuple(sorted(self.query.variables, key=repr))
        for assignment in self.assignments():
            yield assignment_to_tuple(assignment, order)

    def first(self, k: int) -> List[Assignment]:
        """The first ``k`` answers."""
        result: List[Assignment] = []
        for assignment in self.assignments():
            result.append(assignment)
            if len(result) >= k:
                break
        return result

    # ------------------------------------------------------------------ updates
    def apply(self, edit: EditOperation) -> UpdateStats:
        """Apply one edit operation of Definition 7.1 to the tree."""
        new_node = edit.apply_to_tree(self.tree)
        start = time.perf_counter()
        new_id = new_node.node_id if isinstance(edit, (Insert, InsertRight)) else None
        report = self.term.apply_edit(edit, new_node_id=new_id)
        return self._update(report, start, new_node_id=new_id)

    def relabel(self, node_id: int, label: object) -> UpdateStats:
        """``relabel(n, l)``."""
        return self.apply(Relabel(node_id, label))

    def insert_first_child(self, parent_id: int, label: object) -> UpdateStats:
        """``insert(n, l)``; the new node's id is in ``UpdateStats.new_node_id``."""
        return self.apply(Insert(parent_id, label))

    def insert_right_sibling(self, anchor_id: int, label: object) -> UpdateStats:
        """``insertR(n, l)``; the new node's id is in ``UpdateStats.new_node_id``."""
        return self.apply(InsertRight(anchor_id, label))

    def delete_leaf(self, node_id: int) -> UpdateStats:
        """``delete(n)`` (``n`` must be a leaf)."""
        return self.apply(Delete(node_id))


class WordRuntime(_Runtime):
    """Enumerate the matches of a WVA (document spanner) on a word, under updates.

    The word is maintained as a forest of one-node trees, one per position.
    Positions keep stable ids across edits: the initial positions are
    ``0 … n-1`` and every insert takes the next unused id.
    """

    def __init__(
        self,
        word: Sequence[object],
        query: WVA,
        relation_backend: Optional[str] = None,
        build_cache=None,
    ):
        if len(word) == 0:
            raise InvalidEditError("words must be non-empty")
        start = time.perf_counter()
        self._next_id = len(word)
        term = MaintainedTerm([DecodedNode(position, letter) for position, letter in enumerate(word)])
        super().__init__(query, term, start, relation_backend, build_cache)

    # ------------------------------------------------------------------ views
    def word(self) -> List[object]:
        """The current word (letters left to right)."""
        return [leaf.label for leaf in term_leaves(self.term.root)]

    def position_ids(self) -> List[int]:
        """Stable position ids, left to right (answers refer to these)."""
        return [leaf.tree_node_id for leaf in term_leaves(self.term.root)]

    def assignments_by_index(self) -> Iterator[Assignment]:
        """Answers with positions given as current 0-based indices (not stable ids)."""
        index_of = {pos_id: index for index, pos_id in enumerate(self.position_ids())}
        for assignment in self.assignments():
            yield frozenset((var, index_of[pos_id]) for var, pos_id in assignment)

    # ------------------------------------------------------------------ updates
    def replace(self, position_id: int, letter: object) -> UpdateStats:
        """Replace the letter at a position."""
        start = time.perf_counter()
        return self._update(self.term.relabel(position_id, letter), start)

    def insert_after(self, position_id: Optional[int], letter: object) -> UpdateStats:
        """Insert a letter after a position (``None`` = at the front)."""
        start = time.perf_counter()
        new_id = self._next_id
        self._next_id += 1  # taken even if the insert fails, so ids never repeat
        if position_id is None:
            report = self.term.insert_first_root(new_id, letter)
        else:
            report = self.term.insert_right_sibling(position_id, new_id, letter)
        return self._update(report, start, new_position_id=new_id)

    def delete(self, position_id: int) -> UpdateStats:
        """Delete a position (the word keeps at least one letter)."""
        start = time.perf_counter()
        return self._update(self.term.delete_leaf(position_id), start)
