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

import time
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.assignments import Assignment, valuation_from_assignment
from repro.automata.homogenize import homogenize
from repro.automata.translate import translate_unranked_tva, translate_wva
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.core.results import EnumeratorStats, UpdateStats, assignment_to_tuple
from repro.circuits.dnnf import circuit_stats
from repro.errors import InvalidEditError, StaleIteratorError
from repro.forest_algebra.maintenance import MaintainedTerm, UpdateReport
from repro.forest_algebra.terms import DecodedNode, term_leaves
from repro.incremental.maintainer import IncrementalCircuitMaintainer
from repro.trees.edits import Delete, EditOperation, Insert, InsertRight, Relabel
from repro.trees.unranked import UnrankedTree

__all__ = [
    "TreeRuntime",
    "WordRuntime",
    "query_content_key",
    "compiled_automaton_for",
    "seed_compiled_query",
]


#: content-keyed cache of compiled (translated + homogenized) queries,
#: bounded so a server compiling many distinct ad-hoc queries cannot grow
#: memory without limit (each entry also carries the automaton's box plans).
_COMPILED_QUERIES: Dict[Tuple, object] = {}
_COMPILED_QUERIES_LIMIT = 128


def query_content_key(query) -> Optional[Tuple]:
    """The in-process content key of a query (``None`` for unknown types).

    Two queries with equal content share one compiled automaton through this
    key; :mod:`repro.engine.catalog` uses the stable cross-process digest of
    :func:`repro.automata.serialize.query_digest` for the same purpose on
    disk.
    """
    if isinstance(query, UnrankedTVA):
        return ("tva", query.states, query.variables, query.initial, query.delta, query.final)
    if isinstance(query, WVA):
        return ("wva", query.states, query.variables, query.transitions, query.initial, query.final)
    return None


def _binary_automaton_for(query, translate):
    """Translate + homogenize a query, memoized on the query's *content*.

    Translation is a pure function of the query, so building several
    enumerators for equal queries — one query over many documents is the
    common serving scenario — compiles once and shares the resulting binary
    automaton, including the box plans the circuit construction attaches to
    it.  An instance-level attribute short-circuits the content hash for
    repeated use of the same query object.
    """
    cached = getattr(query, "_binary_automaton_cache", None)
    if cached is not None:
        return cached
    key = query_content_key(query)
    cached = _COMPILED_QUERIES.get(key) if key is not None else None
    if cached is None:
        cached = homogenize(translate(query))
        if key is not None:
            if len(_COMPILED_QUERIES) >= _COMPILED_QUERIES_LIMIT:
                # FIFO eviction is enough here: the cache exists for the
                # one-query-many-documents pattern, not as a tuned LRU.
                _COMPILED_QUERIES.pop(next(iter(_COMPILED_QUERIES)))
            _COMPILED_QUERIES[key] = cached
    try:
        query._binary_automaton_cache = cached
    except AttributeError:  # query classes with __slots__: just skip caching
        pass
    return cached


def compiled_automaton_for(query):
    """The compiled (translated + homogenized) binary automaton of a query.

    Dispatches on the query type — :class:`UnrankedTVA` (Lemma 7.4) or
    :class:`WVA` (Theorem 8.5) — and shares the in-process content-keyed
    cache the enumerators use, so serving code and enumerators built for the
    same query content get the *same* automaton object (and hence share its
    box plans).
    """
    if isinstance(query, UnrankedTVA):
        return _binary_automaton_for(query, translate_unranked_tva)
    if isinstance(query, WVA):
        return _binary_automaton_for(query, translate_wva)
    raise TypeError(
        f"cannot compile {type(query).__name__}; expected an UnrankedTVA or a WVA"
    )


def seed_compiled_query(query, automaton) -> None:
    """Install an externally obtained compiled automaton for a query.

    Used by :class:`repro.engine.catalog.QueryCatalog` after loading a
    persisted compiled query: the automaton is attached to the query object
    and entered into the content-keyed cache, so every later
    :class:`TreeRuntime`/:class:`WordRuntime` for this query content skips
    translate + homogenize + plan compilation entirely.
    """
    key = query_content_key(query)
    if key is not None:
        if key not in _COMPILED_QUERIES and len(_COMPILED_QUERIES) >= _COMPILED_QUERIES_LIMIT:
            _COMPILED_QUERIES.pop(next(iter(_COMPILED_QUERIES)))
        _COMPILED_QUERIES[key] = automaton
    try:
        query._binary_automaton_cache = automaton
    except AttributeError:
        pass


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
        #: what a stale iterator raises instead of StaleIteratorError, if set
        self._stale_error: Optional[Callable[[], Exception]] = None

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
                    if self._stale_error is not None:
                        raise self._stale_error()
                    raise StaleIteratorError("the document was updated; restart the enumeration")
                yield assignment

        return iterate()

    def __iter__(self) -> Iterator[Assignment]:
        return self.assignments()

    def invalidate_iterators(self, error: Optional[Callable[[], Exception]] = None) -> None:
        """Make every live :meth:`assignments` iterator raise on its next answer.

        Updates do this implicitly; the serving layer calls it when a
        document is removed, so a stream over a dropped document fails the
        same way in local and sharded mode.  With ``error``, the iterators
        raise a fresh ``error()`` instead of
        :class:`~repro.errors.StaleIteratorError` (the engine was closed).
        """
        self._version += 1
        self._stale_error = error

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
