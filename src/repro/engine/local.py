"""`LocalStore` / `LocalDocument`: one process's maintained documents.

This is the single-process execution layer behind :class:`repro.Engine` (and
behind each sharding worker of ``Engine(workers=N)``): a **standing query**,
compiled once (and persisted via :class:`~repro.engine.catalog.QueryCatalog`),
served over many **evolving documents**.  Each local document packages:

* the maintained balanced term and incremental circuit of Lemma 7.3 —
  wrapped as the library's :class:`~repro.core.enumerator.TreeRuntime` or
  :class:`~repro.core.enumerator.WordRuntime` (Theorem 8.1 / 8.5), the one
  the query's kind selects, so every document build and edit goes through
  the exact code path the tests and benchmarks pin;
* an **epoch counter** advanced once per applied edit batch;
* the set of open :class:`~repro.engine.cursor.Cursor`\\ s, which the
  document notifies after each edit batch with the maintainer's
  :class:`~repro.incremental.maintainer.BoxDelta` map (old-box serial →
  rebuilt box + changed-slot mask, chained across the batch), driving the
  cursors' fine-grained resume-or-invalidate decision.

All documents added for content-equal queries share the process's one
compiled automaton for the query's digest — and therefore one box-plan
cache — whether it came from the catalog or from an in-process compile.

Word edits are specified as tuples named after the
:class:`~repro.core.enumerator.WordRuntime` verbs:
``("replace", position_id, letter)``, ``("insert_after",
position_id_or_None, letter)``, ``("delete", position_id)``.

:class:`StoreOps` is the *op set* over one store: one method per op of the
shard protocol (``add_batch``, ``edits``, ``page``, ...).  A shard worker
calls it by op name for every request it receives, and
:class:`LocalTransport` — how an in-process :class:`repro.Engine` reaches
its documents — calls it directly, so each op is written once for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.automata.serialize import query_digest
from repro.automata.unranked_tva import UnrankedTVA
from repro.circuits.build import DEFAULT_BUILD_CACHE_SIZE, BuildCache
from repro.core.enumerator import TreeRuntime, WordRuntime
from repro.core.results import UpdateStats
from repro.errors import EngineError, ServingError, StaleIteratorError
from repro.engine.catalog import QueryCatalog
from repro.incremental.maintainer import BoxDelta
from repro.enumeration.assignment_iter import root_boxed_set
from repro.engine.cursor import Cursor, CursorPage
from repro.obs import DelayMonitor, EventLog, MetricsRegistry
from repro.trees.edits import EditOperation
from repro.trees.unranked import UnrankedTree

__all__ = [
    "LocalStore",
    "LocalDocument",
    "BatchUpdateReport",
    "StoreOps",
    "Transport",
    "LocalTransport",
]

#: the runtime a query's kind selects (Theorem 8.1 / Theorem 8.5)
_RUNTIMES = {"tree": TreeRuntime, "word": WordRuntime}
#: the word edit tuples: (op, number of fields)
_WORD_EDITS = (("replace", 3), ("insert_after", 3), ("delete", 2))

#: how many of its latest cursor opens a document keeps addressable by id:
#: opening cursor ``n`` releases every id up to ``n - CURSOR_ID_LIMIT``.
#: The rule reads only the id counter, which replicas and the parent of a
#: fleet share, so they release the same ids without exchanging a message.
CURSOR_ID_LIMIT = 1024


def release_old_cursor_ids(table: Dict[int, object], newest_id: int) -> List[object]:
    """Pop the entries of ``table`` that the opening of ``newest_id`` releases.

    ``table`` is keyed by cursor id in open order (ids are handed out in
    increasing order), so the released ids are a prefix.  Returns the popped
    values, oldest first.
    """
    floor = newest_id - CURSOR_ID_LIMIT
    released = []
    for cursor_id in table:
        if cursor_id > floor:
            break
        released.append(cursor_id)
    return [table.pop(cursor_id) for cursor_id in released]


@dataclass
class BatchUpdateReport:
    """What one edit batch did to a served document."""

    document_id: object
    epoch: int  #: the document epoch after the batch
    stats: List[UpdateStats] = field(default_factory=list)
    boxes_rebuilt: int = 0
    cursors_resumed: int = 0
    cursors_invalidated: int = 0

    def trunk_total(self) -> int:
        return sum(s.trunk_size for s in self.stats)


class LocalDocument:
    """One maintained document bound to a compiled standing query."""

    def __init__(self, store: "LocalStore", doc_id, kind: str, enumerator, digest: str):
        self.store = store
        self.doc_id = doc_id
        self.kind = kind  #: "tree" or "word"
        self.enumerator = enumerator
        self.digest = digest
        self.epoch = 0
        #: cursors still eligible for edit notifications (pruned as they
        #: exhaust, invalidate or close, so long-lived documents don't
        #: accumulate dead cursor objects)
        self._cursors: List[Cursor] = []
        #: next cursor id to hand out.  A plain int (not itertools.count) so
        #: a restored replica can re-synchronize it (``sync_cursor_ids``):
        #: replicated engines mirror every cursor open to every replica, and
        #: ids must agree across replicas for failover to be transparent.
        self._next_cursor_id = 0
        #: cursors addressable by id for ``Engine``-style paging, in open
        #: order.  An entry is released as soon as its stream can never
        #: produce another useful page — when a fetch exhausts it, or right
        #: after the one precise :class:`CursorInvalidatedError` is delivered
        #: — and at the latest when :data:`CURSOR_ID_LIMIT` newer cursors
        #: have been opened (an abandoned cursor is closed then), so the
        #: table holds at most that many entries.
        self._cursors_by_id: Dict[int, Cursor] = {}
        self.cursors_opened_total = 0
        self.cursors_invalidated_total = 0
        self.cursors_resumed_total = 0  #: cursor×edit-batch resume events

    # ------------------------------------------------------------------ views
    @property
    def maintainer(self):
        return self.enumerator.maintainer

    def _root_boxed_set(self):
        return root_boxed_set(
            self.maintainer.root_box, self.enumerator.binary_automaton.final
        )

    def answers(self):
        """Fresh full enumeration of the document's current answers."""
        return self.enumerator.assignments()

    def count(self, limit: Optional[int] = None) -> int:
        return self.enumerator.count(limit=limit)

    def trunk_boxes(self, node_or_position_id: int) -> List:
        """The boxes a (non-rebalancing) edit at the given node would rebuild.

        The path of term nodes from the node's leaf to the term root — the
        trunk of the corresponding hollowing (Definition 7.2) — read off the
        maintained term.  Rebalancing can enlarge the actual trunk, so this
        is a lower bound; it is exact for relabel edits on a balanced term
        and is what tests and capacity planning use to predict cursor
        invalidation (``store.would_invalidate``).
        """
        term = self.enumerator.term
        leaf = term.leaf_of.get(node_or_position_id)
        if leaf is None:
            raise ServingError(
                f"document {self.doc_id!r} has no node/position {node_or_position_id!r}"
            )
        boxes = []
        node = leaf
        while node is not None:
            if node.box is not None:
                boxes.append(node.box)
            node = node.parent
        return boxes

    # ----------------------------------------------------------------- cursors
    def open_cursor(self, page_size: int = 50) -> Cursor:
        """Open a paginated cursor over the document's current answers."""
        cursor = Cursor(self, self._next_cursor_id, page_size)
        self._next_cursor_id += 1
        self._cursors.append(cursor)
        self._cursors_by_id[cursor.cursor_id] = cursor
        for released in release_old_cursor_ids(self._cursors_by_id, cursor.cursor_id):
            released.close()
        self.cursors_opened_total += 1
        return cursor

    def sync_cursor_ids(self, next_cursor_id: int) -> None:
        """Fast-forward the cursor-id counter (restore-after-failover only).

        A document rebuilt on a respawned shard starts with no cursors, but
        other replicas may already have handed out ids ``0..n-1``; syncing
        the counter keeps ids identical across replicas for every cursor
        opened from now on.  Rewinding is refused — reusing a live id would
        corrupt the replica's addressing.
        """
        if next_cursor_id < self._next_cursor_id:
            raise ServingError(
                f"cannot rewind cursor ids of document {self.doc_id!r} "
                f"({self._next_cursor_id} -> {next_cursor_id})"
            )
        self._next_cursor_id = next_cursor_id

    def cursor_by_id(self, cursor_id: int) -> Cursor:
        """The cursor with the given id, for paging by id (live cursors only)."""
        try:
            return self._cursors_by_id[cursor_id]
        except KeyError:
            raise ServingError(
                f"document {self.doc_id!r} has no cursor {cursor_id!r} "
                "(it may have been exhausted, invalidated or superseded by "
                f"{CURSOR_ID_LIMIT} newer cursors, and released)"
            ) from None

    def fetch_page(
        self, cursor_id: Optional[int] = None, page_size: int = 50
    ) -> Tuple[Cursor, CursorPage]:
        """One engine-style page request: open (or look up) a cursor, fetch.

        ``cursor_id=None`` opens a fresh cursor with ``page_size``; otherwise
        the existing cursor keeps the page size it was opened with.  Raises
        :class:`~repro.errors.CursorInvalidatedError` when an edit batch hit
        the cursor's trunk since the last page.  A cursor id is released once
        its stream ends (the page that exhausts it) or its invalidation has
        been reported — later requests for it raise
        :class:`~repro.errors.ServingError`.
        """
        if cursor_id is None:
            cursor = self.open_cursor(page_size=page_size)
        else:
            cursor = self.cursor_by_id(cursor_id)
        try:
            page = cursor.fetch()
        except BaseException:
            # One precise CursorInvalidatedError per cursor; then release it.
            self._cursors_by_id.pop(cursor.cursor_id, None)
            raise
        if page.exhausted:
            self._cursors_by_id.pop(cursor.cursor_id, None)
        return cursor, page

    def _forget_cursor(self, cursor: Cursor) -> None:
        """Drop a no-longer-notifiable cursor from the live list."""
        try:
            self._cursors.remove(cursor)
        except ValueError:
            pass

    def _notify_cursors(self, description: str, deltas) -> Tuple[int, int]:
        resumed = 0
        invalidated = 0
        survivors: List[Cursor] = []
        for cursor in self._cursors:
            if not cursor.is_active():
                continue  # pruned below
            if cursor._note_edits(self.epoch, description, deltas):
                resumed += 1
                survivors.append(cursor)
            else:
                invalidated += 1
        self._cursors = survivors
        self.cursors_resumed_total += resumed
        self.cursors_invalidated_total += invalidated
        return resumed, invalidated

    # ------------------------------------------------------------------ edits
    def apply_edits(self, edits: Iterable) -> BatchUpdateReport:
        """Apply one batch of edits; one epoch step for the whole batch.

        Tree documents take :class:`~repro.trees.edits.EditOperation` objects;
        word documents take ``("replace" | "insert_after" | "delete", ...)``
        tuples.  Each edit runs through the incremental maintainer
        (logarithmic trunk rebuild, Lemma 7.3); the union of the replaced
        trunk boxes is then checked against every open cursor.

        If an edit in the batch raises, the edits already applied are *not*
        rolled back (the document has genuinely changed); the epoch still
        advances and the cursors are still notified of the partial batch
        before the exception propagates — a cursor must never keep serving a
        stream whose trunk was rebuilt, however the batch ended.  A batch
        that fails before any edit applied leaves the epoch untouched.
        """
        edits = list(edits)
        report = BatchUpdateReport(document_id=self.doc_id, epoch=self.epoch)
        # Deltas for the whole batch, keyed by the serial of the box as the
        # *cursors* knew it (i.e. the pre-batch box).  An edit later in the
        # batch can replace a box an earlier edit just built; such links are
        # chained back to the pre-batch serial with the changed masks OR'd
        # (slot fingerprints compose: unchanged in both hops means unchanged
        # end to end).
        batch_deltas: Dict[int, BoxDelta] = {}
        origin: Dict[int, int] = {}  # new-box serial -> pre-batch serial
        descriptions: List[str] = []
        start = perf_counter()
        try:
            for edit in edits:
                stats = self._apply_one(edit)
                report.stats.append(stats)
                report.boxes_rebuilt += stats.trunk_size
                for serial, delta in self.maintainer.last_replaced_deltas.items():
                    root = origin.get(serial)
                    if root is not None:
                        prev = batch_deltas[root]
                        delta = BoxDelta(
                            old_serial=root,
                            old_box=prev.old_box,
                            new_box=delta.new_box,
                            changed_mask=prev.changed_mask | delta.changed_mask,
                        )
                        origin.pop(prev.new_box.serial, None)
                    else:
                        root = serial
                    batch_deltas[root] = delta
                    origin[delta.new_box.serial] = root
                descriptions.append(self._describe(edit))
        finally:
            if report.stats:
                self.epoch += 1
                report.epoch = self.epoch
                description = "edit batch [" + "; ".join(descriptions) + "]"
                resumed, invalidated = self._notify_cursors(description, batch_deltas)
                report.cursors_resumed = resumed
                report.cursors_invalidated = invalidated
                self.store.metrics.observe(
                    "update_batch_seconds", perf_counter() - start
                )
        return report

    def _apply_one(self, edit) -> UpdateStats:
        if self.kind == "tree":
            if not isinstance(edit, EditOperation):
                raise ServingError(
                    f"tree documents take EditOperation edits, got {edit!r}"
                )
            return self.enumerator.apply(edit)
        if not (isinstance(edit, tuple) and edit and (edit[0], len(edit)) in _WORD_EDITS):
            raise ServingError(
                f"unknown word edit {edit!r}; expected ('replace', position_id, letter), "
                "('insert_after', position_id or None, letter) or ('delete', position_id)"
            )
        op, *args = edit
        return getattr(self.enumerator, op)(*args)

    @staticmethod
    def _describe(edit) -> str:
        if isinstance(edit, EditOperation):
            return edit.describe()
        return repr(edit)


class LocalStore:
    """Many served documents sharing persistently compiled standing queries.

    ``catalog`` (optional) is a :class:`~repro.engine.catalog.QueryCatalog`;
    when given, a query whose digest the process does not hold yet loads
    from it (disk hit → no compilation).  All documents of content-equal
    queries share the process's one compiled automaton either way.
    """

    def __init__(
        self,
        catalog: Optional[QueryCatalog] = None,
        build_cache: Optional[BuildCache] = None,
        build_cache_size: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        delay_budget: Optional[float] = None,
    ):
        self.catalog = catalog
        #: store-side observability: latency histograms/counters and the
        #: operational event ring (see :mod:`repro.obs`).  A sharded engine's
        #: workers each carry their own registry; the parent merges them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        #: opt-in per-answer delay SLO; ``None`` keeps the enumeration hot
        #: path entirely hook-free (zero per-answer overhead).
        self.delay_monitor: Optional[DelayMonitor] = (
            None
            if delay_budget is None
            else DelayMonitor(delay_budget, self.metrics, events=self.events)
        )
        #: cross-document build cache: subtrees with equal content (per
        #: compiled query) are built once and shared by every document in
        #: this store, and so are equal per-box index shapes.  Pass
        #: ``build_cache_size=0`` to disable, or inject a prebuilt
        #: :class:`BuildCache` to share it across stores.
        if build_cache is not None:
            self.build_cache = build_cache
        else:
            self.build_cache = BuildCache(
                capacity=DEFAULT_BUILD_CACHE_SIZE if build_cache_size is None else build_cache_size
            )
        # Cache-hit latency feeds the build_cache_hit_seconds histogram.  For
        # an injected shared cache the last store wired wins, which is fine:
        # every store of one engine shares one registry.
        self.build_cache.on_hit_seconds = self.metrics.timer("build_cache_hit_seconds")
        self._documents: Dict[object, LocalDocument] = {}
        self._doc_ids = itertools.count()

    # --------------------------------------------------------------- documents
    def add_document(self, content, query, doc_id=None) -> LocalDocument:
        """Serve a tree (Theorem 8.1) or a word (Theorem 8.5) under a standing query.

        The query's kind selects the runtime; the content must be of that
        kind (an :class:`UnrankedTree` for a tree query, a sequence of
        letters for a word query).
        """
        digest = query_digest(query)  # rejects anything but a TVA or a WVA
        if self.catalog is not None:
            self.catalog.get(query)  # a digest new to the process loads, not compiles
        query_kind = "tree" if isinstance(query, UnrankedTVA) else "word"
        kind = "tree" if isinstance(content, UnrankedTree) else "word"
        if kind != query_kind:
            raise ServingError(f"cannot serve a {kind} document under a {query_kind} query")
        start = perf_counter()
        enumerator = _RUNTIMES[kind](content, query, build_cache=self.build_cache)
        self.metrics.observe("ingest_build_seconds", perf_counter() - start)
        return self._register(enumerator, kind, digest, doc_id)

    add_tree = add_word = add_document

    def _register(self, enumerator, kind: str, digest: str, doc_id) -> LocalDocument:
        if doc_id is None:
            doc_id = next(self._doc_ids)
        if doc_id in self._documents:
            raise ServingError(f"document id {doc_id!r} already in use")
        document = LocalDocument(self, doc_id, kind, enumerator, digest)
        enumerator.stale_error = partial(stale_stream, doc_id)
        # Observability hooks ride on the maintainer: per-update trunk
        # rebuild latency always, per-answer delay only under an SLO monitor
        # (keeping the default enumeration hot path hook-free).
        maintainer = enumerator.maintainer
        maintainer.on_update_seconds = self.metrics.timer("update_apply_seconds")
        if self.delay_monitor is not None:
            maintainer.on_delay = self.delay_monitor.observe
        self._documents[doc_id] = document
        return document

    def document(self, doc_id) -> LocalDocument:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise ServingError(f"no document with id {doc_id!r}") from None

    def remove(self, doc_id) -> None:
        """Drop a document (its cursors are closed, live streams invalidated)."""
        document = self.document(doc_id)
        for cursor in list(document._cursors):  # close() prunes the live list
            cursor.close()
        # A stream over a removed document must fail at its next answer in
        # local mode exactly as it does in sharded mode (where the engine's
        # epoch mirror is dropped with the document).
        document.enumerator.invalidate_iterators()
        del self._documents[doc_id]

    def would_invalidate(self, doc_id, cursor: Cursor, node_or_position_id: int) -> bool:
        """Predict whether an edit at a node *could* hit a cursor.

        Compares the node's prospective trunk (:meth:`LocalDocument.trunk_boxes`)
        against the cursor's currently referenced boxes by build serial.  This
        is the coarse whole-box projection of the cursor's dependency set, so
        it is an upper bound: an actual edit whose rebuilt boxes are
        fingerprint-equal at every slot the cursor still reads will let the
        cursor resume even though this predicted a hit.  A predicted ``False``
        can only turn into an actual invalidation through rebalancing, which
        structural edits may additionally trigger.
        """
        document = self.document(doc_id)
        trunk = {box.serial for box in document.trunk_boxes(node_or_position_id)}
        return any(box.serial in trunk for box in cursor.referenced_boxes())

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        """A snapshot of the store for monitoring."""
        documents = self._documents.values()
        return {
            "documents": len(self._documents),
            "compiled_queries": len({d.digest for d in documents}),
            "cursors_open": sum(
                sum(1 for c in d._cursors if c.is_active()) for d in documents
            ),
            "cursors_opened_total": sum(d.cursors_opened_total for d in documents),
            "cursors_invalidated": sum(d.cursors_invalidated_total for d in documents),
            # resume *events* (cursor × edit batch): the measured side of the
            # ROADMAP's cursor-resume-rate open item
            "cursors_resumed_across_edit_batches": sum(
                d.cursors_resumed_total for d in documents
            ),
            **self.build_cache.stats(),
        }


class StoreOps:
    """The op set: the shard protocol's ops over one :class:`LocalStore`.

    Every public method is one op, named as on the pipe; a shard worker
    dispatches each request to the method of its name, and the in-process
    transport calls them directly.  A query travels as its source the first
    time its digest reaches this store and as the digest alone afterwards.
    """

    def __init__(self, store: LocalStore):
        self._store = store
        self._sources: Dict[str, object] = {}  #: digest → query source

    def _source(self, source, digest: str):
        if source is None:
            source = self._sources.get(digest)
            if source is None:
                raise EngineError(f"shard has no cached query for digest {digest[:12]}...")
        else:
            self._sources[digest] = source
        return source

    def add_batch(self, items):
        """Add ``(doc_id, content, source_or_None, digest)`` items in order.

        The store picks the runtime from the query's kind.  The first failure
        ends the batch; the reply names the ids of the documents added so far
        and, after a failure, the failing id and its original exception, so
        the caller registers the successes and re-raises precisely.
        """
        added = []
        for doc_id, content, source, digest in items:
            try:
                document = self._store.add_document(
                    content, self._source(source, digest), doc_id=doc_id
                )
            except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
                return {"added": added, "failed_doc_id": doc_id, "error": exc}
            added.append(document.doc_id)
        return {"added": added, "failed_doc_id": None, "error": None}

    def edits(self, doc_id, edits) -> BatchUpdateReport:
        return self._store.document(doc_id).apply_edits(edits)

    def page(self, doc_id, cursor_id: Optional[int], page_size: int) -> Dict[str, object]:
        document = self._store.document(doc_id)
        cursor, page = document.fetch_page(cursor_id, page_size)
        return {
            "cursor_id": cursor.cursor_id,
            "answers": tuple(page.answers),
            "offset": page.offset,
            "exhausted": page.exhausted,
            "epoch": document.epoch,
        }

    def count(self, doc_id, limit: Optional[int]) -> int:
        return self._store.document(doc_id).count(limit=limit)

    def epoch(self, doc_id) -> int:
        return self._store.document(doc_id).epoch

    def remove(self, doc_id) -> None:
        self._store.remove(doc_id)

    def restore(self, doc_id, content, source, digest, edit_batches, next_cursor_id):
        """Rebuild one document from its original content plus its edit log.

        Failover re-migrates every document a dead shard held onto its
        respawned replacement.  The rebuild *replays* the recorded edit
        batches rather than shipping the edited tree: replaying reproduces
        the incremental forest-algebra term — and therefore node ids,
        position ids and enumeration order — byte-identically, where a fresh
        build of the final tree could balance differently.  Batches that
        failed originally fail identically on replay (including partial
        application), which keeps the replica in lockstep; their errors were
        already reported to the caller once.  ``next_cursor_id``
        re-synchronizes the cursor-id counter so cursors opened *after* the
        restore get the same ids on every replica.
        """
        from repro.errors import ReproError

        document = self._store.add_document(
            content, self._source(source, digest), doc_id=doc_id
        )
        for batch in edit_batches:
            try:
                document.apply_edits(batch)
            except ReproError:
                pass  # replayed failures re-apply their original partial effects
        document.sync_cursor_ids(next_cursor_id)
        return {"doc_id": doc_id, "epoch": document.epoch}

    def ping(self) -> str:
        return "pong"

    def stats(self) -> Dict[str, object]:
        return self._store.stats()

    def metrics(self) -> dict:
        return self._store.metrics.to_wire()

    def events(self) -> List[Dict[str, object]]:
        return self._store.events.snapshot()


class Transport:
    """What the :class:`repro.Engine` facade needs from a transport: the
    object that carries its document ops to wherever the documents live.

    ``ingest(items, trace_ctx)`` ships validated ``(doc_id, content, query)``
    rows and yields ``(index, doc_id)`` for each document that landed, then
    raises the batch's failure, if any; ``edits``, ``page``, ``count``,
    ``epoch`` and ``remove`` take the op set's arguments;
    ``stream(doc_id, check)`` iterates the current answers, calling
    ``check()`` (which raises once the facade saw an edit) before each one
    unless the iterator checks staleness itself; ``runtime``, ``stats``,
    ``merge_metrics``, ``gather``, ``await_repairs`` and ``close`` serve
    introspection, monitoring and lifecycle (a
    :class:`~repro.net.RemoteEngine` reports its server's ``stats``
    instead).  The defaults below are those of a transport without a fleet
    of shard workers.
    """

    workers = 0
    failovers_total = migrations_total = ingest_stragglers_total = 0

    def merge_metrics(self, registry: MetricsRegistry) -> None:
        """Fold the workers' metrics into ``registry`` (no workers here)."""

    def gather(self, op: str) -> list:
        """Every live worker's reply to one monitoring op (no workers here)."""
        return []

    def await_repairs(self) -> None:
        """Block until re-replication settles (nothing replicates here)."""


def engine_closed() -> EngineError:
    """The error every operation on a closed engine raises, streams included."""
    return EngineError("this engine is closed")


def stale_stream(doc_id) -> StaleIteratorError:
    """The error a stream raises once its document was edited or removed,
    on every transport."""
    return StaleIteratorError(
        f"document {doc_id!r} was edited (or removed) while stream() was running; "
        "restart the stream, or use page() for edit-stable pagination"
    )


class LocalTransport(StoreOps, Transport):
    """The in-process transport: the facade calls the op set directly."""

    def ingest(self, items, trace_ctx=None):
        reply = self.add_batch(
            [(doc_id, content, query.source, query.digest) for doc_id, content, query in items]
        )
        for index, doc_id in enumerate(reply["added"]):
            yield index, doc_id
        if reply["error"] is not None:
            raise reply["error"]

    def stream(self, doc_id, check):
        # Zero-overhead: the runtime's own per-answer iterator (Theorem 6.5
        # delay), which raises the facade's stale_stream error by itself.
        return self._store.document(doc_id).enumerator.assignments()

    def runtime(self, doc_id):
        return self._store.document(doc_id).enumerator

    def stats(self) -> Dict[str, object]:
        return {
            **super().stats(),
            "replicas": 1,
            "deaths_total": 0,
            "timeouts_total": 0,
            "repairs_pending": 0,
        }

    def close(self) -> None:
        # A live stream is the runtime's own iterator: it learns of the
        # closed engine at its next answer, through the runtime.
        for document in self._store._documents.values():
            document.enumerator.stale_error = engine_closed
            document.enumerator.invalidate_iterators()
        self._store = None
