"""`Engine`: the one facade over trees, words and spanners, whatever the transport.

One object owns the whole serving pipeline of the paper — translate
(Lemma 7.4 / Theorem 8.5) → homogenize (Lemma 2.1) → circuit + index
(Lemma 3.7 / 6.3) → duplicate-free enumeration (Theorem 6.5) → Lemma 7.3
updates — behind four nouns:

* :class:`Engine` — compiles queries (through a
  :class:`~repro.engine.catalog.QueryCatalog` when given one), validates
  every call, and keeps the document handles and their epochs;
* :class:`~repro.engine.query.Query` — one polymorphic compiled-query
  handle for unranked-tree TVA queries, word VAs and regex spanners,
  compiled and persisted through one content-addressed path;
* :class:`~repro.engine.document.Document` — a tree or word handle with
  ``apply_edits``, epochs, and ``stream()`` / ``page()`` enumeration;
* :class:`~repro.engine.document.ResultPage` — the one page type, backed by
  edit-stable cursors.

Every document op travels through one *transport*, the object that carries
the op to wherever the document lives, chosen when the engine is built:

* **in-process** (``Engine()``, :class:`~repro.engine.local.LocalTransport`)
  calls the op set (:class:`~repro.engine.local.StoreOps`) of a
  :class:`~repro.engine.local.LocalStore` directly; ``stream()`` returns the
  runtime's own iterator;
* **fleet** (``Engine(workers=N, replicas=R)``,
  :class:`~repro.engine.sharding.FleetTransport`) places each document on
  ``R`` of ``N`` shard worker processes — each answering the same op set —
  and owns replication, failover and repair;
* **socket** (:class:`~repro.net.client.RemoteEngine`, an ``Engine``) holds
  one connection to an :class:`~repro.net.server.EngineServer`.

The facade defines each operation once for all three: argument checks and
their errors, the document table, tracing spans and the epoch mirror —
every edit passes through the facade, so the mirror is exact without a
read per call, and a pushed stream goes stale against it at the same answer
boundary where the runtime's own iterator would.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from time import perf_counter
from typing import Dict, List, Optional

from repro.automata.serialize import query_digest
from repro.engine.catalog import QueryCatalog
from repro.engine.codec import CompiledQuery
from repro.engine.document import Document, ResultPage
from repro.engine.local import BatchUpdateReport, LocalStore, LocalTransport, engine_closed
from repro.engine.query import Query, normalize_query_source
from repro.engine.sharding import FleetTransport, ShardPool
from repro.errors import EngineError, ServingError, StaleIteratorError
from repro.obs import EventLog, MetricsRegistry, Tracer, render_prometheus
from repro.obs.tracing import trace_path_from_env
from repro.trees.unranked import UnrankedTree

__all__ = ["Engine"]


class Engine:
    """The unified enumeration engine (Theorems 8.1 + 8.5, one API).

    Parameters
    ----------
    catalog:
        ``None``, a directory path, or a :class:`QueryCatalog`.  With a
        catalog, :meth:`compile` persists every compiled query through the
        content-addressed path, so a fresh process (or a shard worker) loads
        instead of compiling.  A sharded engine *requires* a shared catalog
        directory; when none is given it creates a private temporary one
        (removed on :meth:`close`).
    workers:
        ``0`` (default) serves in-process; ``N >= 1`` partitions documents
        across ``N`` worker processes (load-aware placement, routed by
        document id afterwards).
    replicas:
        Copies of each document across distinct shards (default 1).  With
        ``replicas >= 2`` the engine survives any single shard death with
        zero document and zero in-flight-answer loss: reads fail over to a
        surviving replica and a replacement worker is respawned and
        re-populated in the background.  Requires ``replicas <= workers``.
    deadline:
        Seconds any single protocol wait (request reply, stream chunk) may
        block (default ``None`` = unbounded).  On expiry the hung worker is
        killed and the wait raises :class:`~repro.errors.ShardTimeoutError`
        — which, with replicas, fails over like a crash.
    fault_plan:
        A :class:`~repro.engine.faults.FaultPlan` (or spec string) injected
        into the workers for robustness testing; defaults to the
        ``REPRO_FAULTS`` environment variable.  See
        :mod:`repro.engine.faults`.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` = the platform default.
        The workers are safe under all of them.
    page_size:
        Default :meth:`Document.page` size.
    build_cache_size:
        Capacity (cached subtree roots) of the cross-document build cache
        each store keeps: documents sharing subtree content (per compiled
        query) build those subtrees once — boxes and enumeration index
        included.  ``None`` = the library default
        (:data:`repro.circuits.build.DEFAULT_BUILD_CACHE_SIZE`), ``0``
        disables caching.  The same cache shares per-box index shapes
        (four times as many keys; see :class:`repro.circuits.build.BuildCache`).
        Sharded engines give every worker its own cache of this capacity;
        hit/miss/eviction counters surface through :meth:`stats` as
        ``build_cache_hits`` / ``build_cache_misses`` /
        ``build_cache_evictions`` and ``index_shape_hits`` /
        ``index_shape_misses`` / ``index_shape_evictions`` (summed across
        shards).
    trace:
        ``True`` enables request tracing: every engine call opens a span,
        shard workers parent their protocol spans under it, and
        :meth:`dump_trace` exports one coherent Chrome-trace JSON.  A
        prebuilt :class:`~repro.obs.Tracer` may be passed instead.  Setting
        the ``REPRO_TRACE`` environment variable to a directory enables
        tracing too and auto-dumps the trace there on :meth:`close`.
        Default off — the instrumentation left in the hot paths is a single
        attribute check (gated under 5% by the benchmark suite).
    delay_budget:
        Opt-in per-answer delay SLO (seconds).  Arms a
        :class:`~repro.obs.DelayMonitor` in every store/worker: each
        produced answer's delay is recorded into the
        ``answer_delay_seconds`` histogram (see :meth:`metrics`) and every
        budget breach logs a ``delay_violation`` event (never raises unless
        ``delay_strict``).  ``None`` (default) keeps the enumeration hot
        path entirely hook-free.
    delay_strict:
        With a ``delay_budget``, raise :class:`~repro.errors.EngineError`
        on the first breach instead of just recording it (in-process
        engines only; sharded workers always record).
    slow_op_seconds:
        Threshold above which a shard protocol round trip is logged as a
        ``slow_op`` event (default 1.0; ``None`` disables).
    """

    def __init__(
        self,
        catalog=None,
        *,
        workers: int = 0,
        replicas: int = 1,
        deadline: Optional[float] = None,
        fault_plan=None,
        start_method: Optional[str] = None,
        page_size: int = 50,
        build_cache_size: Optional[int] = None,
        trace=False,
        delay_budget: Optional[float] = None,
        delay_strict: bool = False,
        slow_op_seconds: Optional[float] = 1.0,
    ):
        if page_size < 1:
            raise EngineError("page_size must be >= 1")
        if delay_budget is not None and delay_budget <= 0:
            raise EngineError(f"the delay budget must be positive, got {delay_budget}")
        if slow_op_seconds is not None and slow_op_seconds <= 0:
            raise EngineError(
                f"slow_op_seconds must be positive (None disables), got {slow_op_seconds}"
            )
        if workers < 0:
            raise EngineError(f"workers must be >= 0, got {workers}")
        if replicas < 1:
            raise EngineError(f"replicas must be >= 1, got {replicas}")
        if replicas > 1 and not workers:
            raise EngineError("replication requires a sharded engine (workers >= 1)")
        if workers and replicas > workers:
            raise EngineError(
                f"replicas={replicas} needs at least that many workers, got {workers}"
            )
        if build_cache_size is not None and build_cache_size < 0:
            raise EngineError(
                f"build_cache_size must be >= 0 (0 disables), got {build_cache_size}"
            )
        self.build_cache_size = build_cache_size
        self.replicas = replicas
        self.deadline = deadline
        # REPRO_TRACE=dir enables tracing from the environment (headless
        # runs) and auto-dumps on close().
        if not isinstance(trace, Tracer):
            trace = Tracer(
                enabled=bool(trace) or trace_path_from_env() is not None, process="parent"
            )
        self._open(page_size, trace)

        if workers and fault_plan is None:
            from repro.engine.faults import plan_from_env

            fault_plan = plan_from_env()
        if isinstance(fault_plan, str):
            from repro.engine.faults import parse_fault_spec

            fault_plan = parse_fault_spec(fault_plan)

        if isinstance(catalog, QueryCatalog):
            self.catalog = catalog
        elif catalog is not None:
            self.catalog = QueryCatalog(os.fspath(catalog))
        elif workers:
            # Sharding needs a directory the workers can share; own a
            # temporary one when the caller did not provide any.
            self._owned_catalog_dir = tempfile.mkdtemp(prefix="repro-engine-catalog-")
            self.catalog = QueryCatalog(self._owned_catalog_dir)
        if self.catalog is not None:
            #: catalog lease naming the digests this engine keeps live, so
            #: ``catalog.gc()`` without an explicit keep-list never collects them
            self._lease = self.catalog.acquire_lease()

        try:
            if workers:
                self._pool = ShardPool(
                    workers,
                    self.catalog.root,
                    start_method=start_method,
                    deadline=deadline,
                    fault_plan=fault_plan,
                    build_cache_size=build_cache_size,
                    metrics=self._metrics,
                    on_event=self._events.emit,
                    slow_op_seconds=slow_op_seconds,
                    trace=self._tracer.enabled,
                    delay_budget=delay_budget,
                )
                self._transport = FleetTransport(
                    self._pool, replicas, self._tracer, self._metrics, self._events
                )
            else:
                self._store = LocalStore(
                    catalog=self.catalog,
                    build_cache_size=build_cache_size,
                    metrics=self._metrics,
                    events=self._events,
                    delay_budget=delay_budget,
                    delay_strict=delay_strict,
                )
                self._transport = LocalTransport(self._store)
        except BaseException:
            self.close()
            raise

    def _open(self, page_size: int, tracer: Tracer) -> None:
        """The facade state every engine starts from; the constructor then
        picks the transport.  Everything :meth:`close` touches exists from
        here on, so a failed construction cleans up (and ``__del__`` stays
        safe)."""
        self.page_size = page_size
        self._tracer = tracer
        self._metrics = MetricsRegistry()
        self._events = EventLog()
        self._closed = False
        self._transport = None
        self._pool: Optional[ShardPool] = None  #: the fleet's worker pool
        self._store: Optional[LocalStore] = None  #: the in-process store
        self.catalog: Optional[QueryCatalog] = None
        self._lease = None
        self._owned_catalog_dir: Optional[str] = None
        self._documents: Dict[object, Document] = {}
        #: epoch mirror: every edit flows through this facade, so the mirror
        #: is exact without a per-read round trip
        self._epochs: Dict[object, int] = {}
        self._queries: Dict[str, Query] = {}
        self._doc_ids = itertools.count()

    # ------------------------------------------------------------------ state
    @property
    def workers(self) -> int:
        """Number of shard worker processes (0 = documents not on a fleet)."""
        return self._transport.workers

    # Fleet counters and introspection, read through from the transport
    # (zero without a fleet; the last four exist only on a fleet).
    failovers_total = property(lambda self: self._transport.failovers_total)
    migrations_total = property(lambda self: self._transport.migrations_total)
    ingest_stragglers_total = property(lambda self: self._transport.ingest_stragglers_total)
    _replicas_of = property(lambda self: self._transport.replicas_of)
    _placed = property(lambda self: self._transport.placed)
    _shard_of = property(lambda self: self._transport.shard_of)
    _pick_read_replica = property(lambda self: self._transport.pick_read_replica)

    def _check_open(self) -> None:
        # getattr, not attribute access: a constructor that raised during
        # parameter validation never assigned ``_closed``, and a monitoring
        # call on such a husk must get a precise EngineError, not an
        # AttributeError.
        closed = getattr(self, "_closed", None)
        if closed is None:
            raise EngineError(
                "this engine never finished construction (its constructor raised); "
                "create a new Engine"
            )
        if closed:
            raise engine_closed()

    # ---------------------------------------------------------------- queries
    def compile(self, source, alphabet=None) -> Query:
        """Compile (and, with a catalog, persist) a query of any kind.

        ``source`` may be an :class:`~repro.automata.unranked_tva.UnrankedTVA`
        (tree query), a :class:`~repro.automata.wva.WVA` (word query), a
        :class:`~repro.spanners.Spanner`, a spanner regex string (pass
        ``alphabet=``), or an already-compiled :class:`Query` (returned
        as-is).  Equal query *content* yields one shared compiled automaton —
        in-process through the content-keyed cache, cross-process through the
        catalog digest.
        """
        self._check_open()
        if isinstance(source, Query):
            return source
        kind, query_source, pattern = normalize_query_source(source, alphabet)
        digest = query_digest(query_source)
        known = self._queries.get(digest)
        if known is not None:
            return known
        entry = self._compiled_entry(kind, query_source, digest)
        query = Query(kind=kind, source=query_source, digest=digest, pattern=pattern, entry=entry)
        self._queries[digest] = query
        if self._lease is not None:
            # Record the digest as live, so a concurrent `catalog.gc()`
            # (no keep-list) in any process never collects it from under us.
            self._lease.add(digest)
        return query

    def _compiled_entry(self, kind: str, source, digest: str) -> CompiledQuery:
        """The compiled form of a query new to this engine."""
        if self.catalog is not None:
            entry = self.catalog.get(source)
            if digest not in self.catalog:
                # One content-addressed path for all kinds: compile once,
                # persist, and every other process (shard workers included)
                # loads instead of compiling.
                self.catalog.save(source, automaton=entry.automaton)
            return entry
        from repro.core.enumerator import compiled_automaton_for

        entry = CompiledQuery(kind=kind, digest=digest, automaton=compiled_automaton_for(source))
        entry.attach(source)
        return entry

    # -------------------------------------------------------------- documents
    def add(self, content, query, doc_id=None, alphabet=None) -> Document:
        """Serve one document under a standing query.

        An :class:`~repro.trees.unranked.UnrankedTree` is served under a
        tree query (Theorem 8.1); a word — any string or sequence of letters
        — under a word or spanner query (Theorem 8.5).  ``add_tree`` and
        ``add_word`` are aliases: the content's type decides, and content of
        the other kind than the query is refused before anything ships.
        """
        doc_ids = None if doc_id is None else [doc_id]
        return self.add_documents([content], query, doc_ids=doc_ids, alphabet=alphabet)[0]

    add_tree = add_word = add

    def add_documents(
        self,
        contents,
        query=None,
        *,
        queries=None,
        doc_ids=None,
        alphabet=None,
    ) -> List[Document]:
        """Add many documents at once — the pipelined ingest path.

        ``contents`` is a sequence of documents (each an
        :class:`~repro.trees.unranked.UnrankedTree` or a word); ``query`` is
        the standing query they share, or ``queries`` gives one per document.
        ``doc_ids`` optionally fixes ids (``None`` entries auto-assign).
        Handles come back in the caller's order.

        On a fleet the documents are grouped per shard (load-aware placement
        over the live shards, ``replicas`` shards per document) and shipped
        as **one pickled batch per worker, all batches in flight before any
        reply is collected** — so the per-document builds, the dominant
        serving cost, overlap across the worker processes instead of paying
        one synchronous round trip each.

        If an item fails, the documents the batch added stay registered and
        the item's original exception is re-raised.  If a worker process
        dies mid-batch, the documents that landed on no other replica are
        reported in a precise :class:`~repro.errors.ShardDiedError`;
        documents with at least one surviving replica stay registered (and
        are re-replicated in the background when ``replicas >= 2``).
        """
        self._check_open()
        items = self._prepare_ingest(contents, query, queries, doc_ids, alphabet)
        return [document for _index, document in sorted(self._ingest(items))]

    def add_documents_iter(
        self,
        contents,
        query=None,
        *,
        queries=None,
        doc_ids=None,
        alphabet=None,
    ):
        """:meth:`add_documents`, yielding each handle as its build lands.

        Returns an iterator of :class:`Document` handles in **completion
        order**: on a fleet each document is yielded as soon as every shard
        it was placed on has acknowledged its batch, so the documents on
        fast shards are usable while a straggler shard is still building.
        Batch-level failures (a dead shard's lost documents, a failed item's
        original exception) are raised at the end, after every surviving
        document has been yielded — the same error semantics as
        :meth:`add_documents`.  Without a fleet the documents are yielded in
        caller order after the batch builds.
        """
        self._check_open()
        items = self._prepare_ingest(contents, query, queries, doc_ids, alphabet)
        return (document for _index, document in self._ingest(items))

    def _prepare_ingest(self, contents, query, queries, doc_ids, alphabet):
        """Validate one ingest batch into ``(doc_id, content, compiled)`` rows."""
        contents = list(contents)
        if queries is not None:
            queries = list(queries)
            if len(queries) != len(contents):
                raise EngineError(
                    f"queries ({len(queries)}) and contents ({len(contents)}) differ in length"
                )
        if doc_ids is not None:
            doc_ids = list(doc_ids)
            if len(doc_ids) != len(contents):
                raise EngineError(
                    f"doc_ids ({len(doc_ids)}) and contents ({len(contents)}) differ in length"
                )
        items = []
        claimed = set()
        for index, content in enumerate(contents):
            item_query = queries[index] if queries is not None else query
            if item_query is None:
                raise EngineError(
                    "add_documents needs a query: pass query= (shared) or queries= (per item)"
                )
            compiled = self.compile(item_query, alphabet=alphabet)
            if isinstance(content, UnrankedTree):
                kind = "tree"
            else:
                kind = "word"
                content = list(content)
            if compiled.kind != kind:
                raise EngineError(
                    f"cannot serve a {kind} document under a {compiled.kind} query "
                    f"(digest {compiled.digest[:12]}...)"
                )
            doc_id = doc_ids[index] if doc_ids is not None else None
            if doc_id is None:
                doc_id = self._auto_doc_id(claimed)
            elif doc_id in self._documents or doc_id in claimed:
                raise ServingError(f"document id {doc_id!r} already in use")
            claimed.add(doc_id)
            items.append((doc_id, content, compiled))
        return items

    def _auto_doc_id(self, claimed):
        doc_id = next(self._doc_ids)
        while doc_id in self._documents or doc_id in claimed:
            doc_id = next(self._doc_ids)
        return doc_id

    def _ingest(self, items):
        """Ship validated rows through the transport; yield ``(index, Document)``
        as each document lands, then raise the batch's failure, if any."""
        span = self._tracer.begin("add_documents", docs=len(items))
        start = perf_counter()
        try:
            trace_ctx = None if span is None else span.context
            for index, doc_id in self._transport.ingest(items, trace_ctx):
                document = self._documents[doc_id] = Document(self, doc_id, items[index][2])
                self._epochs[doc_id] = 0
                yield index, document
        finally:
            self._tracer.finish(span)
            self._metrics.observe("ingest_batch_seconds", perf_counter() - start)

    def document(self, doc_id) -> Document:
        """The handle of a served document."""
        self._check_open()
        try:
            return self._documents[doc_id]
        except KeyError:
            raise ServingError(f"no document with id {doc_id!r}") from None

    def remove(self, doc_id) -> None:
        """Drop a document (its cursors are closed)."""
        self.document(doc_id)  # raises on unknown ids
        self._transport.remove(doc_id)
        del self._documents[doc_id]
        self._epochs.pop(doc_id, None)

    def doc_ids(self) -> List[object]:
        return list(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id) -> bool:
        return doc_id in self._documents

    def await_repairs(self) -> None:
        """Block until every background re-migration has been acknowledged.

        Deterministic tests and benchmarks call this to pin down "the fleet
        is back at full replication"; regular traffic never needs to — the
        pipe's FIFO ordering already hides rebuild latency.  A no-op without
        a fleet.
        """
        self._check_open()
        self._transport.await_repairs()

    # ---------------------------------------------------------------- traffic
    def apply_edits(self, doc_id, edits) -> BatchUpdateReport:
        """Apply one edit batch to a document (one epoch step), routed by id.

        Replicated documents apply the batch on every live replica in
        lockstep, and the batch is logged so a future restore replays it.
        """
        self.document(doc_id)
        edits = list(edits)
        with self._tracer.span("apply_edits", doc_id=repr(doc_id), edits=len(edits)):
            try:
                report = self._transport.edits(doc_id, edits)
            except BaseException:
                # The batch may have partially applied (the epoch still
                # advances on a partial batch): resync the mirror so live
                # streams see it.
                try:
                    self._epochs[doc_id] = self._transport.epoch(doc_id)
                except Exception:  # noqa: BLE001 — state unknowable; streams go stale
                    self._epochs.pop(doc_id, None)
                raise
        self._epochs[doc_id] = report.epoch
        return report

    def _doc_epoch(self, doc_id) -> int:
        self.document(doc_id)
        epoch = self._epochs.get(doc_id)
        if epoch is None:  # mirror lost after a failed batch: resync
            epoch = self._epochs[doc_id] = self._transport.epoch(doc_id)
        return epoch

    def _count(self, doc_id, limit: Optional[int]) -> int:
        self.document(doc_id)
        return self._transport.count(doc_id, limit)

    def _runtime(self, doc_id):
        self.document(doc_id)
        return self._transport.runtime(doc_id)

    def _stream(self, doc_id):
        """A document's answers.  In-process this is the runtime's own
        iterator; a pushed stream checks, before each answer, that no edit
        reached the document since the stream was created (the base epoch is
        captured eagerly, like the runtime iterator's)."""
        start_epoch = self._doc_epoch(doc_id)  # resyncs a lost mirror

        def check():
            if self._epochs.get(doc_id) != start_epoch:
                self._check_open()  # closing the engine drops every epoch
                raise StaleIteratorError(
                    f"document {doc_id!r} was edited (or removed) while stream() "
                    "was running; restart the stream, or use page() for "
                    "edit-stable pagination"
                )

        return self._transport.stream(doc_id, check)

    def _page(self, doc_id, cursor, page_size: Optional[int]) -> ResultPage:
        self.document(doc_id)
        if isinstance(cursor, ResultPage):
            if cursor.document_id != doc_id:
                raise EngineError(
                    f"page cursor {cursor.cursor_id} belongs to document "
                    f"{cursor.document_id!r}, not {doc_id!r}"
                )
            cursor_id: Optional[int] = cursor.cursor_id
        else:
            cursor_id = cursor
        if cursor_id is not None and page_size is not None:
            raise EngineError(
                "page_size is fixed when a cursor is opened; "
                "continue with page(cursor=...) only"
            )
        size = self.page_size if page_size is None else page_size
        if size < 1:
            raise EngineError("page_size must be >= 1")
        payload = self._transport.page(doc_id, cursor_id, size)
        return ResultPage(
            answers=tuple(payload["answers"]),
            offset=payload["offset"],
            exhausted=payload["exhausted"],
            cursor_id=payload["cursor_id"],
            document_id=doc_id,
            epoch=payload["epoch"],
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, object]:
        """A monitoring snapshot; a fleet merges its per-shard stats.

        A fleet additionally reports the protocol counters of the pipelined
        shard pool: ``shards`` (per shard: liveness, respawn ``generation``,
        ``replica_of`` document ids, in-flight request count, queued
        replies, open streams, message totals), ``queue_depth`` (total
        in-flight requests at snapshot time) and ``streaming`` (result
        chunks received vs round trips paid — with credit-based streaming
        the round trips stay well under one per chunk).  The failover
        machinery is observable through ``deaths_total`` /
        ``timeouts_total`` (from the pool), ``failovers_total`` /
        ``migrations_total`` / ``repairs_pending`` and ``replicas``.  The
        ``cursors_resumed_across_edit_batches`` counter measures the cursor
        resume rate; on a fleet it (and ``cursors_invalidated``) counts one
        per logical cursor event, not the shard-held totals, which reset
        whenever a failover rebuilds a replica and double-count under
        replication.
        """
        self._check_open()
        merged = self._transport.stats()
        merged["workers"] = self.workers
        merged["failovers_total"] = self.failovers_total
        merged["migrations_total"] = self.migrations_total
        merged["ingest_stragglers"] = self.ingest_stragglers_total
        merged["queries_compiled"] = len(self._queries)
        merged["catalog_entries"] = len(self.catalog) if self.catalog is not None else 0
        return merged

    # -------------------------------------------------------- observability
    def metrics(self) -> Dict[str, object]:
        """Latency histograms and counters, merged across the whole engine.

        Returns ``{name: snapshot}`` where a histogram snapshot carries
        ``count`` / ``sum`` / ``p50`` / ``p95`` / ``p99`` / ``max`` plus the
        raw buckets, and a counter carries ``value``.  On a fleet every
        worker's registry is gathered over the protocol and merged
        bucket-wise into the parent's — all histograms share one fixed bound
        table, so the merged result is identical to single-process recording
        (the test suite pins this).  Dead shards contribute nothing.

        Catalog of metrics: ``answer_delay_seconds`` (per answer, only under
        a ``delay_budget``), ``update_apply_seconds`` (per edit trunk
        rebuild) and ``update_batch_seconds`` (per batch),
        ``ingest_build_seconds`` (per document) and ``ingest_batch_seconds``
        (per :meth:`add_documents` call), ``build_cache_hit_seconds``,
        ``protocol_round_trip_seconds``, ``stream_stall_seconds``,
        ``failover_seconds`` and ``repair_seconds``; counters
        ``delay_violations``, ``failovers_total``, ``migrations_total`` and
        (fleet) ``shard_deaths_total`` / ``shard_timeouts_total``.
        """
        self._check_open()
        registry = MetricsRegistry()
        registry.merge_wire(self._metrics.to_wire())
        self._transport.merge_metrics(registry)
        registry.counters["failovers_total"] = self.failovers_total
        registry.counters["migrations_total"] = self.migrations_total
        return registry.snapshot()

    def metrics_text(self) -> str:
        """:meth:`metrics` in the Prometheus text exposition format.

        Histograms become cumulative ``repro_<name>_bucket{le=...}`` series
        plus ``_sum`` / ``_count``; counters become ``_total`` samples.
        Parseable back with :func:`repro.obs.parse_prometheus_text`.
        """
        return render_prometheus(self.metrics())

    def events(self) -> List[Dict[str, object]]:
        """The structured operational event log, oldest first.

        Plain dicts ``{"kind", "ts", ...}``: shard deaths/timeouts/protocol
        violations, slow protocol round trips, fault-plan firings and delay
        SLO violations.  A fleet merges the parent ring with every live
        worker's (sorted by wall-clock ``ts``); each ring retains the most
        recent :data:`repro.obs.slo.DEFAULT_EVENT_LOG_SIZE` events.
        """
        self._check_open()
        events = self._events.snapshot()
        for shard_events in self._transport.gather("events"):
            events.extend(shard_events)
        events.sort(key=lambda event: event.get("ts", 0.0))
        return events

    def dump_trace(self, path: str) -> str:
        """Export the engine's spans as one Chrome-trace JSON file.

        Gathers every live worker's finished spans over the protocol
        (``trace_drain``), merges them with the parent's, and writes the
        combined ``traceEvents`` to ``path`` — load it in ``chrome://tracing``
        or Perfetto.  One logical call (``stream()``, ``add_documents``,
        ``apply_edits``) shows up as one trace: the parent span, the
        per-shard protocol spans parented under it, and any failover retries.
        Requires tracing (``trace=True`` or ``REPRO_TRACE``).
        """
        self._check_open()
        if not self._tracer.enabled:
            raise EngineError(
                "tracing is off; construct the engine with trace=True "
                "(or set REPRO_TRACE) to record spans"
            )
        for wire in self._transport.gather("trace_drain"):
            self._tracer.absorb(wire)
        return self._tracer.dump(path)

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Shut down the transport and release owned resources (idempotent).

        Safe on an engine whose constructor raised during parameter
        validation (nothing was created, so there is nothing to release).
        With ``REPRO_TRACE`` set and tracing on, the engine's Chrome trace
        is dumped there (best-effort) before the workers go away.
        """
        if getattr(self, "_closed", True):
            return
        if self._tracer.enabled:
            path = trace_path_from_env()
            if path is not None:
                try:
                    self.dump_trace(path)
                except Exception:  # noqa: BLE001 — never block shutdown
                    pass
        self._closed = True
        lease, self._lease = self._lease, None
        if lease is not None:
            try:
                lease.release()
            except Exception:  # noqa: BLE001 — never block shutdown
                pass
        if self._transport is not None:
            self._transport.close()
        self._store = None
        self._documents.clear()
        self._epochs.clear()
        if self._owned_catalog_dir is not None:
            shutil.rmtree(self._owned_catalog_dir, ignore_errors=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover — best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"documents={len(self._documents)}, queries={len(self._queries)})"
        )
