"""Sharded execution: a pipelined, request-id-tagged worker protocol.

``Engine(workers=N)`` routes every document to one of ``N`` worker
processes.  Each worker runs a plain single-process
:class:`~repro.engine.local.LocalStore`; all workers share **one catalog
directory** (the catalog's atomic temp-file + ``os.replace`` writes make it
multi-process safe), so a standing query is compiled once — by the parent —
and every worker *loads* its persisted form instead of compiling.

The protocol (PR 5) is pipelined rather than lockstep.  Every message the
parent sends is a tuple ``(request_id, op, *args)``; every message a worker
sends back is ``(request_id, status, *payload)``, so replies correlate to
requests by id and the parent may have **many requests in flight per
worker** at once:

* **batched ingest.**  ``("add_batch", items)`` ships one pickled batch of
  documents per worker; :meth:`ShardPool.submit` / :meth:`ShardPool.collect`
  let the engine issue the batches to *all* shards before collecting *any*
  reply, so the per-document builds (the dominant serving cost,
  ``doc_build_median_s``) overlap across worker processes instead of
  serializing behind one round trip per document.
* **streaming replies.**  ``("stream_open", doc_id, chunk_size, credit)``
  registers a push stream: the worker sends up to ``credit`` result chunks
  ``(request_id, "chunk", answers, exhausted)`` without waiting for the
  parent, and ``("stream_credit", n)`` replenishes the window as the parent
  consumes — bounded in-flight data, and a round trip per *credit grant*
  instead of one per page (counted by the ``stream_round_trips`` /
  ``stream_chunks`` stats).
* **demultiplexing.**  A worker handles messages strictly in arrival order,
  but chunks of concurrent streams and replies of concurrent requests
  interleave on the pipe; the parent buffers whatever it receives under the
  request id it belongs to, so out-of-order collection is safe.

Fault tolerance (PR 6) turns shard death from data loss into a recoverable
event:

* **bounded waits.**  Every blocking wait (:meth:`ShardPool.collect`,
  :meth:`ShardPool.stream_next_chunk`, and :meth:`ShardPool.ping`) honors a
  configurable ``deadline``: the parent waits on ``Connection.poll`` and, on
  expiry, kills the hung worker, marks it dead, and raises
  :class:`~repro.errors.ShardTimeoutError` naming the shard, the op and the
  elapsed time — a hang is promoted to a death instead of blocking the
  engine forever.
* **strict protocol validation.**  A reply that is not a well-formed
  ``(request_id, status, *payload)`` tuple with a known status is rejected
  on receipt with :class:`~repro.errors.ShardProtocolError` (naming the
  shard and the malformed message's shape) and the worker is killed:
  nothing on that pipe can be trusted after a framing violation.
* **respawn + restore.**  :meth:`ShardPool.respawn` replaces a dead worker
  with a fresh process at the same index (bumping its ``generation``); the
  ``restore`` op rebuilds a document on it from its original content by
  *replaying* the recorded edit batches, which reproduces node/position ids
  and answer order byte-identically (a fresh build of the edited tree could
  balance the forest-algebra term differently).  The replicated engine
  (:mod:`repro.engine.engine`) drives both to re-establish the replication
  factor after a death.
* **fault injection.**  Workers accept an optional
  :class:`~repro.engine.faults.FaultPlan` that deterministically injects
  crash-before-reply / hang / slow / garbage faults at named protocol
  points; the sharded fuzz harness uses it to prove the failover machinery
  keeps transcripts byte-identical to the single-process oracle.  Respawned
  workers (generation > 0) never inherit the plan — a repaired worker is a
  healthy worker, and re-arming one-shot rules in a fresh process would
  turn a single injected crash into a crash loop.

Design constraints kept from PR 4:

* **fork/spawn safety.**  The worker entry point
  (:func:`_shard_worker_main`) is a module-level function and receives only
  picklable arguments, so it works under every :mod:`multiprocessing` start
  method.  Documents, queries, edits and answers cross the pipe pickled;
  node / position ids, answer order and epochs are identical to a
  single-process store (pinned by the sharded fuzz harness).
* **original error types.**  A failure is answered with
  ``(request_id, "err", exception)`` — the exception object itself travels
  back and is re-raised in the caller, so sharded error behavior
  (``InvalidEditError``, ``CursorInvalidatedError`` with its report, ...)
  matches local behavior and correlates to the right request.
* **death detection.**  A broken pipe surfaces as
  :class:`~repro.errors.ShardDiedError` naming the shard (and, for a batch
  ingest, the document ids that were in flight), never a hang; the
  surviving shards stay usable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from typing import Dict, List, Optional

from repro.errors import (
    EngineError,
    ShardDiedError,
    ShardProtocolError,
    ShardTimeoutError,
)

__all__ = ["AdaptiveCredit", "ShardPool", "ShardStream", "STREAM_CREDIT"]

#: starting credit window: chunks a producer may push ahead of consumption
#: (per stream).  The *live* window adapts around this value — see
#: :class:`AdaptiveCredit`.
STREAM_CREDIT = 4

#: reply statuses the parent accepts; anything else is a protocol violation
_VALID_STATUSES = ("ok", "err", "chunk")


class AdaptiveCredit:
    """Adaptive sizing of the stream credit window for one consumer.

    The PR-5 protocol fixed every stream's window at :data:`STREAM_CREDIT`.
    That is the wrong size in both directions: a *fast* consumer drains the
    buffer and stalls on the pipe (each stall is a wasted round trip the
    recorded ``stream_stall_seconds`` histogram measures), while a *slow*
    consumer — or many streams fanned out at once — keeps the full window
    buffered, holding answers in memory nobody is reading yet.

    One instance is shared by every stream of one consumer (a
    :class:`ShardPool`, or a :class:`repro.net.client.RemoteEngine`) and
    driven by the same signals the ``streaming`` stats already record:

    * :meth:`note_stall` — the consumer genuinely waited on the transport
      for the next chunk.  Two stalls in a row double the window (up to
      :data:`MAX_WINDOW`): the producer was allowed too little runway.
    * :meth:`note_buffered` — a chunk was already waiting, ``depth`` deep,
      in a stream whose outstanding credit is ``capacity``.  Two
      full-buffer observations in a row halve the window (down to
      :data:`MIN_WINDOW`): the producer is running ahead of a consumer
      that cannot keep up.
    * :meth:`initial_credit` — the opening grant of a new stream divides
      the window across the streams already open, so fan-out shrinks the
      per-stream runway instead of multiplying the buffered volume.

    The two-in-a-row hysteresis keeps one slow chunk (a worker busy
    building) or one burst from thrashing the window.  Growth and shrink
    totals — and the live window — surface as the
    ``stream_credit_window`` / ``stream_credit_grown_total`` /
    ``stream_credit_shrunk_total`` counters of ``Engine.metrics()`` and in
    the ``streaming`` block of ``Engine.stats()``.
    """

    MIN_WINDOW = 2
    MAX_WINDOW = 32

    def __init__(self, start: int = STREAM_CREDIT, metrics=None):
        if start < 1:
            raise EngineError(f"the starting credit window must be >= 1, got {start}")
        self.window = max(self.MIN_WINDOW, min(self.MAX_WINDOW, start))
        self.metrics = metrics
        self.grown_total = 0
        self.shrunk_total = 0
        self._stall_streak = 0
        self._full_streak = 0
        self._publish()

    def _publish(self) -> None:
        if self.metrics is not None:
            self.metrics.counters["stream_credit_window"] = self.window

    def initial_credit(self, open_streams: int = 0) -> int:
        """The opening grant of a new stream, given the streams already open."""
        return max(self.MIN_WINDOW, self.window // max(1, open_streams + 1))

    def note_stall(self) -> None:
        """The consumer blocked on the transport waiting for a chunk."""
        self._full_streak = 0
        self._stall_streak += 1
        if self._stall_streak >= 2 and self.window < self.MAX_WINDOW:
            self.window = min(self.MAX_WINDOW, self.window * 2)
            self.grown_total += 1
            self._stall_streak = 0
            if self.metrics is not None:
                self.metrics.inc("stream_credit_grown_total")
            self._publish()

    def note_buffered(self, depth: int, capacity: int) -> None:
        """A chunk was already buffered (``depth`` of ``capacity`` tokens)."""
        self._stall_streak = 0
        if depth < max(1, capacity):
            self._full_streak = 0
            return
        self._full_streak += 1
        if self._full_streak >= 2 and self.window > self.MIN_WINDOW:
            self.window = max(self.MIN_WINDOW, self.window // 2)
            self.shrunk_total += 1
            self._full_streak = 0
            if self.metrics is not None:
                self.metrics.inc("stream_credit_shrunk_total")
            self._publish()


# ============================================================== worker side
class _WorkerStream:
    """One push stream inside a worker: an answer iterator plus its credit."""

    __slots__ = ("iterator", "chunk_size", "credit")

    def __init__(self, iterator, chunk_size: int):
        self.iterator = iterator
        self.chunk_size = chunk_size
        self.credit = 0


def _handle_add_batch(store, queries_by_digest, items):
    """Add a batch of documents; report how far the batch got on failure.

    ``items`` is a list of ``(doc_id, kind, content, query_or_None, digest)``
    tuples.  The reply names the documents actually added plus — when an item
    failed — the failing document id and the original exception, so the
    parent can both register the successes and re-raise precisely.
    """
    added = []
    for doc_id, kind, content, query, digest in items:
        try:
            if query is None:
                query = queries_by_digest.get(digest)
                if query is None:
                    raise EngineError(
                        f"shard has no cached query for digest {digest[:12]}..."
                    )
            else:
                queries_by_digest[digest] = query
            if kind == "tree":
                document = store.add_tree(content, query, doc_id=doc_id)
            else:
                document = store.add_word(content, query, doc_id=doc_id)
        except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
            return {"added": added, "failed_doc_id": doc_id, "error": exc}
        added.append(
            {"doc_id": document.doc_id, "kind": document.kind, "digest": document.digest}
        )
    return {"added": added, "failed_doc_id": None, "error": None}


def _handle_restore(store, queries_by_digest, args):
    """Rebuild one document from its original content plus its edit log.

    The engine's failover path re-migrates every document a dead shard held
    onto its respawned replacement.  The rebuild *replays* the recorded edit
    batches rather than shipping the edited tree: replaying reproduces the
    incremental forest-algebra term — and therefore node ids, position ids
    and enumeration order — byte-identically, where a fresh build of the
    final tree could balance differently.  Batches that failed originally
    fail identically on replay (including partial application), which is
    exactly what keeps the replica's state in lockstep; their errors are
    swallowed here because they were already reported to the caller once.
    ``next_cursor_id`` re-synchronizes the cursor-id counter so cursors
    opened *after* the restore get the same ids on every replica.
    """
    from repro.errors import ReproError

    doc_id, kind, content, query, digest, edit_batches, next_cursor_id = args
    if query is None:
        query = queries_by_digest.get(digest)
        if query is None:
            raise EngineError(f"shard has no cached query for digest {digest[:12]}...")
    else:
        queries_by_digest[digest] = query
    if kind == "tree":
        document = store.add_tree(content, query, doc_id=doc_id)
    else:
        document = store.add_word(content, query, doc_id=doc_id)
    for batch in edit_batches:
        try:
            document.apply_edits(batch)
        except ReproError:
            pass  # replayed failures re-apply their original partial effects
    document.sync_cursor_ids(next_cursor_id)
    return {"doc_id": doc_id, "epoch": document.epoch}


def _handle_request(store, queries_by_digest, op, args):
    """Execute one non-stream request against the worker's LocalStore."""
    if op == "add_batch":
        return _handle_add_batch(store, queries_by_digest, args[0])
    if op == "edits":
        doc_id, edits = args
        return store.document(doc_id).apply_edits(edits)
    if op == "page":
        doc_id, cursor_id, page_size = args
        document = store.document(doc_id)
        cursor, page = document.fetch_page(cursor_id, page_size)
        return {
            "cursor_id": cursor.cursor_id,
            "answers": tuple(page.answers),
            "offset": page.offset,
            "exhausted": page.exhausted,
            "epoch": document.epoch,
        }
    if op == "count":
        doc_id, limit = args
        return store.document(doc_id).count(limit=limit)
    if op == "epoch":
        return store.document(args[0]).epoch
    if op == "remove":
        store.remove(args[0])
        return None
    if op == "restore":
        return _handle_restore(store, queries_by_digest, args)
    if op == "ping":
        return "pong"
    if op == "stats":
        return store.stats()
    if op == "metrics":
        return store.metrics.to_wire()
    if op == "events":
        return store.events.snapshot()
    raise EngineError(f"unknown shard request {op!r}")


def _pump_stream(conn, streams: Dict[int, _WorkerStream], request_id: int, inject) -> None:
    """Push chunks of one stream while it has credit; drop it when done.

    The per-answer iterator is the runtime's own (`LocalDocument.answers`),
    so an edit that lands between chunks invalidates it exactly like the
    single-process ``stream()`` — the resulting ``StaleIteratorError``
    travels back as this stream's error reply.
    """
    stream = streams.get(request_id)
    while stream is not None and stream.credit > 0:
        answers = []
        exhausted = False
        try:
            for _ in range(stream.chunk_size):
                try:
                    answers.append(next(stream.iterator))
                except StopIteration:
                    exhausted = True
                    break
        except BaseException as exc:  # noqa: BLE001 — must travel back
            del streams[request_id]
            _send_err(conn, request_id, exc)
            return
        stream.credit -= 1
        if exhausted:
            del streams[request_id]
            stream = None
        conn.send(inject("stream_chunk", (request_id, "chunk", tuple(answers), exhausted)))


def _send_err(conn, request_id: int, exc: BaseException) -> None:
    try:
        conn.send((request_id, "err", exc))
    except Exception:
        # The exception itself didn't pickle; send a description instead.
        conn.send(
            (request_id, "err", EngineError(f"shard worker error ({type(exc).__name__}): {exc}"))
        )


def _shard_worker_main(
    conn,
    catalog_root: Optional[str],
    shard_index: int = 0,
    fault_plan=None,
    build_cache_size: Optional[int] = None,
    trace: bool = False,
    delay_budget: Optional[float] = None,
) -> None:
    """Entry point of one shard worker process.

    Module-level (importable) so it works under the ``spawn`` start method;
    receives only picklable arguments so it also works under ``fork`` and
    ``forkserver``.  Messages are handled strictly in arrival order; stream
    chunks are pushed eagerly up to each stream's credit.  When a
    ``fault_plan`` is given, every decoded request and every outgoing stream
    chunk is offered to it (see :mod:`repro.engine.faults`).

    Observability: with ``trace=True`` the worker runs its own
    :class:`~repro.obs.Tracer`; a fire-and-forget ``(-1, "trace_push", ctx)``
    message — sent by the parent immediately before a request, FIFO on the
    pipe — parents the *next* request's span under the parent-side span, and
    ``trace_drain`` ships finished worker spans back.  ``delay_budget``
    arms the store's per-answer :class:`~repro.obs.DelayMonitor`.
    """
    from repro.engine.faults import FaultPlan
    from repro.engine.local import LocalStore
    from repro.engine.catalog import QueryCatalog
    from repro.obs import Tracer

    catalog = QueryCatalog(catalog_root) if catalog_root else None
    store = LocalStore(
        catalog=catalog,
        build_cache_size=build_cache_size,
        delay_budget=delay_budget,
    )
    tracer = Tracer(enabled=trace, process=f"shard-{shard_index}")
    if fault_plan is not None:
        # Fault firings are operational events; surface them next to the
        # deaths and timeouts they will cause (drained via the "events" op).
        fault_plan.on_fire = lambda shard, op, action: store.events.emit(
            "fault_injected", shard=shard, op=op, action=action
        )
    queries_by_digest: Dict[str, object] = {}
    streams: Dict[int, _WorkerStream] = {}
    pending_ctx = None  #: trace context pushed for the next real request

    def inject(op: str, reply: tuple) -> tuple:
        """Offer one outgoing protocol send to the fault plan."""
        if fault_plan is None:
            return reply
        action = fault_plan.before(shard_index, op)
        return FaultPlan.apply_reply_action(action, reply)

    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        request_id, op = message[0], message[1]
        if op == "trace_push":
            # Handled before the fault hook: pushing trace context must not
            # advance the plan's nth counters (traced and untraced runs see
            # identical fault schedules).
            pending_ctx = message[2]
            continue
        if op == "trace_drain":
            # Monitoring op, likewise exempt from fault injection.
            conn.send((request_id, "ok", tracer.drain()))
            continue
        reply_action = fault_plan.before(shard_index, op) if fault_plan is not None else None
        if op == "close":
            try:
                conn.send((request_id, "ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        if op == "stream_open":
            doc_id, chunk_size, credit = message[2:]
            with tracer.span(op, parent=pending_ctx, doc_id=repr(doc_id)):
                pending_ctx = None
                try:
                    iterator = iter(store.document(doc_id).answers())
                except BaseException as exc:  # noqa: BLE001
                    _send_err(conn, request_id, exc)
                    continue
                stream = _WorkerStream(iterator, chunk_size)
                stream.credit = credit
                streams[request_id] = stream
                _pump_stream(conn, streams, request_id, inject)
        elif op == "stream_credit":
            stream = streams.get(request_id)
            if stream is not None:  # closed/errored streams ignore late credit
                stream.credit += message[2]
                _pump_stream(conn, streams, request_id, inject)
        elif op == "stream_close":
            streams.pop(request_id, None)  # no reply: close is fire-and-forget
        else:
            with tracer.span(op, parent=pending_ctx):
                pending_ctx = None
                try:
                    reply = (request_id, "ok", _handle_request(store, queries_by_digest, op, message[2:]))
                except BaseException as exc:  # noqa: BLE001 — every failure travels back
                    _send_err(conn, request_id, exc)
                    continue
            conn.send(FaultPlan.apply_reply_action(reply_action, reply))
    conn.close()


# ============================================================== parent side
class ShardStream:
    """Parent-side handle of one push stream (chunks buffered until read)."""

    __slots__ = (
        "shard",
        "request_id",
        "chunks",
        "error",
        "done",
        "closed",
        "to_grant",
        "window",
    )

    def __init__(self, shard: int, request_id: int):
        self.shard = shard
        self.request_id = request_id
        self.chunks: List[tuple] = []  #: received, not yet consumed (answers, exhausted)
        self.error: Optional[BaseException] = None
        self.done = False  #: the worker sent the exhausted chunk or an error
        self.closed = False  #: the parent abandoned the stream
        self.to_grant = 0  #: consumed chunks not yet returned as credit
        #: this stream's outstanding credit tokens: worker-held credit plus
        #: chunks in the pipe or buffered plus ``to_grant``.  Grants keep the
        #: invariant while steering toward the adaptive target window.
        self.window = STREAM_CREDIT


class _ShardState:
    """Parent-side bookkeeping of one worker: pipe, process, pending replies."""

    __slots__ = (
        "conn",
        "process",
        "generation",
        "pending",
        "inflight",
        "streams",
        "deferred_closes",
        "dead",
        "requests_sent",
        "replies_received",
        "stream_chunks",
        "stream_round_trips",
    )

    def __init__(self, conn, process, generation: int = 0):
        self.conn = conn
        self.process = process
        self.generation = generation  #: respawn count of this index (0 = original)
        self.pending: Dict[int, tuple] = {}  #: request_id → (status, payload)
        #: request_id → (op, monotonic send time) for requests awaiting reply
        self.inflight: Dict[int, tuple] = {}
        self.streams: Dict[int, ShardStream] = {}
        self.deferred_closes: List[int] = []
        self.dead = False
        self.requests_sent = 0
        self.replies_received = 0
        self.stream_chunks = 0
        self.stream_round_trips = 0


class ShardPool:
    """``N`` worker processes, each owning a LocalStore, addressed by index.

    The pool is a pure message router: :meth:`submit` sends a tagged request
    without waiting, :meth:`collect` blocks until *that* request's reply
    arrives (buffering everything else), and :meth:`request` is the
    synchronous composition of the two.  Streams are opened with
    :meth:`stream_open` and consumed chunk by chunk with
    :meth:`stream_next_chunk`, which replenishes the worker's credit window
    as chunks are consumed.

    Every blocking wait honors ``deadline`` (seconds, ``None`` = wait
    forever): on expiry the worker is killed, marked dead, and
    :class:`~repro.errors.ShardTimeoutError` is raised.  Dead workers can be
    replaced in place with :meth:`respawn`; the pool-level ``deaths_total``
    and ``timeouts_total`` counters make both observable.
    """

    def __init__(
        self,
        workers: int,
        catalog_root: Optional[str],
        start_method: Optional[str] = None,
        deadline: Optional[float] = None,
        fault_plan=None,
        build_cache_size: Optional[int] = None,
        metrics=None,
        on_event=None,
        slow_op_seconds: Optional[float] = None,
        trace: bool = False,
        delay_budget: Optional[float] = None,
    ):
        if workers < 1:
            raise EngineError(f"a shard pool needs at least one worker, got {workers}")
        if deadline is not None and deadline <= 0:
            raise EngineError(f"the shard deadline must be positive, got {deadline}")
        self._context = multiprocessing.get_context(start_method)
        self.start_method = self._context.get_start_method()
        self._catalog_root = catalog_root
        self._fault_plan = fault_plan
        self._build_cache_size = build_cache_size
        #: parent-side observability (all optional, see :mod:`repro.obs`):
        #: a MetricsRegistry for protocol round-trip / credit-stall
        #: histograms, an ``on_event(kind, **fields)`` callback for deaths /
        #: timeouts / protocol violations / slow ops, and a slow-op
        #: threshold in seconds (None disables slow-op events).
        self.metrics = metrics
        self._on_event = on_event
        self.slow_op_seconds = slow_op_seconds
        self._trace = trace
        self._delay_budget = delay_budget
        self.deadline = deadline
        self.deaths_total = 0
        self.timeouts_total = 0
        #: adaptive credit-window controller shared by every stream
        self.credit = AdaptiveCredit(STREAM_CREDIT, metrics=metrics)
        self._shards: List[_ShardState] = []
        self._request_ids = itertools.count()
        try:
            for index in range(workers):
                self._shards.append(self._spawn(index, generation=0))
        except BaseException:
            self.close()
            raise
        self._closed = False

    def _spawn(self, index: int, generation: int) -> _ShardState:
        """Start one worker process for shard ``index``.

        Only generation 0 receives the fault plan: a respawned worker is the
        *repair* of an injected fault, and re-arming the plan's one-shot
        rules in a fresh process would turn one injected crash into a crash
        loop that defeats the repair.
        """
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                self._catalog_root,
                index,
                self._fault_plan if generation == 0 else None,
                self._build_cache_size,
                self._trace,
                self._delay_budget,
            ),
            name=f"repro-shard-{index}" + (f".{generation}" if generation else ""),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _ShardState(parent_conn, process, generation)

    def __len__(self) -> int:
        return len(self._shards)

    def is_alive(self, shard: int) -> bool:
        """Whether a shard has not (yet) been observed dead.

        Death is detected on pipe failures, so a freshly killed worker may
        still read as alive until the next message to it fails.
        """
        return not self._shards[shard].dead

    def inflight(self, shard: int) -> int:
        """Requests awaiting a reply on a shard (the load-balancing signal)."""
        return len(self._shards[shard].inflight)

    def generation(self, shard: int) -> int:
        """How many times the worker at this index has been respawned."""
        return self._shards[shard].generation

    # ----------------------------------------------------------- plumbing
    def _emit(self, kind: str, **fields) -> None:
        """Report one operational event to the engine's log (best-effort)."""
        if self._on_event is not None:
            self._on_event(kind, **fields)

    def _death(self, shard: int, doing: str, cause: Optional[BaseException]) -> ShardDiedError:
        """Mark a shard dead and build the precise error for it."""
        state = self._shards[shard]
        if not state.dead:
            state.dead = True
            self.deaths_total += 1
            self._emit(
                "shard_death",
                shard=shard,
                generation=state.generation,
                doing=doing,
                exitcode=state.process.exitcode,
            )
            # In-flight requests can never be answered now; dropping them
            # keeps the queue-depth counters honest (already-received replies
            # stay collectable from ``pending``).  Deferred stream closes are
            # worker-side bookkeeping of a worker that no longer exists —
            # clearing them here is what lets a respawned worker at this
            # index start with no leaked stream ids.
            state.inflight.clear()
            state.deferred_closes.clear()
            for stream in state.streams.values():
                stream.done = True
                if stream.error is None:
                    stream.error = ShardDiedError(f"shard worker {shard} died mid-stream")
        process = state.process
        error = ShardDiedError(
            f"shard worker {shard} (pid {process.pid}, exitcode {process.exitcode}) "
            f"died while {doing}"
        )
        if cause is not None:
            error.__cause__ = cause
        return error

    def _kill(self, shard: int) -> None:
        """Forcibly terminate a worker process (hung or untrustworthy)."""
        process = self._shards[shard].process
        try:
            process.kill()
        except Exception:  # already gone
            pass

    def _timeout(self, shard: int, op: str, waited: float, deadline: float) -> ShardTimeoutError:
        """Promote a hung worker to a dead one and build the timeout error."""
        # Snapshot the shard's load *before* _death clears its bookkeeping:
        # the error message carries what the shard was doing when it hung.
        state = self._shards[shard]
        snapshot = (
            f"queued_replies={len(state.pending)}, "
            f"inflight_requests={len(state.inflight)}, "
            f"streams_open={len(state.streams)}"
        )
        self._kill(shard)
        self._death(shard, f"handling {op!r}", None)
        self.timeouts_total += 1
        self._emit("shard_timeout", shard=shard, op=op, waited=waited, deadline=deadline)
        return ShardTimeoutError(
            f"shard worker {shard} did not answer {op!r} within its deadline "
            f"({deadline:.3f}s, waited {waited:.3f}s); the worker was "
            f"killed and marked dead [shard {shard} at timeout: {snapshot}]",
            shard=shard,
            op=op,
            elapsed=waited,
            deadline=deadline,
        )

    def _protocol_error(self, shard: int, message) -> ShardProtocolError:
        """Reject a malformed reply: kill the worker, mark it dead, report."""
        shape = repr(message)
        if len(shape) > 160:
            shape = shape[:160] + "..."
        self._kill(shard)
        self._death(shard, "receiving a reply", None)
        self._emit("protocol_error", shard=shard, shape=shape)
        return ShardProtocolError(
            f"shard worker {shard} sent a malformed protocol message "
            f"({type(message).__name__}: {shape}); expected a tuple "
            f"(request_id, status, *payload) with status in {_VALID_STATUSES}; "
            f"the worker was killed and marked dead"
        )

    def _check_shard(self, shard: int) -> _ShardState:
        if getattr(self, "_closed", True):
            raise EngineError("the engine's worker pool is closed")
        state = self._shards[shard]
        if state.dead:
            raise ShardDiedError(
                f"shard worker {shard} (pid {state.process.pid}, exitcode "
                f"{state.process.exitcode}) is dead; its documents are unreachable"
            )
        return state

    def _send(self, shard: int, message: tuple, doing: str) -> None:
        state = self._check_shard(shard)
        if state.deferred_closes:
            closes, state.deferred_closes = state.deferred_closes, []
            for request_id in closes:
                try:
                    state.conn.send((request_id, "stream_close"))
                except (BrokenPipeError, OSError) as exc:
                    # The worker is gone: every deferred close (this one and
                    # the rest of ``closes``) dies with it — ``_death``
                    # already cleared the bookkeeping, nothing leaks.
                    raise self._death(shard, doing, exc) from exc
        try:
            state.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._death(shard, doing, exc) from exc

    def _recv_one(
        self,
        shard: int,
        doing: str,
        deadline_at: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Receive one message from a shard and file it where it belongs.

        With a ``deadline_at`` (monotonic timestamp, derived from
        ``deadline`` seconds), waits at most until then: a worker that has
        not produced a message by the deadline is killed and
        :class:`~repro.errors.ShardTimeoutError` raised.
        """
        state = self._shards[shard]
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            try:
                ready = remaining > 0 and state.conn.poll(remaining)
            except (EOFError, OSError) as exc:
                raise self._death(shard, doing, exc) from exc
            if not ready:
                waited = (deadline or 0.0) - max(0.0, deadline_at - time.monotonic())
                raise self._timeout(shard, doing, waited, deadline or 0.0)
        try:
            message = state.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._death(shard, doing, exc) from exc
        if not (
            isinstance(message, tuple)
            and len(message) >= 2
            and message[1] in _VALID_STATUSES
        ):
            raise self._protocol_error(shard, message)
        request_id, status = message[0], message[1]
        if status == "chunk":
            if len(message) != 4:
                raise self._protocol_error(shard, message)
            stream = state.streams.get(request_id)
            state.stream_chunks += 1
            if stream is None or stream.closed:
                return  # chunk of an abandoned stream: drop
            _request_id, _status, answers, exhausted = message
            stream.chunks.append((answers, exhausted))
            if exhausted:
                stream.done = True
                state.streams.pop(request_id, None)
            return
        if status == "err" and not (len(message) > 2 and isinstance(message[2], BaseException)):
            raise self._protocol_error(shard, message)
        if request_id in state.streams:
            # an error reply addressed to a stream (StaleIteratorError, death
            # of the underlying document, ...): terminate the stream with it
            stream = state.streams.pop(request_id)
            stream.error = message[2] if status == "err" else EngineError(
                f"protocol error: stream {request_id} got a {status!r} reply"
            )
            stream.done = True
            return
        state.replies_received += 1
        entry = state.inflight.pop(request_id, None)
        if entry is not None:
            elapsed = time.monotonic() - entry[1]
            if self.metrics is not None:
                self.metrics.observe("protocol_round_trip_seconds", elapsed)
            if self.slow_op_seconds is not None and elapsed > self.slow_op_seconds:
                self._emit("slow_op", shard=shard, op=entry[0], seconds=elapsed)
        state.pending[request_id] = (status, message[2] if len(message) > 2 else None)

    # ------------------------------------------------------------- requests
    def submit(self, shard: int, op: str, *args, trace_ctx=None) -> int:
        """Send one tagged request without waiting; returns its request id.

        ``trace_ctx`` (a parent-side span's ``(trace_id, span_id)``) is
        pushed to the worker as a fire-and-forget ``trace_push`` message
        immediately before the request — the pipe is FIFO, so the worker
        parents exactly this request's span under it.
        """
        state = self._check_shard(shard)
        if trace_ctx is not None:
            self._send(shard, (-1, "trace_push", trace_ctx), f"receiving {op!r}")
        request_id = next(self._request_ids)
        self._send(shard, (request_id, op, *args), f"receiving {op!r}")
        state.inflight[request_id] = (op, time.monotonic())
        state.requests_sent += 1
        return request_id

    def collect(self, shard: int, request_id: int, deadline: Optional[float] = -1.0):
        """Block until the reply with ``request_id`` arrives; return or raise it.

        ``deadline`` overrides the pool deadline for this wait (``-1.0``, the
        default, means "use the pool's"; ``None`` means wait forever).
        """
        if deadline == -1.0:
            deadline = self.deadline
        state = self._shards[shard]
        entry = state.inflight.get(request_id)  # before a death clears it
        op = entry[0] if entry is not None else "?"
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        while request_id not in state.pending:
            if state.dead:
                raise self._death(shard, f"handling {op!r}", None)
            self._recv_one(shard, f"handling {op!r}", deadline_at, deadline)
        status, payload = state.pending.pop(request_id)
        if status == "err":
            raise payload
        return payload

    def request(self, shard: int, op: str, *args):
        """Send one request and wait for its reply (the synchronous path)."""
        return self.collect(shard, self.submit(shard, op, *args))

    def poll_reply(self, shard: int, request_id: int) -> bool:
        """True when :meth:`collect` for this request would not block.

        Drains already-arrived messages without waiting; a dead shard (or
        one dying during the drain) reads as ready, because ``collect``
        would immediately raise for it rather than block.
        """
        state = self._shards[shard]
        while request_id not in state.pending:
            if state.dead:
                return True
            try:
                if not state.conn.poll(0):
                    return False
                self._recv_one(shard, "draining replies")
            except ShardDiedError:
                return True
        return True

    def wait_replies(
        self, waiting: Dict[int, int], deadline: Optional[float] = -1.0
    ) -> List[int]:
        """Block until at least one of several pending replies is ready.

        ``waiting`` maps shard index → request id.  Returns every shard
        whose :meth:`collect` would no longer block — its reply arrived, or
        it is dead (so ``collect`` raises immediately instead of hanging).
        This is what lets the engine process ingest batches in **arrival
        order**: fast shards are collected while a straggler is still
        building, instead of serializing behind dict order.

        A shard that produces nothing within the deadline is killed and
        marked dead (the regular timeout promotion), then reported ready so
        the caller's ``collect`` surfaces the precise
        :class:`~repro.errors.ShardTimeoutError`-shaped death.
        """
        if deadline == -1.0:
            deadline = self.deadline
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        from multiprocessing.connection import wait as _connection_wait

        while True:
            ready = [
                shard
                for shard, request_id in waiting.items()
                if self._shards[shard].dead or request_id in self._shards[shard].pending
            ]
            if ready:
                return ready
            conns = {
                self._shards[shard].conn: shard
                for shard in waiting
                if not self._shards[shard].dead
            }
            if not conns:
                return list(waiting)
            timeout = None
            if deadline_at is not None:
                timeout = deadline_at - time.monotonic()
                if timeout <= 0:
                    # Every still-silent shard blew the deadline together.
                    for shard in list(conns.values()):
                        entry = self._shards[shard].inflight.get(waiting[shard])
                        op = entry[0] if entry is not None else "?"
                        self._timeout(shard, op, deadline or 0.0, deadline or 0.0)
                    return list(conns.values())
            for conn in _connection_wait(list(conns), timeout):
                shard = conns[conn]
                try:
                    self._recv_one(shard, "collecting a batch reply")
                except ShardDiedError:
                    pass  # dead counts as ready; collect() reports it precisely

    def ping(self, shard: int, deadline: Optional[float] = -1.0) -> bool:
        """Health probe: True iff the worker answers a ping within the deadline.

        A worker that is already dead, dies, or times out reads as unhealthy;
        the timeout path kills the hung process and marks it dead, so a
        failed ping leaves the shard in the same state a crash would.
        """
        try:
            return self.collect(shard, self.submit(shard, "ping"), deadline=deadline) == "pong"
        except ShardDiedError:
            return False

    def broadcast(self, op: str, *args, skip_dead: bool = False) -> List:
        """The same request to every shard, pipelined, answers in shard order.

        All requests are submitted before any reply is collected.  With
        ``skip_dead=True`` a dead shard — known dead at submit time, or dying
        before it replies — contributes ``None`` instead of raising, so a
        monitoring gather survives partial pool death; otherwise the first
        dead shard raises :class:`~repro.errors.ShardDiedError`.
        """
        request_ids: List[Optional[int]] = []
        for shard in range(len(self)):
            try:
                request_ids.append(self.submit(shard, op, *args))
            except ShardDiedError:
                if not skip_dead:
                    raise
                request_ids.append(None)
        results: List = []
        for shard, request_id in enumerate(request_ids):
            if request_id is None:
                results.append(None)
                continue
            try:
                results.append(self.collect(shard, request_id))
            except ShardDiedError:
                if not skip_dead:
                    raise
                results.append(None)
        return results

    # -------------------------------------------------------------- respawn
    def respawn(self, shard: int) -> None:
        """Replace a dead worker with a fresh process at the same index.

        The replacement starts empty (a new ``LocalStore``) with a bumped
        ``generation``; the engine re-migrates documents onto it with
        ``restore`` requests.  Respawning a live shard is refused — kill it
        (or let a deadline do so) first.
        """
        old = self._shards[shard]
        if not old.dead:
            raise EngineError(f"shard worker {shard} is alive; refusing to respawn over it")
        try:
            old.conn.close()
        except Exception:
            pass
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=1.0)
        self._shards[shard] = self._spawn(shard, generation=old.generation + 1)

    # -------------------------------------------------------------- streams
    def stream_open(
        self,
        shard: int,
        doc_id,
        chunk_size: int,
        credit: Optional[int] = None,
        trace_ctx=None,
    ) -> ShardStream:
        """Open a push stream over a document's answers on its shard.

        The opening credit defaults to the adaptive controller's grant —
        the current window divided across the streams already open, so a
        fan-out of concurrent streams shares the buffered volume instead of
        multiplying it.  Pass an explicit ``credit`` to pin the window
        (tests, benchmarks).
        """
        state = self._check_shard(shard)
        if credit is None:
            open_streams = sum(len(entry.streams) for entry in self._shards)
            credit = self.credit.initial_credit(open_streams)
        if trace_ctx is not None:
            self._send(shard, (-1, "trace_push", trace_ctx), "opening a stream")
        request_id = next(self._request_ids)
        stream = ShardStream(shard, request_id)
        stream.window = credit
        state.streams[request_id] = stream
        self._send(shard, (request_id, "stream_open", doc_id, chunk_size, credit), "opening a stream")
        state.stream_round_trips += 1
        return stream

    def stream_next_chunk(self, stream: ShardStream):
        """The next ``(answers, exhausted)`` chunk of a stream (blocking).

        Returns ``None`` when the stream ended; raises the stream's error
        (with its original type) when the worker reported one.  Consuming a
        chunk replenishes the worker's credit window in half-window grants,
        steered by the adaptive controller: a grant tops the stream's
        outstanding tokens up to the *current* target window, so a grown
        window takes effect mid-stream and a shrunk one simply withholds
        credit (an effective shrink costs zero round trips).  The wait for
        each chunk is bounded by the pool deadline.
        """
        state = self._shards[stream.shard]
        deadline_at = time.monotonic() + self.deadline if self.deadline is not None else None
        stalled_at = None  #: set when the parent genuinely waited on the pipe
        if stream.chunks:
            # Buffered chunks plus not-yet-returned grants == the whole
            # outstanding window ⇒ the producer has nothing left in flight
            # and is purely waiting on this consumer.
            self.credit.note_buffered(
                len(stream.chunks) + stream.to_grant, stream.window
            )
        while not stream.chunks:
            if stream.error is not None:
                error, stream.error = stream.error, None
                stream.done = True
                raise error
            if stream.done:
                return None
            if state.dead:
                raise self._death(stream.shard, "streaming answers", None)
            if stalled_at is None:
                stalled_at = time.monotonic()
            self._recv_one(stream.shard, "streaming answers", deadline_at, self.deadline)
        if stalled_at is not None:
            self.credit.note_stall()
            if self.metrics is not None:
                # Time the consumer spent blocked on the credit window / worker.
                self.metrics.observe("stream_stall_seconds", time.monotonic() - stalled_at)
        chunk = stream.chunks.pop(0)
        stream.to_grant += 1
        _answers, exhausted = chunk
        target = self.credit.window
        if (
            not exhausted
            and not stream.done
            and stream.to_grant >= max(1, min(stream.window, target) // 2)
        ):
            # Token conservation: ``stream.window`` tokens are outstanding
            # (worker credit + chunks in flight/buffered + to_grant).  Grant
            # exactly what tops the stream up to the target window.
            grant = max(0, target - (stream.window - stream.to_grant))
            stream.window = stream.window - stream.to_grant + grant
            stream.to_grant = 0
            if grant > 0 and not state.dead:
                self._send(
                    stream.shard,
                    (stream.request_id, "stream_credit", grant),
                    "granting stream credit",
                )
                state.stream_round_trips += 1
        return chunk

    def stream_close(self, stream: ShardStream) -> None:
        """Abandon a stream.  Safe to call from generator finalizers.

        The actual ``stream_close`` message is *deferred* to the next send on
        the same shard (or to :meth:`close`): a finalizer may run at any
        point — including mid-send on the same pipe — so it must not write to
        the pipe itself.  Chunks still in flight are dropped on receipt.
        """
        if stream.closed:
            return
        stream.closed = True
        if self._closed or stream.shard >= len(self._shards):
            return
        state = self._shards[stream.shard]
        live = state.streams.pop(stream.request_id, None)
        if live is not None and not state.dead and not stream.done:
            state.deferred_closes.append(stream.request_id)

    # ---------------------------------------------------------------- stats
    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard protocol counters (queue depth, in-flight, streaming)."""
        return [
            {
                "alive": not state.dead and state.process.is_alive(),
                "generation": state.generation,
                "inflight_requests": len(state.inflight),
                "queued_replies": len(state.pending),
                "streams_open": len(state.streams),
                "requests_sent": state.requests_sent,
                "replies_received": state.replies_received,
                "stream_chunks": state.stream_chunks,
                "stream_round_trips": state.stream_round_trips,
            }
            for state in self._shards
        ]

    # ---------------------------------------------------------------- close
    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down (graceful close, then terminate stragglers)."""
        self._closed = True
        for state in self._shards:
            if state.dead:
                continue
            try:
                state.conn.send((next(self._request_ids), "close"))
            except (BrokenPipeError, OSError):
                pass
        for state in self._shards:
            state.process.join(timeout=timeout)
            if state.process.is_alive():  # pragma: no cover — stuck worker
                state.process.terminate()
                state.process.join(timeout=1.0)
        for state in self._shards:
            state.conn.close()
