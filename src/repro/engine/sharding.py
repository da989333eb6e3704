"""Sharded execution: a pipelined, request-id-tagged worker protocol.

``Engine(workers=N)`` routes every document to worker processes.  Each
worker runs a plain single-process :class:`~repro.engine.local.LocalStore`
and answers requests through the store's op set
(:class:`~repro.engine.local.StoreOps`, one method per op name); all
workers share **one catalog directory** (the catalog's atomic temp-file +
``os.replace`` writes make it multi-process safe), so a standing query is
compiled once — by the parent — and every worker *loads* its persisted
form instead of compiling.

The protocol is pipelined rather than lockstep.  Every message the parent
sends is a tuple ``(request_id, op, *args)``; every message a worker sends
back is ``(request_id, status, *payload)``, so replies correlate to
requests by id and the parent may have **many requests in flight per
worker** at once:

* **batched ingest.**  ``("add_batch", items)`` ships one pickled batch of
  documents per worker; :meth:`ShardPool.submit` / :meth:`ShardPool.collect`
  let the fleet issue the batches to *all* shards before collecting *any*
  reply, so the per-document builds (the dominant serving cost) overlap
  across worker processes instead of serializing behind one round trip per
  document.
* **streaming replies.**  ``("stream_open", doc_id, chunk_size, credit)``
  registers a push stream: the worker sends up to ``credit`` result chunks
  ``(request_id, "chunk", answers, exhausted)`` without waiting for the
  parent, and ``("stream_credit", n)`` replenishes the window as the parent
  consumes — bounded in-flight data, and a round trip per *credit grant*
  instead of one per page.  Every stream opens with the same credit,
  :data:`STREAM_CREDIT` chunks.  :class:`PushStream` is the producer half,
  shared with the network server, and :func:`take_chunk` the consumer half,
  shared with the network client.
* **demultiplexing.**  A worker handles messages strictly in arrival order,
  but chunks of concurrent streams and replies of concurrent requests
  interleave on the pipe.  The parent keeps one :class:`Channel` per worker,
  the consumer record the network client keeps per connection, and files
  every message by its one rule: a reply under the request id it answers, a
  chunk in its stream's buffer.  So out-of-order collection is safe, and a
  dead worker ends every open stream with an error.

Shard death is a recoverable event, not data loss:

* **bounded waits.**  Every blocking wait (:meth:`ShardPool.collect`,
  :meth:`ShardPool.wait_replies` and :meth:`ShardPool.stream_next_chunk`)
  honors a configurable ``deadline``: the parent waits on
  ``Connection.poll`` and, on expiry, kills the hung worker, marks it dead,
  and raises :class:`~repro.errors.ShardTimeoutError` naming the shard, the
  op and the elapsed time — a hang is promoted to a death instead of
  blocking the engine forever.
* **strict protocol validation.**  A message that :meth:`Channel.file`
  finds malformed (not ``(request_id, status, *payload)`` with an int id and
  a known status, a chunk not ``(answers tuple, exhausted bool)``, an
  ``err`` without an exception) is rejected on receipt with
  :class:`~repro.errors.ShardProtocolError` (naming the shard and the
  malformed message's shape) and the worker is killed: nothing on that pipe
  can be trusted after a protocol violation.
* **respawn + restore.**  :meth:`ShardPool.respawn` replaces a dead worker
  with a fresh process at the same index (bumping its ``generation``); the
  ``restore`` op rebuilds a document on it from its original content by
  *replaying* the recorded edit batches, which reproduces node/position ids
  and answer order byte-identically (a fresh build of the edited tree could
  balance the forest-algebra term differently).  :class:`FleetTransport`
  drives both to re-establish the replication factor after a death.
* **fault injection.**  Workers accept an optional
  :class:`~repro.engine.faults.FaultPlan` that deterministically injects
  crash-before-reply / hang / slow / garbage faults at named protocol
  points; the sharded fuzz harness uses it to prove the failover machinery
  keeps transcripts byte-identical to the single-process oracle.  Respawned
  workers (generation > 0) never inherit the plan — a repaired worker is a
  healthy worker, and re-arming one-shot rules in a fresh process would
  turn a single injected crash into a crash loop.

Three rules hold throughout:

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
import pickle
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.document import STREAM_PAGE_SIZE
from repro.engine.local import BatchUpdateReport, Transport, engine_closed, release_old_cursor_ids
from repro.errors import (
    EngineError,
    ProtocolError,
    ShardDiedError,
    ShardProtocolError,
    ShardTimeoutError,
)

__all__ = [
    "Channel",
    "FleetTransport",
    "PushStream",
    "ShardPool",
    "ShardStream",
    "SLOW_OP_SECONDS",
    "STREAM_CREDIT",
    "fresh_answers",
    "take_chunk",
]

#: the credit window: chunks a producer may push ahead of consumption, the
#: credit every stream opens with
STREAM_CREDIT = 32

#: a protocol round trip slower than this many seconds is logged as a
#: ``slow_op`` event
SLOW_OP_SECONDS = 1.0

#: message statuses a consumer accepts; anything else is a protocol violation
_VALID_STATUSES = ("ok", "err", "chunk")


class ShardStream:
    """Consumer-side state of one credit-window push stream.

    The same record serves a stream from a shard worker over its pipe
    (``shard`` is the worker index) and a stream from an
    :class:`~repro.net.server.EngineServer` over a socket (``shard`` is
    None); :func:`take_chunk` consumes either.
    """

    __slots__ = (
        "shard",
        "request_id",
        "chunks",
        "error",
        "done",
        "closed",
        "to_grant",
    )

    def __init__(self, shard: Optional[int], request_id: int):
        self.shard = shard
        self.request_id = request_id
        self.chunks: List[tuple] = []  #: received, not yet consumed (answers, exhausted)
        self.error: Optional[BaseException] = None
        self.done = False  #: the producer sent the exhausted chunk or an error
        self.closed = False  #: the consumer abandoned the stream
        #: consumed chunks not yet returned as credit.  Producer-held credit,
        #: chunks in flight or buffered, and ``to_grant`` always sum to
        #: :data:`STREAM_CREDIT`.
        self.to_grant = 0


def take_chunk(stream: ShardStream, receive, grant):
    """The next ``(answers, exhausted)`` chunk of a push stream.

    Returns ``(chunk, stalled)``: ``chunk`` is None once the stream ended,
    and ``stalled`` is the seconds the consumer waited for it (None when a
    chunk was already buffered).  ``receive()`` files one more incoming
    message, blocking; the stream's error is raised (once, with its original
    type) when the producer reported one.

    Consumed chunks go back as credit, ``grant(n)``, each time half of
    :data:`STREAM_CREDIT` is consumed, and never once the producer is done.
    So a stream of n chunks pays at most ``1 + (n - 1) // 16`` round trips,
    its open and its grants, however many other streams are open; exactly
    that when it is read alone.
    """
    stalled_at = None
    while not stream.chunks:
        if stream.error is not None:
            error, stream.error = stream.error, None
            stream.done = True
            raise error
        if stream.done or stream.closed:
            return None, None
        if stalled_at is None:
            stalled_at = time.perf_counter()
        receive()
    chunk = stream.chunks.pop(0)
    stream.to_grant += 1
    if not stream.done and stream.to_grant >= STREAM_CREDIT // 2:
        grant(stream.to_grant)
        stream.to_grant = 0
    return chunk, None if stalled_at is None else time.perf_counter() - stalled_at


def _shape(message) -> str:
    """A message's repr, cut to a length an error message can carry."""
    shape = repr(message)
    return shape if len(shape) <= 160 else shape[:160] + "..."


def _malformed(message, expected: str) -> ProtocolError:
    return ProtocolError(
        f"malformed message ({type(message).__name__}: {_shape(message)}); expected {expected}"
    )


class Channel:
    """Consumer-side state of one channel, and the one rule that files what
    arrives on it.

    A channel is a shard worker's pipe (:class:`ShardPool` keeps one per
    worker) or one connection to an :class:`~repro.net.server.EngineServer`
    (a :class:`~repro.net.client.SocketTransport` is one).  Each hop keeps
    how it reads a message, how it punishes a malformed one and its own
    metrics; :meth:`file` decides where a message goes:

    * a chunk goes to its open stream, and an exhausted chunk ends the
      stream.  A chunk of an abandoned stream is dropped.  Both count in
      ``stream_chunks``;
    * an ``err`` or an ``ok`` addressed to an open stream ends it, with the
      exception or with :class:`~repro.errors.EngineError`;
    * a reply to an in-flight request is filed in ``pending``, and a reply
      to any other id (a request that timed out, say) is dropped.

    A stream leaves ``streams`` when it ends, when its consumer abandons it
    (:meth:`abandon`) or when the channel dies (:meth:`die`).
    """

    __slots__ = (
        "pending",
        "inflight",
        "streams",
        "deferred_closes",
        "stream_chunks",
        "stream_round_trips",
    )

    def __init__(self):
        self.pending: Dict[int, tuple] = {}  #: request_id → (status, payload)
        #: request_id → (op, send time) for requests awaiting reply
        self.inflight: Dict[int, tuple] = {}
        self.streams: Dict[int, ShardStream] = {}  #: open streams by request id
        #: abandoned streams still owed chunks; closed before the next send
        self.deferred_closes: List[int] = []
        self.stream_chunks = 0  #: chunks received, those of abandoned streams included
        self.stream_round_trips = 0  #: stream opens and credit grants sent

    def file(self, message) -> Optional[tuple]:
        """File one incoming ``(request_id, status, *payload)`` message.

        Returns the in-flight entry of the request it answers, if any: the
        hop's round-trip metrics read it.  A malformed message raises
        :class:`~repro.errors.ProtocolError` naming its shape; the hop
        punishes it, since nothing after it on the channel can be trusted.
        """
        if not (
            isinstance(message, (tuple, list))
            and len(message) >= 2
            and isinstance(message[0], int)
            and message[1] in _VALID_STATUSES
        ):
            raise _malformed(
                message,
                f"(request_id, status, *payload) with an int request_id "
                f"and status in {_VALID_STATUSES}",
            )
        request_id, status = message[0], message[1]
        if status == "chunk":
            if not (
                len(message) == 4
                and isinstance(message[2], tuple)
                and isinstance(message[3], bool)
            ):
                raise _malformed(message, "(request_id, 'chunk', answers tuple, exhausted bool)")
            self.stream_chunks += 1
            stream = self.streams.get(request_id)
            if stream is not None:  # else a chunk of an abandoned stream: dropped
                stream.chunks.append((message[2], message[3]))
                if message[3]:
                    self._end(stream, None)
            return None
        payload = message[2] if len(message) > 2 else None
        if status == "err" and not isinstance(payload, BaseException):
            raise _malformed(message, "(request_id, 'err', exception)")
        stream = self.streams.get(request_id)
        if stream is not None:
            # A reply addressed to a stream (StaleIteratorError, the death of
            # the underlying document, ...) ends it.
            if status == "ok":
                payload = EngineError(f"protocol error: stream {request_id} got an 'ok' reply")
            self._end(stream, payload)
            return None
        entry = self.inflight.pop(request_id, None)
        if entry is not None:
            self.pending[request_id] = (status, payload)
        return entry

    def _end(self, stream: ShardStream, error: Optional[BaseException]) -> None:
        del self.streams[stream.request_id]
        stream.done = True
        stream.error = error

    def reply(self, request_id: int, receive):
        """The reply to ``request_id``: its payload returned, or its error
        raised.  ``receive()`` files one more incoming message, blocking."""
        while request_id not in self.pending:
            receive()
        status, payload = self.pending.pop(request_id)
        if status == "err":
            raise payload
        return payload

    def open_stream(self, shard: Optional[int], request_id: int) -> ShardStream:
        """Register a stream whose ``stream_open`` was just sent."""
        stream = self.streams[request_id] = ShardStream(shard, request_id)
        self.stream_round_trips += 1
        return stream

    def abandon(self, stream: ShardStream) -> None:
        """The consumer abandoned a stream.  Safe in a generator finalizer.

        A finalizer may run at any point, even in the middle of a send on
        this channel, so nothing is sent here: a stream still owed chunks
        has its close deferred to the hop's next send (:meth:`take_closes`),
        and chunks still in flight are dropped on receipt.
        """
        stream.closed = True
        if self.streams.pop(stream.request_id, None) is not None:
            self.deferred_closes.append(stream.request_id)

    def take_closes(self) -> List[int]:
        """The deferred stream closes, now due: the hop sends them first."""
        closes = self.deferred_closes
        if closes:
            self.deferred_closes = []
        return closes

    def die(self, error) -> None:
        """The channel is gone.  Every open stream ends with a fresh
        ``error()`` once its buffered chunks are read; in-flight requests and
        deferred closes are dropped (replies already filed stay readable)."""
        for stream in self.streams.values():
            stream.done = True
            stream.error = error()
        self.streams.clear()
        self.inflight.clear()
        self.deferred_closes.clear()


def fresh_answers(chunks, check):
    """The answers of an iterator of answer chunks, ``check()`` before each.

    ``check`` raises :class:`~repro.errors.StaleIteratorError` once the
    document was edited after the stream began, so a pushed stream goes
    stale at the answer boundary where the runtime's own iterator would:
    before an answer is yielded, never after the last one.
    """
    check()
    for answers in chunks:
        for answer in answers:
            check()
            yield answer


class PushStream:
    """Producer-side state of one credit-window push stream.

    The same record serves a stream a shard worker pushes over its pipe and
    one an :class:`~repro.net.server.EngineServer` pushes over a socket:
    each sends the chunks :meth:`next_chunk` cuts, one per credit token.
    """

    __slots__ = ("iterator", "chunk_size", "credit")

    def __init__(self, iterator, chunk_size: int, credit: int):
        self.iterator = iterator
        self.chunk_size = chunk_size
        self.credit = credit  #: chunks the consumer allows ahead of consumption

    def next_chunk(self) -> Tuple[tuple, bool]:
        """The next ``(answers, exhausted)`` chunk: up to ``chunk_size`` answers.

        A stream whose answer count is a multiple of the chunk size ends
        with an empty exhausted chunk.  :attr:`credit` is the caller's to
        update: the server adds to it on its event loop while this runs on
        the engine lane.
        """
        answers = tuple(itertools.islice(self.iterator, self.chunk_size))
        return answers, len(answers) < self.chunk_size


# ============================================================== worker side
def _pump_stream(conn, streams: Dict[int, PushStream], request_id: int, inject) -> None:
    """Push chunks of one stream while it has credit; drop it when done.

    The per-answer iterator is the runtime's own (`LocalDocument.answers`),
    so an edit that lands between chunks invalidates it exactly like the
    single-process ``stream()`` — the resulting ``StaleIteratorError``
    travels back as this stream's error reply.
    """
    stream = streams.get(request_id)
    while stream is not None and stream.credit > 0:
        try:
            answers, exhausted = stream.next_chunk()
        except BaseException as exc:  # noqa: BLE001 — must travel back
            del streams[request_id]
            _send_err(conn, request_id, exc)
            return
        stream.credit -= 1
        if exhausted:
            del streams[request_id]
            stream = None
        conn.send(inject("stream_chunk", (request_id, "chunk", answers, exhausted)))


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
    from repro.engine.local import LocalStore, StoreOps
    from repro.engine.catalog import QueryCatalog
    from repro.obs import Tracer

    catalog = QueryCatalog(catalog_root) if catalog_root else None
    store = LocalStore(
        catalog=catalog,
        build_cache_size=build_cache_size,
        delay_budget=delay_budget,
    )
    ops = StoreOps(store)
    tracer = Tracer(enabled=trace, process=f"shard-{shard_index}")
    if fault_plan is not None:
        # Fault firings are operational events; surface them next to the
        # deaths and timeouts they will cause (drained via the "events" op).
        fault_plan.on_fire = lambda shard, op, action: store.events.emit(
            "fault_injected", shard=shard, op=op, action=action
        )
    streams: Dict[int, PushStream] = {}
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
                streams[request_id] = PushStream(iterator, chunk_size, credit)
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
                    handler = None if op.startswith("_") else getattr(ops, op, None)
                    if handler is None:
                        raise EngineError(f"unknown shard request {op!r}")
                    reply = (request_id, "ok", handler(*message[2:]))
                except BaseException as exc:  # noqa: BLE001 — every failure travels back
                    _send_err(conn, request_id, exc)
                    continue
            conn.send(FaultPlan.apply_reply_action(reply_action, reply))
    conn.close()


# ============================================================== parent side
class _ShardState(Channel):
    """Parent-side bookkeeping of one worker: its channel, pipe and process."""

    __slots__ = ("conn", "process", "generation", "dead", "requests_sent", "replies_received")

    def __init__(self, conn, process, generation: int = 0):
        super().__init__()
        self.conn = conn
        self.process = process
        self.generation = generation  #: respawn count of this index (0 = original)
        self.dead = False
        self.requests_sent = 0
        self.replies_received = 0


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
        #: parent-side observability (both optional, see :mod:`repro.obs`):
        #: a MetricsRegistry for protocol round-trip / credit-stall
        #: histograms, and an ``on_event(kind, **fields)`` callback for
        #: deaths / timeouts / protocol violations / slow ops.
        self.metrics = metrics
        self._on_event = on_event
        self._trace = trace
        self._delay_budget = delay_budget
        self.deadline = deadline
        self.deaths_total = 0
        self.timeouts_total = 0
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
            # keeps the queue-depth counters honest.  Deferred stream closes
            # are worker-side bookkeeping of a worker that no longer exists —
            # dropping them is what lets a respawned worker at this index
            # start with no leaked stream ids.
            state.die(lambda: ShardDiedError(f"shard worker {shard} died mid-stream"))
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

    def _protocol_error(self, shard: int, message, error: ProtocolError) -> ShardProtocolError:
        """Punish a malformed message: kill the worker, mark it dead, report."""
        self._kill(shard)
        self._death(shard, "receiving a reply", None)
        self._emit("protocol_error", shard=shard, shape=_shape(message))
        return ShardProtocolError(
            f"shard worker {shard} sent a {error}; the worker was killed and marked dead"
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
        try:
            for request_id in state.take_closes():
                state.conn.send((request_id, "stream_close"))
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
        """Receive one message from a shard and file it (:meth:`Channel.file`).

        A dead shard raises its death; a malformed message kills the worker
        (:class:`~repro.errors.ShardProtocolError`).  With a ``deadline_at``
        (monotonic timestamp, derived from ``deadline`` seconds), waits at
        most until then: a worker that has not produced a message by the
        deadline is killed and :class:`~repro.errors.ShardTimeoutError`
        raised.
        """
        state = self._shards[shard]
        if state.dead:
            raise self._death(shard, doing, None)
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
        try:
            entry = state.file(message)
        except ProtocolError as error:
            raise self._protocol_error(shard, message, error) from None
        if entry is not None:
            state.replies_received += 1
            elapsed = time.monotonic() - entry[1]
            if self.metrics is not None:
                self.metrics.observe("protocol_round_trip_seconds", elapsed)
            if elapsed > SLOW_OP_SECONDS:
                self._emit("slow_op", shard=shard, op=entry[0], seconds=elapsed)

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

    def collect(self, shard: int, request_id: int):
        """Block until the reply with ``request_id`` arrives; return or raise it."""
        deadline = self.deadline
        state = self._shards[shard]
        entry = state.inflight.get(request_id)  # before a death clears it
        op = entry[0] if entry is not None else "?"
        doing = f"handling {op!r}"
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        return state.reply(request_id, lambda: self._recv_one(shard, doing, deadline_at, deadline))

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

    def wait_replies(self, waiting: Dict[int, int]) -> List[int]:
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

    def broadcast(self, op: str, *args) -> List:
        """The same request to every shard, pipelined, answers in shard order.

        All requests are submitted before any reply is collected.  A dead
        shard — known dead at submit time, or dying before it replies —
        contributes ``None`` instead of raising, so a monitoring gather
        survives partial pool death.
        """
        request_ids: List[Optional[int]] = []
        for shard in range(len(self)):
            try:
                request_ids.append(self.submit(shard, op, *args))
            except ShardDiedError:
                request_ids.append(None)
        results: List = []
        for shard, request_id in enumerate(request_ids):
            try:
                results.append(None if request_id is None else self.collect(shard, request_id))
            except ShardDiedError:
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
    def stream_open(self, shard: int, doc_id, chunk_size: int, trace_ctx=None) -> ShardStream:
        """Open a push stream over a document's answers on its shard, with
        :data:`STREAM_CREDIT` chunks of credit."""
        state = self._check_shard(shard)
        if trace_ctx is not None:
            self._send(shard, (-1, "trace_push", trace_ctx), "opening a stream")
        request_id = next(self._request_ids)
        self._send(shard, (request_id, "stream_open", doc_id, chunk_size, STREAM_CREDIT), "opening a stream")
        return state.open_stream(shard, request_id)

    def stream_next_chunk(self, stream: ShardStream):
        """The next ``(answers, exhausted)`` chunk of a stream (blocking).

        Returns ``None`` when the stream ended; raises the stream's error
        (with its original type) when the worker reported one.  Consuming
        replenishes the worker's credit (:func:`take_chunk`); the wait for
        each chunk is bounded by the pool deadline, and a wait is recorded
        in ``stream_stall_seconds``.
        """
        shard = stream.shard
        deadline_at = time.monotonic() + self.deadline if self.deadline is not None else None

        def receive():
            self._recv_one(shard, "streaming answers", deadline_at, self.deadline)

        def grant(tokens: int):
            self._send(shard, (stream.request_id, "stream_credit", tokens), "granting stream credit")
            self._shards[shard].stream_round_trips += 1

        chunk, stalled = take_chunk(stream, receive, grant)
        if stalled is not None and self.metrics is not None:
            # Time the consumer spent blocked on the credit window / worker.
            self.metrics.observe("stream_stall_seconds", stalled)
        return chunk

    def stream_close(self, stream: ShardStream) -> None:
        """Abandon a stream (:meth:`Channel.abandon`): safe to call from
        generator finalizers, and its ``stream_close`` goes out with the next
        send to the shard."""
        self._shards[stream.shard].abandon(stream)

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
        """Shut every worker down (graceful close, then terminate stragglers).

        Every open stream raises ``EngineError("this engine is closed")``
        once its buffered chunks are read."""
        self._closed = True
        for state in self._shards:
            state.die(engine_closed)
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


# ==================================================================== fleet
class FleetTransport(Transport):
    """The sharded transport: a :class:`ShardPool` plus placement,
    replication, failover and repair.

    * **placement.**  Each document is placed on ``replicas`` shards,
      load-aware over the live in-flight/document counters instead of blind
      round-robin.  Writes (ingest, edits, cursor opens and page fetches —
      cursor state is deterministic, so mirroring keeps cursor ids and
      positions in lockstep) go to *every* live replica; plain reads
      (stream, count, epoch) go to the least-loaded live replica.
    * **failover + rebuild.**  When a shard dies (crash, hang past the
      deadline, or protocol violation — all surface as
      :class:`~repro.errors.ShardDiedError` subtypes), in-flight reads retry
      transparently on a surviving replica, a replacement worker is
      respawned in the background, and every under-replicated document is
      re-migrated onto it: the fleet keeps each document's original content
      plus its edit log, and the replacement *replays* them, reproducing
      node/position ids, epochs and enumeration order byte-identically.
      :class:`~repro.errors.ShardDiedError` reaches the caller only when
      every replica of a document is gone.
    * **replicas=1** engages none of this: a dead shard stays dead, its
      documents are precisely unreachable, and the surviving shards stay
      usable.
    """

    def __init__(self, pool: ShardPool, replicas: int, tracer, metrics, events):
        self.pool = pool
        self.replicas = replicas
        self._tracer = tracer
        self._metrics = metrics
        self._events = events
        #: live replica shards of each document, in placement order
        self.replicas_of: Dict[object, List[int]] = {}
        #: documents placed per shard (replica-counted), for load-aware placement
        self.placed: Dict[int, int] = {}
        #: doc_id → {cursor_id → shards holding that cursor}, in open order.
        #: Page fetches are mirrored, so every holder's copy stays in
        #: lockstep; a replica rebuilt *after* the cursor was opened never
        #: joins (it only holds cursors opened since its restore).  An id
        #: leaves when the workers release it, by the same rules
        #: (``LocalDocument._cursors_by_id``).
        self._cursor_holders: Dict[object, Dict[int, Set[int]]] = {}
        #: per document, the next cursor id the workers will assign (shipped
        #: on restore so rebuilt replicas keep assigning the survivors' ids)
        self._next_cursor_ids: Dict[object, int] = {}
        #: doc_id → (pickled original content, query); retained only under
        #: replication, it is the "move bytes" half of migration
        self._ingest_blobs: Dict[object, tuple] = {}
        #: doc_id → every edit batch ever attempted, the "replay" half
        self._edit_logs: Dict[object, List[list]] = {}
        #: in-flight restore requests: {shard, generation, doc_id, request_id, t0}
        self._repairs: List[dict] = []
        #: per shard, the query digests whose source was already shipped
        self._queries_sent: Dict[int, set] = {}
        self.failovers_total = 0
        self.migrations_total = 0
        #: batches whose shard reply arrived more than twice as late as the
        #: batch's first reply (the fast shards were already collected
        #: while the straggler built)
        self.ingest_stragglers_total = 0
        #: monotonic logical cursor counters, accumulated per edit batch.
        #: Shard-side per-document totals reset when a failover rebuilds a
        #: replica (and replication counts each event ~R times); every edit
        #: batch passes through here, so these sums are exact.
        self.cursors_resumed_total = 0
        self.cursors_invalidated_total = 0

    @property
    def workers(self) -> int:
        return len(self.pool)

    @property
    def shard_of(self) -> Dict[object, int]:
        """doc_id → primary (first-replica) shard, for introspection."""
        return {doc_id: replicas[0] for doc_id, replicas in self.replicas_of.items() if replicas}

    # -------------------------------------------------------------- placement
    def _release_placement(self, shard: int) -> None:
        """Return one placement slot of a shard (replica lost, removed or
        never materialized); the counter never goes negative."""
        self.placed[shard] = max(0, self.placed.get(shard, 0) - 1)

    def _pick_shards(self, count: int) -> List[int]:
        """Load-aware placement: the ``count`` least-loaded live shards.

        Load is (in-flight requests, documents placed), with the shard index
        as a deterministic tie-break — so an idle fleet fills round-robin,
        but a shard bogged down in slow builds (or briefly absent while
        respawning) stops attracting new documents.  Returns fewer than
        ``count`` shards when fewer are live (degraded placement); raises
        only when no shard is live at all.
        """
        pool = self.pool
        live = [shard for shard in range(len(pool)) if pool.is_alive(shard)]
        if not live:
            raise EngineError("every shard worker of this engine is dead; close the engine")
        ranked = sorted(live, key=lambda s: (pool.inflight(s), self.placed.get(s, 0), s))
        chosen = ranked[: min(count, len(ranked))]
        for shard in chosen:
            self.placed[shard] = self.placed.get(shard, 0) + 1
        return chosen

    def _gone(self, doc_id) -> ShardDiedError:
        return ShardDiedError(
            f"every replica of document {doc_id!r} is gone "
            f"(all shard workers holding it died)"
        )

    def _write_targets(self, doc_id) -> List[int]:
        """The shards a write (edits, cursor open, remove) must reach.

        Replicated writes go to every live replica in lockstep; with
        ``replicas=1`` the single home shard is returned even when dead, so
        the pool raises its precise dead-shard error.
        """
        replicas = self.replicas_of[doc_id]
        if self.replicas == 1:
            return [replicas[0]]
        targets = [shard for shard in replicas if self.pool.is_alive(shard)]
        if not targets:
            raise self._gone(doc_id)
        return targets

    def pick_read_replica(self, doc_id) -> int:
        """The least-loaded live replica (reads); the home shard if R=1."""
        replicas = self.replicas_of[doc_id]
        if self.replicas == 1:
            return replicas[0]
        pool = self.pool
        live = [shard for shard in replicas if pool.is_alive(shard)]
        if not live:
            raise self._gone(doc_id)
        return min(live, key=lambda s: (pool.inflight(s), s))

    # --------------------------------------------------------------- failover
    def _after_death(self, shard: int) -> None:
        """Failover bookkeeping once a shard's death has been observed.

        With ``replicas=1`` this is a no-op: a dead shard's documents stay
        precisely unreachable and the surviving shards stay usable.  With
        replication the dead shard is retired from every replica set and
        cursor-holder set, a replacement worker is respawned at the same
        index, and every document now below its replication factor is
        re-migrated onto it in the background — restore requests are
        pipelined and collected lazily (:meth:`_reap_repairs`), and the
        pipe's FIFO ordering guarantees any later write or read routed to
        the new worker observes the fully rebuilt document.
        """
        pool = self.pool
        if self.replicas == 1 or pool.is_alive(shard):
            return  # no replication, or already respawned (a stale observation)
        start = time.perf_counter()
        span = self._tracer.begin("failover", shard=shard)
        failover_ctx = None if span is None else span.context
        for replicas in self.replicas_of.values():
            if shard in replicas:
                replicas.remove(shard)
                self._release_placement(shard)
        for cursors in self._cursor_holders.values():
            for cursor_id in list(cursors):
                holders = cursors[cursor_id]
                holders.discard(shard)
                if not holders:
                    del cursors[cursor_id]
        dead_generation = pool.generation(shard)
        self._repairs = [
            repair
            for repair in self._repairs
            if not (repair["shard"] == shard and repair["generation"] == dead_generation)
        ]
        pool.respawn(shard)
        generation = pool.generation(shard)
        sent = self._queries_sent[shard] = set()
        for doc_id, replicas in self.replicas_of.items():
            blob = self._ingest_blobs.get(doc_id)
            if len(replicas) >= self.replicas or shard in replicas or blob is None:
                continue
            content_bytes, query = blob
            source = None if query.digest in sent else query.source
            sent.add(query.digest)
            try:
                request_id = pool.submit(
                    shard,
                    "restore",
                    doc_id,
                    pickle.loads(content_bytes),
                    source,
                    query.digest,
                    list(self._edit_logs.get(doc_id, ())),
                    self._next_cursor_ids.get(doc_id, 0),
                    trace_ctx=failover_ctx,
                )
            except ShardDiedError:
                # The replacement died instantly; the next observation of
                # this death respawns and re-migrates again.
                break
            replicas.append(shard)
            self.placed[shard] = self.placed.get(shard, 0) + 1
            self.migrations_total += 1
            self._repairs.append(
                {
                    "shard": shard,
                    "generation": generation,
                    "doc_id": doc_id,
                    "request_id": request_id,
                    "t0": time.perf_counter(),
                }
            )
        self._tracer.finish(span)
        self._metrics.observe("failover_seconds", time.perf_counter() - start)

    def _reap_repairs(self, block: bool = False) -> None:
        """Collect finished background restores; with ``block``, wait for all.

        A restore that failed on a live worker counts as a replica loss
        (availability shrinks; nothing is corrupted).
        """
        while self._repairs:
            repairs, self._repairs = self._repairs, []
            dead_seen: List[int] = []
            for repair in repairs:
                shard = repair["shard"]
                if self.pool.generation(shard) != repair["generation"]:
                    continue  # that worker died; its death handling re-migrated
                if not block and not self.pool.poll_reply(shard, repair["request_id"]):
                    self._repairs.append(repair)
                    continue
                try:
                    self.pool.collect(shard, repair["request_id"])
                    self._metrics.observe("repair_seconds", time.perf_counter() - repair["t0"])
                except ShardDiedError:
                    dead_seen.append(shard)
                except EngineError:
                    replicas = self.replicas_of.get(repair["doc_id"])
                    if replicas and shard in replicas:
                        replicas.remove(shard)
                        self._release_placement(shard)
            for shard in set(dead_seen):
                self._after_death(shard)
            if not block:
                return

    def await_repairs(self) -> None:
        self._reap_repairs(block=True)

    def _read(self, doc_id, op: str, *args):
        """Route one read to a live replica, failing over on shard death."""
        attempts = 2 * len(self.pool) + 2
        last_error: Optional[BaseException] = None
        for _ in range(attempts):
            shard = self.pick_read_replica(doc_id)
            try:
                return self.pool.request(shard, op, doc_id, *args)
            except ShardDiedError as exc:
                if self.replicas == 1:
                    raise
                last_error = exc
                self._after_death(shard)
                self.failovers_total += 1
        raise last_error

    def _fan_out(self, targets: List[int], op: str, *args, trace_ctx=None):
        """One write to every target shard, all submitted before any reply
        is collected.  Returns ``(replies, app_error, death_error,
        dead_seen)``; ``replies`` is ``[(shard, payload)]`` and the caller
        handles the deaths in ``dead_seen``."""
        submitted, replies, dead_seen = [], [], []
        app_error = death_error = None
        for shard in targets:
            try:
                submitted.append((shard, self.pool.submit(shard, op, *args, trace_ctx=trace_ctx)))
            except ShardDiedError as exc:
                dead_seen.append(shard)
                death_error = exc
        for shard, request_id in submitted:
            try:
                replies.append((shard, self.pool.collect(shard, request_id)))
            except ShardDiedError as exc:
                dead_seen.append(shard)
                death_error = exc
            except BaseException as exc:  # noqa: BLE001 — deterministic app error
                if app_error is None:
                    app_error = exc
        return replies, app_error, death_error, dead_seen

    # ---------------------------------------------------------------- ingest
    def ingest(self, items, trace_ctx=None):
        """Batch ingest, yielding ``(index, doc_id)`` in shard-completion order.

        One batch per shard goes out before any reply is read (builds
        overlap), and replies are processed in **arrival order**
        (:meth:`ShardPool.wait_replies`): a document lands the moment its
        last placement shard has acknowledged, so one straggler shard
        delays only its own documents.  Documents with a surviving replica
        stay registered; documents lost to a dying shard are reported in a
        precise :class:`~repro.errors.ShardDiedError`, and an item that
        failed inside a live worker re-raises its original exception — both
        only after every surviving document has been yielded.
        """
        self._reap_repairs()
        # Group per shard; ship each query's source to a shard once (later
        # adds of the same content carry only the digest).
        placements: Dict[object, List[int]] = {}
        batches: Dict[int, List] = {}
        for doc_id, content, query in items:
            shards = self._pick_shards(self.replicas)
            placements[doc_id] = shards
            for shard in shards:
                sent = self._queries_sent.setdefault(shard, set())
                source = None if query.digest in sent else query.source
                sent.add(query.digest)
                batches.setdefault(shard, []).append((doc_id, content, source, query.digest))
        request_ids: Dict[int, int] = {}
        died: List[tuple] = []  # (shard, doc_ids, error)
        item_failure: Optional[BaseException] = None
        for shard, batch in batches.items():
            try:
                request_ids[shard] = self.pool.submit(shard, "add_batch", batch, trace_ctx=trace_ctx)
            except ShardDiedError as exc:
                died.append((shard, [entry[0] for entry in batch], exc))
        #: per document: placement shards that have not acknowledged yet
        remaining = {doc_id: set(placements[doc_id]) for doc_id, _c, _q in items}
        for shard, doc_ids, _exc in died:  # dead at submit: never acknowledges
            for doc_id in doc_ids:
                remaining[doc_id].discard(shard)
        landed: Dict[object, List[int]] = {doc_id: [] for doc_id, _c, _q in items}
        finalized: Set[object] = set()
        batch_t0 = time.perf_counter()
        first_reply: Optional[float] = None

        def finalize_ready():
            """Yield every document whose placements all reported."""
            for index, (doc_id, content, query) in enumerate(items):
                if doc_id in finalized or remaining[doc_id]:
                    continue
                finalized.add(doc_id)
                shards = [s for s in placements[doc_id] if s in landed[doc_id]]
                for shard in placements[doc_id]:
                    if shard not in shards:
                        self._release_placement(shard)
                if not shards:
                    continue
                self.replicas_of[doc_id] = shards
                self._next_cursor_ids[doc_id] = 0
                if self.replicas > 1:
                    self._ingest_blobs[doc_id] = (pickle.dumps(content), query)
                    self._edit_logs[doc_id] = []
                yield index, doc_id

        yield from finalize_ready()  # placements lost entirely at submit time
        pending = dict(request_ids)
        while pending:
            for shard in self.pool.wait_replies(pending):
                request_id = pending.pop(shard)
                try:
                    payload = self.pool.collect(shard, request_id)
                except ShardDiedError as exc:
                    died.append((shard, [entry[0] for entry in batches[shard]], exc))
                    for entry in batches[shard]:
                        remaining[entry[0]].discard(shard)
                    continue
                elapsed = time.perf_counter() - batch_t0
                if first_reply is None:
                    first_reply = elapsed
                elif elapsed > 2.0 * max(first_reply, 0.010):
                    # This shard took over twice as long as the batch's first
                    # reply: collected in lockstep, its documents would have
                    # delayed the whole ingest.
                    self.ingest_stragglers_total += 1
                    self._events.emit(
                        "ingest_straggler", shard=shard, elapsed=elapsed, first_reply=first_reply
                    )
                added = set(payload["added"])
                for entry in batches[shard]:
                    if entry[0] in added:
                        landed[entry[0]].append(shard)
                    remaining[entry[0]].discard(shard)
                if payload["error"] is not None and item_failure is None:
                    item_failure = payload["error"]
            yield from finalize_ready()
        # Failover: respawn dead shards and re-replicate before reporting, so
        # a partially-lost batch is already being repaired when the caller
        # handles the error (no-op with replicas=1).
        for shard in {shard for shard, _ids, _exc in died}:
            self._after_death(shard)
        lost = [
            (shard, [d for d in doc_ids if d not in self.replicas_of], exc)
            for shard, doc_ids, exc in died
        ]
        lost = [(shard, ids, exc) for shard, ids, exc in lost if ids]
        if lost:
            detail = "; ".join(
                f"shard {shard} died with document ids {doc_ids!r} in flight"
                for shard, doc_ids, _exc in lost
            )
            raise ShardDiedError(f"batch ingest failed: {detail}") from lost[0][2]
        if item_failure is not None:
            raise item_failure

    # ------------------------------------------------------------------ ops
    def edits(self, doc_id, edits) -> BatchUpdateReport:
        """One edit batch on **every live replica in lockstep** (same edits,
        same order, deterministic outcome), so epochs, cursor decisions and
        enumeration state stay byte-identical across replicas; the batch is
        also logged so a future restore replays it."""
        self._reap_repairs()
        targets = self._write_targets(doc_id)
        log = self._edit_logs.get(doc_id)
        if log is not None:
            log.append(list(edits))
        replies, app_error, death_error, dead_seen = self._fan_out(
            targets, "edits", doc_id, edits, trace_ctx=self._tracer.current_context()
        )
        for shard in set(dead_seen):
            self._after_death(shard)
        if dead_seen and replies:
            self.failovers_total += 1  # the edit survived a replica death
        if app_error is not None:
            raise app_error
        if not replies:
            raise death_error if death_error is not None else self._gone(doc_id)
        reports = [report for _shard, report in replies]
        report = reports[0]
        if len(reports) > 1:
            if any(other.epoch != report.epoch for other in reports[1:]):
                epochs = [r.epoch for r in reports]
                self._events.emit("replica_divergence", doc_id=repr(doc_id), epochs=epochs)
                raise EngineError(
                    f"replica divergence on document {doc_id!r}: edit batch produced "
                    f"epochs {epochs!r} across replicas"
                )
            # A replica rebuilt after some cursors were opened holds only a
            # subset of them, so its per-batch cursor counters can undercount;
            # the max across replicas is the true per-batch number.
            report.cursors_resumed = max(r.cursors_resumed for r in reports)
            report.cursors_invalidated = max(r.cursors_invalidated for r in reports)
        self.cursors_resumed_total += report.cursors_resumed
        self.cursors_invalidated_total += report.cursors_invalidated
        return report

    def page(self, doc_id, cursor_id: Optional[int], size: int) -> Dict[str, object]:
        """One page request, mirrored to every replica that holds the cursor.

        Cursor opens and fetches are **writes** (they advance worker-side
        cursor state), so they go to all live holders in lockstep; cursor
        behavior is deterministic, so every holder returns the same page and
        the first reply is served.  A holder dying mid-fetch costs nothing:
        the surviving holders advanced identically.
        """
        self._reap_repairs()
        cursors = self._cursor_holders.get(doc_id, {})
        if cursor_id is None:
            targets = self._write_targets(doc_id)
        else:
            holders = cursors.get(cursor_id, ())
            targets = [
                shard
                for shard in self.replicas_of[doc_id]
                if shard in holders and self.pool.is_alive(shard)
            ]
            if not targets:
                # Unknown / released / orphaned cursor: one replica produces
                # the precise worker-side error (or dead-shard error).
                targets = [self.pick_read_replica(doc_id)]
        replies, app_error, death_error, dead_seen = self._fan_out(
            targets, "page", doc_id, cursor_id, size
        )
        for shard in set(dead_seen):
            self._after_death(shard)
        if dead_seen and (replies or app_error is not None):
            self.failovers_total += 1  # the answer survived a replica death
        if not replies:
            if app_error is not None:
                # Deterministic across replicas (invalidation, released id,
                # ...): the worker-side cursor is released everywhere.
                cursors.pop(cursor_id, None)
                raise app_error
            raise death_error if death_error is not None else self._gone(doc_id)
        payload = replies[0][1]
        cursors = self._cursor_holders.setdefault(doc_id, cursors)
        if cursor_id is None:
            self._next_cursor_ids[doc_id] = self._next_cursor_ids.get(doc_id, 0) + 1
            cursor_id = payload["cursor_id"]
            release_old_cursor_ids(cursors, cursor_id)  # as the workers just did
        if payload["exhausted"]:
            cursors.pop(cursor_id, None)
        else:
            cursors[cursor_id] = {shard for shard, _payload in replies}
        return payload

    def count(self, doc_id, limit: Optional[int]) -> int:
        self._reap_repairs()
        return self._read(doc_id, "count", limit)

    def epoch(self, doc_id) -> int:
        return self._read(doc_id, "epoch")

    def remove(self, doc_id) -> None:
        self._reap_repairs()
        replies, app_error, death_error, dead_seen = self._fan_out(
            self._write_targets(doc_id), "remove", doc_id
        )
        if app_error is not None or not replies:
            # A replica refused, or none acknowledged: the document stays.
            for shard in set(dead_seen):
                self._after_death(shard)
            raise app_error if app_error is not None else death_error
        # Forget the document before handling deaths so it is not
        # re-migrated onto the respawned worker.
        for shard in self.replicas_of.pop(doc_id, []):
            self._release_placement(shard)
        self._ingest_blobs.pop(doc_id, None)
        self._edit_logs.pop(doc_id, None)
        self._next_cursor_ids.pop(doc_id, None)
        self._cursor_holders.pop(doc_id, None)
        for shard in set(dead_seen):
            self._after_death(shard)

    def stream(self, doc_id, check):
        """Answers pushed by a worker under credit, stale-checked by ``check``.

        The worker iterates the runtime's own per-answer iterator and pushes
        result chunks ahead of consumption (bounded by the credit window),
        so a long stream costs one round trip per credit grant instead of
        one per page.
        """
        self._reap_repairs()
        return fresh_answers(self._chunks(doc_id), check)

    def _chunks(self, doc_id):
        """Answer chunks of one document, failing over mid-stream.

        Streams read the least-loaded live replica; if it dies mid-stream,
        the stream reopens on a survivor and skips the answers already
        handed out — enumeration order is deterministic and identical
        across replicas, so no answer is lost, repeated or reordered.
        """
        served = 0
        attempts = 2 * len(self.pool) + 2
        # Explicit begin/finish (not a with-block): a generator suspends
        # across yields, so the span covers the stream's whole lifetime and
        # closes in the finally whenever the consumer stops.
        span = self._tracer.begin("stream", doc_id=repr(doc_id))
        ctx = None if span is None else span.context
        try:
            while True:
                shard = self.pick_read_replica(doc_id)
                stream = None
                try:
                    stream = self.pool.stream_open(shard, doc_id, STREAM_PAGE_SIZE, trace_ctx=ctx)
                    skip = served  # answers already handed out before this (re)open
                    while True:
                        chunk = self.pool.stream_next_chunk(stream)
                        if chunk is None:
                            return
                        answers, exhausted = chunk
                        if skip:
                            answers, skip = answers[skip:], max(0, skip - len(answers))
                        served += len(answers)
                        yield answers
                        if exhausted:
                            return
                except ShardDiedError:
                    attempts -= 1
                    if self.replicas == 1 or attempts <= 0:
                        raise
                    retry = self._tracer.begin("failover_retry", parent=ctx, dead_shard=shard)
                    try:
                        self._after_death(shard)
                    finally:
                        self._tracer.finish(retry)
                    self.failovers_total += 1
                finally:
                    if stream is not None:
                        self.pool.stream_close(stream)
        finally:
            self._tracer.finish(span)

    def runtime(self, doc_id):
        raise EngineError(
            f"document {doc_id!r} lives in shard worker {self.shard_of[doc_id]}; "
            "its runtime is not reachable from the parent process"
        )

    # ------------------------------------------------------------ monitoring
    def stats(self) -> Dict[str, object]:
        """Per-shard stats merged, plus the pool's protocol counters.

        Numbers are summed across shards, except ``compiled_queries`` (every
        shard loads the same standing queries), ``documents`` under
        replication (logical documents, not replicas) and the cursor
        counters, which come from this transport's monotonic per-batch
        accumulators: shard-held totals reset whenever a failover rebuilds a
        replica and double-count under replication.
        """
        self._reap_repairs()
        # Pipelined gather (all shards asked before any reply is read); a
        # dead shard reports None instead of failing the snapshot.
        per_shard = self.pool.broadcast("stats")
        merged: Dict[str, object] = {}
        for shard_stats in per_shard:
            for key, value in (shard_stats or {}).items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                if key == "compiled_queries":
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        if self.replicas > 1:
            merged["documents"] = len(self.replicas_of)
        merged["cursors_resumed_across_edit_batches"] = self.cursors_resumed_total
        merged["cursors_invalidated"] = self.cursors_invalidated_total
        merged["replicas"] = self.replicas
        merged["per_shard"] = per_shard
        shard_counters = self.pool.shard_stats()
        for index, entry in enumerate(shard_counters):
            entry["replica_of"] = [
                doc_id for doc_id, replicas in self.replicas_of.items() if index in replicas
            ]
        merged["shards"] = shard_counters
        merged["queue_depth"] = sum(s["inflight_requests"] for s in shard_counters)
        merged["streams_open"] = sum(s["streams_open"] for s in shard_counters)
        merged["streaming"] = {
            "chunks": sum(s["stream_chunks"] for s in shard_counters),
            "round_trips": sum(s["stream_round_trips"] for s in shard_counters),
            "chunk_size": STREAM_PAGE_SIZE,
        }
        merged["deaths_total"] = self.pool.deaths_total
        merged["timeouts_total"] = self.pool.timeouts_total
        merged["repairs_pending"] = len(self._repairs)
        return merged

    def gather(self, op: str) -> list:
        self._reap_repairs()
        return [reply for reply in self.pool.broadcast(op) if reply is not None]

    def merge_metrics(self, registry) -> None:
        for wire in self.gather("metrics"):
            registry.merge_wire(wire)
        registry.counters["shard_deaths_total"] = self.pool.deaths_total
        registry.counters["shard_timeouts_total"] = self.pool.timeouts_total

    def close(self) -> None:
        self.pool.close()
        for table in (
            self.replicas_of,
            self._cursor_holders,
            self._next_cursor_ids,
            self._ingest_blobs,
            self._edit_logs,
            self._repairs,
        ):
            table.clear()
