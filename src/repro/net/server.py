"""`EngineServer`: the asyncio front door of one :class:`repro.Engine`.

The server listens on TCP and/or a unix socket and multiplexes many
concurrent client connections onto one engine.  The wire speaks the framed
canonical codec of :mod:`repro.net.framing` (no pickle), and requests carry
the same ``(request_id, op, *args)`` shape as the pipelined shard protocol
of :mod:`repro.engine.sharding` — the network tier is that protocol with a
socket instead of a pipe and a safe codec instead of pickle:

* a versioned **HELLO** opens every connection: the client sends
  ``[0, "hello", {"protocol": N}]`` and the server answers with its
  protocol revision and per-connection limits, or a typed error frame on a
  revision mismatch;
* **requests** (``compile``, ``add_documents``, ``apply_edits``, ``page``,
  ``count``, ``epoch``, ``remove``, ``stats``, ``metrics``, ``events``,
  ``ping``) execute against the engine on a single executor thread — the
  engine is not thread-safe, and one serialized lane per server preserves
  the engine's own request ordering — and answer ``[rid, "ok", payload]``
  or ``[rid, "err", exc]`` with the engine's *original* error type encoded
  in the frame;
* **streams** reuse the credit-window push semantics end to end, and the
  shard worker's producer record (:class:`~repro.engine.sharding.PushStream`):
  the client opens a stream with an initial credit, the server pushes
  ``[rid, "chunk", answers, exhausted]`` frames ahead of consumption while
  credit lasts, and ``stream_credit`` frames replenish the window.  The
  server-side producer is the engine's own ``stream()`` — so on a sharded
  engine the client's credit gates the server loop, which in turn consumes
  the shard pool's credit window from the workers, and a mid-stream shard
  death fails over inside the engine without the client seeing anything.
  A ``stream_open`` whose chunk size or credit is not an int of at least 1
  (a bool is none) is refused with a typed error frame, and a grant whose
  ``n`` is not one ends its stream with one; a grant for a stream that is
  not open is ignored.

Per-connection limits (``max_frame_bytes``, ``max_streams``,
``idle_timeout``) protect the server from misbehaving peers: a malformed
or oversized frame raises a precise :class:`~repro.errors.ProtocolError`
and closes **that connection only** (a framing violation leaves no
recoverable frame boundary), while a stream-limit breach, and an outgoing
reply or stream chunk over the frame limit, are answered with a typed
error frame on a connection that stays usable.  Observability
hooks into the engine's obs layer: ``net_request_seconds`` round-trip
histograms, ``net_connect`` / ``net_disconnect`` / ``net_protocol_error``
events, and a ``net:<op>`` span around every engine call so a traced
engine links client request → server → shard in one trace.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.engine.document import STREAM_PAGE_SIZE
from repro.engine.sharding import PushStream
from repro.errors import EngineError, ProtocolError
from repro.net.framing import (
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame_async,
)

__all__ = ["EngineServer"]

#: concurrently open streams one connection may hold (default)
DEFAULT_MAX_STREAMS = 32


def _is_count(value) -> bool:
    """A chunk size or credit: an int of at least 1 (a bool is no count)."""
    return type(value) is int and value >= 1


class _ServerStream(PushStream):
    """A push stream of one connection, with its pump task and the event
    that wakes the pump when credit arrives."""

    __slots__ = ("refill", "closed", "task")

    def __init__(self, iterator, chunk_size: int, credit: int):
        super().__init__(iterator, chunk_size, credit)
        self.refill = asyncio.Event()
        self.closed = False
        self.task: Optional[asyncio.Task] = None


class EngineServer:
    """Serve one :class:`repro.Engine` to network clients.

    Parameters
    ----------
    engine:
        The engine to serve (any mode: in-process, sharded, replicated).
        The server does not own it — closing the server leaves the engine
        running.
    host / port:
        TCP listen address.  ``port=0`` (default) picks a free port,
        readable from :attr:`address` after :meth:`start`.  ``host=None``
        disables TCP (unix socket only).
    unix_path:
        Optional unix-domain socket path to additionally listen on.
    max_frame_bytes:
        Per-frame byte ceiling in both directions, at least
        :data:`~repro.net.framing.MIN_FRAME_BYTES`; an incoming frame over
        it is rejected with :class:`~repro.errors.ProtocolError` and the
        connection dropped, and an outgoing reply or chunk over it is
        replaced by a typed error frame (the connection is dropped if that
        frame is refused too).
    max_streams:
        Concurrently open streams one connection may hold; a breach is
        answered with a typed error frame (connection stays usable).
    idle_timeout:
        Seconds a connection may sit with no incoming frame before the
        server drops it (``None`` = forever).
    """

    def __init__(
        self,
        engine,
        host: Optional[str] = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_streams: int = DEFAULT_MAX_STREAMS,
        idle_timeout: Optional[float] = None,
    ):
        if host is None and unix_path is None:
            raise EngineError("EngineServer needs a TCP host and/or a unix_path")
        if max_frame_bytes < MIN_FRAME_BYTES:
            raise EngineError(
                f"max_frame_bytes must be >= {MIN_FRAME_BYTES}, got {max_frame_bytes}"
            )
        if max_streams < 1:
            raise EngineError(f"max_streams must be >= 1, got {max_streams}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise EngineError(
                f"idle_timeout must be positive (None disables), got {idle_timeout}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_frame_bytes = max_frame_bytes
        self.max_streams = max_streams
        self.idle_timeout = idle_timeout
        self.address: Optional[Tuple[str, int]] = None  #: (host, port) once started
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._servers = []
        #: one serialized lane for every engine call — the engine is not
        #: thread-safe, and a single lane preserves its request ordering
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-engine"
        )
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        self._connections = 0

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "EngineServer":
        """Start listening (background event-loop thread); returns ``self``."""
        if self._thread is not None:
            raise EngineError("this server was already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-net-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._startup_error = None
            self.stop()
            raise error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._open_listeners())
        except BaseException as exc:  # noqa: BLE001 — surfaced to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    async def _open_listeners(self) -> None:
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self._servers.append(server)
            self.address = server.sockets[0].getsockname()[:2]
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, self.unix_path
            )
            self._servers.append(server)

    def stop(self) -> None:
        """Stop listening and drop every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():

            def _shutdown():
                for server in self._servers:
                    server.close()
                loop.stop()

            loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "EngineServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # --------------------------------------------------------------- engine ops
    async def _run_engine(self, op: str, fn):
        """Execute one engine call on the serialized engine lane."""
        loop = asyncio.get_running_loop()

        def call():
            start = perf_counter()
            tracer = self.engine._tracer
            try:
                with tracer.span(f"net:{op}"):
                    return fn()
            finally:
                self.engine._metrics.observe("net_request_seconds", perf_counter() - start)

        return await loop.run_in_executor(self._executor, call)

    def _dispatch(self, op: str, args: list):
        """The engine call of one non-stream request (runs on the lane)."""
        engine = self.engine
        if op == "compile":
            from repro.automata.serialize import query_from_payload

            (payload,) = args
            query = engine.compile(query_from_payload(payload))
            return {"digest": query.digest, "kind": query.kind}
        if op == "add_documents":
            (items,) = args
            contents, queries, doc_ids = [], [], []
            for row in items:
                if not (isinstance(row, (list, tuple)) and len(row) == 3):
                    raise ProtocolError(
                        "add_documents items must be [doc_id, content, digest] rows"
                    )
                doc_id, content, digest = row
                query = engine._queries.get(digest)
                if query is None:
                    raise ProtocolError(
                        f"no compiled query with digest {str(digest)[:12]}... on "
                        "this connection's server; send compile before add_documents"
                    )
                contents.append(content)
                queries.append(query)
                doc_ids.append(doc_id)
            # Name every document the engine registered, in item order, even
            # when an item fails: the client registers them, then raises.
            rows = engine._prepare_ingest(
                contents, query=None, queries=queries, doc_ids=doc_ids, alphabet=None
            )
            landed = [None] * len(rows)
            try:
                for index, document in engine._ingest(rows):
                    landed[index] = document.doc_id
            except Exception as exc:  # noqa: BLE001 — travels back in the reply
                return {"doc_ids": landed, "error": exc}
            return {"doc_ids": landed, "error": None}
        if op == "apply_edits":
            doc_id, edits = args
            return engine.apply_edits(doc_id, list(edits))
        if op == "page":
            doc_id, cursor_id, size = args
            if cursor_id is None:
                page = engine._page(doc_id, None, size)
            else:
                page = engine._page(doc_id, cursor_id, None)
            return {
                "answers": page.answers,
                "offset": page.offset,
                "exhausted": page.exhausted,
                "cursor_id": page.cursor_id,
                "epoch": page.epoch,
            }
        if op == "count":
            doc_id, limit = args
            return engine._count(doc_id, limit)
        if op == "epoch":
            return engine._doc_epoch(args[0])
        if op == "remove":
            engine.remove(args[0])
            return None
        if op == "stats":
            return engine.stats()
        if op == "metrics":
            return engine.metrics()
        if op == "events":
            return engine.events()
        if op == "ping":
            return "pong"
        raise ProtocolError(f"unknown request op {op!r}")

    # -------------------------------------------------------------- connections
    async def _handle_connection(self, reader, writer) -> None:
        peer = self._peer(writer)
        self._connections += 1
        self.engine._events.emit("net_connect", peer=peer)
        write_lock = asyncio.Lock()
        streams: Dict[int, _ServerStream] = {}
        reason = "eof"
        try:
            if not await self._handshake(reader, writer, write_lock):
                reason = "bad-hello"
                return
            while True:
                try:
                    if self.idle_timeout is not None:
                        frame = await asyncio.wait_for(
                            recv_frame_async(reader, self.max_frame_bytes),
                            timeout=self.idle_timeout,
                        )
                    else:
                        frame = await recv_frame_async(reader, self.max_frame_bytes)
                except asyncio.TimeoutError:
                    reason = "idle-timeout"
                    return
                if frame is None:
                    return  # clean EOF: the client closed
                request_id, op, args = self._parse_request(frame)
                if op == "stream_open":
                    await self._stream_open(
                        request_id, args, streams, reader, writer, write_lock, peer
                    )
                elif op == "stream_credit":
                    # A grant for a stream that is not open (it ended while
                    # the grant was on its way) is ignored.
                    stream = streams.get(request_id)
                    if stream is not None and len(args) == 1 and _is_count(args[0]):
                        stream.credit += args[0]
                        stream.refill.set()
                    elif stream is not None:
                        self._stream_drop(streams, request_id)
                        error = ProtocolError("stream_credit takes [n], an int n >= 1")
                        await self._send(writer, write_lock, [request_id, "err", error])
                elif op == "stream_close":
                    self._stream_drop(streams, request_id)
                else:
                    await self._answer(request_id, op, args, writer, write_lock)
        except ProtocolError as exc:
            # A framing violation leaves no frame boundary to resume at, and
            # a refused error frame leaves a request unanswered: either way
            # this connection closes.
            reason = f"protocol-error: {exc}"
            self.engine._events.emit("net_protocol_error", peer=peer, error=str(exc))
        except asyncio.CancelledError:
            # Server shutdown cancels connection tasks; ending the task
            # cleanly (instead of re-raising) keeps asyncio's stream
            # machinery from logging the cancellation as an error.
            reason = "server-stopped"
        except (ConnectionError, OSError) as exc:
            reason = f"connection-lost: {exc}"
        finally:
            for request_id in list(streams):
                self._stream_drop(streams, request_id)
            self._connections -= 1
            self.engine._events.emit("net_disconnect", peer=peer, reason=reason)
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001 — peer gone
                pass

    async def _handshake(self, reader, writer, write_lock) -> bool:
        """The versioned HELLO exchange; False closes the connection."""
        try:
            frame = await recv_frame_async(reader, self.max_frame_bytes)
        except ProtocolError:
            return False
        ok = (
            isinstance(frame, list)
            and len(frame) == 3
            and frame[1] == "hello"
            and isinstance(frame[2], dict)
        )
        revision = frame[2].get("protocol") if ok else None
        if not ok or revision != PROTOCOL_VERSION:
            error = ProtocolError(
                f"protocol revision mismatch: this server speaks revision "
                f"{PROTOCOL_VERSION}, the client offered {revision!r}"
                if ok
                else "the first frame of a connection must be "
                "[0, 'hello', {'protocol': N}]"
            )
            await self._send(writer, write_lock, [0, "err", error])
            return False
        await self._send(
            writer,
            write_lock,
            [
                0,
                "ok",
                {
                    "protocol": PROTOCOL_VERSION,
                    "page_size": self.engine.page_size,
                    "chunk_size": STREAM_PAGE_SIZE,
                    "max_frame_bytes": self.max_frame_bytes,
                    "max_streams": self.max_streams,
                },
            ],
        )
        return True

    @staticmethod
    def _parse_request(frame) -> Tuple[int, str, list]:
        if not (
            isinstance(frame, list)
            and len(frame) >= 2
            and isinstance(frame[0], int)
            and isinstance(frame[1], str)
        ):
            raise ProtocolError(
                "malformed request frame: expected [request_id, op, *args]"
            )
        return frame[0], frame[1], frame[2:]

    @staticmethod
    def _peer(writer) -> str:
        return repr(writer.get_extra_info("peername") or writer.get_extra_info("sockname"))

    async def _send(self, writer, write_lock, frame_value) -> bool:
        """Send one frame; False if the codec refused it (over the frame
        limit, or a value the wire cannot carry) and a typed error frame
        went in its place, on a connection that stays usable.  Raises
        :class:`~repro.errors.ProtocolError` if the error frame is refused
        too; the connection's task then closes the connection."""
        try:
            data, sent = encode_frame(frame_value, self.max_frame_bytes), True
        except ProtocolError as exc:
            error = ProtocolError(f"reply not sent: {exc}")
            self.engine._events.emit("net_protocol_error", peer=self._peer(writer), error=str(error))
            try:
                data = encode_frame([frame_value[0], "err", error], self.max_frame_bytes)
            except ProtocolError as refused:
                raise ProtocolError(f"error frame not sent: {refused}") from None
            sent = False
        async with write_lock:
            writer.write(data)
            await writer.drain()
        return sent

    async def _answer(self, request_id, op, args, writer, write_lock) -> None:
        try:
            payload = await self._run_engine(op, lambda: self._dispatch(op, args))
        except BaseException as exc:  # noqa: BLE001 — every failure travels back
            await self._send(writer, write_lock, [request_id, "err", exc])
            return
        await self._send(writer, write_lock, [request_id, "ok", payload])

    # ------------------------------------------------------------------ streams
    async def _stream_open(
        self, request_id, args, streams, reader, writer, write_lock, peer
    ) -> None:
        if request_id in streams:
            raise ProtocolError(f"stream request id {request_id} is already open")
        if len(streams) >= self.max_streams:
            # A limit breach is a typed error on a connection that stays
            # usable — unlike a framing violation, nothing is corrupted.
            error = ProtocolError(
                f"connection stream limit reached ({self.max_streams} open); "
                "close a stream before opening another"
            )
            self.engine._events.emit("net_protocol_error", peer=peer, error=str(error))
            await self._send(writer, write_lock, [request_id, "err", error])
            return
        if not (len(args) == 3 and all(_is_count(n) for n in args[1:])):
            await self._send(
                writer,
                write_lock,
                [
                    request_id,
                    "err",
                    ProtocolError(
                        "stream_open takes [doc_id, chunk_size >= 1, credit >= 1]"
                    ),
                ],
            )
            return
        doc_id, chunk_size, credit = args
        try:
            iterator = await self._run_engine(
                "stream_open", lambda: iter(self.engine._stream(doc_id))
            )
        except BaseException as exc:  # noqa: BLE001 — unknown doc, closed engine...
            await self._send(writer, write_lock, [request_id, "err", exc])
            return
        stream = streams[request_id] = _ServerStream(iterator, chunk_size, credit)
        stream.task = asyncio.get_running_loop().create_task(
            self._pump(request_id, stream, streams, reader, writer, write_lock)
        )

    async def _pump(self, request_id, stream, streams, reader, writer, write_lock) -> None:
        """Push chunks of one stream to the client while its credit lasts."""

        def pull():
            with self.engine._tracer.span("net:stream_chunk"):
                return stream.next_chunk()

        loop = asyncio.get_running_loop()
        try:
            while not stream.closed:
                if stream.credit <= 0:
                    stream.refill.clear()
                    await stream.refill.wait()
                    continue
                try:
                    answers, exhausted = await loop.run_in_executor(
                        self._executor, pull
                    )
                except BaseException as exc:  # noqa: BLE001 — stale, shard death...
                    if not stream.closed:
                        await self._send(writer, write_lock, [request_id, "err", exc])
                    return
                if stream.closed:
                    return
                stream.credit -= 1
                sent = await self._send(
                    writer, write_lock, [request_id, "chunk", answers, exhausted]
                )
                if exhausted or not sent:
                    return
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            # The error frame was refused: the connection's task, woken in
            # its read, closes the connection.
            reader.set_exception(exc)
        except Exception:  # noqa: BLE001 — the connection died under the pump
            pass
        finally:
            streams.pop(request_id, None)
            close = getattr(stream.iterator, "close", None)
            if close is not None:
                # Run the generator's finalizer on the engine lane: it sends
                # the shard-side stream_close through the pool.
                try:
                    await loop.run_in_executor(self._executor, close)
                except Exception:  # noqa: BLE001
                    pass

    @staticmethod
    def _stream_drop(streams: Dict[int, _ServerStream], request_id: int) -> None:
        stream = streams.pop(request_id, None)
        if stream is None:
            return
        stream.closed = True
        stream.refill.set()  # wake a credit-blocked pump so it can exit
        if stream.task is not None:
            stream.task.cancel()

    def __repr__(self) -> str:  # pragma: no cover
        where = []
        if self.address is not None:
            where.append(f"tcp={self.address[0]}:{self.address[1]}")
        if self.unix_path is not None:
            where.append(f"unix={self.unix_path}")
        return f"EngineServer({', '.join(where) or 'not started'}, connections={self._connections})"
