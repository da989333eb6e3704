"""`RemoteEngine`: an :class:`repro.Engine` whose transport is a socket.

A ``RemoteEngine`` connects to an :class:`~repro.net.server.EngineServer`
over TCP or a unix socket.  It *is* an ``Engine``: the facade — argument
checks and their errors, the document table, the epoch mirror, the
``Query`` / :class:`~repro.engine.document.Document` /
:class:`~repro.engine.document.ResultPage` /
:class:`~repro.engine.local.BatchUpdateReport` objects — is the one every
engine has, and only the transport differs.  Errors keep their original
types (:class:`~repro.errors.CursorInvalidatedError` with its report,
:class:`~repro.errors.StaleIteratorError`,
:class:`~repro.errors.ShardDiedError`, ...) and answers are byte-identical,
so code written against a local engine runs unchanged against a remote one.

:class:`SocketTransport` is a single-threaded demultiplexer over one
socket.  It is the shard pool's consumer record,
:class:`~repro.engine.sharding.Channel`, for one connection: requests carry
fresh ids, and the record's one rule files every reply frame under the
request it answers and every stream chunk in its stream's buffer, so a
stream being consumed never blocks an interleaved ``page()`` on the same
connection.  Streams use the pool's credit-window consumer
(:func:`~repro.engine.sharding.take_chunk`) and the pool's one window,
:data:`~repro.engine.sharding.STREAM_CREDIT` chunks per stream.  What stays
here is how a frame is read, and the penalty for a bad one: a failure that
leaves the byte stream unreadable, gone or untrustworthy — a framing error,
a well-framed but malformed reply, an end of file, a socket error, a
timeout after part of a frame was read — closes the connection.  Every
later call, and every open stream once its buffered chunks are read, then
raises one :class:`~repro.errors.ProtocolError` naming that first failure.
A timeout before any byte of a reply keeps the connection; the reply, when
it comes, answers no call and is dropped.

What stays client-specific: ``compile`` ships the canonical payload (never
a pickle) and checks the server's digest against its own, so a codec
divergence surfaces as a loud :class:`~repro.errors.ProtocolError` instead
of silently serving the wrong query — it never compiles on the client;
auto ids are assigned by the server, which several clients may share; and
``stats()`` / ``metrics()`` / ``events()`` are the server engine's, with
the client's ``net`` counters added.
"""

from __future__ import annotations

import itertools
import socket
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.automata.serialize import query_payload
from repro.engine.document import STREAM_PAGE_SIZE
from repro.engine.engine import Engine
from repro.engine.local import Transport, engine_closed
from repro.engine.sharding import (
    STREAM_CREDIT,
    Channel,
    ShardStream,
    fresh_answers,
    take_chunk,
)
from repro.errors import EngineError, ProtocolError
from repro.net.framing import (
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    PROTOCOL_VERSION,
    is_count,
    recv_frame,
    send_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, trace_path_from_env

__all__ = ["RemoteEngine", "SocketTransport"]


class SocketTransport(Channel, Transport):
    """One connection to an :class:`~repro.net.server.EngineServer`, and its
    consumer record.

    Connecting sends the versioned HELLO; :attr:`server_info` holds the
    reply.  ``metrics`` is the client-side registry (``net_*`` histograms
    and counters).
    """

    def __init__(self, address, unix_path, max_frame_bytes: int, timeout: Optional[float]):
        super().__init__()
        self.max_frame_bytes = max_frame_bytes
        self.timeout = timeout
        if address is not None:
            self._sock = socket.create_connection(tuple(address), timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
        self._closed = False
        self._close_reason = "closed by the client"
        self._request_ids = itertools.count(1)
        self.metrics = MetricsRegistry()
        self.stream_stalls_total = 0
        try:
            if address is None:
                self._sock.connect(unix_path)
            self.server_info = self._hello()
        except BaseException:
            self.close()
            raise
        self.chunk_size = self.server_info.get("chunk_size", STREAM_PAGE_SIZE)

    def _hello(self) -> Dict[str, object]:
        send_frame(self._sock, [0, "hello", {"protocol": PROTOCOL_VERSION}], self.max_frame_bytes)
        reply = self._recv_raw()
        if not (isinstance(reply, list) and len(reply) == 3 and reply[0] == 0):
            raise ProtocolError("malformed HELLO reply from server")
        if reply[1] == "err" and isinstance(reply[2], BaseException):
            raise reply[2]
        if reply[1] != "ok" or not isinstance(reply[2], dict):
            raise ProtocolError("malformed HELLO reply from server")
        return reply[2]

    # -------------------------------------------------------------- framing
    def _fail(self, reason: str) -> ProtocolError:
        """Close a connection that can no longer be read, written or
        trusted; every later call, and every open stream, raises a
        :class:`ProtocolError` naming ``reason``."""
        if not self._closed:
            self._close_reason = reason
            self.die(self._closed_error)
            self.close()
        return ProtocolError(reason)

    def _closed_error(self) -> ProtocolError:
        return ProtocolError(f"the connection to the server is closed ({self._close_reason})")

    def _check_usable(self) -> None:
        if self._closed:
            raise self._closed_error()

    def _send(self, frame_value) -> None:
        self._check_usable()
        try:
            # Stream closes deferred from generator finalizers go out first,
            # so they can never interleave inside another frame's bytes.
            for request_id in self.take_closes():
                send_frame(self._sock, [request_id, "stream_close"], self.max_frame_bytes)
            send_frame(self._sock, frame_value, self.max_frame_bytes)
        except OSError as exc:  # a timeout included: part of the frame may be out
            raise self._fail(f"connection lost while sending: {exc}") from exc

    def _recv_raw(self):
        self._check_usable()
        try:
            frame = recv_frame(self._sock, self.max_frame_bytes)
        except socket.timeout:
            # Nothing of the next frame was read: the connection stays in step.
            raise ProtocolError(
                f"timed out after {self.timeout}s waiting for the server"
            ) from None
        except ProtocolError as exc:
            raise self._fail(str(exc)) from exc
        except OSError as exc:
            raise self._fail(f"connection lost: {exc}") from exc
        if frame is None:
            raise self._fail("the server closed the connection")
        return frame

    def _recv_one(self) -> None:
        """Receive one reply frame and file it (:meth:`Channel.file`); a
        malformed one closes the connection."""
        frame = self._recv_raw()
        try:
            entry = self.file(frame)
        except ProtocolError as error:
            raise self._fail(f"the server sent a {error}") from None
        if entry is not None:
            self.metrics.observe("net_round_trip_seconds", perf_counter() - entry[1])
        elif frame[1] == "chunk":
            self.metrics.inc("net_stream_chunks_total")

    def call(self, op: str, *args):
        """One round trip: send ``[rid, op, *args]``, wait for its reply."""
        request_id = next(self._request_ids)
        self.inflight[request_id] = (op, perf_counter())
        try:
            self._send([request_id, op, *args])
            return self.reply(request_id, self._recv_one)
        finally:
            # A request that timed out is withdrawn: its late reply is dropped.
            self.inflight.pop(request_id, None)

    # ------------------------------------------------------------------ ops
    def ingest(self, items, trace_ctx=None):
        """One round trip for the whole batch; the server assigns auto ids
        and names every document it registered, even when an item failed."""
        reply = self.call(
            "add_documents",
            [[doc_id, content, query.digest] for doc_id, content, query in items],
        )
        landed = reply.get("doc_ids") if isinstance(reply, dict) else None
        if not isinstance(landed, (list, tuple)) or len(landed) != len(items):
            raise ProtocolError("malformed add_documents reply from server")
        for index, doc_id in enumerate(landed):
            if doc_id is not None:
                yield index, doc_id
        if reply.get("error") is not None:
            raise reply["error"]

    def edits(self, doc_id, edits):
        return self.call("apply_edits", doc_id, edits)

    def page(self, doc_id, cursor_id: Optional[int], size: int) -> Dict[str, object]:
        payload = self.call("page", doc_id, cursor_id, size)
        if not isinstance(payload, dict):
            raise ProtocolError("malformed page reply from server")
        return payload

    def count(self, doc_id, limit: Optional[int]) -> int:
        return self.call("count", doc_id, limit)

    def epoch(self, doc_id) -> int:
        return self.call("epoch", doc_id)

    def remove(self, doc_id) -> None:
        self.call("remove", doc_id)

    def runtime(self, doc_id):
        raise EngineError(
            f"document {doc_id!r} lives in the server process; "
            "its runtime is not reachable over the network"
        )

    def stream(self, doc_id, check):
        """A credit-window push stream, opened now (demuxed)."""
        request_id = next(self._request_ids)
        self._send([request_id, "stream_open", doc_id, self.chunk_size, STREAM_CREDIT])
        self.metrics.inc("net_stream_round_trips_total")
        return fresh_answers(self._chunks(self.open_stream(None, request_id)), check)

    def _chunks(self, stream: ShardStream):
        def grant(tokens: int) -> None:
            self._send([stream.request_id, "stream_credit", tokens])
            self.stream_round_trips += 1
            self.metrics.inc("net_stream_round_trips_total")

        try:
            while True:
                chunk, stalled = take_chunk(stream, self._recv_one, grant)
                if stalled is not None:
                    self.metrics.observe("net_stream_stall_seconds", stalled)
                    self.stream_stalls_total += 1
                if chunk is None:
                    return
                yield chunk[0]
                if chunk[1]:
                    return
        finally:
            self.abandon(stream)

    def close(self) -> None:
        """Close the connection (idempotent); every open stream raises
        ``EngineError("this engine is closed")`` once its buffered chunks are
        read.  Server-side state is dropped by the server's disconnect
        handling."""
        if self._closed:
            return
        self._closed = True
        self.die(engine_closed)
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def _check_chunk_size(size) -> None:
    """Refuse, where it is set, a chunk size the server would refuse at every
    ``stream_open``."""
    if not is_count(size):
        raise EngineError(f"stream_chunk_size must be an int >= 1, got {size!r}")


class RemoteEngine(Engine):
    """An :class:`~repro.Engine` served by one :class:`~repro.net.server.EngineServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server's TCP listener (usually
        ``server.address``).  Mutually optional with ``unix_path``.
    unix_path:
        Path of the server's unix socket (used when ``address`` is None).
    page_size:
        Default ``page()`` size; ``None`` inherits the server engine's.
    stream_chunk_size:
        Answers per pushed stream chunk, an int of at least 1 (the rule the
        server applies at ``stream_open``); ``None`` inherits the server's.
    max_frame_bytes:
        Per-frame byte ceiling in both directions, at least
        :data:`~repro.net.framing.MIN_FRAME_BYTES`.
    timeout:
        Socket timeout in seconds for every reply wait (``None`` = block
        forever); an expiry raises :class:`~repro.errors.ProtocolError`,
        and closes the connection if part of a frame was read.
    """

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        *,
        unix_path: Optional[str] = None,
        page_size: Optional[int] = None,
        stream_chunk_size: Optional[int] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ):
        if (address is None) == (unix_path is None):
            raise EngineError("pass exactly one of address=(host, port) or unix_path=")
        if page_size is not None and page_size < 1:
            raise EngineError("page_size must be >= 1")
        if max_frame_bytes < MIN_FRAME_BYTES:
            raise EngineError(
                f"max_frame_bytes must be >= {MIN_FRAME_BYTES}, got {max_frame_bytes}"
            )
        if stream_chunk_size is not None:
            _check_chunk_size(stream_chunk_size)
        # Engine's constructor builds an in-process or fleet transport; a
        # remote engine starts from the same facade state over a socket.
        transport = SocketTransport(address, unix_path, max_frame_bytes, timeout)
        self.server_info = transport.server_info
        self._open(
            int(page_size) if page_size is not None else self.server_info["page_size"],
            Tracer(enabled=trace_path_from_env() is not None, process="client"),
        )
        self._transport = transport
        self._streams = transport.streams
        if stream_chunk_size is not None:
            self.stream_chunk_size = stream_chunk_size

    @property
    def stream_chunk_size(self) -> int:
        """Answers per pushed stream chunk, read at each ``stream()``."""
        return self._transport.chunk_size

    @stream_chunk_size.setter
    def stream_chunk_size(self, size: int) -> None:
        _check_chunk_size(size)
        self._transport.chunk_size = size

    def _call(self, op: str, *args):
        self._check_open()
        return self._transport.call(op, *args)

    def _auto_doc_id(self, claimed):
        return None  # the server assigns it: clients sharing a server never collide

    def _compiled_entry(self, kind: str, source, digest: str) -> None:
        """Compile on the server, never here: the canonical payload travels
        (never a pickle), and the server's digest must match the one
        computed locally."""
        reply = self._call("compile", query_payload(source))
        if not (isinstance(reply, dict) and reply.get("digest") == digest):
            raise ProtocolError(
                f"query digest mismatch: client computed {digest[:12]}..., server "
                f"answered {str(reply.get('digest') if isinstance(reply, dict) else reply)[:12]}... "
                "(codec divergence between client and server)"
            )
        return None

    # ------------------------------------------------------------- monitoring
    def net_stats(self) -> Dict[str, object]:
        """Client-side transport counters."""
        transport = self._transport
        return {
            "chunks": transport.stream_chunks,
            "round_trips": transport.stream_round_trips,
            "stalls": transport.stream_stalls_total,
            "open_streams": len(self._streams),
        }

    def stats(self) -> Dict[str, object]:
        """The server engine's :meth:`~repro.Engine.stats`, plus a ``net``
        section with this client's transport counters."""
        payload = self._call("stats")
        payload["net"] = self.net_stats()
        return payload

    def metrics(self) -> Dict[str, object]:
        """The server engine's metrics, overlaid with this client's
        ``net_*`` histograms and counters."""
        payload = self._call("metrics")
        payload.update(self._transport.metrics.snapshot())
        return payload

    def events(self) -> List[Dict[str, object]]:
        """The server engine's merged operational event log."""
        return self._call("events")

    def ping(self) -> str:
        return self._call("ping")
