"""Tests for the network serving tier (PR 9).

Covers the wire codec (round trips, hardening, byte-corruption fuzz), the
canonical-payload codec hardening in :mod:`repro.automata.serialize`, the
stream consumer and its credit grants
(:func:`~repro.engine.sharding.take_chunk`), the server's
per-connection limits and HELLO versioning, typed error propagation over
real TCP, catalog leases + concurrent ``gc()``, and the incremental
(completion-order) ingest path.  The transcript-exactness of the network
tier against the in-process oracle lives in
``test_fuzz_differential.TestNetworkDifferential``.
"""

from __future__ import annotations

import contextlib
import json
import logging
import multiprocessing
import os
import random
import re
import socket
import sys
import threading
import time

import pytest

from repro import Engine, queries
from repro.automata.serialize import (
    MAX_PAYLOAD_BYTES,
    canonical_json,
    loads_payload,
    query_digest,
    query_from_payload,
    query_payload,
)
from repro.engine.catalog import QueryCatalog
from repro.engine.document import STREAM_PAGE_SIZE
from repro.engine.sharding import STREAM_CREDIT, Channel, ShardStream, take_chunk
from repro.core.results import UpdateStats
from repro.engine.local import BatchUpdateReport
from repro.errors import (
    CodecError,
    CursorInvalidatedError,
    EngineError,
    InvalidAutomatonError,
    ProtocolError,
    ReproError,
    ServingError,
    ShardDiedError,
    ShardProtocolError,
    ShardTimeoutError,
    StaleIteratorError,
)
from repro.net import EngineServer, RemoteEngine
from repro.net.framing import (
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame_body,
    decode_wire,
    encode_frame,
    encode_wire,
    recv_frame,
    send_frame,
)
from repro.engine.cursor import CursorInvalidation
from repro.trees.edits import Delete, Insert, InsertRight, Relabel
from repro.trees.generators import star_tree
from repro.trees.unranked import UnrankedTree


def _fork_or_skip():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip(f"fork start method unavailable on {sys.platform}")


def _tree():
    return UnrankedTree.from_nested(("c", [("a", ["b", "a"]), ("b", ["a"]), "a"]))


# ===================================================== wire codec round trips
class TestWireCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**70,
            "",
            "héllo\n",
            1.5,
            -0.0,
            (),
            (1, "two", None),
            ((1, 2), (3, (4,))),
            frozenset(),
            frozenset({1, 2, 3}),
            frozenset({("x", 1), ("y", 2)}),
            [],
            [1, [2, [3]]],
            {},
            {"b": 1, "a": [2], "nested": {"k": (1, 2)}},
            {1: "int key", ("t", 0): "tuple key"},
        ],
    )
    def test_value_round_trip(self, value):
        assert decode_wire(encode_wire(value)) == value

    def test_float_round_trip_is_exact(self):
        for value in (0.1, 1e-300, float("inf"), float("-inf"), 3.141592653589793):
            assert decode_wire(encode_wire(value)) == value

    def test_tree_round_trip_preserves_node_ids(self):
        tree = _tree()
        clone = decode_wire(encode_wire(tree))
        assert isinstance(clone, UnrankedTree)
        original = [(n.node_id, n.label, None if n.parent is None else n.parent.node_id)
                    for n in tree.nodes()]
        decoded = [(n.node_id, n.label, None if n.parent is None else n.parent.node_id)
                   for n in clone.nodes()]
        assert decoded == original
        assert clone._next_id == tree._next_id
        # Edits against original node ids apply to the clone: the wire
        # transfer must not renumber (the whole protocol depends on it).
        Relabel(1, "b").apply_to_tree(clone)
        assert clone._nodes[1].label == "b"

    @pytest.mark.parametrize(
        "edit",
        [Relabel(3, "b"), Insert(0, "c"), InsertRight(2, "a"), Delete(4)],
    )
    def test_tree_edit_round_trip(self, edit):
        clone = decode_wire(encode_wire(edit))
        assert type(clone) is type(edit)
        assert clone == edit

    def test_report_round_trip(self):
        report = BatchUpdateReport(
            document_id="doc-1",
            epoch=7,
            stats=[UpdateStats(10, 3, 0.25, new_node_id=12, new_position_id=None)],
            boxes_rebuilt=4,
            cursors_resumed=2,
            cursors_invalidated=1,
        )
        clone = decode_wire(encode_wire(report))
        assert isinstance(clone, BatchUpdateReport)
        assert clone.document_id == "doc-1" and clone.epoch == 7
        assert clone.boxes_rebuilt == 4
        assert clone.cursors_resumed == 2 and clone.cursors_invalidated == 1
        assert len(clone.stats) == 1
        stat = clone.stats[0]
        assert (stat.trunk_size, stat.rebuilt_subterm_size) == (10, 3)
        assert stat.seconds == 0.25 and stat.new_node_id == 12
        assert stat.new_position_id is None

    def test_exception_round_trip_preserves_type_and_message(self):
        for exc in (
            ServingError("no document with id 9"),
            EngineError("this engine is closed"),
            StaleIteratorError("document was edited"),
            ShardDiedError("shard 2 died"),
            ProtocolError("bad frame"),
        ):
            clone = decode_wire(encode_wire(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)

    def test_shard_timeout_round_trip_preserves_attrs(self):
        exc = ShardTimeoutError(
            "shard 1 exceeded the deadline", shard=1, op="page", elapsed=2.5, deadline=2.0
        )
        clone = decode_wire(encode_wire(exc))
        assert type(clone) is ShardTimeoutError
        assert isinstance(clone, ShardDiedError)
        assert clone.shard == 1 and clone.op == "page"
        assert clone.elapsed == 2.5 and clone.deadline == 2.0

    def test_cursor_invalidated_round_trip_preserves_report(self):
        report = CursorInvalidation(
            cursor_id=3,
            document_id="d",
            base_epoch=1,
            invalidated_epoch=2,
            answers_delivered=5,
            edit="delete node 4",
            boxes_hit=2,
            regions=(("a", 4, 9, (0, 2)), ("r", 0, 17, (1,))),
        )
        exc = CursorInvalidatedError("cursor 3 invalidated", report=report)
        clone = decode_wire(encode_wire(exc))
        assert type(clone) is CursorInvalidatedError
        assert isinstance(clone.report, CursorInvalidation)
        assert clone.report.answers_delivered == 5
        assert clone.report.invalidated_epoch == 2
        # the overlap regions survive the wire exactly (tuples, not lists),
        # so the client-side report text equals the server-side one
        assert clone.report.regions == report.regions
        assert clone.report.describe() == report.describe()

    def test_unknown_exception_type_degrades_to_engine_error(self):
        frame = json.loads(canonical_json(encode_wire(ValueError("boom"))))
        clone = decode_wire(frame)
        assert type(clone) is EngineError
        assert "ValueError" in str(clone) and "boom" in str(clone)

    def test_uncodable_value_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            encode_wire(object())

    def test_encode_depth_bomb_raises_protocol_error(self):
        bomb = []
        for _ in range(200):
            bomb = [bomb]
        with pytest.raises(ProtocolError, match="nested deeper"):
            encode_wire(bomb)

    def test_decode_depth_bomb_raises_protocol_error(self):
        bomb = ["l", []]
        for _ in range(200):
            bomb = ["l", [bomb]]
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_wire(bomb)

    def test_oversized_frame_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="frame"):
            encode_frame("x" * 1024, max_frame_bytes=256)

    def test_frame_round_trip(self):
        value = [3, "ok", {"answers": ((frozenset({("x", 1)}),)), "epoch": 2}]
        data = encode_frame(value, MAX_FRAME_BYTES)
        assert decode_frame_body(data[4:], MAX_FRAME_BYTES) == value

    def test_corrupted_frames_raise_only_typed_errors(self):
        """Random byte corruption must surface as ProtocolError/CodecError,
        never as a bare KeyError/TypeError/ValueError from the decoder."""
        tree = _tree()
        value = [
            7,
            "ok",
            {
                "tree": tree,
                "edits": (Relabel(1, "b"), Delete(2)),
                "answers": (frozenset({("x", 1)}), frozenset({("x", 2)})),
                "f": 0.25,
            },
        ]
        body = encode_frame(value, MAX_FRAME_BYTES)[4:]
        rng = random.Random(1234)
        decoded = 0
        for _ in range(400):
            corrupt = bytearray(body)
            for _ in range(rng.randint(1, 4)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                decode_frame_body(bytes(corrupt), MAX_FRAME_BYTES)
                decoded += 1  # corruption can land in string content: fine
            except (ProtocolError, CodecError):
                pass
        assert decoded < 400  # sanity: the fuzz actually corrupted something

    @pytest.mark.parametrize(
        "body, what",
        [
            ('["s",[["l",[]]]]', "set member decoded to an unhashable list"),
            ('["s",[1,["d",[]]]]', "set member decoded to an unhashable dict"),
            ('["s",[["t",[1,["l",[2]]]]]]', "set member decoded to an unhashable tuple"),
            ('["d",[[["l",[]],1]]]', "dict key decoded to an unhashable list"),
            ('["d",[[["t",[["l",[]]]],1]]]', "dict key decoded to an unhashable tuple"),
            ('["tree",[2,[[0,"a",null],[1,"b",[0]]]]]', "unknown parent [0]"),
            ('["tree",[2,[[[0],"a",null]]]]', "root id that is unhashable"),
        ],
    )
    def test_unhashable_members_and_keys_raise_protocol_error(self, body, what):
        with pytest.raises(ProtocolError, match=re.escape(what)):
            decode_frame_body(body.encode(), MAX_FRAME_BYTES)

    def test_overlong_integer_literal_raises_typed_errors(self):
        body = b"[" + b"9" * 5000 + b"]"
        with pytest.raises(CodecError, match="integer literal too long"):
            loads_payload(body)
        with pytest.raises(ProtocolError, match="integer literal too long"):
            decode_frame_body(body, MAX_FRAME_BYTES)

    @pytest.mark.parametrize(
        "value",
        [
            10**5000,
            frozenset({("x", 10**5000)}),
            [1, frozenset({("x", 10**5000), ("y", 1)})],
            frozenset({(1, 10**5000), 2}),
        ],
        ids=["int", "answer", "two-member-answer", "generic-set"],
    )
    def test_overlong_integer_encode_raises_protocol_error(self, value):
        with pytest.raises(ProtocolError, match="integer this long"):
            encode_frame(value, MAX_FRAME_BYTES)


# ============================================ canonical codec hardening
class TestSerializeHardening:
    def test_oversized_payload_raises_codec_error(self):
        with pytest.raises(CodecError, match="bytes"):
            loads_payload("[1]" * 10, max_bytes=8)

    def test_truncated_payload_names_offset(self):
        text = canonical_json({"k": [1, 2, 3]})
        with pytest.raises(CodecError, match="truncated"):
            loads_payload(text[: len(text) - 4])

    def test_malformed_payload_names_offset(self):
        with pytest.raises(CodecError, match="offset"):
            loads_payload('{"k": [1, 2,]}')

    def test_recursion_bomb_raises_codec_error(self):
        bomb = "[" * 2000 + "]" * 2000
        with pytest.raises(CodecError):
            loads_payload(bomb)

    def test_default_payload_ceiling_is_enforced(self):
        assert MAX_PAYLOAD_BYTES == 64 * 1024 * 1024

    def test_corrupted_query_payloads_raise_only_typed_errors(self):
        query = queries.select_labeled("a")
        payload_text = canonical_json(query_payload(query))
        rng = random.Random(99)
        ok = 0
        for _ in range(300):
            corrupt = bytearray(payload_text.encode("utf8"))
            for _ in range(rng.randint(1, 3)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                payload = loads_payload(bytes(corrupt))
                query_from_payload(payload)
                ok += 1
            except (CodecError, InvalidAutomatonError):
                pass  # both are precise, typed, and part of the contract
        assert ok < 300

    def test_query_payload_round_trip_keeps_digest(self):
        query = queries.select_labeled("b")
        payload = loads_payload(canonical_json(query_payload(query)))
        rebuilt = query_from_payload(payload)
        assert query_digest(rebuilt) == query_digest(query)


# ===================================================== credit window unit
class TestTakeChunk:
    """The one credit-window consumer, shared by the shard pool and the
    network client: every stream holds the whole window and grants
    consumed chunks back every half of it."""

    @staticmethod
    def _feed(channel, request_id, chunks):
        """A ``receive()`` that files the next of ``chunks`` (exhausted last)."""
        pending = [(request_id, "chunk", (n,), n == chunks - 1) for n in range(chunks)]
        return lambda: channel.file(pending.pop(0))

    def test_consumed_chunks_are_granted_back_every_half_credit(self):
        assert STREAM_CREDIT == 32
        channel = Channel()
        stream = channel.open_stream(None, 3)
        receive, granted = self._feed(channel, 3, 40), []
        for n in range(40):
            chunk, stalled = take_chunk(stream, receive, granted.append)
            assert chunk == ((n,), n == 39) and stalled is not None
        assert granted == [16, 16]
        assert take_chunk(stream, receive, granted.append) == (None, None)

    def test_streams_open_side_by_side_grant_as_one_alone(self):
        """Grants do not depend on how many streams the consumer has open:
        each of three interleaved 40-chunk streams grants 16 and 16."""
        channel = Channel()
        ids = (3, 5, 7)
        streams = [channel.open_stream(None, request_id) for request_id in ids]
        feeds = [self._feed(channel, request_id, 40) for request_id in ids]
        granted = {request_id: [] for request_id in ids}
        for n in range(40):
            for stream, receive in zip(streams, feeds):
                chunk, _ = take_chunk(stream, receive, granted[stream.request_id].append)
                assert chunk == ((n,), n == 39)
        assert granted == {request_id: [16, 16] for request_id in ids}

    def test_no_grant_once_the_last_chunk_arrived(self):
        """Consumed chunks still owed credit are not granted once the
        exhausted chunk is in: the producer needs no more."""
        channel = Channel()
        stream = channel.open_stream(None, 3)
        receive, granted = self._feed(channel, 3, 3), []
        for _ in range(3):
            receive()  # all three buffered: the producer is done
        for _ in range(3):
            chunk, stalled = take_chunk(stream, None, granted.append)
            assert stalled is None
        assert chunk == ((2,), True) and granted == []

    def test_an_error_is_raised_once_then_the_stream_ends(self):
        stream = ShardStream(None, 1)
        stream.error = StaleIteratorError("edited")
        with pytest.raises(StaleIteratorError):
            take_chunk(stream, None, None)
        assert take_chunk(stream, None, None) == (None, None)


class TestChannel:
    """The one rule that files what arrives on a channel, shared by the
    shard pool (a record per worker pipe) and the network client (a record
    per connection), fed messages as a hop's reader would.  Each hop's
    penalty for a malformed message is checked end to end: the pipe's here,
    the socket's in ``TestClientClosesAnUnusableConnection``."""

    @staticmethod
    def _channel():
        channel = Channel()
        channel.inflight[7] = ("ping", 0.0)
        return channel

    @staticmethod
    def _read(stream):
        """The next chunk of a stream that needs no more messages."""
        return take_chunk(stream, None, None)[0]

    def test_a_reply_to_an_inflight_request_is_filed(self):
        channel = self._channel()
        assert channel.file((7, "ok", "pong")) == ("ping", 0.0)
        assert channel.inflight == {} and channel.pending == {7: ("ok", "pong")}
        assert channel.reply(7, None) == "pong"
        assert channel.pending == {}

    def test_an_error_reply_is_raised_to_its_caller(self):
        channel = self._channel()
        channel.file([7, "err", StaleIteratorError("edited")])  # a wire frame is a list
        with pytest.raises(StaleIteratorError, match="edited"):
            channel.reply(7, None)

    def test_a_reply_to_any_other_id_is_dropped(self):
        channel = self._channel()
        assert channel.file((8, "ok", "late")) is None
        assert channel.pending == {} and channel.inflight == {7: ("ping", 0.0)}

    def test_chunks_go_to_their_stream_and_an_exhausted_one_ends_it(self):
        channel = Channel()
        stream = channel.open_stream(None, 3)
        assert channel.stream_round_trips == 1
        channel.file((3, "chunk", ("a",), False))
        assert stream.chunks == [(("a",), False)] and channel.streams == {3: stream}
        channel.file((3, "chunk", ("b",), True))
        assert stream.done and stream.error is None and channel.streams == {}
        assert channel.stream_chunks == 2
        assert [self._read(stream) for _ in range(3)] == [(("a",), False), (("b",), True), None]

    def test_a_chunk_of_an_abandoned_stream_is_dropped_and_counted(self):
        channel = Channel()
        stream = channel.open_stream(None, 3)
        channel.abandon(stream)
        assert channel.file((3, "chunk", ("a",), False)) is None
        assert stream.chunks == [] and channel.stream_chunks == 1

    @pytest.mark.parametrize(
        "status, payload, error, match",
        [
            ("err", StaleIteratorError("edited"), StaleIteratorError, "edited"),
            ("ok", None, EngineError, "stream 3 got an 'ok' reply"),
        ],
    )
    def test_a_reply_addressed_to_a_stream_ends_it(self, status, payload, error, match):
        channel = Channel()
        stream = channel.open_stream(None, 3)
        channel.file((3, "chunk", ("a",), False))
        assert channel.file((3, status, payload)) is None
        assert channel.streams == {} and channel.pending == {}
        assert self._read(stream) == (("a",), False)  # buffered chunks first
        with pytest.raises(error, match=match):
            self._read(stream)

    @pytest.mark.parametrize(
        "message",
        [
            "garbage",  # not a tuple or list
            (7,),  # no status
            ("garbage", "not-a-request-id", {"junk": True}),  # an id that is not an int
            (7, "done", None),  # an unknown status
            (3, "chunk", ("a",)),  # a chunk of the wrong arity
            (3, "chunk", ["a"], False),  # answers not a tuple
            (3, "chunk", ("a",), 1),  # exhausted not a bool
            (7, "err", "boom"),  # an err without an exception
            (7, "err"),
        ],
    )
    def test_a_malformed_message_is_refused_and_nothing_is_filed(self, message):
        channel = self._channel()
        stream = channel.open_stream(None, 3)
        with pytest.raises(ProtocolError, match=r"^malformed message \(.+\); expected \("):
            channel.file(message)
        assert channel.pending == {} and channel.inflight == {7: ("ping", 0.0)}
        assert channel.streams == {3: stream} and stream.chunks == []
        assert channel.stream_chunks == 0

    def test_abandoning_a_stream_defers_a_close_only_while_chunks_are_owed(self):
        channel = Channel()
        owed = channel.open_stream(None, 3)
        ended = channel.open_stream(None, 5)
        channel.file((5, "chunk", (), True))
        for stream in (owed, ended, owed):
            channel.abandon(stream)
        assert owed.closed and ended.closed and channel.streams == {}
        assert channel.take_closes() == [3]
        assert channel.take_closes() == []

    def test_a_dead_channel_ends_each_stream_once_its_chunks_are_read(self):
        channel = self._channel()
        channel.file((7, "ok", "pong"))
        channel.inflight[8] = ("count", 0.0)
        buffered = channel.open_stream(None, 3)
        channel.file((3, "chunk", ("a",), False))
        idle = channel.open_stream(None, 5)
        channel.abandon(channel.open_stream(None, 9))
        channel.die(lambda: ShardDiedError("gone"))
        assert channel.streams == {} and channel.inflight == {} and channel.deferred_closes == []
        assert buffered.error is not idle.error  # each stream raises its own
        assert channel.reply(7, None) == "pong"  # a filed reply stays readable
        assert self._read(buffered) == (("a",), False)
        for stream in (buffered, idle):
            with pytest.raises(ShardDiedError, match="gone"):
                self._read(stream)
            assert self._read(stream) is None

    def test_the_pipe_kills_a_worker_that_sends_a_malformed_chunk(self):
        with Engine(workers=1, fault_plan="0:stream_chunk:1:garbage") as engine:
            doc = engine.add_tree(star_tree(600, labels=("a",)), queries.select_labeled("a"))
            received = []
            with pytest.raises(
                ShardProtocolError,
                match=r"shard worker 0 sent a malformed message \(tuple: \('garbage', ",
            ):
                for answer in doc.stream():
                    received.append(answer)
            assert len(received) == STREAM_PAGE_SIZE
            with pytest.raises(ShardDiedError, match="is dead"):
                doc.count()


# ===================================================== server + limits
@pytest.fixture()
def served_engine():
    with Engine(page_size=3) as engine:
        server = EngineServer(engine, idle_timeout=None).start()
        try:
            yield engine, server
        finally:
            server.stop()


def _raw_connect(server):
    sock = socket.create_connection(server.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestServerProtocol:
    def test_hello_version_mismatch_gets_typed_error(self, served_engine):
        _engine, server = served_engine
        sock = _raw_connect(server)
        try:
            send_frame(sock, [0, "hello", {"protocol": 999}], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[1] == "err"
            assert isinstance(reply[2], ProtocolError)
            assert "revision" in str(reply[2])
            assert recv_frame(sock, MAX_FRAME_BYTES) is None  # then closed
        finally:
            sock.close()

    def test_first_frame_must_be_hello(self, served_engine):
        _engine, server = served_engine
        sock = _raw_connect(server)
        try:
            send_frame(sock, [1, "ping"], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[1] == "err" and isinstance(reply[2], ProtocolError)
            assert recv_frame(sock, MAX_FRAME_BYTES) is None
        finally:
            sock.close()

    def test_oversized_frame_kills_only_that_connection(self):
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, max_frame_bytes=4096).start()
            try:
                healthy = RemoteEngine(server.address, max_frame_bytes=4096)
                rogue = _raw_connect(server)
                try:
                    send_frame(rogue, [0, "hello", {"protocol": PROTOCOL_VERSION}], 4096)
                    assert recv_frame(rogue, 4096)[1] == "ok"
                    # Announce a frame far over the server's ceiling.
                    rogue.sendall((1 << 24).to_bytes(4, "big") + b"x" * 64)
                    assert recv_frame(rogue, 4096) is None  # dropped
                finally:
                    rogue.close()
                # The other connection is untouched, and the incident is
                # on the record.
                assert healthy.ping() == "pong"
                kinds = [e["kind"] for e in engine.events()]
                assert "net_protocol_error" in kinds
                healthy.close()
            finally:
                server.stop()

    def test_garbage_frame_body_kills_only_that_connection(self, served_engine):
        _engine, server = served_engine
        rogue = _raw_connect(server)
        try:
            send_frame(rogue, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
            assert recv_frame(rogue, MAX_FRAME_BYTES)[1] == "ok"
            rogue.sendall((8).to_bytes(4, "big") + b"\xff\x00garbage"[:8])
            assert recv_frame(rogue, MAX_FRAME_BYTES) is None
        finally:
            rogue.close()
        with RemoteEngine(server.address) as healthy:
            assert healthy.ping() == "pong"

    @pytest.mark.parametrize(
        "body",
        [b'["l",[1,"ping",["s",[["l",[]]]]]]', b"[" + b"9" * 5000 + b"]"],
        ids=["unhashable-set-member", "overlong-int"],
    )
    def test_undecodable_body_is_a_protocol_error(self, served_engine, body):
        engine, server = served_engine
        rogue = _raw_connect(server)
        try:
            send_frame(rogue, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
            assert recv_frame(rogue, MAX_FRAME_BYTES)[1] == "ok"
            rogue.sendall(len(body).to_bytes(4, "big") + body)
            assert recv_frame(rogue, MAX_FRAME_BYTES) is None  # dropped
        finally:
            rogue.close()
        events = engine.events()
        assert any(e["kind"] == "net_protocol_error" for e in events)
        reasons = [e["reason"] for e in events if e["kind"] == "net_disconnect"]
        assert reasons and reasons[-1].startswith("protocol-error: ")
        with RemoteEngine(server.address) as healthy:
            assert healthy.ping() == "pong"

    def test_stream_limit_is_typed_error_and_connection_survives(self):
        tree = UnrankedTree.from_nested(("b", ["a"] * 30))
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, max_streams=1).start()
            try:
                with RemoteEngine(server.address, stream_chunk_size=1) as remote:
                    doc = remote.add_tree(tree, queries.select_labeled("a"))
                    first = iter(doc.stream())
                    next(first)  # stream 1 open and producing
                    second = iter(doc.stream())
                    with pytest.raises(ProtocolError, match="stream limit"):
                        next(second)
                    # the connection (and the first stream) still work
                    assert remote.ping() == "pong"
                    next(first)
            finally:
                server.stop()

    @staticmethod
    def _raw_session(engine, server):
        """A document of six answers, and a raw connection past its HELLO."""
        doc = engine.add_tree(star_tree(6, labels=("a",)), queries.select_labeled("a"))
        sock = _raw_connect(server)
        send_frame(sock, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
        assert recv_frame(sock, MAX_FRAME_BYTES)[1] == "ok"
        return doc, sock

    def _raw_stream(self, engine, server):
        """A raw connection past its HELLO, with stream 1 open over six
        answers at chunk size 1 and credit 1, and its one pushed chunk read."""
        doc, sock = self._raw_session(engine, server)
        send_frame(sock, [1, "stream_open", doc.doc_id, 1, 1], MAX_FRAME_BYTES)
        assert recv_frame(sock, MAX_FRAME_BYTES)[:2] == [1, "chunk"]
        return sock

    @pytest.mark.parametrize(
        "counts",
        [[0, 1], [1, 0], [True, 1], [1, True], [True, True], [1.5, 1], [1, "2"], [1], [1, 1, 1]],
        ids=repr,
    )
    def test_a_malformed_stream_open_is_refused(self, served_engine, counts):
        """A chunk size or credit must be an int of at least 1, by the check
        a credit grant's n passes: a bool is neither."""
        engine, server = served_engine
        doc, sock = self._raw_session(engine, server)
        try:
            send_frame(sock, [1, "stream_open", doc.doc_id, *counts], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[:2] == [1, "err"] and isinstance(reply[2], ProtocolError)
            assert "stream_open takes" in str(reply[2])
            # No stream was opened, so a grant pushes nothing, and the
            # connection stays usable: the next frame answers the ping.
            send_frame(sock, [1, "stream_credit", 2], MAX_FRAME_BYTES)
            send_frame(sock, [2, "ping"], MAX_FRAME_BYTES)
            assert recv_frame(sock, MAX_FRAME_BYTES) == [2, "ok", "pong"]
        finally:
            sock.close()

    @pytest.mark.parametrize("args", [[-3], [0], [True], [1.5], ["2"], [], [2, 2]], ids=repr)
    def test_a_malformed_credit_grant_ends_its_stream(self, served_engine, args):
        engine, server = served_engine
        sock = self._raw_stream(engine, server)
        try:
            send_frame(sock, [1, "stream_credit", 1], MAX_FRAME_BYTES)
            assert recv_frame(sock, MAX_FRAME_BYTES)[:2] == [1, "chunk"]
            send_frame(sock, [1, "stream_credit", *args], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[:2] == [1, "err"] and isinstance(reply[2], ProtocolError)
            assert "stream_credit takes" in str(reply[2])
            # The stream is gone, so a later grant pushes nothing, and the
            # connection stays usable: the next frame answers the ping.
            send_frame(sock, [1, "stream_credit", 2], MAX_FRAME_BYTES)
            send_frame(sock, [2, "ping"], MAX_FRAME_BYTES)
            assert recv_frame(sock, MAX_FRAME_BYTES) == [2, "ok", "pong"]
        finally:
            sock.close()

    def test_a_credit_grant_for_no_open_stream_is_ignored(self, served_engine):
        engine, server = served_engine
        sock = self._raw_stream(engine, server)
        try:
            send_frame(sock, [9, "stream_credit", 2], MAX_FRAME_BYTES)  # never opened
            send_frame(sock, [9, "stream_credit", -3], MAX_FRAME_BYTES)
            send_frame(sock, [1, "stream_close"], MAX_FRAME_BYTES)
            send_frame(sock, [1, "stream_credit", -3], MAX_FRAME_BYTES)  # closed
            send_frame(sock, [2, "ping"], MAX_FRAME_BYTES)
            assert recv_frame(sock, MAX_FRAME_BYTES) == [2, "ok", "pong"]
        finally:
            sock.close()

    @pytest.mark.parametrize("read", ["page", "stream"])
    def test_oversized_reply_is_a_typed_error_and_connection_survives(self, read):
        """A 250-answer page or chunk is ~6 kB, over the server's 4 kB limit."""
        with Engine() as engine:
            server = EngineServer(engine, max_frame_bytes=4096).start()
            try:
                with RemoteEngine(server.address, timeout=5) as remote:
                    doc = remote.add_tree(
                        star_tree(250, labels=("a",)), queries.select_labeled("a")
                    )
                    with pytest.raises(
                        ProtocolError,
                        match=r"reply not sent: frame body of \d+ bytes exceeds the 4096-byte",
                    ):
                        doc.page(page_size=250) if read == "page" else list(doc.stream())
                    assert remote.ping() == "pong"
                events = engine.events()
                errors = [e["error"] for e in events if e["kind"] == "net_protocol_error"]
                assert len(errors) == 1 and "4096-byte" in errors[0]
            finally:
                server.stop()

    def test_frame_limit_below_the_floor_is_refused(self, served_engine):
        """A limit too small for the HELLO exchange would let no client in."""
        engine, server = served_engine
        floor = rf"max_frame_bytes must be >= {MIN_FRAME_BYTES}, got 64"
        with pytest.raises(EngineError, match=floor):
            EngineServer(engine, max_frame_bytes=64)
        with pytest.raises(EngineError, match=floor):
            RemoteEngine(server.address, max_frame_bytes=64, timeout=5)
        assert not any(e["kind"] == "net_connect" for e in engine.events())
        with RemoteEngine(server.address, max_frame_bytes=MIN_FRAME_BYTES, timeout=5) as remote:
            assert remote.ping() == "pong"

    def test_refused_error_frame_closes_the_connection(self, caplog):
        """When the typed error frame that replaces a refused reply is
        refused too, the server closes that connection and says why."""
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                # Lowered past the constructor's floor, the limit refuses the
                # HELLO reply and the error frame that replaces it.
                server.max_frame_bytes = 64
                with caplog.at_level(logging.ERROR, logger="asyncio"):
                    with pytest.raises(ProtocolError, match="closed the connection"):
                        RemoteEngine(server.address, timeout=5)
                    deadline = time.monotonic() + 5
                    while not any(e["kind"] == "net_disconnect" for e in engine.events()):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                events = engine.events()
                assert [e["kind"] for e in events] == [
                    "net_connect", "net_protocol_error", "net_protocol_error", "net_disconnect"
                ]
                assert re.fullmatch(
                    r"reply not sent: frame body of \d+ bytes exceeds the 64-byte frame limit",
                    events[1]["error"],
                )
                assert events[2]["error"].startswith("error frame not sent: frame body of ")
                assert events[3]["reason"] == f"protocol-error: {events[2]['error']}"
                assert not [r for r in caplog.records if r.name == "asyncio"]
            finally:
                server.stop()

    def test_idle_timeout_drops_the_connection(self):
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, idle_timeout=0.2).start()
            try:
                sock = _raw_connect(server)
                try:
                    send_frame(sock, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
                    assert recv_frame(sock, MAX_FRAME_BYTES)[1] == "ok"
                    time.sleep(0.6)
                    assert recv_frame(sock, MAX_FRAME_BYTES) is None
                finally:
                    sock.close()
                reasons = [
                    e.get("reason")
                    for e in engine.events()
                    if e["kind"] == "net_disconnect"
                ]
                assert "idle-timeout" in reasons
            finally:
                server.stop()

    def test_unknown_op_is_typed_error_connection_survives(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            with pytest.raises(ProtocolError, match="unknown request op"):
                remote._call("frobnicate")
            assert remote.ping() == "pong"

    def test_unix_socket_serving(self, tmp_path):
        path = os.path.join(str(tmp_path), "engine.sock")
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, host=None, unix_path=path).start()
            try:
                with RemoteEngine(unix_path=path) as remote:
                    doc = remote.add_tree(_tree(), queries.select_labeled("a"))
                    assert doc.count() == len(list(doc.stream()))
            finally:
                server.stop()


class TestClientClosesAnUnusableConnection:
    """After a failure that leaves the byte stream unreadable or gone, the
    client closes its connection, and every later call raises one
    ``ProtocolError`` naming that first failure; so does every open stream,
    once its buffered chunks are read.  A timeout before any byte of a reply
    keeps the connection, and the late reply is dropped."""

    @staticmethod
    def _assert_later_calls_name(first, *calls):
        for call in calls:
            with pytest.raises(ProtocolError, match=re.escape(str(first.value))):
                call()

    @staticmethod
    @contextlib.contextmanager
    def _fake_server(serve):
        """A one-connection server thread: the HELLO exchange, then
        ``serve(conn)``; the connection stays open until the test ends.  A
        ``serve`` that writes after the client hung up ends quietly: some
        tests provoke that hang-up on purpose."""
        release = threading.Event()
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def run():
                conn, _peer = listener.accept()
                with conn:
                    recv_frame(conn)  # HELLO
                    info = {"protocol": PROTOCOL_VERSION, "page_size": 3, "chunk_size": 4,
                            "max_frame_bytes": MAX_FRAME_BYTES, "max_streams": 2}
                    send_frame(conn, [0, "ok", info])
                    try:
                        serve(conn)
                    except (BrokenPipeError, ConnectionResetError):
                        pass
                    release.wait(10)

            thread = threading.Thread(target=run)
            thread.start()
            try:
                yield listener.getsockname()[:2]
            finally:
                release.set()
                thread.join(10)
            assert not thread.is_alive()

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_fake_server_writing_after_the_client_hung_up_ends_quietly(self):
        """The race the malformed-reply test runs into at random, provoked
        every time: ``serve`` writes only once the client has closed."""
        hung_up = []

        def serve(conn):
            assert recv_frame(conn) is None  # the client closed the connection
            try:
                for _ in range(100):
                    send_frame(conn, [1, "ok", "late"])
                    time.sleep(0.01)
            except OSError as exc:
                hung_up.append(exc)
                raise

        with self._fake_server(serve) as address:
            RemoteEngine(address, timeout=5).close()
        assert isinstance(hung_up[0], (BrokenPipeError, ConnectionResetError))

    def test_refused_incoming_frame(self):
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address, max_frame_bytes=4096, timeout=5) as remote:
                    doc = remote.add_tree(
                        star_tree(250, labels=("a",)), queries.select_labeled("a")
                    )
                    with pytest.raises(ProtocolError, match=r"announces \d+ bytes") as first:
                        doc.page(page_size=250)
                    self._assert_later_calls_name(first, remote.ping, doc.count)
            finally:
                server.stop()

    def test_connection_dropped_by_the_server(self):
        with Engine() as engine:
            server = EngineServer(engine, idle_timeout=0.2).start()
            try:
                with RemoteEngine(server.address, timeout=5) as remote:
                    time.sleep(0.6)
                    with pytest.raises(ProtocolError) as first:
                        remote.ping()
                    self._assert_later_calls_name(first, remote.ping)
            finally:
                server.stop()

    def test_timeout_inside_a_frame(self):
        """A fake server stalls after two bytes of a reply header."""

        def serve(conn):
            recv_frame(conn)  # the ping
            conn.sendall(b"\x00\x00")

        with self._fake_server(serve) as address:
            with RemoteEngine(address, timeout=0.3) as remote:
                with pytest.raises(ProtocolError, match="timed out mid-frame") as first:
                    remote.ping()
                self._assert_later_calls_name(first, remote.ping)

    def test_timeout_before_a_reply_drops_the_late_reply(self):
        """The first ping's reply arrives after the client gave up on it,
        just ahead of the second ping's reply: it answers no waiting call,
        so nothing keeps it."""

        def serve(conn):
            first = recv_frame(conn)
            second = recv_frame(conn)  # sent once the first ping timed out
            send_frame(conn, [first[0], "ok", "pong"])
            send_frame(conn, [second[0], "ok", "pong"])

        with self._fake_server(serve) as address:
            with RemoteEngine(address, timeout=0.3) as remote:
                with pytest.raises(ProtocolError, match="timed out after 0.3s waiting"):
                    remote.ping()
                assert remote.ping() == "pong"
                assert remote._transport.pending == {}
                assert remote._transport.inflight == {}

    def test_an_open_stream_raises_the_failure_after_its_buffered_answers(self):
        """A refused page reply closes the connection while a stream is open:
        the stream yields what it had buffered, then raises that failure;
        it never ends early without an error."""
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(
                    server.address, max_frame_bytes=4096, stream_chunk_size=2, timeout=5
                ) as remote:
                    doc = remote.add_tree(
                        star_tree(250, labels=("a",)), queries.select_labeled("a")
                    )
                    stream = doc.stream()
                    received = [next(stream) for _ in range(5)]
                    with pytest.raises(ProtocolError, match=r"announces \d+ bytes") as first:
                        doc.page(page_size=250)
                    with pytest.raises(ProtocolError, match=re.escape(str(first.value))):
                        for answer in stream:
                            received.append(answer)
                    assert len(received) < engine.document(doc.doc_id).count() == 250
            finally:
                server.stop()

    def test_a_malformed_reply_fails_every_open_stream(self):
        """Stream B's first chunk is a list, not a tuple: the connection
        closes, both streams raise the failure, and B's later chunk is never
        yielded after the one that was lost."""

        def serve(conn):
            a = recv_frame(conn)[0]  # stream_open A
            b = recv_frame(conn)[0]  # stream_open B
            send_frame(conn, [b, "chunk", ["b-lost"], False])
            send_frame(conn, [a, "chunk", ("a1", "a2"), True])
            send_frame(conn, [b, "chunk", ("b-last",), True])

        with self._fake_server(serve) as address:
            with RemoteEngine(address, timeout=5) as remote:
                stream_a = remote._transport.stream("A", lambda: None)
                stream_b = remote._transport.stream("B", lambda: None)
                with pytest.raises(ProtocolError, match="malformed") as first:
                    next(stream_a)
                received = []
                with pytest.raises(ProtocolError, match=re.escape(str(first.value))):
                    for answer in stream_b:
                        received.append(answer)
                assert received == []
                self._assert_later_calls_name(first, remote.ping)


class TestRemoteEngineSurface:
    def test_typed_errors_travel_over_tcp(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            with pytest.raises(ServingError, match="no document with id"):
                remote._call("page", 999, None, 3)
            doc = remote.add_tree(_tree(), queries.select_labeled("a"))
            with pytest.raises(EngineError, match="not reachable"):
                doc.runtime()
            remote.remove(doc.doc_id)
            with pytest.raises(ServingError):
                remote.document(doc.doc_id)

    @pytest.mark.parametrize("size", [0, -3, True, 2.5])
    def test_an_invalid_stream_chunk_size_is_refused_where_it_is_set(self, served_engine, size):
        _engine, server = served_engine
        with pytest.raises(EngineError, match="stream_chunk_size must be an int >= 1"):
            RemoteEngine(server.address, stream_chunk_size=size)
        with RemoteEngine(server.address, stream_chunk_size=2) as remote:
            with pytest.raises(EngineError, match="stream_chunk_size must be an int >= 1"):
                remote.stream_chunk_size = size
            assert remote.stream_chunk_size == 2
            doc = remote.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 5)), queries.select_labeled("a")
            )
            assert len(list(doc.stream())) == 5
            assert remote.net_stats()["chunks"] == 3

    def test_page_validation_mirrors_engine(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            doc = remote.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 9)), queries.select_labeled("a")
            )
            page = doc.page(page_size=2)
            with pytest.raises(EngineError, match="page_size is fixed"):
                doc.page(cursor=page, page_size=5)
            with pytest.raises(EngineError, match="page_size must be >= 1"):
                doc.page(page_size=0)
            other = remote.add_tree(_tree(), queries.select_labeled("a"))
            with pytest.raises(EngineError, match="belongs to document"):
                other.page(cursor=page)

    def test_stale_stream_over_tcp(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            doc = remote.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 6)), queries.select_labeled("a")
            )
            iterator = iter(doc.stream())
            next(iterator)
            doc.apply_edits([Relabel(1, "b")])
            with pytest.raises(StaleIteratorError):
                next(iterator)

    def test_cursor_invalidation_report_parity_over_tcp(self, served_engine):
        """The fine-grained invalidation report — overlap regions and the
        describe() text — reaching a RemoteEngine client is identical to the
        one an in-process engine produces for the same scenario."""
        _engine, server = served_engine
        query = queries.select_labeled("a")
        target = next(
            n.node_id for n in _tree().nodes() if n.label == "a" and n.is_leaf()
        )

        def run(doc):
            page = doc.page(page_size=1)
            doc.apply_edits([Relabel(target, "b")])  # removes an undelivered answer
            with pytest.raises(CursorInvalidatedError) as excinfo:
                doc.page(cursor=page)
            return excinfo.value.report

        with Engine() as local_engine:
            local_report = run(local_engine.add_tree(_tree(), query, doc_id="parity"))
        with RemoteEngine(server.address) as remote:
            remote_report = run(remote.add_tree(_tree(), query, doc_id="parity"))
        assert remote_report.regions  # the enriched fields crossed the wire
        assert remote_report.regions == local_report.regions
        assert remote_report.describe() == local_report.describe()

    def test_compile_is_digest_checked_and_cached(self, served_engine):
        engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            query = remote.compile(queries.select_labeled("a"))
            again = remote.compile(queries.select_labeled("a"))
            assert again is query  # client-side cache by digest
            assert query.digest in engine._queries  # really landed server-side

    def test_concurrent_clients_share_one_engine(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as one, RemoteEngine(server.address) as two:
            doc = one.add_tree(_tree(), queries.select_labeled("a"))
            assert one.ping() == "pong" and two.ping() == "pong"
            # Per-connection document namespaces: client two can't see
            # client one's handle, but the server stats do.
            assert doc.doc_id not in two
            assert two._call("stats")["documents"] == 1

    def test_no_pickle_on_the_wire(self, served_engine):
        """Every frame both ways is canonical JSON — never a pickle."""
        _engine, server = served_engine
        remote = RemoteEngine(server.address)
        try:
            real_send = socket.socket.sendall
            seen = []

            def spy(self, data, *args):
                seen.append(bytes(data))
                return real_send(self, data, *args)

            socket.socket.sendall = spy
            try:
                doc = remote.add_tree(_tree(), queries.select_labeled("a"))
                list(doc.stream())
            finally:
                socket.socket.sendall = real_send
            assert seen
            for blob in seen:
                body = blob[4:]
                assert not body.startswith(b"\x80")  # pickle protocol marker
                json.loads(body.decode("utf8"))  # must parse as JSON
        finally:
            remote.close()


# ===================================================== catalog leases + gc
class TestCatalogLeases:
    def test_open_engine_leases_its_digests(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as engine:
            query = engine.compile(queries.select_labeled("a"))
            catalog = QueryCatalog(root)
            assert query.digest in catalog.live_digests()
            removed = catalog.gc()  # no keep= needed anymore
            assert query.digest not in removed
            assert query.digest in catalog
        # lease released on close: now it is garbage
        removed = QueryCatalog(root).gc()
        assert query.digest in removed

    def test_concurrent_gc_spares_every_open_engine(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as one:
            q1 = one.compile(queries.select_labeled("a"))
            with Engine(catalog=root) as two:
                q2 = two.compile(queries.select_labeled("b"))
                catalog = QueryCatalog(root)
                removed = catalog.gc()
                assert q1.digest not in removed and q2.digest not in removed
                # engines keep working through a concurrent gc
                doc = two.add_tree(_tree(), queries.select_labeled("b"))
                assert doc.count() >= 0
            # two closed, one still open: q2 without other users is garbage
            removed = QueryCatalog(root).gc()
            assert q2.digest in removed
            assert q1.digest not in removed

    def test_stale_lease_of_dead_process_is_reaped(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as engine:
            query = engine.compile(queries.select_labeled("a"))
        catalog = QueryCatalog(root)
        # Forge a lease from a process that no longer exists.
        os.makedirs(catalog.leases_root, exist_ok=True)
        stale = os.path.join(catalog.leases_root, "lease-dead.json")
        with open(stale, "w", encoding="utf8") as handle:
            json.dump(
                {
                    "pid": 2**22 - 1,
                    "host": socket.gethostname(),
                    "created_unix": 0,
                    "digests": [query.digest],
                },
                handle,
            )
        assert query.digest not in catalog.live_digests()
        assert not os.path.exists(stale)  # reaped during the scan
        assert query.digest in catalog.gc()

    def test_corrupt_lease_is_discarded(self, tmp_path):
        root = str(tmp_path / "catalog")
        catalog = QueryCatalog(root)
        os.makedirs(catalog.leases_root, exist_ok=True)
        junk = os.path.join(catalog.leases_root, "lease-junk.json")
        with open(junk, "w", encoding="utf8") as handle:
            handle.write("{not json")
        assert catalog.live_digests() == set()
        assert not os.path.exists(junk)


# ===================================================== incremental ingest
class TestIncrementalIngest:
    def test_iter_yields_in_order_on_local_engine(self):
        with Engine(page_size=3) as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * n)) for n in (2, 3, 4)]
            docs = list(
                engine.add_documents_iter(
                    trees, queries.select_labeled("a"), doc_ids=["x", "y", "z"]
                )
            )
            assert [doc.doc_id for doc in docs] == ["x", "y", "z"]
            assert engine.stats()["ingest_stragglers"] == 0

    def test_straggler_does_not_delay_other_documents(self):
        """With one shard's ingest artificially slowed, the fast shard's
        documents must be yielded (and usable) before the slow reply lands,
        and the straggler must be counted and logged."""
        _fork_or_skip()
        with Engine(
            workers=2, start_method="fork", fault_plan="0:add_batch:*:slow:0.5"
        ) as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * 3)) for _ in range(4)]
            arrivals = []
            for doc in engine.add_documents_iter(trees, queries.select_labeled("a")):
                arrivals.append((doc.doc_id, time.perf_counter()))
            assert len(arrivals) == 4
            placements = engine._shard_of
            fast = [d for d, _t in arrivals if placements[d] == 1]
            slow = [d for d, _t in arrivals if placements[d] == 0]
            if fast and slow:  # both shards got documents (placement-dependent)
                last_fast = max(t for d, t in arrivals if placements[d] == 1)
                first_slow = min(t for d, t in arrivals if placements[d] == 0)
                assert last_fast < first_slow
            assert engine.ingest_stragglers_total >= 1
            assert engine.stats()["ingest_stragglers"] >= 1
            assert any(e["kind"] == "ingest_straggler" for e in engine.events())

    def test_batch_add_documents_unchanged_by_refactor(self):
        _fork_or_skip()
        with Engine(workers=2, start_method="fork") as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * 3)) for _ in range(3)]
            docs = engine.add_documents(trees, queries.select_labeled("a"))
            assert [doc.doc_id for doc in docs] == [0, 1, 2]
            with pytest.raises(ServingError, match="already in use"):
                engine.add_documents(
                    [UnrankedTree.from_nested(("b", ["a"]))],
                    queries.select_labeled("a"),
                    doc_ids=[0],
                )
