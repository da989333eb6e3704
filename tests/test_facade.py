"""One facade, whatever the transport.

The same misuse of :class:`repro.Engine` raises the same exception type
with the same message in-process (``Engine()``), on shard workers
(``Engine(workers=2)``) and over TCP (``RemoteEngine`` in front of
``Engine()``); a stream read after an edit or a removal of its document
raises one ``StaleIteratorError`` on every transport;
after ``close()`` every document op and open stream raises the same
``EngineError``; and :class:`~repro.net.RemoteEngine` keeps its
client-side shape: the server's ``stats()`` plus a ``net`` section, its
transport counters, the HELLO reply, and auto ids that the server assigns.

Because ``RemoteEngine`` is an ``Engine`` over a socket transport, it has
every public ``Engine`` method, and a behaviour fix lands on all three
transports at once: a failed batch ingest keeps the documents it added
served and removable, and content of the other kind than its query is
refused by the facade with one ``EngineError`` before anything ships.
"""

from __future__ import annotations

import contextlib
import select

import pytest

from repro import (
    CodecError,
    Engine,
    EngineError,
    InvalidEditError,
    InvalidTreeError,
    ServingError,
    StaleIteratorError,
)
from repro.automata.queries import select_labeled
from repro.automata.serialize import MAX_VALUE_DEPTH
from repro.automata.unranked_tva import UnrankedTVA
from repro.core.enumerator import TreeRuntime
from repro.engine import ResultPage
from repro.net import EngineServer, RemoteEngine
from repro.obs import parse_prometheus_text
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree
from repro.trees.unranked import UnrankedTree

LABELS = ("a", "b", "c", "d")
TRANSPORTS = ("local", "sharded", "tcp")


def _query():
    return select_labeled("a", LABELS)


def _open(stack: contextlib.ExitStack, transport: str):
    """An engine of the given transport, closed with ``stack``."""
    engine = stack.enter_context(Engine(workers=2 if transport == "sharded" else 0))
    if transport == "tcp":
        server = EngineServer(engine).start()
        stack.callback(server.stop)
        engine = stack.enter_context(RemoteEngine(server.address))
    return engine


@pytest.fixture(scope="module")
def served():
    """transport -> (engine, tree document "t", tree document "o")."""
    with contextlib.ExitStack() as stack:
        out = {}
        for transport in TRANSPORTS:
            engine = _open(stack, transport)
            t = engine.add_tree(random_tree(20, LABELS, 1), _query(), doc_id="t")
            o = engine.add_tree(random_tree(20, LABELS, 2), _query(), doc_id="o")
            out[transport] = (engine, t, o)
        yield out


def _foreign_page(cursor_id: int) -> ResultPage:
    return ResultPage(
        answers=(), offset=0, exhausted=False, cursor_id=cursor_id, document_id="t", epoch=0
    )


#: (row id, misuse, exception type, exact message)
MISUSE = [
    (
        "unknown-doc-id",
        lambda engine, t, o: engine.document("nope"),
        ServingError,
        "no document with id 'nope'",
    ),
    (
        "duplicate-doc-id",
        lambda engine, t, o: engine.add_tree(random_tree(5, LABELS, 3), _query(), doc_id="t"),
        ServingError,
        "document id 't' already in use",
    ),
    (
        "missing-query",
        lambda engine, t, o: engine.add_documents([random_tree(5, LABELS, 3)]),
        EngineError,
        "add_documents needs a query: pass query= (shared) or queries= (per item)",
    ),
    (
        "doc-ids-length",
        lambda engine, t, o: engine.add_documents(
            [random_tree(5, LABELS, 3)], _query(), doc_ids=["x", "y"]
        ),
        EngineError,
        "doc_ids (2) and contents (1) differ in length",
    ),
    (
        "queries-length",
        lambda engine, t, o: engine.add_documents(
            [random_tree(5, LABELS, 3)], queries=[_query(), _query()]
        ),
        EngineError,
        "queries (2) and contents (1) differ in length",
    ),
    (
        "page-size-zero",
        lambda engine, t, o: t.page(page_size=0),
        EngineError,
        "page_size must be >= 1",
    ),
    (
        "page-size-with-cursor",
        lambda engine, t, o: t.page(cursor=_foreign_page(0), page_size=3),
        EngineError,
        "page_size is fixed when a cursor is opened; continue with page(cursor=...) only",
    ),
    (
        "other-documents-cursor",
        lambda engine, t, o: o.page(cursor=_foreign_page(7)),
        EngineError,
        "page cursor 7 belongs to document 't', not 'o'",
    ),
    (
        "compile-int",
        lambda engine, t, o: engine.compile(42),
        EngineError,
        "cannot compile int; expected an UnrankedTVA, a WVA, a Spanner, or a regex "
        "pattern string (with alphabet=)",
    ),
    (
        "regex-without-alphabet",
        lambda engine, t, o: engine.compile("x{a+}"),
        EngineError,
        "compiling a spanner regex needs alphabet=: Engine.compile(pattern, alphabet=...)",
    ),
    (
        "word-edit-on-tree",
        lambda engine, t, o: t.apply_edits([("replace", 0, "a")]),
        ServingError,
        "tree documents take EditOperation edits, got ('replace', 0, 'a')",
    ),
    (
        "unknown-node-edit",
        lambda engine, t, o: t.apply_edits([Relabel(999, "a")]),
        InvalidTreeError,
        "no node with id 999 in this tree",
    ),
]


class TestMisuseTable:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "misuse, error, message", [row[1:] for row in MISUSE], ids=[row[0] for row in MISUSE]
    )
    def test_same_error_on_every_transport(self, served, transport, misuse, error, message):
        engine, t, o = served[transport]
        with pytest.raises(error) as info:
            misuse(engine, t, o)
        assert type(info.value) is error
        assert str(info.value) == message
        assert t.epoch == 0 and o.epoch == 0  # nothing applied


class TestStaleStream:
    """A stream read after an edit or a removal of its document raises one
    error on every transport: the in-process stream is the runtime's own
    iterator, which the store gives the facade's error; the pushed ones
    check the facade's epoch mirror."""

    @staticmethod
    def _stale_after(transport, cause):
        with contextlib.ExitStack() as stack:
            engine = _open(stack, transport)
            doc = engine.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 300)), _query(), doc_id="star"
            )
            iterator = iter(doc.stream())
            next(iterator)
            cause(doc)
            with pytest.raises(StaleIteratorError) as info:
                next(iterator)
            assert type(info.value) is StaleIteratorError
            assert str(info.value) == (
                "document 'star' was edited (or removed) while stream() was running; "
                "restart the stream, or use page() for edit-stable pagination"
            )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_stream_read_after_an_edit_is_stale(self, transport):
        self._stale_after(transport, lambda doc: doc.apply_edits([Relabel(1, "b")]))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_stream_read_after_a_removal_is_stale(self, transport):
        self._stale_after(transport, lambda doc: doc.remove())

    def test_a_plain_runtime_keeps_its_own_message(self):
        runtime = TreeRuntime(UnrankedTree.from_nested(("b", ["a"] * 6)), _query())
        iterator = runtime.assignments()
        next(iterator)
        runtime.relabel(1, "b")
        with pytest.raises(StaleIteratorError) as info:
            next(iterator)
        assert str(info.value) == "the document was updated; restart the enumeration"


#: the per-document operations, each tried on a document of a closed engine
CLOSED_OPS = {
    "page": lambda doc: doc.page(),
    "count": lambda doc: doc.count(),
    "epoch": lambda doc: doc.epoch,
    "apply_edits": lambda doc: doc.apply_edits([Relabel(1, "b")]),
    "remove": lambda doc: doc.remove(),
}


@pytest.fixture(scope="module", params=TRANSPORTS)
def closed(request):
    """A 2,000-leaf star of an engine closed since, and two of its streams
    opened before the close: one read for one answer, one for a whole chunk
    (its next answer needs a chunk the closed transport never delivers)."""
    from repro.engine.document import STREAM_PAGE_SIZE

    with contextlib.ExitStack() as stack:
        engine = _open(stack, request.param)
        doc = engine.add_tree(UnrankedTree.from_nested(("b", ["a"] * 2000)), _query())
        streams = [iter(doc.stream()), iter(doc.stream())]
        next(streams[0])
        for _ in range(STREAM_PAGE_SIZE):
            next(streams[1])
        engine.close()
        yield doc, streams


class TestClosedEngine:
    """After ``close()`` the cause is the closed engine, on every transport:
    each op checks it before it looks the document up, and an open stream
    ends at its next read."""

    @pytest.mark.parametrize("op", sorted(CLOSED_OPS))
    def test_document_ops_raise_closed(self, closed, op):
        doc, _streams = closed
        with pytest.raises(EngineError) as info:
            CLOSED_OPS[op](doc)
        assert type(info.value) is EngineError
        assert str(info.value) == "this engine is closed"

    def test_open_streams_end_at_the_next_read(self, closed):
        _doc, streams = closed
        for stream in streams:
            with pytest.raises(EngineError) as info:
                next(stream)
            assert type(info.value) is EngineError
            assert str(info.value) == "this engine is closed"
            assert next(stream, None) is None  # and no answer after it


class TestRemoteShape:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_stats_are_the_servers_plus_net(self, workers):
        with Engine(workers=workers) as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address) as remote:
                    remote.add_tree(random_tree(20, LABELS, 1), _query())
                    assert set(remote.stats()) - {"net"} == set(engine.stats())
                    assert set(remote.stats()["net"]) == set(remote.net_stats())
            finally:
                server.stop()

    def test_net_stats_and_hello_keys(self):
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address) as remote:
                    assert set(remote.net_stats()) == {
                        "credit",
                        "credit_start",
                        "credit_grown",
                        "credit_shrunk",
                        "chunks",
                        "round_trips",
                        "stalls",
                        "open_streams",
                    }
                    assert set(remote.server_info) == {
                        "protocol",
                        "page_size",
                        "chunk_size",
                        "max_frame_bytes",
                        "max_streams",
                    }
            finally:
                server.stop()

    def test_two_clients_get_server_assigned_ids(self):
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address) as one, RemoteEngine(server.address) as two:
                    first = one.add_tree(random_tree(10, LABELS, 1), _query())
                    second = two.add_tree(random_tree(10, LABELS, 2), _query())
                    assert (first.doc_id, second.doc_id) == (0, 1)
                    assert sorted(engine.doc_ids()) == [0, 1]
            finally:
                server.stop()


class TestChunkBoundaries:
    """How many chunks a stream of N answers arrives in, on each hop.

    C is the hop's chunk size: ``STREAM_PAGE_SIZE`` (256) on the pipe to a
    shard worker, the client's ``stream_chunk_size`` on the wire.  A chunk
    holds up to C answers, and a stream whose answer count is a multiple of
    C ends with an empty exhausted chunk.  The consumer's own counters are
    read: ``stats()["streaming"]["chunks"]`` and ``["streams_open"]`` on the
    pipe, ``net_stats()["chunks"]`` and ``["open_streams"]`` on the wire.
    Both count every chunk received, an abandoned stream's included, and a
    stream leaves the open ones when its exhausted chunk arrives or when it
    is abandoned.
    """

    #: (answers as a multiple of C plus an offset, chunks received)
    COUNTS = [((0, 0), 1), ((0, 1), 1), ((1, -1), 1), ((1, 0), 2), ((1, 1), 2), ((2, 0), 3)]

    @staticmethod
    def _star(answers: int) -> UnrankedTree:
        return UnrankedTree.from_nested(("b", ["a"] * answers + ["c"]))

    def _check(self, engine, chunk_size, chunks_received):
        for (multiple, offset), expected in self.COUNTS:
            answers = multiple * chunk_size + offset
            doc = engine.add_tree(self._star(answers), _query())
            before = chunks_received()
            assert len(list(doc.stream())) == answers
            assert chunks_received() - before == expected, answers
            doc.remove()

    def _check_left_early(self, engine, chunk_size, chunks_received, open_streams, pushed):
        """A consumer leaves a stream of C + 1 answers, two chunks, after one
        answer: once with its exhausted chunk still owed (the stream is
        abandoned, and the chunk is dropped on receipt), once after that
        chunk arrived.  ``pushed()`` returns once the producer sent it."""
        doc = engine.add_tree(self._star(chunk_size + 1), _query())
        for owed in (True, False):
            before = chunks_received()
            stream = doc.stream()
            next(stream)
            pushed()
            if owed:
                stream.close()
                assert open_streams() == 0
                doc.count()  # a round trip: the dropped chunk arrives first
            else:
                doc.count()  # a round trip: the exhausted chunk arrives first
                assert open_streams() == 0
                stream.close()
            assert chunks_received() - before == 2, owed
        doc.remove()

    def test_pipe(self):
        from repro.engine.document import STREAM_PAGE_SIZE

        with Engine(workers=1) as engine:
            self._check(
                engine, STREAM_PAGE_SIZE, lambda: engine.stats()["streaming"]["chunks"]
            )
            # A worker pushes a stream's opening credit (at least two chunks)
            # before it reads the next request.
            self._check_left_early(
                engine,
                STREAM_PAGE_SIZE,
                lambda: engine.stats()["streaming"]["chunks"],
                lambda: engine.stats()["streams_open"],
                lambda: None,
            )

    def test_wire(self):
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address, stream_chunk_size=4) as remote:
                    self._check(remote, 4, lambda: remote.net_stats()["chunks"])

                    def pushed():
                        # The next frame on the socket is the exhausted chunk.
                        readable, _w, _x = select.select([remote._transport._sock], [], [], 10)
                        assert readable

                    self._check_left_early(
                        remote,
                        4,
                        lambda: remote.net_stats()["chunks"],
                        lambda: remote.net_stats()["open_streams"],
                        pushed,
                    )
            finally:
                server.stop()


class TestDeepQueryStates:
    """States nested deeper than the catalog codec's limit are refused at
    compile with one ``CodecError`` on every transport.  The codec applies
    its limit on encode as well as on decode, so no process writes a
    catalog entry that a shard worker cannot read back."""

    @staticmethod
    def _deep_query(levels: int) -> UnrankedTVA:
        """select-a with every state wrapped in ``levels`` one-tuples."""
        base = _query()

        def wrap(state):
            for _ in range(levels):
                state = (state,)
            return state

        return UnrankedTVA(
            states=[wrap(q) for q in base.states],
            variables=base.variables,
            initial=[(label, var_set, wrap(q)) for label, var_set, q in base.initial],
            delta=[(wrap(q), wrap(child), wrap(nxt)) for q, child, nxt in base.delta],
            final=[wrap(q) for q in base.final],
        )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_one_codec_error_at_compile(self, served, transport):
        engine = served[transport][0]
        with pytest.raises(CodecError, match=f"nested deeper than {MAX_VALUE_DEPTH} levels"):
            engine.compile(self._deep_query(40))

    def test_states_under_the_limit_reach_a_shard_worker(self, served):
        engine, tree_doc, _other = served["sharded"]
        doc = engine.add_tree(random_tree(20, LABELS, 1), self._deep_query(20))
        assert set(doc.stream()) == set(tree_doc.stream())
        doc.remove()


class TestFailedBatchIngest:
    """``add_documents(["ab", "", "ab"])`` fails on the empty word; every
    document the batch added is registered, served and removable."""

    @pytest.mark.parametrize(
        "workers, remote",
        [(0, False), (1, False), (0, True), (1, True), (2, True)],
        ids=["local", "sharded", "tcp-local", "tcp-sharded", "tcp-two-shards"],
    )
    def test_added_documents_stay_served(self, workers, remote):
        with contextlib.ExitStack() as stack:
            served = engine = stack.enter_context(Engine(workers=workers))
            if remote:
                server = EngineServer(served).start()
                stack.callback(server.stop)
                engine = stack.enter_context(RemoteEngine(server.address))
            query = engine.compile("x{a+}b", alphabet="ab")
            with pytest.raises(InvalidEditError, match="words must be non-empty"):
                engine.add_documents(["ab", "", "ab"], query, doc_ids=["a", "b", "c"])
            assert "a" in engine and "b" not in engine
            assert engine.doc_ids() == served.doc_ids()
            with Engine() as fresh:
                expected = fresh.add_word("ab", fresh.compile("x{a+}b", alphabet="ab")).answers()
            assert engine.document("a").answers() == expected
            engine.remove("a")
            assert "a" not in engine and "a" not in served
            with pytest.raises(ServingError, match="no document with id 'a'"):
                engine.document("a")


class TestKindMismatch:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_one_engine_error_before_anything_ships(self, served, transport):
        engine, _t, _o = served[transport]
        tree_query = engine.compile(_query())
        word_query = engine.compile("x{a}.*", alphabet="ab")
        with pytest.raises(EngineError) as info:
            engine.add_tree(["a", "b"], tree_query)
        assert type(info.value) is EngineError
        assert str(info.value) == (
            "cannot serve a word document under a tree query "
            f"(digest {tree_query.digest[:12]}...)"
        )
        with pytest.raises(EngineError) as info:
            engine.add_word(random_tree(5, LABELS, 3), word_query)
        assert type(info.value) is EngineError
        assert str(info.value) == (
            "cannot serve a tree document under a word query "
            f"(digest {word_query.digest[:12]}...)"
        )
        assert sorted(engine.doc_ids()) == ["o", "t"]
        assert engine.stats()["documents"] == 2


class TestRemoteIsAnEngine:
    def test_inherited_surface(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with Engine() as engine:
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address) as remote:
                    assert isinstance(remote, Engine)
                    trees = [random_tree(12, LABELS, seed) for seed in range(3)]
                    docs = list(remote.add_documents_iter(trees, _query()))
                    assert [doc.doc_id for doc in docs] == engine.doc_ids() == [0, 1, 2]
                    for doc in docs:
                        assert doc.answers() == engine.document(doc.doc_id).answers()
                    remote.await_repairs()  # no fleet: nothing to wait for
                    parsed = parse_prometheus_text(remote.metrics_text())
                    assert parsed["repro_ingest_batch_seconds"]["count"] == 1  # the server's
                    assert parsed["repro_net_round_trip_seconds"]["count"] >= 2  # the client's
                    with pytest.raises(EngineError, match="tracing is off"):
                        remote.dump_trace(str(tmp_path / "trace.json"))
            finally:
                server.stop()

    def test_unknown_shard_op_is_refused_by_name(self):
        with Engine(workers=1) as engine:
            for op in ("frobnicate", "_source"):
                with pytest.raises(EngineError, match=f"unknown shard request '{op}'"):
                    engine._pool.request(0, op)
            assert engine._pool.request(0, "ping") == "pong"


class TestCursorTableIsBounded:
    """A document keeps the ids of its last ``CURSOR_ID_LIMIT`` cursor opens.

    Cursors that are abandoned — invalidated and never fetched again, or
    simply dropped — are released once that many newer ones were opened,
    on the worker and on the fleet's parent alike, and a fetch of a
    released id fails the same way everywhere.
    """

    @staticmethod
    def _tables(engine, doc_id):
        if engine._pool is None:
            return [engine._store.document(doc_id)._cursors_by_id]
        return [engine._transport._cursor_holders[doc_id]]

    def test_old_ids_are_released(self):
        from repro.engine.local import CURSOR_ID_LIMIT

        opens = CURSOR_ID_LIMIT + 76
        messages = []
        for options in ({}, {"workers": 2, "replicas": 2}):
            with Engine(**options) as engine:
                doc = engine.add_tree(random_tree(30, LABELS, 4), _query(), doc_id="t")
                pages = [doc.page(page_size=1) for _ in range(opens)]
                assert not any(page.exhausted for page in pages)
                assert [page.cursor_id for page in pages] == list(range(opens))
                for table in self._tables(engine, "t"):
                    assert len(table) <= CURSOR_ID_LIMIT
                with pytest.raises(ServingError) as info:
                    doc.page(cursor=pages[0].cursor_id)
                messages.append(str(info.value))
                newest = doc.page(cursor=pages[-1])
                assert newest.offset == 1 and newest.answers
        assert messages[0] == messages[1]
        assert "has no cursor 0" in messages[0]
