"""The wire codec against a reference copy, and pinned frame bytes.

* Reference oracle.  ``_ref_encode`` / ``_ref_decode`` below are the wire
  codec of :mod:`repro.net.framing` as it stood before answer sets got a
  direct path through it: every value encoded and decoded recursively, set
  members and dict keys sorted by ``json.dumps`` of their encoding, the
  frame body rendered by a second ``json.dumps``.  The library must render
  byte-identical frames and decode them to the same values, types included
  (``True`` is not ``1``, a tuple is not a list), on seeded random values,
  on every domain object the server sends and on real answer pages.  On
  malformed bodies the library raises :class:`~repro.errors.ProtocolError`
  or :class:`~repro.errors.CodecError` wherever the reference raises
  anything, and decodes to the reference's value wherever it does not.
* Pinned frames.  ``PINNED_FRAMES`` holds blake2b digests of real frames on
  the fixed 300-node tree of ``PINNED_ORDER``: a 50-answer page of each
  benchmark query, the tree itself, the report of a 30-edit batch (timings
  zeroed) and the :class:`~repro.errors.CursorInvalidatedError` that batch
  raises on the page's cursor.  Frozenset iteration follows
  ``PYTHONHASHSEED``, so a codec that skipped the canonical sort would pass
  under one seed and fail under another; ``make test-hashseeds`` runs this
  module under two.
* Catalog leg.  ``_ref_encode_value`` / ``_ref_decode_value`` are the
  catalog codec of :mod:`repro.automata.serialize` as it stood while it was
  a separate copy of the wire's shared tags: ``f``, ``t`` and ``s`` only,
  with a decode depth limit of :data:`MAX_VALUE_DEPTH`.  The library must
  encode seeded random automaton values to the same canonical text and
  decode them to the same values, types included; on malformed payloads it
  raises :class:`~repro.errors.CodecError` or
  :class:`~repro.errors.InvalidAutomatonError` wherever the reference
  raises anything, and decodes to the reference's value elsewhere.
* Pinned catalog payloads.  ``PINNED_CATALOG`` holds sha256 digests of the
  canonical source-query payload and of the canonical compiled-automaton
  payload of each benchmark query and of a two-capture spanner: the bytes
  a catalog entry stores for them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import namedtuple
from enum import IntEnum
from typing import Dict, Optional

import pytest

from repro import Engine
from repro import errors as errors_module
from repro.automata.queries import DEFAULT_LABELS
from repro.automata.serialize import (
    MAX_VALUE_DEPTH,
    binary_tva_to_payload,
    canonical_json,
    decode_value,
    encode_value,
    query_payload,
)
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.core.enumerator import compiled_automaton_for
from repro.core.results import UpdateStats
from repro.engine.cursor import CursorInvalidation
from repro.engine.local import BatchUpdateReport
from repro.engine.query import normalize_query_source
from repro.errors import (
    CodecError,
    CursorInvalidatedError,
    EngineError,
    InvalidAutomatonError,
    ProtocolError,
    ReproError,
    ShardTimeoutError,
)
from repro.net.framing import MAX_WIRE_DEPTH, decode_frame_body, encode_frame
from repro.net.server import EngineServer
from repro.trees.edits import Delete, Insert, InsertRight, Relabel, random_edit_sequence
from repro.trees.unranked import UnrankedNode, UnrankedTree

#: blake2b (32-byte) digests of whole frames, length prefix included
PINNED_FRAMES = {
    "page:select-a": "c0fcb4aa6d3143daef789a3ab857a8c738d7e4d2a8ade56b327c1efa82a7d1de",
    "page:descendant": "68bec7283af56427d07c9b9393223da360aa62b0febfef78c2f1046fdd18f7ef",
    "page:nondet-6": "c0fcb4aa6d3143daef789a3ab857a8c738d7e4d2a8ade56b327c1efa82a7d1de",
    "tree": "5cfdaeb7088ec3b5ad434d8d34d75c3dfc7063df94d83e0614e6b18006c9eede",
    "report": "d5e1b8f0762c2bf58fabf9134d212b8f141a83bb4940fae55df5a02017fd2fb9",
    "cursor-invalidated": "7f9a8a412a854383e241d5416fe58a792acef29511807b41a49bad08f9205dde",
}

_SPANNER = ".*x{ab}.*y{c+}a.*"


# --------------------------------------------------------------------------- reference codec
def _ref_canonical_key(encoded: object) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _ref_canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _ref_encode(value: object, _depth: int = 0) -> object:
    if _depth >= MAX_WIRE_DEPTH:
        raise ProtocolError(
            f"refusing to encode a value nested deeper than {MAX_WIRE_DEPTH} levels"
        )
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, tuple):
        return ["t", [_ref_encode(item, _depth + 1) for item in value]]
    if isinstance(value, frozenset):
        encoded = [_ref_encode(item, _depth + 1) for item in value]
        encoded.sort(key=_ref_canonical_key)
        return ["s", encoded]
    if isinstance(value, list):
        return ["l", [_ref_encode(item, _depth + 1) for item in value]]
    if isinstance(value, dict):
        rows = [
            [_ref_encode(key, _depth + 1), _ref_encode(val, _depth + 1)]
            for key, val in value.items()
        ]
        rows.sort(key=lambda row: _ref_canonical_key(row[0]))
        return ["d", rows]
    encoded = _ref_encode_domain(value, _depth)
    if encoded is not None:
        return encoded
    raise ProtocolError(f"cannot put a {type(value).__name__} on the wire")


def _ref_encode_domain(value: object, depth: int) -> Optional[list]:
    if isinstance(value, UnrankedTree):
        nodes = [
            [
                node.node_id,
                _ref_encode(node.label, depth + 1),
                None if node.parent is None else node.parent.node_id,
            ]
            for node in value.nodes()
        ]
        return ["tree", [value._next_id, nodes]]
    if isinstance(value, Relabel):
        return ["edit", ["relabel", value.node_id, _ref_encode(value.label, depth + 1)]]
    if isinstance(value, Insert):
        return ["edit", ["insert", value.node_id, _ref_encode(value.label, depth + 1)]]
    if isinstance(value, InsertRight):
        return ["edit", ["insertR", value.node_id, _ref_encode(value.label, depth + 1)]]
    if isinstance(value, Delete):
        return ["edit", ["delete", value.node_id, None]]
    if isinstance(value, UpdateStats):
        return [
            "ustat",
            [
                value.trunk_size,
                value.rebuilt_subterm_size,
                _ref_encode(value.seconds, depth + 1),
                value.new_node_id,
                value.new_position_id,
            ],
        ]
    if isinstance(value, BatchUpdateReport):
        return [
            "report",
            [
                _ref_encode(value.document_id, depth + 1),
                value.epoch,
                [_ref_encode(stat, depth + 1) for stat in value.stats],
                value.boxes_rebuilt,
                value.cursors_resumed,
                value.cursors_invalidated,
            ],
        ]
    if isinstance(value, CursorInvalidation):
        return [
            "inval",
            [
                value.cursor_id,
                _ref_encode(value.document_id, depth + 1),
                value.base_epoch,
                value.invalidated_epoch,
                value.answers_delivered,
                value.edit,
                value.boxes_hit,
                _ref_encode(value.regions, depth + 1),
            ],
        ]
    if isinstance(value, BaseException):
        extra: Dict[str, object] = {}
        shard = getattr(value, "shard", None)
        if shard is not None or hasattr(value, "deadline"):
            for attr in ("shard", "op", "elapsed", "deadline"):
                if hasattr(value, attr):
                    extra[attr] = _ref_encode(getattr(value, attr), depth + 1)
        report = getattr(value, "report", None)
        if report is not None:
            extra["report"] = _ref_encode(report, depth + 1)
        return ["exc", [type(value).__name__, str(value), ["d", sorted(
            ([key, val] for key, val in extra.items()), key=lambda row: row[0]
        )]]]
    return None


def _ref_expect(condition: bool, what: str) -> None:
    if not condition:
        raise ProtocolError(f"malformed frame value: {what}")


def _ref_decode(payload: object, _depth: int = 0) -> object:
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    if not isinstance(payload, list):
        raise ProtocolError(f"malformed frame value: bare {type(payload).__name__}")
    if _depth >= MAX_WIRE_DEPTH:
        raise ProtocolError(f"frame value nested deeper than {MAX_WIRE_DEPTH} levels")
    _ref_expect(len(payload) == 2, f"tagged value of arity {len(payload)} (expected 2)")
    tag, data = payload
    if tag == "f":
        _ref_expect(isinstance(data, str), "'f' tag without a repr string")
        try:
            return float(data)
        except ValueError as exc:
            raise ProtocolError(f"malformed frame value: bad float repr {data!r}") from exc
    if tag in ("t", "s", "l"):
        _ref_expect(isinstance(data, list), f"{tag!r} tag without a list payload")
        items = [_ref_decode(item, _depth + 1) for item in data]
        if tag == "t":
            return tuple(items)
        if tag == "s":
            return frozenset(items)
        return items
    if tag == "d":
        _ref_expect(isinstance(data, list), "'d' tag without a row list")
        out = {}
        for row in data:
            _ref_expect(isinstance(row, list) and len(row) == 2, "dict row that is not a pair")
            out[_ref_decode(row[0], _depth + 1)] = _ref_decode(row[1], _depth + 1)
        return out
    return _ref_decode_domain(tag, data, _depth)


def _ref_decode_domain(tag: str, data: object, depth: int) -> object:
    if tag == "tree":
        _ref_expect(isinstance(data, list) and len(data) == 2, "'tree' tag arity")
        next_id, rows = data
        _ref_expect(isinstance(next_id, int) and isinstance(rows, list) and rows,
                    "'tree' tag needs [next_id, non-empty node rows]")
        tree = UnrankedTree.__new__(UnrankedTree)
        tree._next_id = next_id
        tree._nodes = {}
        tree.version = 0
        root_row = rows[0]
        _ref_expect(isinstance(root_row, list) and len(root_row) == 3 and root_row[2] is None,
                    "'tree' tag whose first row is not a parentless root")
        tree.root = UnrankedNode(root_row[0], _ref_decode(root_row[1], depth + 1), None)
        tree._nodes[tree.root.node_id] = tree.root
        for row in rows[1:]:
            _ref_expect(isinstance(row, list) and len(row) == 3, "'tree' node row arity")
            node_id, label, parent_id = row
            parent = tree._nodes.get(parent_id)
            _ref_expect(parent is not None, f"'tree' node {node_id!r} references "
                        f"unknown parent {parent_id!r}")
            _ref_expect(isinstance(node_id, int) and node_id not in tree._nodes,
                        f"'tree' node id {node_id!r} is not a fresh int")
            node = UnrankedNode(node_id, _ref_decode(label, depth + 1), parent)
            parent.children.append(node)
            tree._nodes[node_id] = node
        return tree
    if tag == "edit":
        _ref_expect(isinstance(data, list) and len(data) == 3, "'edit' tag arity")
        kind, node_id, label = data
        _ref_expect(isinstance(node_id, int), "'edit' without an int node id")
        label = _ref_decode(label, depth + 1)
        if kind == "relabel":
            return Relabel(node_id, label)
        if kind == "insert":
            return Insert(node_id, label)
        if kind == "insertR":
            return InsertRight(node_id, label)
        if kind == "delete":
            return Delete(node_id)
        raise ProtocolError(f"malformed frame value: unknown edit kind {kind!r}")
    if tag == "ustat":
        _ref_expect(isinstance(data, list) and len(data) == 5, "'ustat' tag arity")
        return UpdateStats(
            trunk_size=data[0],
            rebuilt_subterm_size=data[1],
            seconds=_ref_decode(data[2], depth + 1),
            new_node_id=data[3],
            new_position_id=data[4],
        )
    if tag == "report":
        _ref_expect(isinstance(data, list) and len(data) == 6, "'report' tag arity")
        stats = data[2]
        _ref_expect(isinstance(stats, list), "'report' stats that are not a list")
        return BatchUpdateReport(
            document_id=_ref_decode(data[0], depth + 1),
            epoch=data[1],
            stats=[_ref_decode(stat, depth + 1) for stat in stats],
            boxes_rebuilt=data[3],
            cursors_resumed=data[4],
            cursors_invalidated=data[5],
        )
    if tag == "inval":
        _ref_expect(isinstance(data, list) and len(data) == 8, "'inval' tag arity")
        regions = _ref_decode(data[7], depth + 1)
        _ref_expect(isinstance(regions, tuple), "'inval' regions that are not a tuple")
        return CursorInvalidation(
            cursor_id=data[0],
            document_id=_ref_decode(data[1], depth + 1),
            base_epoch=data[2],
            invalidated_epoch=data[3],
            answers_delivered=data[4],
            edit=data[5],
            boxes_hit=data[6],
            regions=regions,
        )
    if tag == "exc":
        _ref_expect(isinstance(data, list) and len(data) == 3, "'exc' tag arity")
        name, message, extra = data
        _ref_expect(isinstance(name, str) and isinstance(message, str), "'exc' name/message")
        return _ref_rebuild_exception(name, message, _ref_decode(extra, depth + 1))
    raise ProtocolError(f"malformed frame value: unknown wire tag {tag!r}")


def _ref_rebuild_exception(name: str, message: str, extra: object) -> BaseException:
    if not isinstance(extra, dict):
        extra = {}
    cls = getattr(errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return EngineError(f"remote error ({name}): {message}")
    if issubclass(cls, ShardTimeoutError):
        return cls(
            message,
            shard=extra.get("shard"),
            op=extra.get("op"),
            elapsed=extra.get("elapsed"),
            deadline=extra.get("deadline"),
        )
    if issubclass(cls, CursorInvalidatedError):
        return cls(message, report=extra.get("report"))
    return cls(message)


def _ref_frame(value: object) -> bytes:
    body = _ref_canonical_json(_ref_encode(value)).encode("utf8")
    return len(body).to_bytes(4, "big") + body


def _ref_decode_body(body: bytes) -> object:
    return _ref_decode(json.loads(body.decode("utf8")))


# --------------------------------------------------------------------------- comparison
def _typed(value: object) -> object:
    """A structure equal for two values only if their types match all the way down."""
    if isinstance(value, (frozenset, set)):
        return (type(value).__name__, sorted((_typed(item) for item in value), key=repr))
    if isinstance(value, dict):
        rows = ((_typed(key), _typed(val)) for key, val in value.items())
        return ("dict", sorted(rows, key=repr))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, UnrankedTree):
        rows = [
            (node.node_id, _typed(node.label), None if node.parent is None else node.parent.node_id)
            for node in value.nodes()
        ]
        return ("tree", value._next_id, rows)
    if isinstance(value, BaseException):
        return ("exc", type(value).__name__, str(value), _typed(dict(vars(value))))
    if dataclasses.is_dataclass(value):
        fields = [(f.name, _typed(getattr(value, f.name))) for f in dataclasses.fields(value)]
        return ("dataclass", type(value).__name__, fields)
    return (type(value).__name__, value)


def _assert_same_frame(value: object) -> None:
    frame = encode_frame(value)
    assert frame == _ref_frame(value)
    assert _typed(decode_frame_body(frame[4:])) == _typed(_ref_decode_body(frame[4:]))


def _assert_same_decode(body: bytes) -> None:
    try:
        expected = _ref_decode_body(body)
    except Exception:  # noqa: BLE001 — whatever the reference raised
        with pytest.raises((ProtocolError, CodecError)):
            decode_frame_body(body)
        return
    assert _typed(decode_frame_body(body)) == _typed(expected)


# --------------------------------------------------------------------------- random values
class Color(IntEnum):
    RED = 1
    BLUE = 7


Pair = namedtuple("Pair", "var node")


class Label(str):
    """A ``str`` subclass: it must encode exactly like its plain text."""


_STRINGS = (
    "", "x", "y", "ab", "héllo", "日本語", "😀", 'q"uote', "back\\slash", "\\\"",
    "\n\t\x00\x1f", " ", "\udc80", "t", "s",
)
_INTS = (0, 1, -1, 7, -17, 255, 2**31, 2**63, 2**70, -(2**70), True, False,
         Color.RED, Color.BLUE)
_FLOATS = (0.0, -0.0, 1.5, 0.1, 1e-300, float("inf"), float("-inf"), float("nan"))
_VARS = ("x", "y", "z", "é", 'q"', "b\\s", "", Label("x"), 3)
_NODE_IDS = (0, 1, 5, 165, -3, 2**70, True, False, Color.BLUE, 1.0, None, "1")


def _leaf(rng: random.Random) -> object:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_INTS)
    if kind == 1:
        return rng.choice(_STRINGS)
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind == 3:
        return rng.choice((None, True, False))
    return Label(rng.choice(_STRINGS))


def _pair(rng: random.Random) -> object:
    """An answer member ``(variable, id)``, mostly well-formed, sometimes a near miss."""
    var, node = rng.choice(_VARS[:6]), rng.randrange(400)
    roll = rng.random()
    if roll < 0.6:
        return (var, node)
    if roll < 0.7:
        return (rng.choice(_VARS), rng.choice(_NODE_IDS))
    if roll < 0.8:
        return Pair(var, node)
    if roll < 0.9:
        return (var,) if rng.random() < 0.5 else (var, node, node)
    return (var, (node,))


def _answer(rng: random.Random) -> frozenset:
    return frozenset(_pair(rng) for _ in range(rng.randrange(4)))


def _value(rng: random.Random, depth: int, hashable: bool = False) -> object:
    if depth <= 0 or rng.random() < 0.25:
        return _leaf(rng)
    width = rng.randrange(5)
    kind = rng.randrange(4 if hashable else 7)
    if kind == 0:
        return tuple(_value(rng, depth - 1, hashable) for _ in range(width))
    if kind == 1:
        return _answer(rng)
    if kind == 2:
        return frozenset(_value(rng, depth - 1, True) for _ in range(width))
    if kind == 3:
        return Pair(_value(rng, depth - 1, hashable), _value(rng, depth - 1, hashable))
    if kind == 4:
        return tuple(_answer(rng) for _ in range(width * 3))
    if kind == 5:
        return [_value(rng, depth - 1) for _ in range(width)]
    return {_value(rng, depth - 1, True): _value(rng, depth - 1) for _ in range(width)}


@pytest.mark.parametrize("seed", range(4))
def test_random_values_frame_identically(seed):
    rng = random.Random(7919 + seed)
    for _ in range(5000):
        _assert_same_frame(_value(rng, 4))


def test_edge_values_frame_identically():
    for value in (
        frozenset({("x", True), ("y", 1)}),
        frozenset({("x", 1), ("x", True)}),
        frozenset({("x", Color.RED), ("x", 2)}),
        frozenset({(Label("x"), 1), ("y", 1)}),
        frozenset({Pair("x", 1), ("y", 2)}),
        frozenset({("x", 1.0), ("y", 2)}),
        frozenset({("x", 2**70), ("x", -(2**70)), ("x", -1)}),
        frozenset({("é", 1), ("e", 1), ('"', 1), ("\\", 1), ("\udc80", 1), ("😀", 1)}),
        frozenset({("x", 1), "x", 1, None, (1, "x")}),
        frozenset({frozenset({("x", 1)}), frozenset({("y", 0)})}),
        {("x", 1): frozenset({("x", 1)}), frozenset({("y", 2)}): -0.0},
        [True, 1, 1.0, -0.0, 0.0, float("inf")],
    ):
        _assert_same_frame(value)


@pytest.mark.parametrize("inner", [0, 1, 2, 3])
def test_answer_sets_at_the_depth_limit(inner):
    """Wrap an answer set so that its members sit at, around and past the limit."""
    for answer in (frozenset({("x", 1), ("y", 2)}), frozenset(), frozenset({("x", True)})):
        value = answer
        for _ in range(MAX_WIRE_DEPTH - inner):
            value = [value]
        try:
            expected = _ref_frame(value)
        except ProtocolError:
            with pytest.raises(ProtocolError, match="nested deeper"):
                encode_frame(value)
        else:
            assert encode_frame(value) == expected
        # The decode side of the same nesting, from a hand-built body.
        payload = _ref_encode(answer)
        for _ in range(MAX_WIRE_DEPTH - inner):
            payload = ["l", [payload]]
        _assert_same_decode(json.dumps(payload).encode())


# --------------------------------------------------------------------------- domain objects
def _exceptions():
    out = []
    for name in sorted(dir(errors_module)):
        cls = getattr(errors_module, name)
        if not (isinstance(cls, type) and issubclass(cls, BaseException)):
            continue
        if issubclass(cls, ShardTimeoutError):
            out.append(cls("shard 1 exceeded", shard=1, op="page", elapsed=2.5, deadline=2.0))
        elif issubclass(cls, CursorInvalidatedError):
            out.append(cls("cursor 3 invalidated", report=_invalidation()))
            out.append(cls("no report"))
        else:
            out.append(cls(f"{name}: 'quoted' \"and\" héllo"))
    out.append(ValueError("not a repro error"))
    out.append(KeyError(("x", 1)))
    return out


def _invalidation() -> CursorInvalidation:
    return CursorInvalidation(
        cursor_id=3,
        document_id="d",
        base_epoch=1,
        invalidated_epoch=2,
        answers_delivered=5,
        edit="delete node 4",
        boxes_hit=2,
        regions=(("a", 4, 9, (0, 2)), ("r", 0, 17, (1,))),
    )


def test_domain_objects_frame_identically():
    tree = tree_for_experiment(300, "random", seed=13)
    stats = UpdateStats(10, 3, 0.25, new_node_id=12, new_position_id=None)
    report = BatchUpdateReport(
        document_id="doc-1", epoch=7, stats=[stats, UpdateStats(1, 0, 1e-06)],
        boxes_rebuilt=4, cursors_resumed=2, cursors_invalidated=1,
    )
    values = [
        tree,
        UnrankedTree.from_nested(("c", [("a", ["b", "a"]), ("b", ["a"]), "a"])),
        Relabel(3, "b"), Insert(0, "c"), InsertRight(2, "a"), Delete(4),
        stats, report, _invalidation(),
    ]
    values += _exceptions()
    for value in values:
        _assert_same_frame(value)
    _assert_same_frame([5, "ok", tuple(values)])
    _assert_same_frame([6, "err", ShardTimeoutError("late", shard=0, op="x", elapsed=1.0,
                                                    deadline=0.5)])


# --------------------------------------------------------------------------- real pages
def _page_reply(engine, doc, request_id=7, size=50):
    """The reply frame value the server sends for a fresh page."""
    return [request_id, "ok", EngineServer(engine)._dispatch("page", [doc.doc_id, None, size])]


@pytest.mark.parametrize("name", ["select-a", "descendant", "nondet-6"])
def test_real_pages_frame_identically(name):
    tree = tree_for_experiment(2048, "random", seed=5)
    with Engine() as engine:
        doc = engine.add(tree, query_for_name(name))
        reply = _page_reply(engine, doc)
        assert len(reply[2]["answers"]) == 50
        _assert_same_frame(reply)


def test_real_spanner_page_frames_identically():
    rng = random.Random(41)
    word = [rng.choice("abc") for _ in range(400)]
    with Engine() as engine:
        doc = engine.add_word(word, _SPANNER, alphabet="abc")
        reply = _page_reply(engine, doc)
        answers = reply[2]["answers"]
        assert len(answers) == 50
        assert all({var for var, _position in answer} == {"x", "y"} for answer in answers)
        _assert_same_frame(reply)


# --------------------------------------------------------------------------- malformed bodies
_JSON_ATOMS = ("x", "", "t", "s", 1, 0, -4, 2**70, True, False, None, 1.5, [], {},
               ["f", "1.5"], ["t", []], ["s", []])
#: members and keys the reference cannot hash (a bare TypeError there)
_UNHASHABLE = (["l", []], ["d", []], ["t", [1, ["l", [2]]]], ["s", [["l", []]]])


def _pair_like(rng: random.Random) -> object:
    """A JSON member that is, or only looks like, an encoded answer pair."""
    var = rng.choice(("x", "y", "é", 3, None, True, ["t", ["x"]]))
    node = rng.choice((1, 0, -7, 2**70, True, False, None, 1.5, "1", ["f", "1.0"]))
    roll = rng.randrange(12)
    if roll < 5:
        return ["t", [var, node]]
    if roll == 5:
        return ["t", [var]]
    if roll == 6:
        return ["t", [var, node, node]]
    if roll == 7:
        return ["t", var]
    if roll == 8:
        return [rng.choice(("u", "s", "l", "T", 1, None)), [var, node]]
    if roll == 9:
        return ["t", [var, node], 3]
    if roll == 10:
        return rng.choice((["t"], [], "t", 5, {"t": 1}))
    return rng.choice(_JSON_ATOMS + _UNHASHABLE)


def _malformed_payload(rng: random.Random) -> object:
    members = [_pair_like(rng) for _ in range(rng.randrange(5))]
    roll = rng.randrange(5)
    if roll == 0:
        payload = ["s", members]
    elif roll == 1:
        payload = ["s", members, 1]
    elif roll == 2:
        payload = ["t", [["s", members], ["s", members[:1]]]]
    elif roll == 3:
        payload = ["s", {"members": members}]
    else:
        payload = ["d", [[rng.choice(_JSON_ATOMS[:12] + _UNHASHABLE), ["s", members]]]]
    for _ in range(rng.choice((0, 0, 1, 2, MAX_WIRE_DEPTH - 3, MAX_WIRE_DEPTH - 2,
                               MAX_WIRE_DEPTH - 1, MAX_WIRE_DEPTH))):
        payload = ["l", [payload]]
    return payload


def test_pair_look_alikes_decode_as_the_reference():
    for text in (
        '["s",[["t",["x",true]]]]',
        '["s",[["t",["x"]]]]',
        '["s",[["t",["x",1,2]]]]',
        '["s",[["t",["x",1]],["t",["x",true]]]]',
        '["s",[["t",[1,"x"]]]]',
        '["s",[["t",["x",1.0]]]]',
        '["s",[["t",["x",null]]]]',
        '["s",[["t",["x",["f","1.0"]]]]]',
        '["s",[["t",[["t",["x"]],1]]]]',
        '["s",[["t","x"]]]',
        '["s",[["t",["x",1]],["t",["x",1]]]]',
        '["s",[["t",["y",2]],["t",["x",1]]]]',
        '["s",[["t",["x",1]],"x",1]]',
        '["s",[["t",["x",1]],["l",[]]]]',
        '["s",[["t",["x",["l",[]]]]]]',
        '["s",[["t",["x",' + "9" * 5000 + ']]]]',
    ):
        _assert_same_decode(text.encode())


def test_malformed_bodies_match_the_reference():
    rng = random.Random(2718)
    for _ in range(4000):
        _assert_same_decode(json.dumps(_malformed_payload(rng)).encode())


def test_corrupted_page_bytes_match_the_reference():
    tree = tree_for_experiment(300, "random", seed=13)
    with Engine() as engine:
        doc = engine.add(tree, query_for_name("descendant"))
        body = encode_frame(_page_reply(engine, doc))[4:]
    rng = random.Random(31337)
    for _ in range(1500):
        corrupt = bytearray(body)
        for _ in range(rng.randint(1, 3)):
            corrupt[rng.randrange(len(corrupt))] = rng.choice(b'[]",tx0123456789 {}:eu')
        _assert_same_decode(bytes(corrupt))


# --------------------------------------------------------------------------- pinned frames
def _pinned_frames() -> Dict[str, bytes]:
    tree = tree_for_experiment(300, "random", seed=13)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, 30, seed=29)
    frames = {"tree": encode_frame(tree)}
    for name in ("select-a", "descendant", "nondet-6"):
        with Engine() as engine:
            doc = engine.add(tree.copy(), query_for_name(name))
            server = EngineServer(engine)
            page = server._dispatch("page", [doc.doc_id, None, 50])
            frames[f"page:{name}"] = encode_frame([7, "ok", page])
            if name != "descendant":
                continue
            report = engine.apply_edits(doc.doc_id, edits)
            stats = [dataclasses.replace(stat, seconds=0.0) for stat in report.stats]
            frames["report"] = encode_frame([8, "ok", dataclasses.replace(report, stats=stats)])
            with pytest.raises(CursorInvalidatedError) as caught:
                server._dispatch("page", [doc.doc_id, page["cursor_id"], None])
            frames["cursor-invalidated"] = encode_frame([9, "err", caught.value])
    return frames


def test_frames_are_pinned():
    digests = {
        key: hashlib.blake2b(frame, digest_size=32).hexdigest()
        for key, frame in _pinned_frames().items()
    }
    assert digests == PINNED_FRAMES


# --------------------------------------------------------------------------- catalog leg
#: sha256 digests of the canonical payloads a catalog entry stores
PINNED_CATALOG = {
    "query:select-a": "27f1c9082085a0230bf35f77a318a9a81ff197a9828bbeb651de82029ce7c5b4",
    "automaton:select-a": "ceffcb81e8a5f5c4cebeffc56c03b8cb594733a81572b6a61542046dd4644b53",
    "query:descendant": "32059fcdfd454b2bcaf6bfc8ab979de6ff138bd7ebe17a3257e500553ec14416",
    "automaton:descendant": "255700b08e169b0188ebc00693ea2bcf07b337e576af928285a136e6dfea644d",
    "query:nondet-6": "c4c34f25b8a97a00e075c7f55141e010f71d49da353a5e25ba5f05a6431b9f22",
    "automaton:nondet-6": "612bd1a32dd8a5cbf0184ef2707948a6d3b549385a1b6733720cc7e562455a20",
    "query:spanner": "f174dffc325515f9485bd3a3d10ee7609299f657d089c79a75ddbcf415c0baab",
    "automaton:spanner": "12efc08890010f368b0a38fb107e541d6dec4bed987459a1f7a4d4200d329394",
}


def _ref_encode_value(value: object) -> object:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, tuple):
        return ["t", [_ref_encode_value(item) for item in value]]
    if isinstance(value, frozenset):
        encoded = [_ref_encode_value(item) for item in value]
        encoded.sort(key=_ref_canonical_key)
        return ["s", encoded]
    raise InvalidAutomatonError(f"cannot serialize value {value!r}")


def _ref_decode_value(payload: object, _depth: int = 0) -> object:
    if isinstance(payload, list):
        if _depth >= MAX_VALUE_DEPTH:
            raise CodecError(f"value payload nested deeper than {MAX_VALUE_DEPTH} levels")
        if len(payload) != 2:
            raise CodecError(f"tagged value of length {len(payload)}")
        tag, data = payload
        if tag == "t":
            if not isinstance(data, list):
                raise CodecError("'t' tag needs a list payload")
            return tuple(_ref_decode_value(item, _depth + 1) for item in data)
        if tag == "s":
            if not isinstance(data, list):
                raise CodecError("'s' tag needs a list payload")
            return frozenset(_ref_decode_value(item, _depth + 1) for item in data)
        if tag == "f":
            if not isinstance(data, str):
                raise CodecError("'f' tag needs a repr string")
            try:
                return float(data)
            except ValueError as exc:
                raise CodecError(f"unparseable float repr {data!r}") from exc
        raise CodecError(f"unknown value tag {tag!r}")
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    raise CodecError(f"cannot decode a value of type {type(payload).__name__}")


def _levels(value: object) -> int:
    """Tagged lists on the deepest path of ``value``'s encoding."""
    if isinstance(value, (tuple, frozenset)):
        return 1 + max(map(_levels, value), default=0)
    return 1 if isinstance(value, float) else 0


def _catalog_value(rng: random.Random) -> object:
    """An automaton value: hashable, its deepest tagged list above depth 31."""
    value = _value(rng, 4, hashable=True)
    room = 31 - _levels(value)
    for _ in range(min(room, rng.choice((0, 0, 0, 1, 2, rng.randrange(31))))):
        value = (value,) if rng.random() < 0.5 else frozenset({value, rng.choice(_INTS)})
    return value


def _assert_same_catalog_value(value: object) -> None:
    text = canonical_json(encode_value(value))
    assert text == _ref_canonical_json(_ref_encode_value(value))
    payload = json.loads(text)
    assert _typed(decode_value(payload)) == _typed(_ref_decode_value(payload))


def _assert_same_catalog_decode(payload: object) -> None:
    try:
        expected = _ref_decode_value(payload)
    except Exception:  # noqa: BLE001 — whatever the reference raised
        with pytest.raises((CodecError, InvalidAutomatonError)):
            decode_value(payload)
        return
    assert _typed(decode_value(payload)) == _typed(expected)


@pytest.mark.parametrize("seed", range(2))
def test_random_values_encode_as_the_catalog_reference(seed):
    rng = random.Random(104729 + seed)
    for _ in range(5000):
        _assert_same_catalog_value(_catalog_value(rng))


def test_edge_values_encode_as_the_catalog_reference():
    for value in (
        None, True, 1, False, 0, 2**70, -(2**70), -0.0, 0.0, float("inf"),
        float("-inf"), float("nan"), "héllo", 'q"uote', "back\\slash", "\udc80", "日本語",
        (True, 1, 1.0), frozenset({True, 2, 1.5}), frozenset({(1,), ("1",), (1.0, None)}),
        frozenset({("x", 1), ("x", True), ("y", 2**70)}),
        frozenset({frozenset({("x", 1)}), frozenset({("y", 0), ("é", 3)})}),
        Pair("x", 1), Label("x"), Color.BLUE, (Color.RED, Label("s")),
    ):
        _assert_same_catalog_value(value)


def _catalog_payload_like(rng: random.Random) -> object:
    """A JSON value that is, or only looks like, an encoded automaton value."""
    roll = rng.randrange(12)
    if roll == 0:
        return [rng.choice(("u", "T", "", 1, None, "tuple")), []]
    if roll == 1:
        return rng.choice((["l", [1, 2]], ["d", [[1, 2]]], ["tree", [2, [[0, "a", None]]]],
                           ["exc", ["EngineError", "boom", ["d", []]]], ["edit", ["delete", 1, None]]))
    if roll == 2:
        return rng.choice(({}, {"t": [1]}, 1.5, -0.0, 1e300))
    if roll == 3:
        return rng.choice((["t"], ["t", [], 1], [], ["s"], ["f", "1.0", 2], [["t", []], 1]))
    if roll == 4:
        return ["f", rng.choice((1.5, None, 1, True, [], "x", "nan", "-inf", "1e999", " 2.5 "))]
    if roll == 5:
        return [rng.choice(("t", "s")), rng.choice(("x", 1, None, {"a": 1}))]
    if roll == 6:
        return ["s", [_catalog_payload_like(rng) for _ in range(rng.randrange(3))]]
    if roll == 7:
        return ["t", [_catalog_payload_like(rng) for _ in range(rng.randrange(3))]]
    if roll == 8:
        var = rng.choice(("x", "y", 3, None, True, ["t", ["x"]]))
        node = rng.choice((1, 0, 2**70, True, None, 1.5, "1", ["f", "1.0"]))
        return ["s", [["t", [var, node]] for _ in range(rng.randrange(3))]]
    return json.loads(canonical_json(encode_value(_value(rng, 3, hashable=True))))


def _nest(payload: object, levels: int, tag: str = "t") -> object:
    for _ in range(levels):
        payload = [tag, [payload]]
    return payload


def test_malformed_payloads_decode_as_the_catalog_reference():
    rng = random.Random(161803)
    for _ in range(4000):
        payload = _catalog_payload_like(rng)
        if rng.random() < 0.2:
            payload = _nest(payload, rng.choice((1, 2, 29, 30, 31, 32, 33)), rng.choice("ts"))
        _assert_same_catalog_decode(payload)


@pytest.mark.parametrize("levels", [30, 31, 32, 33])
def test_catalog_nesting_around_the_depth_limit(levels):
    for inner in (1, "x", None, ["f", "1.5"], ["t", []], ["s", []], ["s", [["t", ["x", 1]]]],
                  ["s", [["t", ["x", True]]]]):
        for tag in ("t", "s"):
            _assert_same_catalog_decode(_nest(inner, levels, tag))


def _pinned_catalog_queries():
    queries = {name: query_for_name(name) for name in ("select-a", "descendant", "nondet-6")}
    queries["spanner"] = normalize_query_source(_SPANNER, "abc")[1]
    return queries


def test_catalog_payloads_are_pinned():
    digests = {}
    for name, query in _pinned_catalog_queries().items():
        for key, payload in (
            (f"query:{name}", query_payload(query)),
            (f"automaton:{name}", binary_tva_to_payload(compiled_automaton_for(query))),
        ):
            digests[key] = hashlib.sha256(canonical_json(payload).encode("utf8")).hexdigest()
    assert digests == PINNED_CATALOG


def test_an_engine_writes_catalog_entries_of_the_pinned_sections_only(tmp_path):
    with Engine(catalog=str(tmp_path)) as engine:
        for name, query in _pinned_catalog_queries().items():
            with open(engine.catalog.path_of(engine.compile(query).digest), encoding="utf8") as handle:
                entry = json.load(handle)
            assert sorted(entry) == ["automaton", "digest", "format", "kind", "meta", "query"]
            for section in ("query", "automaton"):
                text = canonical_json(entry[section])
                assert (
                    hashlib.sha256(text.encode("utf8")).hexdigest()
                    == PINNED_CATALOG[f"{section}:{name}"]
                ), section
