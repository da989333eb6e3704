"""Wire framing of the network serving tier: length-prefixed canonical JSON.

Every message between :class:`~repro.net.client.RemoteEngine` and
:class:`~repro.net.server.EngineServer` is one **frame**: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 canonical
JSON (sorted keys, no whitespace — the exact rendering of
:func:`repro.automata.serialize.canonical_json`).  There is **no pickle on
the wire**: the body is a tagged value codec, version-stable and safe to
parse from untrusted peers.

That codec extends the catalog's, and does not copy it.  Both are built
by :func:`repro.automata.serialize.value_codec`, which owns the bare JSON
primitives, the ``f``/``t``/``s`` tags, the canonical set order and the
direct path of answer sets.  This module adds the tags below through the
two extension points (:func:`_encode_other`, :func:`_decode_other`), and
sets the wire's own depth limit (:data:`MAX_WIRE_DEPTH`, on encode and
decode) and error type (:class:`~repro.errors.ProtocolError`).

========  ==================================================================
tag       payload
========  ==================================================================
``l``     list, items encoded in order
``d``     dict as ``[[key, value], ...]`` sorted by the encoded key
``tree``  :class:`~repro.trees.unranked.UnrankedTree` with **node ids
          preserved** (``[next_id, [[id, label, parent_id], ...]]`` in
          document order) — answers reference node ids, so a rebuilt tree
          must carry the same ids as the original
``edit``  a tree :class:`~repro.trees.edits.EditOperation`
``ustat`` one :class:`~repro.core.results.UpdateStats` row
``report`` a :class:`~repro.engine.local.BatchUpdateReport`
``inval``  a :class:`~repro.engine.cursor.CursorInvalidation` report
``exc``    an exception: ``[type_name, message, extra]``, reconstructed
           from the :mod:`repro.errors` hierarchy on decode (unknown types
           degrade to :class:`~repro.errors.EngineError` naming the
           original type) — this is how the server propagates the engine's
           precise error types as typed error frames
========  ==================================================================

Decoding is hardened: unknown tags, wrong arities, oversized or truncated
frames, nesting past :data:`MAX_WIRE_DEPTH`, a set member or dict key that
decodes to an unhashable value and an integer literal past the
interpreter's digit limit raise a precise
:class:`~repro.errors.ProtocolError` naming the offending shape — never a
bare ``ValueError``/``TypeError`` or a blown stack.  Encoding an integer
past that limit raises one as well.  A framing violation is unrecoverable
on a byte stream (the next frame boundary is unknowable), so the side that
detects one closes that connection; see :mod:`repro.net.server` and
:mod:`repro.net.client`.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Dict, List, Optional

from repro.automata.serialize import (
    canonical_json,
    canonical_key,
    loads_payload,
    unhashable_error,
    value_codec,
)
from repro.errors import CodecError, EngineError, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MIN_FRAME_BYTES",
    "MAX_WIRE_DEPTH",
    "encode_wire",
    "decode_wire",
    "encode_frame",
    "decode_frame_body",
    "send_frame",
    "recv_frame",
    "recv_frame_async",
]

#: protocol revision negotiated by the HELLO exchange; bumped on any
#: incompatible change to the frame format, the op vocabulary or a reply
#: shape (revision 2: the ``add_documents`` reply names the registered
#: documents and carries an item's failure)
PROTOCOL_VERSION = 2

#: default per-frame byte ceiling (header excluded) on both sides
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: the lowest ceiling a server or client accepts: room for the HELLO
#: exchange (the server's reply is about 120 bytes) and for the typed error
#: frame that replaces a refused reply (a few hundred bytes)
MIN_FRAME_BYTES = 1024

#: deepest value nesting a frame body may carry (answers are ~3 deep,
#: stats dicts ~4; anything deeper is a recursion bomb, not traffic)
MAX_WIRE_DEPTH = 48

_LEN = struct.Struct(">I")


# ------------------------------------------------------------- value codec
def _encode_other(value: object, depth: int, encode) -> object:
    """Encode what the catalog's tags do not cover: lists, dicts, domain objects."""
    if isinstance(value, list):
        return ["l", [encode(item, depth + 1) for item in value]]
    if isinstance(value, dict):
        rows = [
            [encode(key, depth + 1), encode(val, depth + 1)]
            for key, val in value.items()
        ]
        rows.sort(key=lambda row: canonical_key(row[0]))
        return ["d", rows]
    from repro.core.results import UpdateStats
    from repro.engine.cursor import CursorInvalidation
    from repro.engine.local import BatchUpdateReport
    from repro.trees.edits import Delete, Insert, InsertRight, Relabel
    from repro.trees.unranked import UnrankedTree

    if isinstance(value, UnrankedTree):
        nodes = [
            [
                node.node_id,
                encode(node.label, depth + 1),
                None if node.parent is None else node.parent.node_id,
            ]
            for node in value.nodes()
        ]
        return ["tree", [value._next_id, nodes]]
    if isinstance(value, Relabel):
        return ["edit", ["relabel", value.node_id, encode(value.label, depth + 1)]]
    if isinstance(value, Insert):
        return ["edit", ["insert", value.node_id, encode(value.label, depth + 1)]]
    if isinstance(value, InsertRight):
        return ["edit", ["insertR", value.node_id, encode(value.label, depth + 1)]]
    if isinstance(value, Delete):
        return ["edit", ["delete", value.node_id, None]]
    if isinstance(value, UpdateStats):
        return [
            "ustat",
            [
                value.trunk_size,
                value.rebuilt_subterm_size,
                encode(value.seconds, depth + 1),
                value.new_node_id,
                value.new_position_id,
            ],
        ]
    if isinstance(value, BatchUpdateReport):
        return [
            "report",
            [
                encode(value.document_id, depth + 1),
                value.epoch,
                [encode(stat, depth + 1) for stat in value.stats],
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
                encode(value.document_id, depth + 1),
                value.base_epoch,
                value.invalidated_epoch,
                value.answers_delivered,
                value.edit,
                value.boxes_hit,
                encode(value.regions, depth + 1),
            ],
        ]
    if isinstance(value, BaseException):
        extra: Dict[str, object] = {}
        shard = getattr(value, "shard", None)
        if shard is not None or hasattr(value, "deadline"):
            for attr in ("shard", "op", "elapsed", "deadline"):
                if hasattr(value, attr):
                    extra[attr] = encode(getattr(value, attr), depth + 1)
        report = getattr(value, "report", None)
        if report is not None:
            extra["report"] = encode(report, depth + 1)
        return ["exc", [type(value).__name__, str(value), ["d", sorted(
            ([key, val] for key, val in extra.items()), key=lambda row: row[0]
        )]]]
    raise ProtocolError(
        f"cannot put a {type(value).__name__} on the wire; the codec covers "
        "JSON primitives, float/tuple/frozenset/list/dict, trees, edits, "
        "update reports and exceptions"
    )


def _decode_other(tag: object, data: object, depth: int, decode) -> object:
    """Decode the tags the catalog does not: ``l``, ``d`` and the domain tags."""
    if tag == "l":
        _expect(isinstance(data, list), "'l' tag without a list payload")
        return [decode(item, depth + 1) for item in data]
    if tag == "d":
        _expect(isinstance(data, list), "'d' tag without a row list")
        out = {}
        for row in data:
            _expect(isinstance(row, list) and len(row) == 2, "dict row that is not a pair")
            key = decode(row[0], depth + 1)
            value = decode(row[1], depth + 1)
            try:
                out[key] = value
            except TypeError:
                raise unhashable_error(ProtocolError, "dict key", [key]) from None
        return out
    from repro.core.results import UpdateStats
    from repro.engine.cursor import CursorInvalidation
    from repro.engine.local import BatchUpdateReport
    from repro.trees.edits import Delete, Insert, InsertRight, Relabel
    from repro.trees.unranked import UnrankedNode, UnrankedTree

    if tag == "tree":
        _expect(isinstance(data, list) and len(data) == 2, "'tree' tag arity")
        next_id, rows = data
        _expect(isinstance(next_id, int) and isinstance(rows, list) and rows,
                "'tree' tag needs [next_id, non-empty node rows]")
        # Rebuild with the original node ids (the pattern of
        # UnrankedTree.copy): answers and edits address nodes by id, so a
        # freshly-numbered rebuild would silently break both.
        tree = UnrankedTree.__new__(UnrankedTree)
        tree._next_id = next_id
        tree._nodes = {}
        root_row = rows[0]
        _expect(isinstance(root_row, list) and len(root_row) == 3 and root_row[2] is None,
                "'tree' tag whose first row is not a parentless root")
        _expect(not isinstance(root_row[0], (list, dict)), "'tree' root id that is unhashable")
        tree.root = UnrankedNode(root_row[0], decode(root_row[1], depth + 1), None)
        tree._nodes[tree.root.node_id] = tree.root
        for row in rows[1:]:
            _expect(isinstance(row, list) and len(row) == 3, "'tree' node row arity")
            node_id, label, parent_id = row
            # An unhashable (list or dict) parent id is as unknown as any other.
            parent = None if isinstance(parent_id, (list, dict)) else tree._nodes.get(parent_id)
            if parent is None:
                raise ProtocolError(
                    f"malformed value: 'tree' node {node_id!r} references unknown "
                    f"parent {parent_id!r} (rows must be in document order)"
                )
            if not isinstance(node_id, int) or node_id in tree._nodes:
                raise ProtocolError(
                    f"malformed value: 'tree' node id {node_id!r} is not a fresh int"
                )
            node = UnrankedNode(node_id, decode(label, depth + 1), parent)
            parent.children.append(node)
            tree._nodes[node_id] = node
        return tree
    if tag == "edit":
        _expect(isinstance(data, list) and len(data) == 3, "'edit' tag arity")
        kind, node_id, label = data
        _expect(isinstance(node_id, int), "'edit' without an int node id")
        label = decode(label, depth + 1)
        if kind == "relabel":
            return Relabel(node_id, label)
        if kind == "insert":
            return Insert(node_id, label)
        if kind == "insertR":
            return InsertRight(node_id, label)
        if kind == "delete":
            return Delete(node_id)
        raise ProtocolError(f"malformed value: unknown edit kind {kind!r}")
    if tag == "ustat":
        _expect(isinstance(data, list) and len(data) == 5, "'ustat' tag arity")
        return UpdateStats(
            trunk_size=data[0],
            rebuilt_subterm_size=data[1],
            seconds=decode(data[2], depth + 1),
            new_node_id=data[3],
            new_position_id=data[4],
        )
    if tag == "report":
        _expect(isinstance(data, list) and len(data) == 6, "'report' tag arity")
        stats = data[2]
        _expect(isinstance(stats, list), "'report' stats that are not a list")
        return BatchUpdateReport(
            document_id=decode(data[0], depth + 1),
            epoch=data[1],
            stats=[decode(stat, depth + 1) for stat in stats],
            boxes_rebuilt=data[3],
            cursors_resumed=data[4],
            cursors_invalidated=data[5],
        )
    if tag == "inval":
        _expect(isinstance(data, list) and len(data) == 8, "'inval' tag arity")
        regions = decode(data[7], depth + 1)
        _expect(isinstance(regions, tuple), "'inval' regions that are not a tuple")
        return CursorInvalidation(
            cursor_id=data[0],
            document_id=decode(data[1], depth + 1),
            base_epoch=data[2],
            invalidated_epoch=data[3],
            answers_delivered=data[4],
            edit=data[5],
            boxes_hit=data[6],
            regions=regions,
        )
    if tag == "exc":
        _expect(isinstance(data, list) and len(data) == 3, "'exc' tag arity")
        name, message, extra = data
        _expect(isinstance(name, str) and isinstance(message, str), "'exc' name/message")
        return _rebuild_exception(name, message, decode(extra, depth + 1))
    raise ProtocolError(f"malformed value: unknown tag {tag!r}")


#: the wire's codec: encode one value for the wire (a JSON-compatible
#: tagged structure), and its inverse, hardened against untrusted input
encode_wire, decode_wire = value_codec(MAX_WIRE_DEPTH, ProtocolError, _encode_other, _decode_other)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise ProtocolError(f"malformed value: {what}")


def _rebuild_exception(name: str, message: str, extra: object) -> BaseException:
    """Rebuild a typed error from its wire form (the error-frame payload).

    Types are resolved against the :mod:`repro.errors` hierarchy only — a
    peer cannot make this side instantiate arbitrary classes.  Unknown
    types degrade to :class:`~repro.errors.EngineError` carrying the
    original type name in the message.
    """
    from repro import errors as _errors
    from repro.errors import CursorInvalidatedError, ReproError, ShardTimeoutError

    if not isinstance(extra, dict):
        extra = {}
    cls = getattr(_errors, name, None)
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


# ------------------------------------------------------------------ frames
def encode_frame(value: object, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Render one frame (length prefix + canonical JSON body)."""
    try:
        body = canonical_json(encode_wire(value)).encode("utf8")
    except ValueError as exc:
        # The only ValueError an encoded value can raise: an int past the
        # interpreter's digit limit (sys.get_int_max_str_digits).
        raise ProtocolError(f"cannot put an integer this long on the wire: {exc}") from exc
    if len(body) > max_frame_bytes:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return _LEN.pack(len(body)) + body


def decode_frame_body(body: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> object:
    """Parse one frame body back into a value (:class:`ProtocolError` on junk)."""
    try:
        payload = loads_payload(body, max_bytes=max_frame_bytes)
    except CodecError as exc:
        raise ProtocolError(f"malformed frame body: {exc}") from exc
    return decode_wire(payload)


# ----------------------------------------------------- blocking socket I/O
def send_frame(
    sock: socket.socket, value: object, max_frame_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Send one frame on a blocking socket."""
    sock.sendall(encode_frame(value, max_frame_bytes))


def _recv_exact(sock: socket.socket, count: int, started: bool) -> Optional[bytes]:
    """Read exactly ``count`` bytes of a frame.

    Before any byte of the frame (``started`` false and nothing read yet) a
    clean EOF returns ``None`` and a timeout propagates: the stream is still
    at a frame boundary.  After that either one loses the boundary and
    raises :class:`~repro.errors.ProtocolError`.
    """
    chunks: List[bytes] = []
    got = 0
    while got < count:
        try:
            chunk = sock.recv(count - got)
        except socket.timeout:
            if not (got or started):
                raise
            raise ProtocolError(
                f"timed out mid-frame ({got} of {count} bytes received)"
            ) from None
        if not chunk:
            if not (got or started):
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got} of {count} bytes received)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[object]:
    """Receive one frame from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed),
    and lets a socket timeout there propagate; raises
    :class:`~repro.errors.ProtocolError` on a truncated, oversized or
    undecodable frame, or on a timeout inside one — after which the stream
    position is unrecoverable and the connection must be dropped.
    """
    header = _recv_exact(sock, _LEN.size, started=False)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"incoming frame announces {length} bytes, over the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return decode_frame_body(_recv_exact(sock, length, started=True), max_frame_bytes)


# -------------------------------------------------------------- asyncio I/O
async def recv_frame_async(
    reader: asyncio.StreamReader, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[object]:
    """Receive one frame from an asyncio stream (``None`` on clean EOF)."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame header ({len(exc.partial)} of "
            f"{_LEN.size} bytes received)"
        ) from exc
    (length,) = _LEN.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"incoming frame announces {length} bytes, over the "
            f"{max_frame_bytes}-byte frame limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} "
            "bytes received)"
        ) from exc
    return decode_frame_body(body, max_frame_bytes)
