"""Stable (de)serialization of automata and their content digests.

The query catalog (:mod:`repro.engine.catalog`) persists *compiled* queries — the
homogenized :class:`~repro.automata.binary_tva.BinaryTVA` of Lemma 7.4 +
Lemma 2.1 — so that a fresh process can skip translation and
homogenization.  This module provides their payloads: JSON-compatible
payloads that are

* **canonical** — the same automaton content always renders to the same
  payload (frozensets are sorted by a canonical key, relations are sorted),
  independently of per-process hash randomization, so content digests are
  stable across processes and machines;
* **closed over the value universe the pipeline produces** — states, labels
  and variables are built from ``None``, booleans, ints, floats, strings,
  tuples and frozensets (translation builds tuple states, homogenization
  pairs them with flags); anything else is rejected loudly rather than
  serialized approximately.

Tuples and frozensets are encoded as tagged JSON lists (``["t", [...]]`` /
``["s", [...]]``); primitives pass through unchanged.  Floats are tagged
(``["f", "repr"]``) so JSON round-trips cannot silently merge ``1`` and
``1.0``.

:func:`value_codec` builds the library's one tagged value codec: this
catalog's :func:`encode_value` / :func:`decode_value`, and the wire codec of
:mod:`repro.net.framing`, which extends it at two points (a type and a tag
the shared ones do not cover) with its own depth limit and error type.
Catalog files and wire frames are rendered by :func:`canonical_json` and
parsed by :func:`loads_payload` alike.

Payloads **intern** values: each distinct state/label/variable/variable-set
is encoded once into a canonically sorted ``values`` table, and the relation
rows reference table indexes.  Homogenized translated automata have hundreds
of tuple states appearing in thousands of transitions, so interning shrinks
the files and the load time by an order of magnitude while keeping the bytes
canonical.
"""

from __future__ import annotations

import hashlib
import json
# the canonical encoder's own renderer of a str (ensure_ascii escapes)
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional

from repro.automata.binary_tva import BinaryTVA
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.errors import CodecError, InvalidAutomatonError

__all__ = [
    "value_codec",
    "unhashable_error",
    "encode_value",
    "decode_value",
    "canonical_json",
    "canonical_key",
    "loads_payload",
    "ValueTable",
    "decode_values",
    "binary_tva_to_payload",
    "binary_tva_from_payload",
    "query_payload",
    "query_from_payload",
    "query_digest",
    "MAX_VALUE_DEPTH",
    "MAX_PAYLOAD_BYTES",
]

#: deepest nesting the catalog codec encodes and decodes.  Real states are
#: tuples a few levels deep (translation pairs, homogenization flags);
#: anything deeper is a recursion bomb, not an automaton — rejected with a
#: precise :class:`~repro.errors.CodecError` instead of blowing the Python
#: stack.
MAX_VALUE_DEPTH = 32

#: default byte ceiling of :func:`loads_payload` (64 MiB) — far above every
#: real compiled query, far below what an untrusted peer could use to pin
#: the decoder's memory.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------------- value codec
def value_codec(max_depth: int, error: type, encode_other, decode_other):
    """Build one tagged value codec: its ``(encode, decode)`` pair.

    The shared part is written here once: bare JSON primitives, the
    ``f``/``t``/``s`` tags, the canonical set order and the direct path of
    answer sets.  Codecs differ only in the arguments:
    ``encode_other(value, depth, encode)`` encodes a type the shared tags
    do not cover, ``decode_other(tag, data, depth, decode)`` decodes a tag
    they do not, and ``max_depth`` and ``error`` are the codec's own.

    The depth limit holds on encode and decode, so a codec never writes a
    value that it refuses to read back (the decoder counts tagged lists
    only, so a bare primitive may sit one level deeper there).  Unknown
    tags, wrong arities, non-string float reprs, unhashable set members and
    nesting past ``max_depth`` raise a precise ``error``, never a bare
    ``ValueError`` / ``TypeError`` / ``RecursionError``.

    Answers take a direct path in both directions.  Every answer of a tree
    or word query is a frozenset of ``(variable, id)`` pairs, exact ``str``
    and ``int``.  A member's canonical key is its own canonical text,
    ``["t",[<variable as JSON>,<id>]]``, so the encoder builds that text by
    concatenation, sorts the members by it and emits them, instead of
    encoding each member recursively and running the JSON encoder once more
    per member for its key; the decoder builds the pairs straight from the
    parsed JSON.  Any other set, or a member of any other shape (a ``bool``
    or ``IntEnum`` id, a namedtuple, a ``str`` subclass, a set whose pairs
    would sit at the depth limit), takes the generic path.  The bytes are
    the same either way.
    """

    def encode(value: object, depth: int = 0) -> object:
        """Encode ``value`` as a JSON-compatible tagged structure."""
        if depth >= max_depth:
            raise error(f"refusing to encode a value nested deeper than {max_depth} levels")
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            return ["f", repr(value)]
        if isinstance(value, tuple):
            return ["t", [encode(item, depth + 1) for item in value]]
        if isinstance(value, frozenset):
            # An answer's variables and ids sit two levels below the set;
            # where that reaches the depth limit, the generic path raises.
            if depth + 2 < max_depth:
                members = _encode_answer(value)
                if members is not None:
                    return ["s", members]
            encoded = [encode(item, depth + 1) for item in value]
            encoded.sort(key=canonical_key)
            return ["s", encoded]
        return encode_other(value, depth, encode)

    def decode(payload: object, depth: int = 0) -> object:
        """Invert ``encode``; hardened against untrusted input."""
        if payload is None or isinstance(payload, (bool, int, str)):
            return payload
        if not isinstance(payload, list):
            raise error(
                f"malformed value: bare {type(payload).__name__} "
                "(expected a JSON primitive or a tagged [tag, data] pair)"
            )
        if depth >= max_depth:
            raise error(f"value nested deeper than {max_depth} levels; rejecting a recursion bomb")
        if len(payload) != 2:
            raise error(f"malformed value: tagged value of arity {len(payload)} (expected 2)")
        tag, data = payload
        if tag == "t" or tag == "s":
            if not isinstance(data, list):
                raise error(f"malformed value: {tag!r} tag without a list payload")
            if tag == "t":
                return tuple([decode(item, depth + 1) for item in data])
            if depth + 1 < max_depth:
                answer = _decode_answer(data)
                if answer is not None:
                    return answer
            items = [decode(item, depth + 1) for item in data]
            try:
                return frozenset(items)
            except TypeError:
                raise unhashable_error(error, "set member", items) from None
        if tag == "f":
            if not isinstance(data, str):
                raise error("malformed value: 'f' tag without a repr string")
            try:
                return float(data)
            except ValueError as exc:
                raise error(f"malformed value: bad float repr {data!r}") from exc
        return decode_other(tag, data, depth, decode)

    return encode, decode


def unhashable_error(error: type, what: str, values: list) -> Exception:
    """The ``error`` naming the first of ``values`` that cannot be hashed."""
    for value in values:
        try:
            hash(value)
        except TypeError:
            break
    return error(f"malformed value: a {what} decoded to an unhashable {type(value).__name__}")


def _encode_answer(value: frozenset) -> Optional[list]:
    """The direct path for an answer: a set of ``(variable, id)`` pairs.

    Returns the encoded members in canonical order, or ``None`` when some
    member is not an exact ``(str, int)`` pair.
    """
    keyed = []
    for member in value:
        if type(member) is not tuple or len(member) != 2:
            return None
        var, ident = member
        if type(var) is not str or type(ident) is not int:
            return None
        keyed.append(('["t",[' + _json_str(var) + "," + repr(ident) + "]]", ["t", [var, ident]]))
    if len(keyed) == 1:
        return [keyed[0][1]]
    keyed.sort()  # keys are distinct, so the rows are never compared
    return [row for _key, row in keyed]


def _decode_answer(data: list) -> Optional[frozenset]:
    """The direct path for an answer: ``["t", [str, int]]`` members only.

    Returns ``None`` at the first member of any other shape (``["t",
    ["x", true]]``, a one- or three-item tuple, a nested tag), which the
    generic path then decodes.
    """
    pairs = []
    for member in data:
        if type(member) is list and len(member) == 2 and member[0] == "t":
            pair = member[1]
            if type(pair) is list and len(pair) == 2:
                var, ident = pair
                if type(var) is str and type(ident) is int:
                    pairs.append((var, ident))
                    continue
        return None
    return frozenset(pairs)


def _refuse_type(value: object, depth: int, encode) -> object:
    raise InvalidAutomatonError(
        f"cannot serialize value {value!r} of type {type(value).__name__}; "
        "states, labels and variables must be built from None, bool, int, "
        "float, str, tuple and frozenset"
    )


def _refuse_tag(tag: object, data: object, depth: int, decode) -> object:
    raise CodecError(f"malformed value: unknown tag {tag!r}")


#: the catalog's codec: encode a state/label/variable value, and its inverse
encode_value, decode_value = value_codec(MAX_VALUE_DEPTH, CodecError, _refuse_type, _refuse_tag)


def loads_payload(text, max_bytes: int = MAX_PAYLOAD_BYTES) -> object:
    """Parse serialized payload text with the untrusted-peer guards applied.

    ``text`` may be ``str`` or ``bytes``.  Oversized input is rejected up
    front (before JSON parsing allocates anything); malformed JSON raises a
    :class:`~repro.errors.CodecError` that names the byte offset where the
    parse failed, and distinguishes truncation (parse ran off the end) from
    in-place corruption.  An integer literal longer than the interpreter's
    digit limit is a :class:`~repro.errors.CodecError` as well; the limit is
    not raised.
    """
    if isinstance(text, str):
        raw = text.encode("utf8", errors="surrogatepass")
    elif isinstance(text, (bytes, bytearray)):
        raw = bytes(text)
    else:
        raise CodecError(
            f"payload must be str or bytes, got {type(text).__name__}"
        )
    if len(raw) > max_bytes:
        raise CodecError(
            f"payload of {len(raw)} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        decoded = raw.decode("utf8")
    except UnicodeDecodeError as exc:
        raise CodecError(
            f"payload is not valid UTF-8 at byte offset {exc.start}"
        ) from exc
    try:
        return json.loads(decoded)
    except json.JSONDecodeError as exc:
        kind = "truncated" if exc.pos >= len(decoded) else "malformed"
        raise CodecError(
            f"{kind} payload: {exc.msg} at byte offset {exc.pos}"
        ) from exc
    except RecursionError as exc:
        # A nesting bomb ("[[[[...") blows the parser's stack long before
        # decode_value's own depth guard can see the value.
        raise CodecError(
            "payload nests deeper than the parser allows (recursion bomb?)"
        ) from exc
    except ValueError as exc:
        # An integer literal past the interpreter's digit limit
        # (sys.get_int_max_str_digits); JSONDecodeError is caught above.
        raise CodecError(f"payload holds an integer literal too long to parse: {exc}") from exc


#: the one canonical renderer: the text of ``json.dumps(..., sort_keys=True,
#: separators=(",", ":"))``, without building a fresh encoder per call.
#: What it renders are fresh lists and dicts built by the encoders here and
#: in :mod:`repro.net.framing` (tuples and frozensets cannot hold
#: themselves, and every codec stops at its depth limit), so the cycle
#: check would find nothing; skipping it halves the time of a rendering.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_key(encoded: object) -> str:
    """A total order on encoded values (used to sort heterogeneous sets)."""
    return _CANONICAL.encode(encoded)


def canonical_json(payload: object) -> str:
    """Render a payload as canonical JSON text (sorted keys, no whitespace)."""
    return _CANONICAL.encode(payload)


def _sorted_values(values) -> List[object]:
    encoded = [encode_value(v) for v in values]
    encoded.sort(key=canonical_key)
    return encoded


def _sorted_rows(rows) -> List[object]:
    rows = list(rows)
    rows.sort(key=canonical_key)
    return rows


class ValueTable:
    """An interning table of encoded values (deterministic index assignment).

    Seed it with canonically sorted value collections (``seed``), then
    resolve values to small integer indexes with ``ref``.  The table is
    rendered as the ``values`` list of a payload; as long as the seeding
    order and the reference order are deterministic, so are the payload
    bytes.
    """

    def __init__(self):
        self.encoded: List[object] = []
        self._index: Dict[object, int] = {}

    def seed(self, values) -> None:
        """Intern a collection of values in canonical (sorted) order."""
        pairs = sorted(
            ((encode_value(v), v) for v in values), key=lambda p: canonical_key(p[0])
        )
        for encoded, value in pairs:
            if value not in self._index:
                self._index[value] = len(self.encoded)
                self.encoded.append(encoded)

    def ref(self, value) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.encoded)
            self._index[value] = index
            self.encoded.append(encode_value(value))
        return index


def decode_values(encoded: List[object]) -> List[object]:
    """Decode a payload ``values`` table back into Python values."""
    return [decode_value(item) for item in encoded]


# --------------------------------------------------------------------------- BinaryTVA
def binary_tva_to_payload(automaton: BinaryTVA) -> Dict:
    """Render a :class:`BinaryTVA` as a canonical JSON-compatible payload.

    States, labels, variables and variable sets are interned in the
    ``values`` table; the ``initial``/``delta``/``final`` rows are index
    tuples sorted as plain integer lists.
    """
    table = ValueTable()
    table.seed(automaton.states)
    table.seed(automaton.variables)
    table.seed({label for label, _vs, _q in automaton.initial}
               | {label for label, _q1, _q2, _q in automaton.delta})
    table.seed({var_set for _l, var_set, _q in automaton.initial})
    return {
        "values": table.encoded,
        "states": sorted(table.ref(q) for q in automaton.states),
        "variables": sorted(table.ref(v) for v in automaton.variables),
        "initial": sorted(
            [table.ref(label), table.ref(var_set), table.ref(state)]
            for label, var_set, state in automaton.initial
        ),
        "delta": sorted(
            [table.ref(l), table.ref(q1), table.ref(q2), table.ref(q)]
            for l, q1, q2, q in automaton.delta
        ),
        "final": sorted(table.ref(q) for q in automaton.final),
        "name": automaton.name,
    }


def binary_tva_from_payload(payload: Dict) -> BinaryTVA:
    """Rebuild a :class:`BinaryTVA` from :func:`binary_tva_to_payload` output."""
    values = decode_values(payload["values"])
    return BinaryTVA(
        states=[values[i] for i in payload["states"]],
        variables=[values[i] for i in payload["variables"]],
        initial=[(values[l], values[vs], values[q]) for l, vs, q in payload["initial"]],
        delta=[
            (values[l], values[q1], values[q2], values[q])
            for l, q1, q2, q in payload["delta"]
        ],
        final=[values[i] for i in payload["final"]],
        name=payload.get("name", ""),
    )


# --------------------------------------------------------------------------- query content
def query_payload(query: object) -> Dict:
    """The canonical content payload of a *source* query (before compilation).

    Supports the two query classes the public enumerators accept: stepwise
    :class:`UnrankedTVA` (tree documents, Theorem 8.1) and :class:`WVA`
    (word documents / document spanners, Theorem 8.5).  Two queries with
    equal content — regardless of construction order or process — produce
    identical payloads, which is what lets :func:`query_digest` key persisted
    compiled queries by content rather than by object instance.
    """
    if isinstance(query, UnrankedTVA):
        return {
            "kind": "tree",
            "states": _sorted_values(query.states),
            "variables": _sorted_values(query.variables),
            "initial": _sorted_rows(
                [encode_value(l), encode_value(vs), encode_value(q)]
                for l, vs, q in query.initial
            ),
            "delta": _sorted_rows(
                [encode_value(q), encode_value(qc), encode_value(qn)]
                for q, qc, qn in query.delta
            ),
            "final": _sorted_values(query.final),
        }
    if isinstance(query, WVA):
        return {
            "kind": "word",
            "states": _sorted_values(query.states),
            "variables": _sorted_values(query.variables),
            "transitions": _sorted_rows(
                [encode_value(q), encode_value(letter), encode_value(vs), encode_value(qn)]
                for q, letter, vs, qn in query.transitions
            ),
            "initial": _sorted_values(query.initial),
            "final": _sorted_values(query.final),
        }
    raise InvalidAutomatonError(
        f"cannot compute a content payload for {type(query).__name__}; "
        "expected an UnrankedTVA or a WVA"
    )


def query_from_payload(payload: Dict) -> object:
    """Rebuild a source query from :func:`query_payload` output.

    The inverse used by the network tier: a client canonicalizes its query
    locally, ships the payload, and the server rebuilds an equal-content
    automaton (same :func:`query_digest`) to compile or load from the shared
    catalog.  Malformed payloads raise :class:`~repro.errors.CodecError`.
    """
    if not isinstance(payload, dict):
        raise CodecError(
            f"query payload must be a dict, got {type(payload).__name__}"
        )
    kind = payload.get("kind")

    def _values(field):
        rows = payload.get(field)
        if not isinstance(rows, list):
            raise CodecError(f"query payload field {field!r} must be a list")
        return [decode_value(item) for item in rows]

    def _rows(field, arity):
        rows = payload.get(field)
        if not isinstance(rows, list):
            raise CodecError(f"query payload field {field!r} must be a list")
        out = []
        for row in rows:
            if not isinstance(row, list) or len(row) != arity:
                raise CodecError(
                    f"query payload field {field!r} expects rows of arity "
                    f"{arity}, got {row!r}"
                )
            out.append(tuple(decode_value(item) for item in row))
        return out

    if kind == "tree":
        return UnrankedTVA(
            states=_values("states"),
            variables=_values("variables"),
            initial=_rows("initial", 3),
            delta=_rows("delta", 3),
            final=_values("final"),
        )
    if kind == "word":
        return WVA(
            states=_values("states"),
            variables=_values("variables"),
            transitions=_rows("transitions", 4),
            initial=_values("initial"),
            final=_values("final"),
        )
    raise CodecError(f"unknown query payload kind {kind!r}")


def query_digest(query: object) -> str:
    """A hex content digest of a query (stable across processes and machines).

    Memoized on the query instance (queries are immutable once built), so
    hot paths — one digest lookup per served document, which also finds the
    process's compiled automaton — canonicalize each query object once.
    """
    cached = getattr(query, "_content_digest_cache", None)
    if cached is not None:
        return cached
    text = canonical_json(query_payload(query))
    digest = hashlib.sha256(text.encode("utf8")).hexdigest()
    try:
        query._content_digest_cache = digest
    except AttributeError:  # query classes with __slots__: just skip caching
        pass
    return digest
