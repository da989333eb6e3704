"""Stable (de)serialization of automata and their content digests.

The query catalog (:mod:`repro.engine.catalog`) persists *compiled* queries — the
homogenized :class:`~repro.automata.binary_tva.BinaryTVA` of Lemma 7.4 +
Lemma 2.1 together with its memoized box plans — so that a fresh process can
skip translation, homogenization and plan compilation entirely.  This module
provides the automaton half of that: JSON-compatible payloads that are

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

Payloads **intern** values: each distinct state/label/variable/variable-set
is encoded once into a canonically sorted ``values`` table, and the relation
rows reference table indexes.  Homogenized translated automata have hundreds
of tuple states appearing in thousands of transitions (and the box plans
reference them again per signature), so interning shrinks the files and the
load time by an order of magnitude while keeping the bytes canonical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from repro.automata.binary_tva import BinaryTVA
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.errors import CodecError, InvalidAutomatonError

__all__ = [
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

#: deepest nesting :func:`decode_value` accepts.  Real states are tuples a
#: few levels deep (translation pairs, homogenization flags); anything
#: deeper is a recursion bomb, not an automaton — rejected with a precise
#: :class:`~repro.errors.CodecError` instead of blowing the Python stack.
MAX_VALUE_DEPTH = 32

#: default byte ceiling of :func:`loads_payload` (64 MiB) — far above every
#: real compiled query, far below what an untrusted peer could use to pin
#: the decoder's memory.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------------- value codec
def encode_value(value: object) -> object:
    """Encode a state/label/variable value as a JSON-compatible structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, tuple):
        return ["t", [encode_value(item) for item in value]]
    if isinstance(value, frozenset):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=canonical_key)
        return ["s", encoded]
    raise InvalidAutomatonError(
        f"cannot serialize value {value!r} of type {type(value).__name__}; "
        "states, labels and variables must be built from None, bool, int, "
        "float, str, tuple and frozenset"
    )


def decode_value(payload: object, _depth: int = 0) -> object:
    """Invert :func:`encode_value`.

    Hardened for untrusted input (catalog entries shared between processes,
    frames off the network): unknown tags, wrong arities, non-string float
    reprs and nesting past :data:`MAX_VALUE_DEPTH` raise a precise
    :class:`~repro.errors.CodecError` naming the offending shape — never a
    bare ``ValueError`` / ``IndexError`` / ``RecursionError``.
    """
    if isinstance(payload, list):
        if _depth >= MAX_VALUE_DEPTH:
            raise CodecError(
                f"value payload nested deeper than {MAX_VALUE_DEPTH} levels; "
                "rejecting a recursion bomb"
            )
        if len(payload) != 2:
            raise CodecError(
                f"tagged value must be a [tag, data] pair, got a list of "
                f"length {len(payload)}"
            )
        tag, data = payload
        if tag == "t":
            if not isinstance(data, list):
                raise CodecError(
                    f"'t' (tuple) tag needs a list payload, got {type(data).__name__}"
                )
            return tuple(decode_value(item, _depth + 1) for item in data)
        if tag == "s":
            if not isinstance(data, list):
                raise CodecError(
                    f"'s' (frozenset) tag needs a list payload, got {type(data).__name__}"
                )
            return frozenset(decode_value(item, _depth + 1) for item in data)
        if tag == "f":
            if not isinstance(data, str):
                raise CodecError(
                    f"'f' (float) tag needs a repr string, got {type(data).__name__}"
                )
            try:
                return float(data)
            except ValueError as exc:
                raise CodecError(f"unparseable float repr {data!r}") from exc
        raise CodecError(f"unknown value tag {tag!r} in automaton payload")
    if payload is None or isinstance(payload, (bool, int, str)):
        return payload
    raise CodecError(
        f"cannot decode a value of type {type(payload).__name__}; expected "
        "None, bool, int, str or a tagged [tag, data] list"
    )


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
#: themselves, and the wire encoder stops at its depth limit), so the cycle
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

    Memoized on the query instance (queries are immutable once built, like
    the ``_binary_automaton_cache`` the enumerators attach), so hot paths —
    one digest lookup per served document — canonicalize each query object
    once.
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
