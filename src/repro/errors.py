"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch everything coming out of the enumeration pipeline with one handler
while still being able to distinguish the usual failure modes (bad input
trees, malformed automata, circuit invariant violations, invalid edits, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidTreeError",
    "InvalidEditError",
    "InvalidAutomatonError",
    "NotHomogenizedError",
    "CircuitStructureError",
    "IndexError_",
    "TermStructureError",
    "RegexSyntaxError",
    "BackendError",
    "StaleIteratorError",
    "UnsupportedUpdateError",
    "EngineError",
    "ShardDiedError",
    "ShardTimeoutError",
    "ShardProtocolError",
    "ServingError",
    "CatalogError",
    "CatalogVersionError",
    "CursorInvalidatedError",
    "CodecError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for all exceptions raised by the library."""


class InvalidTreeError(ReproError):
    """An input tree violates a structural requirement (e.g. empty tree,
    node re-used in two places, binary node with a single child)."""


class InvalidEditError(ReproError):
    """An edit operation cannot be applied to the current tree (e.g. deleting
    an internal node, inserting a right sibling of the root)."""


class InvalidAutomatonError(ReproError):
    """An automaton definition is inconsistent (unknown states in transitions,
    empty state set, variables not declared, ...)."""


class NotHomogenizedError(InvalidAutomatonError):
    """An operation that requires a homogenized automaton (Lemma 2.1) was
    given an automaton with a state that is both a 0-state and a 1-state."""


class CircuitStructureError(ReproError):
    """A set circuit violates the structured complete DNNF requirements of
    Definition 3.4 (or the additional normalization assumed by the index)."""


class IndexError_(ReproError):
    """The enumeration index (Definition 6.1) is inconsistent with the
    circuit it was built for."""


class TermStructureError(ReproError):
    """A forest algebra term is ill-typed or does not decode to a single
    tree (Section 7 / Appendix E)."""


class RegexSyntaxError(ReproError):
    """A spanner regular expression could not be parsed."""


class BackendError(ReproError, ValueError):
    """An unknown relation backend name was given (``relation_backend=``).
    Also a :class:`ValueError` for backward compatibility with callers that
    caught the historical ``ValueError``."""


class StaleIteratorError(ReproError):
    """An enumeration iterator was advanced after the underlying tree was
    updated; the paper's model requires restarting enumeration after each
    update."""


class UnsupportedUpdateError(ReproError):
    """The requested update is outside the edit language of Definition 7.1
    supported by a given enumerator (e.g. structural updates on the
    relabeling-only baseline)."""


class EngineError(ReproError):
    """A request to an :class:`repro.Engine` is invalid or cannot be served
    (unknown document id, closed engine, a sharding worker process died,
    mismatched document/query kinds, ...)."""


class ShardDiedError(EngineError):
    """A shard worker process died (broken pipe / unexpected exit) while the
    engine was talking to it.  The message names the shard, its pid and exit
    code, and what the engine was doing — for a batch ingest, the document
    ids that were in flight.  Raised parent-side by the shard pool, which is
    what distinguishes it from application errors a *live* worker sent back
    (those are re-raised with their original types).  The surviving shards
    stay usable."""


class ShardTimeoutError(ShardDiedError):
    """A shard worker failed to answer within the engine's deadline.  The
    worker may be hung rather than dead, so the pool kills it and marks it
    dead before raising — from the caller's point of view a timeout *is* a
    death (hence the subclassing), and the replicated engine fails the
    request over to a surviving replica exactly as it would after a crash.
    Carries ``shard``, ``op``, ``elapsed`` and ``deadline`` attributes so
    operators can tell which wait expired."""

    def __init__(self, message: str, *, shard=None, op=None, elapsed=None, deadline=None):
        super().__init__(message)
        self.shard = shard
        self.op = op
        self.elapsed = elapsed
        self.deadline = deadline


class ShardProtocolError(ShardDiedError):
    """A shard worker sent a malformed protocol message (wrong container
    type, unknown status tag, bad arity).  The pool cannot trust anything
    further from that pipe, so the worker is killed and marked dead before
    raising — like :class:`ShardTimeoutError`, a protocol violation is
    treated as a death and failed over.  The message names the shard and the
    (truncated) shape of the offending reply."""


class ServingError(EngineError):
    """A request to the serving layer (:mod:`repro.engine`) is invalid
    (unknown document id, closed cursor, unsupported edit spec, ...)."""


class CatalogError(ServingError):
    """A persisted compiled query could not be stored or loaded (missing
    entry, unknown format version, content digest mismatch, ...)."""


class CatalogVersionError(CatalogError):
    """A catalog directory (or a persisted compiled query) was written by an
    incompatible library or format version.  The message names both versions
    and the offending path, so operators can tell a stale catalog from a
    corrupt one."""


class CodecError(InvalidAutomatonError):
    """A serialized payload (catalog entry, wire frame body) is malformed:
    oversized, truncated, nested beyond the recursion limit, or carrying an
    unknown/ill-arity value tag.  The message names the offending offset or
    shape, so an operator can tell corruption from version skew.  Subclasses
    :class:`InvalidAutomatonError` because the historical decoder raised that
    for unknown tags — existing handlers keep working."""


class ProtocolError(EngineError):
    """A network peer (client or server of :mod:`repro.net`) violated the
    wire protocol: an oversized or malformed frame, a bad HELLO, an unknown
    status tag, or a per-connection limit breach.  The side that detects it
    closes *that connection only* — the server keeps serving its other
    clients, and the engine behind it is untouched."""


class CursorInvalidatedError(ServingError, StaleIteratorError):
    """A paginated cursor was advanced after an edit rebuilt part of the
    circuit its remaining enumeration still depends on.  Carries the
    :class:`repro.engine.cursor.CursorInvalidation` report as ``.report``
    (which edit batch invalidated the cursor, at which epoch, and how many
    answers had been delivered); reopen a cursor (or re-page the document)
    to paginate the updated document.  Also a :class:`StaleIteratorError`:
    it is the cursor-level refinement of "the document changed under a
    running enumeration"."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
