"""`Document` / `ResultPage`: the engine's per-document handle and page type.

A :class:`Document` is a light handle: the maintained state (balanced term,
incremental circuit, index, cursors — Lemma 7.3) lives in the owning
:class:`repro.Engine`, either in-process (``workers=0``) or inside the shard
worker process the document was routed to (``workers=N``).  The handle's API
is identical in both modes:

* :meth:`Document.stream` — live duplicate-free enumeration of the current
  answers (Theorem 8.1 / 8.5); any edit to the document invalidates the
  stream with a :class:`~repro.errors.StaleIteratorError` at the next
  answer, identically in both modes (sharded streams receive worker-pushed
  result chunks under a bounded credit window — see
  :mod:`repro.engine.sharding` — and check staleness against the engine's
  epoch mirror);
* :meth:`Document.page` — edit-stable pagination: every call returns one
  :class:`ResultPage`, pages of one cursor are duplicate-free across edits
  that don't touch what the cursor still has to read (Lemma 7.3 upward
  closure), and a conflicting edit raises a precise
  :class:`~repro.errors.CursorInvalidatedError` on the next page;
* :meth:`Document.apply_edits` — one batch of Definition 7.1 edits (trees)
  or replace/insert/delete tuples (words), one epoch step per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.assignments import Assignment

__all__ = ["Document", "ResultPage"]


@dataclass(frozen=True)
class ResultPage:
    """One page of answers, the single page type of the engine API.

    ``cursor_id`` addresses the underlying edit-stable cursor: pass the page
    (or its ``cursor_id``) back to :meth:`Document.page` to fetch the next
    page of the same duplicate-free stream.  ``epoch`` is the document epoch
    the page was served at.
    """

    answers: Tuple[Assignment, ...]
    offset: int  #: index of the first answer within the cursor's stream
    exhausted: bool  #: True when the stream ended within (or at) this page
    cursor_id: int
    document_id: object
    epoch: int

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self.answers)

    @property
    def has_more(self) -> bool:
        return not self.exhausted


#: answers per worker-pushed chunk of a sharded ``stream()``
STREAM_PAGE_SIZE = 256


class Document:
    """A handle on one maintained document owned by an :class:`repro.Engine`."""

    def __init__(self, engine, doc_id, query):
        self.engine = engine
        self.doc_id = doc_id
        self.query = query  #: the :class:`~repro.engine.query.Query` served
        self.kind = query.kind  #: "tree" or "word", the query's kind

    # ------------------------------------------------------------------ state
    @property
    def epoch(self) -> int:
        """The document epoch: number of applied edit batches."""
        return self.engine._doc_epoch(self.doc_id)

    # ------------------------------------------------------------ enumeration
    def stream(self) -> Iterator[Assignment]:
        """Enumerate the document's current answers, duplicate-free.

        Output-linear delay (Theorem 6.5).  Advancing the stream after *any*
        edit to this document raises
        :class:`~repro.errors.StaleIteratorError` — the paper's restart
        model, enforced identically in local and sharded mode (a sharded
        stream is fed by worker-pushed chunks, but staleness is checked at
        every answer against the engine's epoch mirror).  Use :meth:`page`
        for pagination that survives non-conflicting edits.
        """
        return self.engine._stream(self.doc_id)

    def __iter__(self) -> Iterator[Assignment]:
        return self.stream()

    def answers(self) -> List[Assignment]:
        """All current answers, materialized."""
        return list(self.stream())

    def count(self, limit: Optional[int] = None) -> int:
        """Count the answers by enumerating them (early stop at ``limit``)."""
        return self.engine._count(self.doc_id, limit)

    # ----------------------------------------------------------------- paging
    def page(
        self,
        cursor: Union[None, int, ResultPage] = None,
        page_size: Optional[int] = None,
    ) -> ResultPage:
        """Fetch one :class:`ResultPage` from an edit-stable cursor.

        ``cursor=None`` opens a fresh cursor (``page_size`` or the engine
        default); passing a previous :class:`ResultPage` (or its
        ``cursor_id``) continues that cursor's stream — duplicate-free across
        pages, resuming across edit batches whose rebuilt trunk is disjoint
        from what the cursor still has to read, and raising
        :class:`~repro.errors.CursorInvalidatedError` with a precise report
        otherwise (once; the cursor id is then released).  The page size is
        fixed when the cursor is opened — passing ``page_size`` together
        with ``cursor`` raises :class:`~repro.errors.EngineError`.  A page
        with ``exhausted=True`` ends the stream and releases the cursor id.
        """
        return self.engine._page(self.doc_id, cursor, page_size)

    def pages(self, page_size: Optional[int] = None) -> Iterator[ResultPage]:
        """Iterate over pages of a fresh cursor until exhaustion."""
        page = self.page(page_size=page_size)
        while True:
            yield page
            if page.exhausted:
                return
            page = self.page(cursor=page)

    # ------------------------------------------------------------------ edits
    def apply_edits(self, edits):
        """Apply one batch of edits (one epoch step); returns the batch report.

        Tree documents take :class:`~repro.trees.edits.EditOperation` objects,
        word documents take ``("replace" | "insert_after" | "delete", ...)``
        tuples — exactly the edit language of Definition 7.1 / Theorem 8.5.
        """
        return self.engine.apply_edits(self.doc_id, edits)

    # ------------------------------------------------------------- local-only
    @property
    def runtime(self):
        """The in-process enumeration runtime (local engines only).

        Exposes the underlying :class:`~repro.core.enumerator.TreeRuntime` /
        :class:`~repro.core.enumerator.WordRuntime` for introspection
        (``stats()``, ``tree``, ``term``...).  Sharded engines raise
        :class:`~repro.errors.EngineError` — the state lives in a worker
        process.
        """
        return self.engine._runtime(self.doc_id)

    def delay_probe(self, max_answers: Optional[int] = None) -> List[float]:
        """Per-answer wall-clock delays (local engines only; benchmarks)."""
        return self.runtime.delay_probe(max_answers=max_answers)

    def remove(self) -> None:
        """Drop the document from its engine (cursors are closed)."""
        self.engine.remove(self.doc_id)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Document(id={self.doc_id!r}, kind={self.kind!r}, query={self.query.digest[:12]}...)"
