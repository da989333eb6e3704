"""`Query`: one polymorphic compiled-query handle over trees, words and spanners.

The paper proves one pipeline twice — Theorem 8.1 for unranked-tree variable
automata and Theorem 8.5 for word variable automata (document spanners) —
and the engine exposes it once: a :class:`Query` wraps whichever source the
caller compiled (an :class:`~repro.automata.unranked_tva.UnrankedTVA`, a
:class:`~repro.automata.wva.WVA`, a :class:`~repro.spanners.Spanner`, or a
spanner regex string) behind one handle with one content digest.  The digest
(:func:`repro.automata.serialize.query_digest`) is the content address the
:class:`~repro.engine.catalog.QueryCatalog` persists the compiled form under
and the sharding workers load it back by.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.assignments import Assignment
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.errors import EngineError

__all__ = ["Query", "normalize_query_source"]


def normalize_query_source(source, alphabet=None) -> Tuple[str, object, Optional[str]]:
    """Normalize anything :meth:`Engine.compile` accepts to ``(kind, automaton, pattern)``.

    ``kind`` is ``"tree"`` or ``"word"``; ``automaton`` is the source
    :class:`UnrankedTVA` or :class:`WVA`; ``pattern`` is the originating
    spanner regex when there was one (kept for display, not for keying —
    content addressing always digests the automaton).
    """
    if isinstance(source, UnrankedTVA):
        return "tree", source, None
    if isinstance(source, WVA):
        return "word", source, None
    if isinstance(source, str):
        if alphabet is None:
            raise EngineError(
                "compiling a spanner regex needs alphabet=: "
                "Engine.compile(pattern, alphabet=...)"
            )
        from repro.spanners.compile import regex_to_wva

        return "word", regex_to_wva(source, list(dict.fromkeys(alphabet))), source
    # A repro.spanners.Spanner (duck-typed to avoid importing the module for
    # the common automaton cases).
    wva = getattr(source, "wva", None)
    if isinstance(wva, WVA):
        return "word", wva, getattr(source, "pattern", None)
    raise EngineError(
        f"cannot compile {type(source).__name__}; expected an UnrankedTVA, a WVA, "
        "a Spanner, or a regex pattern string (with alphabet=)"
    )


class Query:
    """A compiled standing query: the one handle all three workloads share.

    Obtained from :meth:`repro.Engine.compile` (or implicitly by passing a
    raw source to ``Engine.add_tree`` / ``Engine.add_word``).  Attributes:

    ``kind``
        ``"tree"`` (Theorem 8.1) or ``"word"`` (Theorem 8.5 — word automata
        and spanners are both word queries).
    ``source``
        The source automaton (:class:`UnrankedTVA` or :class:`WVA`).
    ``digest``
        The cross-process content digest the compiled form is persisted
        under; equal content ⇒ equal digest ⇒ one compiled automaton.
    ``pattern``
        The spanner regex this query was compiled from, if any.
    """

    def __init__(self, kind: str, source, digest: str, pattern: Optional[str] = None, entry=None):
        self.kind = kind
        self.source = source
        self.digest = digest
        self.pattern = pattern
        #: the resolved :class:`~repro.engine.codec.CompiledQuery` (carries
        #: the homogenized binary automaton and its box-plan cache)
        self.entry = entry

    # ------------------------------------------------------------------ views
    @property
    def variables(self) -> frozenset:
        """The query's variables (capture variables, for spanners)."""
        return self.source.variables

    @property
    def automaton(self):
        """The compiled (translated + homogenized) binary automaton."""
        if self.entry is not None:
            return self.entry.automaton
        from repro.core.enumerator import compiled_automaton_for

        return compiled_automaton_for(self.source)

    def spans(self, assignment: Assignment) -> Dict[object, Tuple[int, int]]:
        """Per-variable half-open ``(start, end)`` spans of a word answer.

        Only meaningful for ``kind == "word"`` queries whose captures bind
        contiguous positions (the spanner case).  The answer must bind
        *indices*, as :meth:`~repro.core.enumerator.WordRuntime.assignments_by_index`
        yields them.  Raw answers bind stable position ids, which equal the
        indices only until the first insert or delete; map them through
        ``position_ids()`` first, as ``examples/document_spanner.py`` does.
        """
        if self.kind != "word":
            raise EngineError("spans() is only defined for word (spanner) queries")
        from repro.spanners.spanner import Spanner

        return Spanner.spans(assignment)

    def __repr__(self) -> str:  # pragma: no cover
        shown = self.pattern if self.pattern is not None else type(self.source).__name__
        return f"Query(kind={self.kind!r}, {shown!r}, digest={self.digest[:12]}...)"
