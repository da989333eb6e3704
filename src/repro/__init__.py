"""repro — Enumeration on trees with tractable combined complexity and efficient updates.

A from-scratch Python reproduction of Amarilli, Bourhis, Mengel and Niewerth,
*Enumeration on Trees with Tractable Combined Complexity and Efficient
Updates* (PODS 2019).  See README.md for a tour and DESIGN.md for the mapping
between the paper and the modules.

The front door is the unified engine API (``from repro import Engine``):

* :class:`repro.Engine` — owns a persistent
  :class:`~repro.engine.catalog.QueryCatalog` and an optional pool of shard
  worker processes (``Engine(workers=N)``);
* :class:`repro.Query` — one polymorphic compiled-query handle covering
  unranked-tree TVA queries (Theorem 8.1), word variable automata and regex
  document spanners (Theorem 8.5);
* :class:`repro.Document` — a tree or word handle with ``apply_edits``
  (Definition 7.1), epochs, and ``stream()`` / ``page()`` enumeration;
* :class:`repro.ResultPage` — the one page type, backed by edit-stable
  cursors.

Every exception derives from :class:`repro.ReproError`.  Version 2.0
removed the 1.x deprecated entry points (``TreeEnumerator``,
``WordEnumerator``, ``repro.serving.DocumentStore``); the per-document
runtimes behind the engine are :class:`repro.core.TreeRuntime` and
:class:`repro.core.WordRuntime`.
"""

from repro.assignments import (
    Assignment,
    EMPTY_ASSIGNMENT,
    assignment_from_valuation,
    assignment_of,
    format_assignment,
    valuation_from_assignment,
)
from repro.errors import (
    BackendError,
    CatalogError,
    CatalogVersionError,
    CircuitStructureError,
    CodecError,
    CursorInvalidatedError,
    EngineError,
    InvalidAutomatonError,
    InvalidEditError,
    InvalidTreeError,
    ProtocolError,
    RegexSyntaxError,
    ReproError,
    ServingError,
    ShardDiedError,
    ShardProtocolError,
    ShardTimeoutError,
    StaleIteratorError,
    UnsupportedUpdateError,
)

__version__ = "2.0.0"

__all__ = [
    # unified engine API (lazily imported)
    "Engine",
    "Query",
    "Document",
    "ResultPage",
    "QueryCatalog",
    # network serving tier (lazily imported)
    "EngineServer",
    "RemoteEngine",
    # assignments
    "Assignment",
    "EMPTY_ASSIGNMENT",
    "assignment_of",
    "assignment_from_valuation",
    "valuation_from_assignment",
    "format_assignment",
    # unified exception hierarchy
    "ReproError",
    "BackendError",
    "CatalogError",
    "CatalogVersionError",
    "CircuitStructureError",
    "CodecError",
    "CursorInvalidatedError",
    "EngineError",
    "InvalidAutomatonError",
    "InvalidEditError",
    "InvalidTreeError",
    "ProtocolError",
    "RegexSyntaxError",
    "ServingError",
    "ShardDiedError",
    "ShardProtocolError",
    "ShardTimeoutError",
    "StaleIteratorError",
    "UnsupportedUpdateError",
    "__version__",
]


def __getattr__(name):
    """Lazily expose the high-level API without import cycles at package import."""
    if name in {"Engine", "Query", "Document", "ResultPage", "QueryCatalog"}:
        from repro import engine

        return getattr(engine, name)
    if name in {"EngineServer", "RemoteEngine"}:
        from repro import net

        return getattr(net, name)
    if name == "queries":
        from repro.automata import queries

        return queries
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
