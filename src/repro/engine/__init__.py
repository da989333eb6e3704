"""repro.engine — one unified Engine/Session API over trees, words and spanners.

The engine is the single front door to the paper's pipeline (Theorem 8.1 for
unranked-tree queries, Theorem 8.5 for word queries and document spanners):
four nouns cover every workload.

* :class:`Engine` owns a :class:`~repro.engine.catalog.QueryCatalog`,
  config defaults and one transport to its documents: an in-process store,
  a fleet of shard worker processes (``Engine(workers=N)`` partitions
  documents across ``N`` processes that share one catalog directory), or a
  socket to a server (:class:`repro.net.RemoteEngine`).
* :class:`~repro.engine.query.Query` is one polymorphic compiled-query
  handle — tree TVA, word VA or regex spanner — compiled and persisted
  through one content-addressed path.
* :class:`~repro.engine.document.Document` is a tree or word handle with
  ``apply_edits`` (Definition 7.1 / word edits), epochs, and ``stream()`` /
  ``page()`` enumeration.
* :class:`~repro.engine.document.ResultPage` is the one page type, backed by
  the edit-stable cursors of :mod:`repro.engine.cursor`.

Quickstart::

    from repro import Engine

    with Engine(catalog="catalog-dir") as engine:
        query = engine.compile(tva)            # or a WVA, Spanner, or regex
        doc = engine.add_tree(tree, query)
        for answer in doc.stream():            # duplicate-free, Theorem 6.5
            ...
        page = doc.page(page_size=100)         # edit-stable pagination
        doc.apply_edits([Relabel(node_id, "b")])
        page = doc.page(cursor=page)           # resumes — or a precise
                                               # CursorInvalidatedError

All errors derive from :class:`repro.errors.ReproError`.
"""

from repro.engine.catalog import QueryCatalog
from repro.engine.codec import CompiledQuery
from repro.engine.cursor import Cursor, CursorInvalidation, CursorPage
from repro.engine.document import Document, ResultPage
from repro.engine.engine import Engine
from repro.engine.local import BatchUpdateReport, LocalDocument, LocalStore
from repro.engine.query import Query

__all__ = [
    "Engine",
    "Query",
    "Document",
    "ResultPage",
    "QueryCatalog",
    "CompiledQuery",
    "Cursor",
    "CursorInvalidation",
    "CursorPage",
    "BatchUpdateReport",
    "LocalDocument",
    "LocalStore",
]
