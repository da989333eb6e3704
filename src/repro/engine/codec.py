"""On-disk format of persisted compiled queries.

A *compiled query* is everything the preprocessing of Theorem 8.1 computes
that depends only on the query, not on any document:

* the binary TVA of Lemma 7.4 (tree queries) or Theorem 8.5 (word queries),
  homogenized per Lemma 2.1 — serialized canonically by
  :mod:`repro.automata.serialize`;
* the memoized box plans of the circuit construction (Lemma 3.7) that the
  saving process had built by the time it saved — exported by
  :func:`repro.circuits.build.export_box_plans`.

A fresh process that loads such a file skips translation and homogenization,
and installs the plans the file holds; it compiles any other plan the first
time a document build needs it.  What an entry holds depends on when it was
saved.  :meth:`repro.Engine.compile` saves right after compiling, before any
document is built, so its entries hold no plans, and every process that
loads one (each shard worker included) compiles its plans as it builds.  An
entry saved from an automaton that has already built documents
(:meth:`~repro.engine.catalog.QueryCatalog.save` with ``automaton=``, as the
serving benchmark's catalog-start leg does) holds the plans those builds
compiled.  The catalog registers what it loads in
the process's table of compiled automata
(:func:`repro.core.enumerator.register_automaton`), where every runtime of
the query finds it.  Since compilation emits δ and ι in this payload's row
order, the loaded automaton equals the compiling process's.

The file is a single JSON document::

    {
      "format": 1,
      "kind": "tree" | "word",
      "digest": "<sha256 of the canonical source-query payload>",
      "query": {...},        # canonical source-query payload (audit/repair)
      "automaton": {...},    # canonical homogenized BinaryTVA payload
      "plans": {...},        # exported box plans (cache warm-up; optional)
      "meta": {...}          # sizes, library version, save timestamp
    }

The ``automaton`` and ``query`` sections are canonical (stable bytes for
stable content across processes and machines).  The ``plans`` section is a
cache snapshot: it reflects which (label, signature) pairs the compiling
process had seen, so its *presence* varies with compile history — loading a
file with fewer plans than ideal is only a warm-up difference, never a
correctness one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import __version__
from repro.automata.binary_tva import BinaryTVA
from repro.automata.serialize import (
    binary_tva_from_payload,
    binary_tva_to_payload,
    canonical_json,
    loads_payload,
    query_digest,
    query_payload,
)
from repro.circuits.build import export_box_plans, install_box_plans
from repro.errors import CatalogError, CatalogVersionError, CodecError

__all__ = ["FORMAT_VERSION", "CompiledQuery", "compiled_query_to_json", "compiled_query_from_json"]

FORMAT_VERSION = 1


@dataclass
class CompiledQuery:
    """A compiled query: the homogenized binary automaton plus provenance.

    ``automaton`` carries its box-plan cache (installed from the persisted
    snapshot on load, and empty when the entry was saved before any build;
    ``plans_installed`` counts what was installed); ``kind`` is ``"tree"``
    or ``"word"``; ``digest`` keys
    the entry by source-query *content*.  ``load_seconds`` is filled by
    :class:`repro.engine.catalog.QueryCatalog` so callers (and the serving
    benchmark) can compare load time against compile time.
    """

    kind: str
    digest: str
    automaton: BinaryTVA
    plans_installed: int = 0
    load_seconds: Optional[float] = None
    from_disk: bool = False


def compiled_query_to_json(query, automaton: BinaryTVA, kind: str, extra_meta: Optional[Dict] = None) -> str:
    """Render a compiled query as the JSON file format described above."""
    payload = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "digest": query_digest(query),
        "query": query_payload(query),
        "automaton": binary_tva_to_payload(automaton),
        "plans": export_box_plans(automaton),
        "meta": {
            "library_version": __version__,
            "automaton_states": len(automaton.states),
            "automaton_size": automaton.size(),
            **(extra_meta or {}),
        },
    }
    return canonical_json(payload)


def compiled_query_from_json(text, expected_digest: Optional[str] = None) -> CompiledQuery:
    """Parse a compiled-query file (``str`` or ``bytes``) into a :class:`CompiledQuery`.

    Raises :class:`~repro.errors.CatalogError` on text that does not parse
    (with :func:`~repro.automata.serialize.loads_payload`'s size limit) into
    a JSON object, on unknown format versions and on digest mismatches (a
    mismatch means the file was renamed or the canonicalization changed —
    silently serving the wrong standing query is the one failure mode a
    catalog must never have).
    """
    try:
        payload = loads_payload(text)
    except CodecError as exc:
        raise CatalogError(f"corrupt compiled-query file: {exc}") from exc
    if not isinstance(payload, dict):
        raise CatalogError(
            f"corrupt compiled-query file: the top level is a {type(payload).__name__}, "
            "not an object"
        )
    if payload.get("format") != FORMAT_VERSION:
        raise CatalogVersionError(
            f"unsupported compiled-query format {payload.get('format')!r} "
            f"(this library reads format {FORMAT_VERSION})"
        )
    digest = payload.get("digest")
    if expected_digest is not None and digest != expected_digest:
        raise CatalogError(
            f"compiled-query digest mismatch: file says {digest!r}, "
            f"expected {expected_digest!r}"
        )
    automaton = binary_tva_from_payload(payload["automaton"])
    installed = install_box_plans(automaton, payload.get("plans", {}))
    return CompiledQuery(
        kind=payload["kind"],
        digest=digest,
        automaton=automaton,
        plans_installed=installed,
        from_disk=True,
    )
