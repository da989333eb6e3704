"""Install span wrappers on the public entry points of each ``repro`` layer.

Span names start with the layer they are charged to (see ``LAYERS``).  The
wrappers are installed once per process; processes forked afterwards (shard
workers) inherit them and start an empty recorder of their own.
"""

from __future__ import annotations

import inspect
from multiprocessing import connection, util

from spans import SpanRecorder, install_gc_callback, patch_function, wrap, wrap_folded, wrap_iterating

#: span-name prefix -> layer, longest prefix first
LAYERS = (
    ("automata.", "automata"),
    ("engine.catalog.", "engine.catalog"),
    ("forest_algebra.", "forest_algebra"),
    ("circuits.", "circuits"),
    ("incremental.", "incremental"),
    ("enumeration.", "enumeration"),
    ("engine.cursor.", "engine.cursor"),
    ("engine.facade.", "engine.facade"),
    ("engine.sharding.", "engine.sharding"),
    ("net.", "net"),
    ("gc.", "gc"),
    ("bench.", "bench"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def _wrap_method(recorder, cls, attr, name, meta=None):
    setattr(cls, attr, wrap(recorder, getattr(cls, attr), name, meta))


def _wrap_public(recorder, cls, prefix):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if attr in ("stream", "__iter__"):
            setattr(cls, attr, wrap_iterating(recorder, value, f"{prefix}.{attr}", "engine.facade.stream_step"))
        else:
            setattr(cls, attr, wrap(recorder, value, f"{prefix}.{attr}"))


def instrument(recorder: SpanRecorder, pipes: bool = False) -> None:
    """Wrap every traced entry point; ``pipes`` also counts shard-pipe bytes."""
    import repro.core.enumerator as core_enumerator
    import repro.net.framing as framing
    from repro.engine.catalog import QueryCatalog
    from repro.engine.cursor import Cursor
    from repro.engine.document import Document
    from repro.engine.engine import Engine
    from repro.engine.local import LocalDocument
    from repro.engine.sharding import ShardPool
    from repro.enumeration.assignment_iter import CircuitEnumerator
    from repro.enumeration.duplicate_free import MaskStackEnumeration
    from repro.forest_algebra.maintenance import MaintainedTerm
    from repro.incremental.maintainer import IncrementalCircuitMaintainer
    from repro.net.client import RemoteEngine
    from repro.net.server import EngineServer

    patch_function(
        core_enumerator,
        "compiled_automaton_for",
        wrap(recorder, core_enumerator.compiled_automaton_for, "automata.compile"),
    )
    _wrap_method(recorder, QueryCatalog, "load", "engine.catalog.load")
    _wrap_method(recorder, QueryCatalog, "get", "engine.catalog.get")
    _wrap_method(
        recorder, MaintainedTerm, "__init__", "forest_algebra.build",
        meta=lambda args, kwargs, result: args[1].size(),
    )
    _wrap_method(recorder, MaintainedTerm, "apply_edit", "forest_algebra.apply_edit")
    _wrap_method(
        recorder, IncrementalCircuitMaintainer, "__init__", "circuits.build",
        meta=lambda args, kwargs, result: len(getattr(args[1], "leaf_of", ())),
    )
    _wrap_method(recorder, IncrementalCircuitMaintainer, "apply_report", "incremental.apply_report")
    _wrap_method(recorder, IncrementalCircuitMaintainer, "enumerator", "enumeration.enumerator")
    CircuitEnumerator.assignments = wrap_iterating(
        recorder, CircuitEnumerator.assignments, "enumeration.open", "enumeration.stream_step",
        first_name="enumeration.first_answer",
    )
    MaskStackEnumeration.__next__ = wrap_folded(recorder, MaskStackEnumeration.__next__, "enumeration.answer")
    _wrap_method(recorder, Cursor, "fetch", "engine.cursor.fetch")
    _wrap_method(recorder, LocalDocument, "open_cursor", "engine.cursor.open")
    _wrap_method(recorder, LocalDocument, "apply_edits", "engine.cursor.apply_edits")
    _wrap_method(recorder, LocalDocument, "fetch_page", "engine.cursor.fetch_page")
    _wrap_method(recorder, LocalDocument, "_notify_cursors", "engine.cursor.notify")
    _wrap_public(recorder, Engine, "engine.facade.Engine")
    _wrap_public(recorder, Document, "engine.facade.Document")
    _wrap_public(recorder, RemoteEngine, "engine.facade.RemoteEngine")
    for attr in ("submit", "collect", "stream_next_chunk"):
        _wrap_method(recorder, ShardPool, attr, f"engine.sharding.{attr}")
    for attr in ("encode_frame", "decode_frame_body"):
        patch_function(
            framing, attr,
            wrap(
                recorder, getattr(framing, attr), f"net.{attr}",
                meta=(lambda args, kwargs, result: len(result)) if attr == "encode_frame"
                else (lambda args, kwargs, result: len(args[0])),
            ),
        )
    for attr in ("send_frame", "recv_frame"):
        patch_function(framing, attr, wrap(recorder, getattr(framing, attr), f"net.{attr}"))
    _wrap_method(recorder, EngineServer, "_dispatch", "net.server_dispatch")
    if pipes:
        _wrap_method(
            recorder, connection.Connection, "_send_bytes", "engine.sharding.pipe_send",
            meta=lambda args, kwargs, result: len(args[1]),
        )
        _wrap_method(
            recorder, connection.Connection, "_recv_bytes", "engine.sharding.pipe_recv",
            meta=lambda args, kwargs, result: result.getbuffer().nbytes,
        )
    install_gc_callback(recorder)
    util.register_after_fork(recorder, lambda rec: rec.reset_after_fork("worker"))
