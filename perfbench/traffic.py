"""Closed-loop traffic: timed engine operations and their bookkeeping.

One client thread sends one operation at a time and waits for it, so the
engine never sees more than one request in flight.  Everything the benchmark
does besides the engine call itself (generating edits, checking pages for
duplicates) happens outside the op's timed region.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Set

from repro.automata.queries import DEFAULT_LABELS
from repro.errors import CursorInvalidatedError
from repro.trees.edits import Delete, Insert, InsertRight, random_edit
from repro.trees.unranked import UnrankedTree

from hostspeed import HostSpeed

#: (relabel, insert, insertR, delete) weights.  ``random_edit`` retries a
#: delete drawn on an inner node, so deletes need the larger weight; with
#: these, random trees of 2048 nodes stay within a few percent of their size
#: over thousands of edits, and per-op cost does not drift with run length.
EDIT_WEIGHTS = (1.0, 1.0, 1.0, 4.5)


class _TreeView:
    """The two reads ``random_edit`` makes, answered from a kept node list."""

    __slots__ = ("tree", "node_list")

    def __init__(self, tree: UnrankedTree):
        self.tree = tree
        self.node_list = list(tree.nodes())

    def nodes(self):
        return self.node_list

    def size(self) -> int:
        return len(self.node_list)


@dataclass
class Slot:
    """One served document and the benchmark's own copy of its tree."""

    query_name: str
    tree: UnrankedTree
    rng: random.Random
    doc: object = None
    view: Optional[_TreeView] = None
    #: the standing cursor's last page, and every answer it has delivered
    cursor: object = None
    seen: Set = field(default_factory=set)

    def __post_init__(self):
        self.view = _TreeView(self.tree)

    def next_edits(self, count: int) -> list:
        """Draw ``count`` edits and apply them to the benchmark's copy."""
        edits = []
        view = self.view
        for _ in range(count):
            edit = random_edit(view, DEFAULT_LABELS, self.rng, weights=EDIT_WEIGHTS)
            if isinstance(edit, Delete):
                view.node_list.remove(self.tree.node(edit.node_id))
            node = edit.apply_to_tree(self.tree)
            if isinstance(edit, (Insert, InsertRight)):
                view.node_list.append(node)
            edits.append(edit)
        return edits


class Traffic:
    """Timed ops of one run, with the samples every metric is computed from."""

    def __init__(self, engine, queries: Dict[str, object], recorder=None, log=None):
        self.engine = engine
        self.queries = queries
        self.recorder = recorder
        self.log = log
        self.host = HostSpeed()
        self.ops: List[tuple] = []  #: (start_ns, end_ns, op_id, kind)
        #: (start_ns, duration_ns) of each completed edit and page
        self.latencies: Dict[str, List[tuple]] = {"edit": [], "page": []}
        self.ingests: List[tuple] = []  #: (nodes, start_ns, end_ns) per arrival
        #: (start_ns, duration_ns, answers, first gap, end of gaps) per full stream
        self.streams: List[tuple] = []
        self.gaps_ns = array("q")  #: gaps between consecutive answers, all streams
        self.resumed = 0
        self.invalidated = 0
        self.trunk_sizes: List[int] = []
        self.rebuilt_sizes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.start_ns = 0
        self.end_ns = 0

    # ------------------------------------------------------------- timing
    def _run(self, kind: str, call):
        """Run one op; returns ``(result, error, duration_ns)``."""
        op_id = len(self.ops)
        recorder = self.recorder
        index = None
        if recorder is not None:
            recorder.op = op_id
            index = recorder.begin(f"bench.op.{kind}")
        self.attempted += 1
        result = error = None
        start = perf_counter_ns()
        try:
            result = call()
        except CursorInvalidatedError as exc:
            error = exc
        except Exception as exc:  # noqa: BLE001 — every failure is counted and reported
            error = exc
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
        end = perf_counter_ns()
        if recorder is not None:
            recorder.end(index)
            recorder.op = None
        self.ops.append((start, end, op_id, kind))
        return result, error, end - start

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.log is not None and self.failed <= 5:
            self.log(f"op failed: {message}")

    # ---------------------------------------------------------------- ops
    def edit(self, slot: Slot, batch_size: int) -> None:
        batch = slot.next_edits(batch_size)
        report, error, took = self._run("edit", lambda: slot.doc.apply_edits(batch))
        if error is not None:
            return
        self.latencies["edit"].append((self.ops[-1][0], took))
        self.resumed += report.cursors_resumed
        self.invalidated += report.cursors_invalidated
        for stats in report.stats:
            self.trunk_sizes.append(stats.trunk_size)
            self.rebuilt_sizes.append(stats.rebuilt_subterm_size)

    def _note_page(self, slot: Slot, page, took: int, fresh: bool) -> None:
        self.latencies["page"].append((self.ops[-1][0], took))
        if fresh:
            slot.seen = set()
        answers = page.answers
        if slot.seen.intersection(answers) or len(set(answers)) != len(answers):
            self.fail(f"cursor {page.cursor_id} on document {slot.doc.doc_id!r} repeated an answer")
        slot.seen.update(answers)
        slot.cursor = None if page.exhausted else page

    def page_fresh(self, slot: Slot, page_size: int):
        page, error, took = self._run("page", lambda: slot.doc.page(page_size=page_size))
        if error is None:
            self._note_page(slot, page, took, fresh=True)
        return page

    def page_next(self, slot: Slot, page_size: int):
        """Continue the slot's standing cursor (opening one when it has none)."""
        if slot.cursor is None:
            return self.page_fresh(slot, page_size)
        cursor = slot.cursor
        page, error, took = self._run("page", lambda: slot.doc.page(cursor=cursor))
        if isinstance(error, CursorInvalidatedError):
            slot.cursor = None  # a correct outcome: the edit hit what it still had to read
            return self.page_fresh(slot, page_size)
        if error is None:
            self._note_page(slot, page, took, fresh=False)
        return page

    def stream(self, slot: Slot) -> None:
        answers = []
        gaps = self.gaps_ns
        first_gap = len(gaps)

        def consume():
            previous = None
            for answer in slot.doc.stream():
                now = perf_counter_ns()
                if previous is not None:
                    gaps.append(now - previous)
                previous = now
                answers.append(answer)

        _result, error, took = self._run("stream", consume)
        if error is not None:
            return
        self.streams.append((self.ops[-1][0], took, len(answers), first_gap, len(gaps)))
        if len(set(answers)) != len(answers):
            self.fail(f"stream of document {slot.doc.doc_id!r} repeated an answer")

    def arrive(self, slot: Slot, tree: UnrankedTree, rng: random.Random) -> None:
        """Replace the slot's document by ``tree`` (remove, then add)."""
        old = slot.doc
        self._run("remove", old.remove)
        query = self.queries[slot.query_name]
        docs, error, _took = self._run(
            "ingest", lambda: self.engine.add_documents([tree], queries=[query])
        )
        slot.tree = tree.copy()
        slot.view = _TreeView(slot.tree)
        slot.rng = rng
        slot.cursor = None
        slot.seen = set()
        if error is not None:
            slot.doc = None
            return
        slot.doc = docs[0]
        start, end = self.ops[-1][:2]
        self.ingests.append((tree.size(), start, end))
