"""Span recorder for the traced benchmark run, and self-time arithmetic.

The recorder wraps public entry points of the ``repro`` modules from outside
the program: each call becomes one span row ``[name, start_ns, end_ns,
parent, op, busy_ns, count, meta]`` kept in memory and written out when the
benchmark (or a process it launched) ends.  ``parent`` indexes the row of
the enclosing span on the same thread.  ``op`` is the client's current op id
in the client process; the other processes leave it ``None`` and get it
from the client op window that contains the span's start (one closed-loop
client means at most one op is in flight).  Clocks are ``perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` and therefore comparable across processes on
one host.

Per-answer steps are too many for one row each: the steps under one parent
(in one op) fold into a single row whose ``busy_ns`` sums the step
durations and whose ``count`` is the step count.

``meta`` carries one integer where a layer has a natural size: tree nodes
for builds, bytes for frames and pipe messages.
"""

from __future__ import annotations

import bisect
import functools
import gc
import json
import os
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, OP, BUSY, COUNT, META = range(8)


class SpanRecorder:
    """In-memory span rows of one process, with a per-thread parent stack."""

    def __init__(self, process: str, out_dir: Optional[str] = None):
        self.process = process
        self.out_dir = out_dir
        self.rows: List[list] = []
        self.op: Optional[int] = None
        self.folds: Dict[tuple, int] = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, meta: int = 0) -> int:
        stack = self._stack()
        index = len(self.rows)
        self.rows.append(
            [name, perf_counter_ns(), 0, stack[-1] if stack else None, self.op, 0, 1, meta]
        )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        row = self.rows[index]
        row[END] = perf_counter_ns()
        row[BUSY] = row[END] - row[START]
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # an exception unwound past a child: drop it too
            del stack[stack.index(index):]

    # ------------------------------------------------------------ processes
    def reset_after_fork(self, process: str) -> None:
        """Start empty in a forked child and flush its rows when it exits."""
        from multiprocessing import util

        self.process = process
        self.rows = []
        self.op = None
        self.folds = {}
        self._local = threading.local()
        util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> Optional[str]:
        if self.out_dir is None:
            return None
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"process": self.process, "pid": os.getpid(), "rows": self.rows}, handle)
        return path


def _folded(recorder: SpanRecorder, name: str, call: Callable):
    """Run ``call`` timed into the one ``name`` row of the current parent and op."""
    stack = recorder._stack()
    parent = stack[-1] if stack else None
    key = (name, parent, recorder.op)
    index = recorder.folds.get(key)
    if index is None:
        index = recorder.folds[key] = len(recorder.rows)
        recorder.rows.append([name, 0, 0, parent, recorder.op, 0, 0, 0])
    row = recorder.rows[index]
    stack.append(index)
    start = perf_counter_ns()
    try:
        return call()
    finally:
        end = perf_counter_ns()
        if stack and stack[-1] == index:
            stack.pop()
        if not row[START]:
            row[START] = start
        row[END] = end
        row[BUSY] += end - start
        row[COUNT] += 1


class _TimedIterator:
    """Times each step of an answer iterator into folded rows."""

    __slots__ = ("recorder", "name", "first_name", "inner")

    def __init__(self, recorder: SpanRecorder, name: str, inner, first_name: Optional[str]):
        self.recorder, self.name, self.inner = recorder, name, iter(inner)
        self.first_name = first_name

    def __iter__(self):
        return self

    def __next__(self):
        recorder = self.recorder
        if self.first_name is not None:
            name, self.first_name = self.first_name, None
            index = recorder.begin(name)
            try:
                return next(self.inner)
            finally:
                recorder.end(index)
        return _folded(recorder, self.name, self.inner.__next__)

    def close(self):
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------- wrapping
def wrap(recorder: SpanRecorder, fn: Callable, name: str, meta: Optional[Callable] = None):
    """``fn`` recording one span per call (``meta(args, kwargs, result)``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if meta is not None:
            recorder.rows[index][META] = meta(args, kwargs, result)
        return result

    return wrapper


def wrap_folded(recorder: SpanRecorder, fn: Callable, name: str):
    """``fn`` with its calls under one parent folded into a single row."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _folded(recorder, name, lambda: fn(*args, **kwargs))

    return wrapper


def wrap_iterating(
    recorder: SpanRecorder, fn: Callable, name: str, step_name: str,
    first_name: Optional[str] = None,
):
    """``fn`` recording its call, with its returned iterator's steps timed.

    With ``first_name`` the first step gets a row of its own under that name.
    """
    inner = wrap(recorder, fn, name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(recorder, step_name, inner(*args, **kwargs), first_name)

    return wrapper


def patch_function(module, attr: str, wrapper: Callable) -> None:
    """Replace a module function everywhere ``repro`` modules imported it."""
    original = getattr(module, attr)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def install_gc_callback(recorder: SpanRecorder) -> None:
    """Record every collection as a ``gc.gen<N>`` span on the collecting thread."""
    open_rows: Dict[int, int] = {}

    def callback(phase, info):
        key = threading.get_ident()
        if phase == "start":
            open_rows[key] = recorder.begin(f"gc.gen{info['generation']}")
        else:
            index = open_rows.pop(key, None)
            if index is not None:
                recorder.end(index)
                recorder.rows[index][META] = info.get("collected", 0)

    gc.callbacks.append(callback)


class GcPauses:
    """Start and end of every generation-1 and generation-2 collection.

    Cheap enough for untraced runs (a few hundred collections a run); the
    benchmark uses it to take these pauses out of the ingest metric, whose
    few samples one full collection would otherwise dominate.
    """

    def __init__(self):
        self.intervals: List[Tuple[int, int]] = []
        self._start = 0

    def install(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def _callback(self, phase, info):
        if info["generation"] < 1:
            return
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.intervals.append((self._start, perf_counter_ns()))


def overlap_ns(intervals: Iterable[Tuple[int, int]], start: int, end: int) -> int:
    """How much of ``[start, end]`` the (disjoint) intervals cover."""
    return sum(max(0, min(b, end) - max(a, start)) for a, b in intervals)


# ------------------------------------------------------------ self time
def self_times(rows: List[list]) -> List[int]:
    """Per row: its busy time minus the part of it its child rows cover.

    Children of an ordinary row are merged as intervals clipped to the
    parent, so overlapping children are not subtracted twice; a folded
    iterator row contributes its summed busy time.
    """
    children: Dict[int, List[int]] = {}
    for index, row in enumerate(rows):
        parent = row[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append(index)
    result = []
    for index, row in enumerate(rows):
        kids = children.get(index)
        if not kids:
            result.append(row[BUSY])
            continue
        covered = 0
        intervals: List[Tuple[int, int]] = []
        for kid in kids:
            child = rows[kid]
            if child[COUNT] != 1:
                covered += child[BUSY]
                continue
            start = max(child[START], row[START])
            end = min(child[END], row[END]) if row[COUNT] == 1 else child[END]
            if end > start:
                intervals.append((start, end))
        intervals.sort()
        cursor = None
        for start, end in intervals:
            if cursor is None or start > cursor[1]:
                if cursor is not None:
                    covered += cursor[1] - cursor[0]
                cursor = [start, end]
            else:
                cursor[1] = max(cursor[1], end)
        if cursor is not None:
            covered += cursor[1] - cursor[0]
        result.append(max(0, row[BUSY] - covered))
    return result


def assign_ops(rows: List[list], windows: List[Tuple[int, int, int]]) -> None:
    """Give rows without an op id the id of the op window holding their start.

    ``windows`` are ``(start_ns, end_ns, op_id)`` sorted by start and not
    overlapping (one closed-loop client).
    """
    starts = [window[0] for window in windows]
    for row in rows:
        if row[OP] is not None or not row[START]:
            continue
        at = bisect.bisect_right(starts, row[START]) - 1
        if at >= 0 and row[START] <= windows[at][1]:
            row[OP] = windows[at][2]


def load_span_files(paths: Iterable[str]) -> List[dict]:
    processes = []
    for path in paths:
        with open(path) as handle:
            processes.append(json.load(handle))
    return processes
