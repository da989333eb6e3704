"""The benchmark's three closed-loop workloads and their set-up.

Every workload draws its trees from ``repro.bench.workloads`` and its edits
from ``repro.trees.edits``.  The initially served trees are a fixed corpus;
the edits and the arriving trees are seeded from the run's ``--seed``.  All
three run the same four operations (``apply_edits``, ``page``, ``stream``,
and an arrival: ``remove`` + ``add_documents``) so that every end-to-end
metric is defined on every workload; the mixes differ in which layers do the
work.  ``BENCHMARK.json`` lists ``edit-refresh`` and ``net-mixed``;
``stream-scan`` runs by hand, since three set-up-heavy workloads do not fit
the benchmark's time budget with runs long enough to be steady.

* ``edit-refresh`` — in-process engine, writes beside reads.  Each step is an
  edit batch on one document, the first page of a fresh cursor on it (the
  paper's update-then-restart) and the next page of a standing cursor on
  another document; a light document is streamed every ``stream_every``
  steps and replaced every ``arrival_every`` steps.
* ``stream-scan`` — in-process engine, reads dominate.  Each round streams
  every large document in full and pages through the first one with
  ``page_size=500``.  A small side document takes the writes (three edit
  batches, each followed by a fresh page, after every deep page, and four
  arrivals per round), so the write-path layers are measured here too but
  do a small share of the work.
* ``net-mixed`` — ``edit-refresh``'s step mix sent by one ``RemoteEngine``
  over TCP loopback to an ``EngineServer`` process over
  ``Engine(workers=2, replicas=2)``.  Compute per op matches the local mix;
  what differs is the codec, transport, queueing and replica fan-out.

Traffic runs in whole cycles (``edit-refresh`` and ``net-mixed``: a fixed
number of steps; ``stream-scan``: one round) until ``--seconds`` have passed,
so runs differ in length but hardly in their mix of operations.  The first
cycle is the exact-count window: counts taken over it repeat for one seed.
Between ops the traffic times the host-speed reference loop every
``sample_every`` steps (``hostspeed``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.workloads import query_for_name, tree_for_experiment

from hostspeed import HostSpeed
from traffic import Slot, Traffic

HERE = os.path.dirname(os.path.abspath(__file__))
TRIO = ("select-a", "descendant", "nondet-6")
LIGHT = ("select-a", "descendant")  #: arrivals; a nondet-6 build would swamp ingest


@dataclass
class Params:
    """The knobs of one workload (``tiny()`` shrinks them for the tests)."""

    doc_size: int
    doc_queries: Tuple[str, ...]
    setups: int = 3  #: set-ups per untraced run; setup_s is their median
    batch: int = 2  #: edits per apply_edits batch
    page_size: int = 50
    cycle_steps: int = 100  #: steps per cycle (edit-refresh, net-mixed)
    stream_every: int = 20  #: each streamed document once per cycle
    #: one arrival per cycle, its kind rotating.  Arrivals drive most gen-2
    #: collections, which land on edits (about 0.65% of them here) and, in
    #: net-mixed, on pages.  A run has about a thousand edits and two
    #: thousand pages, so their tails are reported at p95: p99 would have
    #: only a few ordinary ops beyond it and swing with the pause count
    arrival_every: int = 100
    side_size: int = 1024  #: stream-scan's write-side document
    deep_page_size: int = 500
    side_steps_per_page: int = 3
    side_arrivals_per_round: int = 4
    sample_every: int = 10  #: steps between reference-loop samples (``hostspeed``)
    remote: bool = False

    def tiny(self) -> "Params":
        return Params(
            doc_size=48, doc_queries=self.doc_queries, setups=2, batch=self.batch,
            page_size=8, cycle_steps=20, stream_every=4, arrival_every=5, side_size=32,
            deep_page_size=40, side_steps_per_page=1, side_arrivals_per_round=2,
            sample_every=5, remote=self.remote,
        )


WORKLOADS: Dict[str, Params] = {
    "edit-refresh": Params(doc_size=2048, doc_queries=tuple(TRIO[i % 3] for i in range(8))),
    "stream-scan": Params(
        doc_size=4096, doc_queries=("descendant", "descendant", "nondet-6", "select-a"),
    ),
    "net-mixed": Params(
        doc_size=2048, doc_queries=tuple(TRIO[i % 3] for i in range(8)), remote=True,
    ),
}


# ------------------------------------------------------------------ inputs
@dataclass
class Inputs:
    """Everything a run feeds the engine, generated from the seed alone."""

    seed: int
    trees: List  # initial tree per slot
    side_tree: object = None

    def fresh_tree(self, size: int, index: int):
        return tree_for_experiment(size, "random", seed=self.seed * 100003 + 7919 + index)


def make_inputs(name: str, params: Params, seed: int) -> Inputs:
    # the initially served trees are one fixed corpus; the seed draws the
    # edits and the arriving trees.  With the trees drawn from the seed too,
    # the two nondet-6 documents set the edit tail, and it moved 15-21 ms
    # over five seeds (fixed: 16.4-18.7 ms)
    trees = [
        tree_for_experiment(params.doc_size, "random", seed=i)
        for i in range(len(params.doc_queries))
    ]
    inputs = Inputs(seed=seed, trees=trees)
    if name == "stream-scan":
        inputs.side_tree = tree_for_experiment(params.side_size, "random", seed=seed * 100003 + 997)
    return inputs


# ----------------------------------------------------------------- engines
class LocalTarget:
    """An in-process ``Engine()``."""

    def __init__(self, workdir: str, trace: bool):
        from repro import Engine

        self.client = Engine()

    def close(self) -> Dict[str, object]:
        self.client.close()
        return {}


class RemoteTarget:
    """An ``EngineServer`` process over ``Engine(workers=2, replicas=2)``."""

    def __init__(self, workdir: str, trace: bool):
        from repro.net.client import RemoteEngine

        catalog = os.path.join(workdir, f"catalog-{time.monotonic_ns()}")
        env = dict(os.environ, TMPDIR=workdir, PYTHONHASHSEED="0")
        self.summary_path = os.path.join(workdir, "server-summary.json")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), workdir, catalog, "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = self.process.stdout.readline().decode().split()
            if len(line) != 3 or line[0] != "READY":
                raise RuntimeError(f"the benchmark server did not start (said {line!r})")
            self.client = RemoteEngine((line[1], int(line[2])), timeout=120.0)
        except BaseException:
            self._stop()
            raise

    def _stop(self) -> None:
        process = self.process
        try:
            process.stdin.close()
            process.wait(timeout=120)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()

    def close(self) -> Dict[str, object]:
        import json

        self.client.close()
        self._stop()
        try:
            with open(self.summary_path) as handle:
                summary = json.load(handle)
            os.remove(self.summary_path)  # the next server's must not be mistaken for it
            return summary
        except OSError:
            return {}


def _target_class(params: Params):
    return RemoteTarget if params.remote else LocalTarget


def set_up(params: Params, inputs: Inputs, workdir: str, trace: bool):
    """Start the engine, compile the queries and ingest every document."""
    target = _target_class(params)(workdir, trace)
    try:
        client = target.client
        queries = {name: client.compile(query_for_name(name)) for name in sorted(set(params.doc_queries))}
        slots = [
            Slot(name, tree.copy(), random.Random(inputs.seed * 31 + i))
            for i, (name, tree) in enumerate(zip(params.doc_queries, inputs.trees))
        ]
        if inputs.side_tree is not None:
            queries.setdefault("select-a", client.compile(query_for_name("select-a")))
            slots.append(Slot("select-a", inputs.side_tree.copy(), random.Random(inputs.seed * 31 + 99)))
        docs = client.add_documents(
            [slot.tree for slot in slots], queries=[queries[slot.query_name] for slot in slots]
        )
        for slot, doc in zip(slots, docs):
            slot.doc = doc
    except BaseException:
        target.close()
        raise
    return target, queries, slots


def timed_set_up(params: Params, inputs: Inputs, workdir: str, trace: bool):
    """``set_up()`` plus its window and its seconds, scaled to the nominal
    host by reference samples taken just before and just after it."""
    host = HostSpeed()
    host.sample(5)
    start = time.perf_counter_ns()
    target, queries, slots = set_up(params, inputs, workdir, trace)
    end = time.perf_counter_ns()
    host.sample(5)
    return target, queries, slots, (start, end), host.scaled_by_median_ns(end - start) / 1e9


def _timed_setup_child(conn, params, inputs, workdir) -> None:
    target, _queries, _slots, _window, took = timed_set_up(params, inputs, workdir, trace=False)
    target.close()
    conn.send(took)
    conn.close()


def extra_setup_times(params: Params, inputs: Inputs, workdir: str, count: int) -> List[float]:
    """Time ``count`` additional set-ups, each from the same starting state.

    A local set-up runs in a forked child, so it starts with no compiled
    query cached and leaves no garbage in the benchmark process; the
    benchmark has started no thread yet, which keeps the fork safe.  A
    remote set-up launches (and stops) a server process of its own.
    """
    times = []
    for _ in range(count):
        if params.remote:
            target, _queries, _slots, _window, took = timed_set_up(params, inputs, workdir, trace=False)
            times.append(took)
            target.close()
            continue
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        child = context.Process(target=_timed_setup_child, args=(child_conn, params, inputs, workdir))
        child.start()
        child_conn.close()
        try:
            times.append(parent_conn.recv())
        finally:
            child.join(timeout=120)
            if child.is_alive():
                child.kill()
                child.join()
            parent_conn.close()
        if child.exitcode != 0:
            raise RuntimeError(f"set-up child exited with code {child.exitcode}")
    return times


# ----------------------------------------------------------------- traffic
def _arrival(traffic: Traffic, inputs: Inputs, params: Params, slots: List[Slot], number: int) -> None:
    """The ``number``-th arrival.  Arrivals take turns: a select-a document
    replaced by a fresh tree, a descendant one by a copy, a select-a one by a
    copy, a descendant one by a fresh tree; each rotates through its query's
    documents."""
    query = LIGHT[number % 2]
    fresh = number % 4 in (0, 3)
    same = [i for i, slot in enumerate(slots) if slot.query_name == query]
    slot_index = same[(number // 2) % len(same)]
    if fresh:
        tree = inputs.fresh_tree(params.doc_size, number)
    else:  # a copy of a tree already served under the same query
        tree = inputs.trees[same[(number // 2 + 1) % len(same)]].copy()
    traffic.arrive(slots[slot_index], tree, random.Random(inputs.seed * 53 + number))


def mixed_traffic(traffic: Traffic, params: Params, inputs: Inputs, slots: List[Slot],
                  seconds: float, on_window: Callable[[], None]) -> None:
    """``edit-refresh``'s step mix (also ``net-mixed``'s), in whole cycles.

    The edited and the read document rotate through all pairs rather than
    being drawn at random: the three queries' ops differ several-fold in
    cost, and a drawn mix shifts the pooled percentiles from seed to seed.
    """
    n = len(slots)
    streamed = [i for i, slot in enumerate(slots) if slot.query_name != "descendant"]
    step = arrivals = 0
    traffic.host.sample(3)
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(params.cycle_steps):
            if step % params.sample_every == 0:
                traffic.host.sample()
            edited = step % n
            other = (edited + 1 + (step // n) % (n - 1)) % n
            traffic.edit(slots[edited], params.batch)
            traffic.page_fresh(slots[edited], params.page_size)
            traffic.page_next(slots[other], params.page_size)
            step += 1
            if step % params.stream_every == 0:
                traffic.stream(slots[streamed[(step // params.stream_every) % len(streamed)]])
            if step % params.arrival_every == 0:
                _arrival(traffic, inputs, params, slots, arrivals)
                arrivals += 1
        on_window()
        if time.perf_counter() >= deadline:
            return


def scan_traffic(traffic: Traffic, params: Params, inputs: Inputs, slots: List[Slot],
                 seconds: float, on_window: Callable[[], None]) -> None:
    """``stream-scan``: full streams and deep pagination, writes on a side document."""
    big, side = slots[:-1], slots[-1]
    arrivals = 0
    traffic.host.sample(3)
    deadline = time.perf_counter() + seconds
    while True:
        for slot in big:
            traffic.host.sample()
            traffic.stream(slot)
        deep = big[0]
        deep.cursor = None
        while True:
            traffic.host.sample()
            page = traffic.page_next(deep, params.deep_page_size)
            for _ in range(params.side_steps_per_page):
                traffic.edit(side, params.batch)
                traffic.page_fresh(side, params.page_size)
            if page is None or deep.cursor is None:
                break
        for _ in range(params.side_arrivals_per_round):
            fresh = arrivals % 2 == 0
            tree = inputs.fresh_tree(params.side_size, arrivals) if fresh else inputs.side_tree.copy()
            traffic.arrive(side, tree, random.Random(inputs.seed * 53 + arrivals))
            arrivals += 1
        on_window()
        if time.perf_counter() >= deadline:
            return


def run_traffic(name: str, traffic: Traffic, params: Params, inputs: Inputs, slots: List[Slot],
                seconds: float, on_window: Callable[[], None]) -> None:
    loop = scan_traffic if name == "stream-scan" else mixed_traffic
    traffic.start_ns = time.perf_counter_ns()
    loop(traffic, params, inputs, slots, seconds, on_window)
    traffic.end_ns = time.perf_counter_ns()


# ------------------------------------------------------------------- check
#: what the forked check processes compare (set just before they fork)
_CHECKED: Dict[str, list] = {}


def _check_slot(index: int) -> Optional[str]:
    from repro.core.enumerator import TreeRuntime

    slot, served = _CHECKED["slots"][index], _CHECKED["served"][index]
    expected = set(TreeRuntime(slot.tree, query_for_name(slot.query_name)).assignments())
    if served == expected:
        return None
    detail = served if not isinstance(served, set) else (
        f"{len(served - expected)} unexpected, {len(expected - served)} missing"
    )
    return f"document {index} ({slot.query_name}) answers differ: {detail}"


def check_outputs(slots: List[Slot], log=None) -> int:
    """Compare each document's answer set with a fresh in-process build.

    The reference is a new ``TreeRuntime`` over the benchmark's own copy of
    the document's final tree.  Sets, not sequences, are compared: answer
    order depends on the balanced term's edit history.  The references are
    built by two forked processes, outside every timed region.  Returns the
    number of documents whose answers differ (or could not be read).
    """
    served = []
    for slot in slots:
        try:
            served.append(set(slot.doc.stream()))
        except Exception as exc:  # noqa: BLE001 — an unreadable document is a wrong answer
            served.append(f"{type(exc).__name__}: {exc}")
    _CHECKED.update(slots=slots, served=served)
    try:
        with multiprocessing.get_context("fork").Pool(2) as pool:
            problems = [p for p in pool.imap_unordered(_check_slot, range(len(slots))) if p]
    finally:
        _CHECKED.clear()
    for problem in problems:
        if log is not None:
            log(problem)
    return len(problems)


def describe(name: str, params: Params) -> Dict[str, object]:
    return {"workload": name, **asdict(params)}


def fresh_workdir(root: str) -> str:
    path = os.path.join(root, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
