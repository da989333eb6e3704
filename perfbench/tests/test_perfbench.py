"""Tests of the benchmark itself: self-time arithmetic, host-speed scaling,
the output check, tiny runs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from metrics import TraceAnalysis  # noqa: E402
from spans import OP, assign_ops, self_times  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def _row(name, start, end, parent=None, op=None, busy=None, count=1, meta=0):
    return [name, start, end, parent, op, end - start if busy is None else busy, count, meta]


def test_self_time_of_nested_spans_across_two_processes():
    # client: one page op (id 0) wrapping the facade, which waits on the wire
    client = [
        _row("bench.op.page", 0, 100, op=0),
        _row("engine.facade.Document.page", 10, 90, parent=0, op=0),
        _row("net.recv_frame", 20, 80, parent=1, op=0),
        _row("gc.gen0", 30, 35, parent=2, op=0),
    ]
    # server: no op ids; overlapping children of the dispatch are merged once,
    # a folded row of three answer steps counts its summed busy time, and the
    # reply is encoded outside the dispatch (on the event-loop thread)
    server = [
        _row("net.server_dispatch", 25, 75),
        _row("engine.cursor.fetch", 30, 50, parent=0),
        _row("engine.cursor.fetch", 40, 60, parent=0),
        _row("enumeration.answer", 31, 49, parent=1, busy=12, count=3),
        _row("net.encode_frame", 70, 74),
    ]
    assert self_times(client) == [20, 20, 55, 5]
    assert self_times(server) == [20, 8, 20, 12, 4]
    assign_ops(server, [(0, 100, 0)])
    assert [row[OP] for row in server] == [0] * 5

    traffic = SimpleNamespace(
        ops=[(0, 100, 0, "page")], rebuilt_sizes=[], trunk_sizes=[], resumed=0, invalidated=0
    )
    analysis = TraceAnalysis(
        [{"process": "client", "rows": client}, {"process": "server", "rows": server}],
        traffic, setup_window=(-10, -1),
    )
    table = analysis.table()  # µs per page op; the synthetic rows are in ns
    assert table["bench"]["page"] == pytest.approx(0.020)
    assert table["engine.facade"]["page"] == pytest.approx(0.020)
    assert table["net"]["page"] == pytest.approx((55 + 20 + 4) / 1e3)
    assert table["engine.cursor"]["page"] == pytest.approx(0.028)
    assert table["enumeration"]["page"] == pytest.approx(0.012)
    assert table["gc"]["page"] == pytest.approx(0.005)
    layers = analysis.per_layer({})
    assert layers["share.page.enumeration"][0] == pytest.approx(100 * 12 / 164)
    assert layers["engine.cursor.fetch_self_us"][0] == pytest.approx(0.014)


def test_host_speed_scales_durations_and_leaves_out_reference_time():
    from hostspeed import EXPONENT, NOMINAL_MS, HostSpeed

    ms = 1_000_000
    slow = int(2 * NOMINAL_MS * ms)  # the reference ran twice as slow as nominal
    host = HostSpeed()
    host.at.extend([0, 100 * ms, 200 * ms])
    host.took.extend([slow, slow, slow])
    factor = 0.5 ** EXPONENT
    assert host.factor(150 * ms) == pytest.approx(factor)
    assert host.scaled_ms([(150 * ms, 10 * ms)]) == [pytest.approx(10 * factor)]
    # three gaps of (100 ms - one reference sample) between and after the samples
    gap = 100 * ms - slow
    assert host.scaled_span_ns(0, 300 * ms) == pytest.approx(3 * gap * factor)
    assert host.scaled_by_median_ns(1e9) == pytest.approx(1e9 * factor)


def test_output_check_counts_a_wrong_answer(tmp_path):
    import run

    def corrupt(slots):
        # the benchmark's copy of the first document no longer matches the
        # engine's, so the reference built from it answers differently
        slot = slots[0]
        leaf = next(node for node in slot.tree.nodes() if node.is_leaf())
        slot.tree.relabel(leaf.node_id, "a" if leaf.label != "a" else "b")

    out = run.run_once("edit-refresh", seed=5, seconds=0.1, trace=False, workdir=str(tmp_path),
                       tiny=True, corrupt=corrupt)
    result = out["result"]
    assert result["failed"] >= 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def _run(workload, trace):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", trace, "--tiny"],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert completed.returncode == 0
    return json.loads(completed.stdout.rstrip("\n").split("\n")[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


@pytest.mark.parametrize("workload", ["edit-refresh", "stream-scan", "net-mixed"])
def test_tiny_run_reports_every_declared_metric(workload):
    result = _run(workload, "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(_declared("end_to_end"))
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["stream-scan", "net-mixed"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result = _run(workload, "1")
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(_declared("per_layer"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-refresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
