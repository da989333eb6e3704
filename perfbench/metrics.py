"""End-to-end metrics of an untraced run and per-layer metrics of a traced one."""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional

import numpy

from instrument import layer_of
from spans import BUSY, COUNT, META, NAME, OP, PARENT, START, assign_ops, overlap_ns, self_times

OP_TYPES = ("edit", "page", "stream", "ingest")
#: op kind recorded by the traffic -> the op type metrics are reported for
OP_TYPE = {"edit": "edit", "page": "page", "stream": "stream", "ingest": "ingest", "remove": "ingest"}
SHARE_LAYERS = (
    "gc", "forest_algebra", "circuits", "incremental", "enumeration",
    "engine.cursor", "engine.facade", "engine.sharding", "net", "bench",
)
#: the end-to-end metrics each layer's time feeds (printed with the table)
FEEDS = {
    "gc": "ops_per_s",
    "automata": "setup_s",
    "engine.catalog": "setup_s",
    "forest_algebra": "ingest_nodes_per_s edit_p50_ms edit_p95_ms",
    "circuits": "ingest_nodes_per_s",
    "incremental": "edit_p50_ms",
    "enumeration": "page_p50_ms answer_delay_p50_us stream_answers_per_s",
    "engine.cursor": "page_p50_ms edit_p50_ms",
    "engine.facade": "page_p50_ms",
    "engine.sharding": "page_p50_ms edit_p50_ms ingest_nodes_per_s stream_answers_per_s",
    "net": "page_p50_ms edit_p50_ms ingest_nodes_per_s stream_answers_per_s",
    "bench": "(benchmark's own loop)",
}


def _pct(values, q: float) -> float:
    return float(numpy.percentile(numpy.asarray(values, dtype=float), q)) if len(values) else 0.0


def end_to_end(traffic, setup_times: List[float], rss_peak_mb: float, gc_pauses) -> Dict[str, tuple]:
    """``{name: (value, unit, samples)}`` for every end-to-end metric.

    Every timing is scaled to the nominal host by the reference samples the
    traffic took (``hostspeed``); ``setup_times`` come scaled already.
    ``gc_pauses`` lists, per process that builds documents, its full and
    generation-1 collection intervals (see ``ingest_rate``).
    """
    host = traffic.host
    wall_s = host.scaled_span_ns(traffic.start_ns, traffic.end_ns) / 1e9
    edits = host.scaled_ms(traffic.latencies["edit"])
    pages = host.scaled_ms(traffic.latencies["page"])
    gaps_us = numpy.frombuffer(traffic.gaps_ns, dtype=numpy.int64) / 1e3
    factors = numpy.ones(len(gaps_us))
    answers = stream_s = 0.0
    for start, took, count, first_gap, end_gap in traffic.streams:
        factor = host.factor(start)
        factors[first_gap:end_gap] = factor
        answers += count
        stream_s += took * factor / 1e9
    gaps_us = gaps_us * factors
    return {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "ops_per_s": (len(traffic.ops) / wall_s, "1/s", len(traffic.ops)),
        "edit_p50_ms": (_pct(edits, 50), "ms", len(edits)),
        "edit_p95_ms": (_pct(edits, 95), "ms", len(edits)),
        "page_p50_ms": (_pct(pages, 50), "ms", len(pages)),
        "page_p95_ms": (_pct(pages, 95), "ms", len(pages)),
        "ingest_nodes_per_s": (ingest_rate(traffic.ingests, gc_pauses, host), "nodes/s", len(traffic.ingests)),
        "stream_answers_per_s": (answers / stream_s if stream_s else 0.0, "answers/s", int(answers)),
        "answer_delay_p50_us": (_pct(gaps_us, 50), "us", len(gaps_us)),
        "answer_delay_p99_us": (_pct(gaps_us, 99), "us", len(gaps_us)),
        "rss_peak_mb": (rss_peak_mb, "MB", 1),
    }


def ingest_rate(ingests, gc_pauses, host) -> float:
    """Arrival nodes over their summed add latency, collection pauses taken out.

    A run has only a handful of arrivals, and a full collection (up to a
    second on these heaps) lands in one or two of them at random, which
    would swing the ratio threefold from run to run.  Each arrival's latency
    therefore drops the collection time that overlaps it in the slowest
    document-holding process; the pauses still count in ``ops_per_s`` and
    in the traced ``gc.pause_s``.
    """
    # arrivals alternate between the two light queries, whose builds differ
    # about 1.5x in cost: an odd count would tilt the mix, so drop the last
    ingests = ingests[: len(ingests) // 2 * 2]
    nodes = sum(n for n, _start, _end in ingests)
    busy = sum(
        host.scaled_ns(start, (end - start) - max(
            (overlap_ns(pauses, start, end) for pauses in gc_pauses), default=0
        ))
        for _n, start, end in ingests
    )
    return nodes / (busy / 1e9) if busy > 0 else 0.0


class TraceAnalysis:
    """Self time per layer and op type from every process's span rows."""

    def __init__(self, processes: List[dict], traffic, setup_window):
        self.traffic = traffic
        self.setup_window = setup_window
        windows = [(start, end, op_id) for start, end, op_id, _kind in traffic.ops]
        self.kind_of = {op_id: OP_TYPE[kind] for _s, _e, op_id, kind in traffic.ops}
        self.ops_of_type = {t: 0 for t in OP_TYPES}
        for kind in self.kind_of.values():
            self.ops_of_type[kind] += 1
        self.op_wall_ns = sum(end - start for start, end, _op, _kind in traffic.ops)
        self.rows = []  # (process, row, self_ns, parent_name)
        for process in processes:
            rows = process["rows"]
            assign_ops(rows, windows)
            selfs = self_times(rows)
            for row, own in zip(rows, selfs):
                parent = rows[row[PARENT]][NAME] if row[PARENT] is not None else None
                self.rows.append((process["process"], row, own, parent))

    # ------------------------------------------------------------ helpers
    def phase(self, row) -> str:
        if row[OP] is not None:
            return "traffic"
        start, end = self.setup_window
        return "setup" if start <= row[START] <= end else "other"

    def select(self, names, phase="traffic", process=None, parents=None):
        """Rows whose name starts with ``names``, in ``phase`` (one or a tuple)."""
        names = (names,) if isinstance(names, str) else names
        phases = (phase,) if isinstance(phase, str) else phase
        for proc, row, own, parent in self.rows:
            if not row[NAME].startswith(names):
                continue
            if self.phase(row) not in phases:
                continue
            if process is not None and proc != process:
                continue
            if parents is not None and (parent is None or not parent.startswith(parents)):
                continue
            yield proc, row, own

    def self_sum(self, names, **kw) -> int:
        return sum(own for _p, _r, own in self.select(names, **kw))

    def mean_self_us(self, names, **kw) -> float:
        picked = [own for _p, _r, own in self.select(names, **kw)]
        return sum(picked) / len(picked) / 1e3 if picked else 0.0

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {op_type: self µs per op}}`` over the traffic."""
        result: Dict[str, Dict[str, float]] = {}
        for _proc, row, own, _parent in self.rows:
            kind = self.kind_of.get(row[OP])
            if kind is None:
                continue
            layer = layer_of(row[NAME])
            result.setdefault(layer, {t: 0.0 for t in OP_TYPES})[kind] += own / 1e3
        for layer in result.values():
            for kind in OP_TYPES:
                if self.ops_of_type[kind]:
                    layer[kind] /= self.ops_of_type[kind]
        return result

    # ------------------------------------------------------------ metrics
    def per_layer(self, extra: Dict[str, tuple]) -> Dict[str, tuple]:
        traffic = self.traffic
        ops = max(1, len(traffic.ops))
        wall = max(1, self.op_wall_ns)
        setup_wall = max(1, self.setup_window[1] - self.setup_window[0])
        gc_rows = list(self.select("gc."))
        builds = list(self.select("forest_algebra.build", phase=("setup", "traffic")))
        circuit_builds = list(self.select("circuits.build", phase=("setup", "traffic")))
        fresh = list(self.select(("enumeration.enumerator", "engine.cursor.open")))
        restarts = fresh + list(self.select("enumeration.first_answer"))
        answers = list(self.select("enumeration.answer"))
        answer_self = self.self_sum(("enumeration.answer", "enumeration.stream_step"))
        client_wire = sum(
            row[BUSY] for proc, row, _own in self.select(("net.send_frame", "net.recv_frame"), process="client")
        )
        server_engine = sum(
            row[BUSY] for proc, row, _own in self.select(
                ("net.server_dispatch", "engine.sharding.stream_next_chunk"), process="server"
            ) if row[PARENT] is None
        )
        codec = self.self_sum(("net.encode_frame", "net.decode_frame_body"))
        metrics = {
            "gc.pause_s": (sum(row[BUSY] for _p, row, _o in gc_rows) / 1e9, "s"),
            "automata.compile_s": (self.self_sum("automata.compile", phase="setup") / 1e9, "s"),
            "engine.catalog.setup_pct": (
                100.0 * self.self_sum("engine.catalog.", phase="setup") / setup_wall, "%"
            ),
            "forest_algebra.build_us_per_node": (
                sum(own for _p, _r, own in builds) / 1e3 / max(1, sum(r[META] for _p, r, _o in builds)), "us"
            ),
            "forest_algebra.apply_edit_us": (self.mean_self_us("forest_algebra.apply_edit"), "us"),
            "forest_algebra.rebuilt_nodes_p99": (_pct(traffic.rebuilt_sizes, 99), "count"),
            "circuits.build_us_per_node": (
                sum(own for _p, _r, own in circuit_builds) / 1e3
                / max(1, sum(r[META] for _p, r, _o in circuit_builds)), "us"
            ),
            "incremental.apply_report_us": (self.mean_self_us("incremental.apply_report"), "us"),
            "incremental.trunk_boxes_p50": (_pct(traffic.trunk_sizes, 50), "count"),
            "enumeration.restart_us": (
                sum(r[BUSY] for _p, r, _o in restarts) / 1e3 / max(1, len(fresh)), "us"
            ),
            "enumeration.answer_us": (
                answer_self / 1e3 / max(1, sum(r[COUNT] for _p, r, _o in answers)), "us"
            ),
            "engine.cursor.fetch_self_us": (self.mean_self_us("engine.cursor.fetch"), "us"),
            "engine.cursor.notify_self_us": (self.mean_self_us("engine.cursor.notify"), "us"),
            # resumed / (resumed + invalidated) decisions over the edit batches
            "engine.cursor.resume_rate": (
                traffic.resumed / (traffic.resumed + traffic.invalidated)
                if traffic.resumed + traffic.invalidated else 0.0, "ratio",
            ),
            "engine.facade_self_us": (self.self_sum("engine.facade.") / 1e3 / ops, "us"),
            "engine.sharding.pipe_wait_pct": (
                100.0 * (self.self_sum("engine.sharding.collect")
                         + self.self_sum("engine.sharding.pipe_recv", parents="engine.sharding.collect")) / wall,
                "%",
            ),
            "engine.sharding.pipe_bytes_per_op": (
                sum(r[META] for _p, r, _o in self.select("engine.sharding.pipe_", process="server")) / ops,
                "count",
            ),
            "engine.sharding.credit_wait_pct": (
                100.0 * (self.self_sum("engine.sharding.stream_next_chunk")
                         + self.self_sum("engine.sharding.pipe_recv",
                                         parents="engine.sharding.stream_next_chunk")) / wall,
                "%",
            ),
            "net.codec_pct": (100.0 * codec / wall, "%"),
            "net.frame_bytes_per_op": (
                sum(r[META] for _p, r, _o in self.select("net.encode_frame")) / ops, "count"
            ),
            "net.residual_pct": (
                100.0 * (client_wire - server_engine - codec) / wall if client_wire else 0.0, "%"
            ),
        }
        for name, value in extra.items():
            metrics[name] = value
        table = self.table()
        totals = {kind: sum(layer[kind] for layer in table.values()) for kind in OP_TYPES}
        for kind in OP_TYPES:
            for layer in SHARE_LAYERS:
                own = table.get(layer, {}).get(kind, 0.0)
                metrics[f"share.{kind}.{layer}"] = (100.0 * own / totals[kind] if totals[kind] else 0.0, "%")
        return metrics

    def gen2_in(self, op_limit: Optional[int]) -> int:
        return sum(
            1 for _p, row, _o in self.select("gc.gen2")
            if op_limit is None or row[OP] < op_limit
        )
