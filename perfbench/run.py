"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload edit-refresh --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports per-layer metrics;
``--trace both`` (the default) runs the two one after the other, each in a
process of its own, and also prints the tracing overhead.  Workloads:
``edit-refresh`` and ``net-mixed`` (the two ``BENCHMARK.json`` lists), and
``stream-scan``, which runs by hand only (see ``workloads.py``).

Output: a stamp line (commit, host, seed, parameters), the host-speed line
(every timing is scaled to a nominal host, see ``hostspeed.py``), a table of
metrics with unit, direction and sample count, for a traced run the
per-layer self-time table, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, whether or not its outputs were correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: direction of every end-to-end metric (the names BENCHMARK.json declares)
BETTER = {
    "setup_s": "lower", "ops_per_s": "higher", "edit_p50_ms": "lower", "edit_p95_ms": "lower",
    "page_p50_ms": "lower", "page_p95_ms": "lower", "ingest_nodes_per_s": "higher",
    "stream_answers_per_s": "higher", "answer_delay_p50_us": "lower", "answer_delay_p99_us": "lower",
    "rss_peak_mb": "lower",
}
#: counts taken over the exact-count window (the first traffic cycle)
EXACT = (
    "gc.gen2_collections", "exact.trunk_boxes", "exact.rebuilt_subterm_nodes",
    "exact.cursor_resumed", "exact.cursor_invalidated", "exact.build_cache_hits",
    "exact.build_cache_misses", "exact.stream_chunks", "exact.stream_round_trips",
)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, seconds: float, trace: str, params: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "params": params,
    }


def run_once(name: str, seed: int, seconds: float, trace: bool, workdir: str, tiny: bool = False,
             corrupt=None) -> dict:
    """One run; returns the result object plus the tables to print.

    ``corrupt(slots)`` lets the tests tamper with the benchmark's copies of
    the documents before the output check.
    """
    import gc

    from metrics import TraceAnalysis, end_to_end
    from spans import GcPauses, SpanRecorder, load_span_files
    from traffic import Traffic
    import workloads as wl

    params = wl.WORKLOADS[name]
    if tiny:
        params = params.tiny()
    inputs = wl.make_inputs(name, params, seed)
    recorder = None
    if trace:
        from instrument import instrument

        # no output directory: the client's rows are read in memory, and the
        # processes the output check forks write none
        recorder = SpanRecorder("client")
        instrument(recorder)
    setup_times = [] if trace else wl.extra_setup_times(params, inputs, workdir, params.setups - 1)
    pauses = GcPauses().install()
    heap_before = len(gc.get_objects()) if trace else 0
    target, queries, slots, setup_window, setup_s = wl.timed_set_up(params, inputs, workdir, trace)
    setup_times.append(setup_s)
    traffic = Traffic(target.client, queries, recorder, log)
    window = {}

    def on_window():
        if window or not trace:
            return
        stats = target.client.stats()
        streaming = stats.get("streaming", {}) if params.remote else {}
        net = target.client.net_stats() if params.remote else {}
        window.update({
            "ops": len(traffic.ops),
            "exact.trunk_boxes": sum(traffic.trunk_sizes),
            "exact.rebuilt_subterm_nodes": sum(traffic.rebuilt_sizes),
            "exact.cursor_resumed": traffic.resumed,
            "exact.cursor_invalidated": traffic.invalidated,
            "exact.build_cache_hits": stats.get("build_cache_hits", 0),
            "exact.build_cache_misses": stats.get("build_cache_misses", 0),
            "exact.stream_chunks": streaming.get("chunks", 0) + net.get("chunks", 0),
            "exact.stream_round_trips": streaming.get("round_trips", 0) + net.get("round_trips", 0),
        })

    summary = {}
    try:
        wl.run_traffic(name, traffic, params, inputs, slots, seconds, on_window)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        nodes = sum(slot.tree.size() for slot in slots)
        tracked = None
        if trace and not params.remote:
            # after the traffic, so no timed op follows the collection; the
            # benchmark's own tree copies (a few objects per node) are included
            gc.collect()
            tracked = len(gc.get_objects()) - heap_before
        final_stats = target.client.stats() if trace else {}
        net_stats = target.client.net_stats() if trace and params.remote else {}
        if corrupt is not None:
            corrupt(slots)
        wrong = wl.check_outputs(slots, log)
    finally:
        summary = target.close()
    gc_pauses = [pauses.intervals]
    if params.remote:
        workers = summary.get("workers", [])
        processes = [summary.get("server", {})] + workers
        rss_mb = sum(p.get("maxrss_kb", 0) for p in processes) / 1024
        gc_pauses = [p.get("gc_pauses", []) for p in workers]
        if trace:
            tracked = sum(p.get("tracked_objects", 0) for p in workers) / max(1, len(workers))
    failed = traffic.failed + wrong
    result = {"correct": failed == 0, "attempted": max(1, traffic.attempted), "failed": failed}
    e2e = end_to_end(traffic, setup_times, rss_mb, gc_pauses)
    out = {"result": result, "e2e": e2e, "params": wl.describe(name, params),
           "host_ms": (traffic.host.median_ms(), len(traffic.host.took))}
    if not trace:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _n) in e2e.items()}
        return out
    rows = [{"process": "client", "rows": recorder.rows}]
    span_files = [os.path.join(workdir, f) for f in sorted(os.listdir(workdir)) if f.startswith("spans-")]
    analysis = TraceAnalysis(rows + load_span_files(span_files), traffic, setup_window)
    hits, misses = final_stats.get("build_cache_hits", 0), final_stats.get("build_cache_misses", 0)
    streaming = final_stats.get("streaming", {})
    extra = {
        "gc.gen2_collections": (analysis.gen2_in(window.get("ops")), "count"),
        "gc.tracked_objects_per_node": ((tracked or 0) / max(1, nodes), "count"),
        "circuits.build_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "engine.sharding.chunks_per_round_trip": (
            streaming.get("chunks", 0) / streaming["round_trips"] if streaming.get("round_trips") else 0.0,
            "ratio",
        ),
        "net.chunks_per_round_trip": (
            net_stats.get("chunks", 0) / net_stats["round_trips"] if net_stats.get("round_trips") else 0.0,
            "ratio",
        ),
        "trace.ops_per_s": (e2e["ops_per_s"][0], "1/s"),
    }
    for key in EXACT:
        if key.startswith("exact."):
            extra[key] = (window.get(key, 0), "count")
    per_layer = analysis.per_layer(extra)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    out["table"] = analysis.table()
    return out


def print_report(info: dict, out: dict, trace: bool) -> None:
    from hostspeed import EXPONENT, NOMINAL_MS
    from metrics import FEEDS, OP_TYPES

    print("# " + json.dumps(info, sort_keys=True))
    result = out["result"]
    print(f"# correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.6f}")
    host_ms, samples = out["host_ms"]
    print(f"# host speed: reference loop median {host_ms:.3f} ms over {samples} samples; every timing "
          f"below is scaled to a host that runs it in {NOMINAL_MS} ms "
          f"(factor {(NOMINAL_MS / host_ms) ** EXPONENT:.3f})")
    print(f"{'metric':<24}{'value':>16}  {'unit':<10}{'better':<8}{'samples':>9}")
    for name, (value, unit, samples) in out["e2e"].items():
        print(f"{name:<24}{value:>16.6g}  {unit:<10}{BETTER[name]:<8}{samples:>9}")
    if not trace:
        return
    print("\n# traced self time per op (us), all processes; share of the op type's self time in ()")
    table = out["table"]
    totals = {kind: sum(layer[kind] for layer in table.values()) for kind in OP_TYPES}
    print(f"{'layer':<18}" + "".join(f"{kind:>20}" for kind in OP_TYPES) + "  feeds")
    for layer in sorted(table, key=lambda l: -sum(table[l].values())):
        cells = "".join(
            f"{table[layer][kind]:>11.1f} ({100 * table[layer][kind] / totals[kind] if totals[kind] else 0:5.1f}%)"
            for kind in OP_TYPES
        )
        print(f"{layer:<18}{cells}  {FEEDS.get(layer, '')}")
    print("\n# per-layer metrics (exact: counts over the first cycle, repeatable for one seed)")
    for name, entry in result["metrics"].items():
        mark = "  exact" if name in EXACT else ""
        print(f"{name:<44}{entry['value']:>16.6g}  {entry['unit']}{mark}")


def run_child_modes(args) -> int:
    """``--trace both``: an untraced and a traced run, each in its own process."""
    outputs = {}
    for mode in ("0", "1"):
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", mode]
        if args.tiny:
            command.append("--tiny")
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if completed.returncode != 0:
            return completed.returncode
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n")
        outputs[mode] = json.loads(lines[-1])
    untraced = outputs["0"]["metrics"]["ops_per_s"]["value"]
    traced = outputs["1"]["metrics"]["trace.ops_per_s"]["value"]
    print(f"# tracing overhead: traced ops_per_s {traced:.4g} vs untraced {untraced:.4g} "
          f"({100 * (1 - traced / untraced):.1f}% slower)")
    merged = dict(outputs["0"])
    merged["correct"] = outputs["0"]["correct"] and outputs["1"]["correct"]
    merged["failed"] = outputs["0"]["failed"] + outputs["1"]["failed"]
    merged["attempted"] = outputs["0"]["attempted"] + outputs["1"]["attempted"]
    merged["metrics"] = {**outputs["0"]["metrics"], **outputs["1"]["metrics"]}
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("edit-refresh", "stream-scan", "net-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--tiny", action="store_true", help="tiny documents (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no repro sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing drives set and dict order inside the engine; a fixed
        # seed keeps one seed's exact counts repeatable across runs
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if args.trace == "both":
        return run_child_modes(args)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    from workloads import fresh_workdir

    workdir = fresh_workdir(workroot)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    trace = args.trace == "1"
    try:
        out = run_once(args.workload, args.seed, args.seconds, trace, workdir, tiny=args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    params = out["params"]
    print_report(stamp(args.workload, args.seed, args.seconds, args.trace, params), out, trace)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
