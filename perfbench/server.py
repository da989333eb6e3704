"""The ``net-mixed`` server process: an ``EngineServer`` over a replicated engine.

Usage: ``server.py WORKDIR CATALOG_DIR TRACE``.  Prints ``READY host port``
once listening, serves until its standard input closes, then shuts the
engine down and writes ``server-summary.json`` into ``WORKDIR``: the peak
RSS of this process and of each shard worker (each worker reports its own
as it exits), and, when ``TRACE`` is ``1``, heap counts for the per-layer
metrics.  With tracing on, every process writes its spans into ``WORKDIR``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from multiprocessing import util

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import GcPauses  # noqa: E402


class ProcessReport:
    """Writes one process's peak RSS, collection pauses (and heap size when
    tracing) at exit."""

    def __init__(self, workdir: str, role: str, heap: bool):
        self.workdir, self.role, self.heap = workdir, role, heap
        self.heap_before = 0
        self.pauses = GcPauses().install()

    def write(self) -> dict:
        report = {
            "role": self.role,
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "gc_pauses": self.pauses.intervals,
        }
        if self.heap:
            gc.collect()
            report["tracked_objects"] = len(gc.get_objects()) - self.heap_before
        with open(os.path.join(self.workdir, f"proc-{os.getpid()}.json"), "w") as handle:
            json.dump(report, handle)
        return report

    def after_fork(self) -> None:
        self.role = "worker"
        self.pauses.intervals = []
        if self.heap:  # objects inherited from the server are not the worker's
            self.heap_before = len(gc.get_objects())
        util.Finalize(self, self.write, exitpriority=5)


def main(argv) -> int:
    workdir, catalog, trace = argv[1], argv[2], argv[3] == "1"
    from repro import Engine
    from repro.net.server import EngineServer

    recorder = None
    if trace:
        from instrument import instrument
        from spans import SpanRecorder

        recorder = SpanRecorder("server", workdir)
        instrument(recorder, pipes=True)
    report = ProcessReport(workdir, "server", heap=trace)
    util.register_after_fork(report, ProcessReport.after_fork)
    engine = Engine(catalog=catalog, workers=2, replicas=2)
    server = EngineServer(engine).start()
    try:
        host, port = server.address
        print(f"READY {host} {port}", flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        engine.close()
    workers = []
    for name in os.listdir(workdir):
        if name.startswith("proc-"):
            path = os.path.join(workdir, name)
            with open(path) as handle:
                workers.append(json.load(handle))
            os.remove(path)
    summary = {"server": report.write(), "workers": workers}
    os.remove(os.path.join(workdir, f"proc-{os.getpid()}.json"))
    if recorder is not None:
        recorder.flush()
    with open(os.path.join(workdir, "server-summary.json"), "w") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
