"""Profile hook of ``tools/census.py``: record which functions a process runs.

Python imports ``sitecustomize`` from ``sys.path`` at start-up.  The census
puts this directory first on the ``PYTHONPATH`` of every run it traces, so
every Python process of the run loads it: forked or spawned shard workers,
the benchmark's server process, example subprocesses.  Without
``CENSUS_OUT`` in the environment it does nothing.

Each process writes one file ``<kind>-<pid>.calls`` into ``$CENSUS_OUT``,
one line ``path<TAB>first line<TAB>name`` per code object under
``$CENSUS_ROOT`` that started to run (``path`` relative to that root).  A
process writes its file when it exits.  A forked ``multiprocessing`` child
ends with ``os._exit`` after running its finalizers, not ``atexit``, so the
hook registers a finalizer in every such child after the fork.  A process
that is killed writes nothing.
"""

import os
import sys


def _install(out: str, kind: str, root: str) -> None:
    import atexit
    import multiprocessing.util
    import threading

    root = os.path.join(os.path.abspath(root), "")
    started = {}  # id(code) -> code; holding the code object keeps its id unique

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            started[id(code)] = code

    def flush() -> None:
        rows = set()
        for code in list(started.values()):
            path = os.path.abspath(code.co_filename)
            if path.startswith(root):
                rows.add((os.path.relpath(path, root), code.co_firstlineno, code.co_name))
        with open(os.path.join(out, f"{kind}-{os.getpid()}.calls"), "w", encoding="utf8") as handle:
            handle.writelines(f"{path}\t{line}\t{name}\n" for path, line, name in sorted(rows))

    def after_fork(flush) -> None:
        # the child's finalizer registry was cleared just before this call
        multiprocessing.util.Finalize(None, flush, exitpriority=0)

    atexit.register(flush)  # also keeps alive the flush the next call holds weakly
    multiprocessing.util.register_after_fork(flush, after_fork)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("CENSUS_OUT"):
    _install(os.environ["CENSUS_OUT"], os.environ["CENSUS_KIND"], os.environ["CENSUS_ROOT"])
