"""Record which functions under ``src/`` each kind of run reaches.

Three kinds of run are traced, each with a profile hook
(``census_site/sitecustomize.py``) in every Python process it starts:

* ``serving``: both benchmark workloads (``perfbench/run.py``) at seed 1
  for a few seconds, untraced and traced, and every script in
  ``examples/``;
* ``experiments``: the quick harness (``benchmarks/run_all.py --quick
  --compare``) and the pytest-benchmark modules under ``benchmarks/`` with
  timing off;
* ``tier-1``: the test suite under ``tests/``.

Usage::

    python tools/census.py run [--out DIR]      # about 7 minutes on 2 CPUs
    python tools/census.py report [--out DIR]

``run`` copies the working tree into ``DIR/tree`` (``DIR`` defaults to
``.census``) and runs everything there, so nothing in the checkout is
written; it records each run's exit code in ``DIR/runs.json`` and its
output in ``DIR/logs``.  The hook slows every call, so a timing gate may
fail under it: that is the hook's cost, not a result.  ``report`` prints, per function of ``DIR/tree/src``,
its code lines (the rule of ``codelines.py``, lines of nested functions
left to them) and the kinds of run that reached it: ``S`` serving, ``E``
experiments, ``T`` tier-1, ``-`` none.  A table of code lines per
combination of kinds follows.

A function counts as reached when one of its frames started to run: a
generator function that is called but never iterated is not reached, and
the census knows nothing of branches.  Informational only: nothing gates
on it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Set, Tuple

from codelines import code_line_numbers

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SITE = os.path.join(HERE, "census_site")
#: the kinds of run, in report order, with the letter that marks each
KINDS = {"serving": "S", "experiments": "E", "tier-1": "T"}
#: seconds each benchmark workload runs in the serving census
WORKLOAD_SECONDS = 3
#: not copied into the traced tree: version control, caches and work files
SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".work", ".bench_build"}


def runs() -> List[Tuple[str, List[str]]]:
    """Every traced command, as ``(kind, argv)``; each runs in the tree's root."""
    py = sys.executable
    serving = [
        [py, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(WORKLOAD_SECONDS), "--trace", "both"]
        for workload in ("edit-refresh", "net-mixed")
    ]
    serving += [
        [py, f"examples/{name}"] for name in sorted(os.listdir(os.path.join(REPO, "examples")))
        if name.endswith(".py")
    ]
    # named one by one: pytest collects no bench_*.py from a bare directory
    modules = sorted(f"benchmarks/{name}" for name in os.listdir(os.path.join(REPO, "benchmarks"))
                     if name.startswith("bench_") and name.endswith(".py"))
    experiments = [
        [py, "benchmarks/run_all.py", "--quick", "--compare"],
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"] + modules,
    ]
    tier1 = [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]
    return (
        [("serving", argv) for argv in serving]
        + [("experiments", argv) for argv in experiments]
        + [("tier-1", argv) for argv in tier1]
    )


def run_traced(tree: str, calls: str, kind: str, argv: List[str], log=None) -> int:
    """Run ``argv`` in ``tree`` under the hook, recording into ``calls``; its exit code.

    The run's output goes to the open file ``log`` when one is given.
    """
    src = os.path.join(tree, "src")
    path = os.pathsep.join(filter(None, [SITE, src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, CENSUS_OUT=calls, CENSUS_KIND=kind, CENSUS_ROOT=src)
    return subprocess.run(argv, cwd=tree, env=env, stdout=log, stderr=log).returncode


def functions(tree: str) -> List[Tuple[str, int, str, str, int]]:
    """Every function under ``tree/src``: ``(path, first line, name, qualified name, code lines)``.

    ``path`` is relative to ``src``.  A function's code lines leave out
    those of the functions defined inside it.
    """
    src = os.path.join(tree, "src")
    found = []
    for folder, _dirs, files in os.walk(src):
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            path = os.path.join(folder, file_name)
            with open(path, encoding="utf8") as handle:
                source = handle.read()
            code = code_line_numbers(source)
            relpath = os.path.relpath(path, src)

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        own = code & set(range(first_line(child), child.end_lineno + 1))
                        for inner in ast.walk(child):
                            if inner is not child and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                                own -= set(range(first_line(inner), inner.end_lineno + 1))
                        found.append((relpath, first_line(child), child.name, prefix + child.name, len(own)))
                        visit(child, prefix + child.name + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(ast.parse(source, path), "")
    return sorted(found)


def first_line(function) -> int:
    """A function's first line: its first decorator's, as in its code object."""
    return min([function.lineno] + [decorator.lineno for decorator in function.decorator_list])


def reached(calls: str) -> Dict[Tuple[str, int, str], Set[str]]:
    """``(path, first line, name)`` of every code object that ran -> the kinds that ran it."""
    kinds: Dict[Tuple[str, int, str], Set[str]] = {}
    for file_name in os.listdir(calls):
        kind = file_name.rsplit("-", 1)[0]
        with open(os.path.join(calls, file_name), encoding="utf8") as handle:
            for line in handle:
                path, first, name = line.rstrip("\n").split("\t")
                kinds.setdefault((path, int(first), name), set()).add(kind)
    return kinds


def census(tree: str, calls: str) -> List[Tuple[str, int, str, int, Set[str]]]:
    """Every function under ``tree/src``: ``(path, first line, qualified name, code lines, kinds)``."""
    kinds = reached(calls)
    return [
        (path, first, qualname, lines, kinds.get((path, first, name), set()))
        for path, first, name, qualname, lines in functions(tree)
    ]


def marks(kinds: Set[str]) -> str:
    return "".join(letter if kind in kinds else "-" for kind, letter in KINDS.items())


def run(out: str) -> int:
    out = os.path.abspath(out)
    tree, calls, logs = (os.path.join(out, name) for name in ("tree", "calls", "logs"))
    for folder in (tree, calls, logs):
        shutil.rmtree(folder, ignore_errors=True)

    def ignore(folder, names):
        return [name for name in names if name in SKIP or os.path.join(folder, name) == out]

    shutil.copytree(REPO, tree, ignore=ignore)
    os.makedirs(calls)
    os.makedirs(logs)
    records = []
    for number, (kind, argv) in enumerate(runs()):
        started = time.monotonic()
        log_path = os.path.join(logs, f"{number:02d}-{kind}.log")
        with open(log_path, "w", encoding="utf8") as log:
            code = run_traced(tree, calls, kind, argv, log)
        seconds = round(time.monotonic() - started, 1)
        records.append({"kind": kind, "argv": argv[1:], "exit": code, "seconds": seconds})
        print(f"census: exit {code} in {seconds} s, {kind}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
    with open(os.path.join(out, "runs.json"), "w", encoding="utf8") as handle:
        json.dump(records, handle, indent=1)
    return 0


def report(out: str) -> int:
    with open(os.path.join(out, "runs.json"), encoding="utf8") as handle:
        records = json.load(handle)
    for record in records:
        print(f"# exit {record['exit']:3d}  {record['seconds']:7.1f} s  {record['kind']}: {' '.join(record['argv'])}")
    rows = census(os.path.join(out, "tree"), os.path.join(out, "calls"))
    print(f"\n{'lines':>5}  {''.join(KINDS.values())}  function")
    table: Dict[str, List[int]] = {}
    for path, first, qualname, lines, kinds in rows:
        print(f"{lines:5d}  {marks(kinds)}  src/{path}:{first} {qualname}")
        entry = table.setdefault(marks(kinds), [0, 0])
        entry[0] += lines
        entry[1] += 1
    print(f"\n# code lines inside functions, by the kinds of run that reached them "
          f"({', '.join(f'{letter} {kind}' for kind, letter in KINDS.items())})")
    for key in sorted(table, key=lambda key: (-key.count("-"), key)):
        print(f"{key}  {table[key][0]:6d} lines  {table[key][1]:5d} functions")
    print(f"all  {sum(entry[0] for entry in table.values()):6d} lines  {len(rows):5d} functions")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("run", "report"))
    parser.add_argument("--out", default=os.path.join(REPO, ".census"), help="output directory (default .census)")
    args = parser.parse_args(argv)
    return run(args.out) if args.command == "run" else report(args.out)


if __name__ == "__main__":
    sys.exit(main())
