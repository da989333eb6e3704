"""The call census (``tools/census.py``) on a throwaway package.

The census runs a command under its profile hook and reports, per function
of the package, its code lines and the kinds of run that reached it.  The
called function here runs only in a forked ``multiprocessing`` child, as a
shard worker's functions do, so the test also covers the hook's record of a
child that ends without ``atexit``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

MODULE = '''"""A throwaway module."""


def called():
    """Runs, in a child process."""
    value = 1
    return value


def uncalled(a,
             b):
    # never runs
    return a + b
'''

PROGRAM = """
import multiprocessing
import pkg

child = multiprocessing.get_context("fork").Process(target=pkg.called)
child.start()
child.join()
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_census_of_a_throwaway_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import census
    import codelines

    os.makedirs(tmp_path / "src")
    (tmp_path / "src" / "pkg.py").write_text(MODULE)
    calls = tmp_path / "calls"
    os.makedirs(calls)
    assert census.run_traced(str(tmp_path), str(calls), "tier-1", [sys.executable, "-c", PROGRAM]) == 0

    rows = {
        qualname: (lines, kinds)
        for _path, _line, qualname, lines, kinds in census.census(str(tmp_path), str(calls))
    }
    assert rows == {"called": (3, {"tier-1"}), "uncalled": (3, set())}
    # the module holds functions only: their code lines are all of its code lines
    assert sum(lines for lines, _kinds in rows.values()) == codelines.code_lines(MODULE)
