"""pytest configuration: module imports, timeouts.

The tests package is made importable as plain modules.

The fault-tolerance suites mark themselves ``@pytest.mark.timeout(N)``: a
protocol wait that ignores its deadline must fail the test, not hang the
run.  CI installs the real ``pytest-timeout`` plugin; when it is absent
(bare dev environments cannot always install it) a minimal SIGALRM-based
fallback below enforces the same marker on the platforms that have
``signal.SIGALRM``, and the marker degrades to a no-op elsewhere.
"""

import importlib.util
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_HAVE_SIGALRM = hasattr(signal, "SIGALRM")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than ``seconds`` "
        "(pytest-timeout when installed, SIGALRM fallback otherwise)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout`` without pytest-timeout."""
    marker = item.get_closest_marker("timeout")
    if _HAVE_PYTEST_TIMEOUT or marker is None or not _HAVE_SIGALRM:
        yield
        return
    seconds = int(marker.args[0]) if marker.args else 60

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds}s timeout marker")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
