# Developer entry points.  `make check` is the gate every change must pass
# (CI runs it on every Python version, and `make test-hashseeds` besides on
# 3.12): the tier-1 test suite, the socket tests in dev mode,
# the benchmark's own tests, the network serving smoke and a <30 s perf
# smoke that (a) compares the bitset
# relation backend (the runtime) against the reference pairs backend on a
# small workload and (b) fails if the bitset delay median regresses beyond 2x
# the committed benchmarks/results/BENCH_delay_constant.json trajectory.

PYTHON ?= python
PYPATH := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# When pytest-timeout is installed (CI always installs it), cap every test:
# a protocol wait that ignores its deadline must fail loudly, not hang the
# run.  Without the plugin, tests/conftest.py still enforces the explicit
# @pytest.mark.timeout markers via SIGALRM.
PYTEST_TIMEOUT_FLAGS := $(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=300 --timeout-method=thread")

.PHONY: check test test-net-dev test-hashseeds test-perfbench lint net-smoke bench-smoke bench codelines census

test:
	$(PYPATH) $(PYTHON) -m pytest -x -q $(PYTEST_TIMEOUT_FLAGS)

# The socket tests under `python -X dev`, with a leaked socket, an
# exception raised in a finalizer or one that ends a helper thread turned
# into a failure: tests/test_net.py, and tests/test_facade.py, whose TCP legs
# drive RemoteEngine streams that are closed in generator finalizers.  The
# -W flags must follow `-m pytest`: given to the interpreter, pytest would
# override them.
test-net-dev:
	$(PYPATH) $(PYTHON) -X dev -m pytest tests/test_net.py tests/test_facade.py -q -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning -W error::pytest.PytestUnhandledThreadExceptionWarning

# The order-sensitive tests under two fixed hash seeds: answer order, plan
# exports, transcripts and wire frames must not follow the interpreter's
# string-hash (hence set iteration) order.  tests/test_plan_oracle.py also
# starts a worker-like process under a third seed, whose plan exports must
# equal its parent's.  Not part of `make check`.
HASHSEED_TESTS := tests/test_compact_index.py tests/test_plan_oracle.py tests/test_circuits.py \
	tests/test_fuzz_differential.py tests/test_facade.py tests/test_wire_oracle.py

test-hashseeds:
	@for seed in 3 12; do \
		echo "PYTHONHASHSEED=$$seed"; \
		PYTHONHASHSEED=$$seed $(PYPATH) $(PYTHON) -m pytest -q $(PYTEST_TIMEOUT_FLAGS) $(HASHSEED_TESTS) || exit 1; \
	done

# The benchmark's own tests (perfbench/tests): besides the harness arithmetic
# they run every workload at a tiny size, which drives the engine through
# src/ end to end with the benchmark's output check on.
test-perfbench:
	$(PYTHON) -m pytest perfbench/tests -q

# Lint (requires ruff; CI installs it — locally skipped when absent, but a
# real ruff failure propagates).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Boot a real EngineServer on a loopback port, drive it with RemoteEngine
# over TCP, and assert byte-identical answers against an in-process oracle.
net-smoke:
	$(PYPATH) $(PYTHON) examples/network_serving_demo.py

bench-smoke:
	$(PYPATH) $(PYTHON) benchmarks/run_all.py --quick --compare --smoke-out benchmarks/results/smoke

# Full benchmark harness: rewrites benchmarks/results/BENCH_*.json so the
# committed trajectories can be compared across PRs.
bench:
	$(PYPATH) $(PYTHON) benchmarks/run_all.py

# Code lines per file under src/ and their total: lines holding a code
# token, outside every bare-string statement (so no comments, docstrings or
# blank lines).  Informational; nothing gates on it.
codelines:
	$(PYTHON) tools/codelines.py src

# Which src/ functions the serving runs, the paper experiments and the
# tier-1 suite reach, traced in a copy of the tree under $(CENSUS_OUT)
# (ignored by git).  About 7 minutes; informational, not part of check.
CENSUS_OUT ?= .census

census:
	$(PYTHON) tools/census.py run --out $(CENSUS_OUT)
	$(PYTHON) tools/census.py report --out $(CENSUS_OUT)

check: test test-net-dev test-perfbench net-smoke bench-smoke
	@echo "check OK: tier-1 tests + dev-mode socket tests + benchmark tests + net smoke + perf smoke passed"
