"""Experiment E10 — ablation: relation composition backends (remark after Lemma 6.4).

The paper notes that the O(w³) naive join in the index and in Algorithm 3 can
be replaced by Boolean matrix multiplication, giving O(w^ω).  We compare the
two backends the library keeps on a query with a wider circuit, for both
preprocessing (index construction, Lemma 6.3) and enumeration delay
(Theorem 6.5):

* ``pairs``  — the naive pair-set join (the paper's O(w³) bound);
* ``bitset`` — machine-word bitmasks, word-parallel with no per-pair
  allocation (the runtime).

A Boolean-matrix backend (O(w^ω)) was measured against both and dropped: at
the circuit widths these queries produce it never beat ``bitset``.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.measure import summarize
from repro.bench.reporting import record_experiment
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.core.enumerator import TreeRuntime

BACKENDS = ("pairs", "bitset")
SIZE = 1024


def build(backend: str, seed: int):
    tree = tree_for_experiment(SIZE, "random", seed=seed)
    query = query_for_name("descendant")
    start = time.perf_counter()
    enumerator = TreeRuntime(tree, query, relation_backend=backend)
    preprocessing = time.perf_counter() - start
    return enumerator, preprocessing


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_benchmark(benchmark, backend, bench_seed):
    """pytest-benchmark entry: enumerate 200 answers with each backend."""
    enumerator, _ = build(backend, bench_seed)
    benchmark(lambda: [a for a, _ in zip(enumerator.assignments(), range(200))])


def _relation_backend_report(bench_seed):
    rows = []
    answer_sets = []
    for backend in BACKENDS:
        enumerator, preprocessing = build(backend, bench_seed)
        delays = summarize(enumerator.delay_probe(max_answers=300))
        answer_sets.append(set(enumerator.first(300)))
        rows.append(
            [
                backend,
                enumerator.stats().circuit_width,
                f"{preprocessing * 1e3:.1f}",
                f"{(delays.mean if delays.count else 0.0) * 1e6:.1f}",
            ]
        )
    assert all(answers == answer_sets[0] for answers in answer_sets[1:])
    record_experiment(
        "E10",
        "Ablation: relation composition backend (naive join vs bitsets)",
        ["backend", "circuit width", "preprocessing (ms)", "delay mean (us)"],
        rows,
        notes=(
            "Both backends produce identical answers; the bitset backend wins on constant factors "
            "(word-parallel, no per-pair allocation). The paper's O(w^omega) Boolean matrix "
            "product is a remark only: at these widths it did not beat the bitset loop."
        ),
    )

def test_relation_backend_report(benchmark, bench_seed):
    """Run the whole experiment sweep once and record its duration."""
    benchmark.pedantic(lambda: _relation_backend_report(bench_seed), rounds=1, iterations=1)
