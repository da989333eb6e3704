"""Randomized differential test harness (seeded, no external services).

Every structural rewrite of the enumeration hot path — most recently the
mask-native provenance representation of Algorithm 2 — is pinned here against
two independent sources of truth:

* the brute-force assignment-set oracle of :mod:`repro.automata.brute_force`,
  which mirrors Definition 3.3 and shares no code with the enumeration
  machinery, and
* the agreement of the two relation backends (``pairs``, ``bitset``) with
  each other, before and after every edit of a random edit sequence (the
  ``bitset`` backend takes the mask-native fast path, the ``pairs`` oracle
  the generic relation-based path, so this is also a fast-vs-reference
  differential).

Case accounting: ``TestEndToEndDifferential`` runs ``N_SCENARIOS`` random
(tree, query, edit-sequence) scenarios and as many (word, WVA, edit-sequence)
scenarios, with ``N_EDITS`` edits each, checking both backends at every
checkpoint — ``2 × N_SCENARIOS × (N_EDITS + 1) × 2`` randomized
backend-checkpoint cases (384 with the defaults; the word leg checks through
``assignments_by_index()`` against ``WVA.satisfying_assignments``).
``TestCircuitLevelDifferential`` adds circuit-level cases comparing the
mask-native iterator against the generic path, provenance included.
``TestShardedDifferential`` pins the pipelined shard protocol (PR 5):
randomized ``Engine(workers=2–3)`` serving scenarios — several documents,
standing queries, interleaved batched edits, concurrent streams and cursor
pages — whose full transcripts must be byte-identical to a single-process
engine, under both the ``fork`` and ``spawn`` start methods.
``TestFaultInjectedDifferential`` (PR 6) runs the same kind of schedule on a
replicated fleet (``workers=3, replicas=2``) with exactly one injected fault
per scenario — a SIGKILL'd worker or a one-shot worker hang the deadline
machinery must catch — and requires the transcript to stay byte-identical to
a fault-free single-process oracle.  ``TestWordTransportDifferential``
replays ``N_SHARDED`` word schedules on each of three transports
(``Engine(workers=2)``, the replicated fleet with one SIGKILL, TCP) —
``3 × N_SHARDED`` transcripts (12 with the defaults), each byte-identical
to ``Engine()``'s.

Environment knobs (used by the scheduled extended-fuzz CI job):

* ``REPRO_FUZZ_SCENARIOS`` — end-to-end scenario count, per leg: tree and
  word (default 24);
* ``REPRO_FUZZ_SHARDED_SCENARIOS`` — sharded fork-scenario count (default 4;
  spawn runs a third of it, minimum one, because each spawn worker boots a
  fresh interpreter), also the number of sharded and of cursor schedules
  the from-scratch leg replays with and without the build cache, and of
  word schedules per transport;
* ``REPRO_FUZZ_FAULT_SCENARIOS`` — fault-injected replicated scenario count
  (default 3);
* ``REPRO_FUZZ_SEED`` — base seed offset, rotated by the scheduled job so
  every week explores fresh cases;
* ``REPRO_FUZZ_ARTIFACTS`` — when set, a failing sharded scenario is
  *minimized* (greedy op-dropping while the divergence persists) and written
  to ``tests/fuzz_artifacts/`` as a self-contained JSON repro.

(The separate ``REPRO_FAULTS`` engine knob composes with the plain sharded
differential: CI runs a leg with blanket slow-reply noise injected into
every worker, which must never alter a transcript.)
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import sys
import time

import pytest

from helpers import random_binary_tva, random_binary_tree, random_unranked_tva, random_wva
from repro.automata.brute_force import (
    binary_satisfying_assignments,
    unranked_satisfying_assignments,
)
from repro.automata.homogenize import homogenize
from repro.circuits.build import build_assignment_circuit
from repro.core.enumerator import TreeRuntime, WordRuntime
from repro.enumeration.box_enum import naive_box_enum
from repro.enumeration.duplicate_free import (
    _enumerate_generic,
    enumerate_boxed_masks,
    enumerate_boxed_set,
)
from repro.enumeration.index import build_index
from repro.enumeration.relations import iter_bits
from repro.trees.edits import random_edit_sequence
from repro.trees.generators import random_tree

BACKENDS = ("pairs", "bitset")
LABELS = ("a", "b", "c")

N_SCENARIOS = int(os.environ.get("REPRO_FUZZ_SCENARIOS", "24"))
N_EDITS = 3
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
N_SHARDED = int(os.environ.get("REPRO_FUZZ_SHARDED_SCENARIOS", "4"))
N_FAULT = int(os.environ.get("REPRO_FUZZ_FAULT_SCENARIOS", "3"))
#: deadline of the fault-injected replicated engine: long enough that no
#: healthy op ever trips it, short enough that each injected hang costs the
#: suite about this many seconds
FAULT_DEADLINE = 2.0
ARTIFACT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fuzz_artifacts")


def _scenario(case: int):
    """A reproducible random (tree, query, edits) triple for one case seed."""
    rng = random.Random(7000 + FUZZ_SEED + case)
    n_vars = rng.choice((1, 1, 2))
    query = random_unranked_tva(
        rng.randrange(10_000),
        n_states=rng.choice((2, 3)),
        variables=("x", "y")[:n_vars],
        initial_density=rng.uniform(0.3, 0.7),
        delta_density=rng.uniform(0.2, 0.5),
    )
    tree = random_tree(rng.randint(4, 10), LABELS, seed=rng.randrange(10_000))
    edits = random_edit_sequence(tree, LABELS, N_EDITS, seed=rng.randrange(10_000))
    return tree, query, edits


class _WordReference:
    """A word with the runtimes' position ids, to draw valid edit scripts from.

    Ids follow :class:`WordRuntime`: ``0 … n-1`` initially, then one fresh id
    per insert, so a script drawn here is valid on any engine replaying it.
    """

    #: longest word a script grows, which bounds the answer sets of random
    #: automata (and so the brute-force oracle's work)
    MAX_LENGTH = 9

    def __init__(self, word):
        self.positions = list(enumerate(word))  # (position id, letter)
        self.next_id = len(word)

    def word(self):
        return [letter for _id, letter in self.positions]

    def random_edit(self, rng: random.Random) -> tuple:
        """Draw one ``replace`` / ``insert_after`` / ``delete`` and apply it."""
        ops = ["replace"]
        if len(self.positions) < self.MAX_LENGTH:
            ops.append("insert_after")
        if len(self.positions) > 1:
            ops.append("delete")
        op = rng.choice(ops)
        letter = rng.choice(LABELS)
        if op == "insert_after":
            index = rng.randrange(-1, len(self.positions))  # -1: at the front
            anchor = None if index < 0 else self.positions[index][0]
            self.positions.insert(index + 1, (self.next_id, letter))
            self.next_id += 1
            return ("insert_after", anchor, letter)
        index = rng.randrange(len(self.positions))
        position_id = self.positions[index][0]
        if op == "replace":
            self.positions[index] = (position_id, letter)
            return ("replace", position_id, letter)
        del self.positions[index]
        return ("delete", position_id)


def _random_wva(rng: random.Random):
    return random_wva(
        rng.randrange(10_000),
        n_states=rng.choice((2, 3)),
        variables=("x", "y")[: rng.choice((1, 1, 2))],
        density=rng.uniform(0.35, 0.55),
    )


class TestEndToEndDifferential:
    @pytest.mark.parametrize("case", range(N_SCENARIOS))
    def test_word_backends_match_oracle_under_edits(self, case):
        rng = random.Random(8000 + FUZZ_SEED + case)
        query = _random_wva(rng)
        reference = _WordReference([rng.choice(LABELS) for _ in range(rng.randint(3, 8))])
        runtimes = {
            backend: WordRuntime(reference.word(), query, relation_backend=backend)
            for backend in BACKENDS
        }

        def check(stage):
            expected = query.satisfying_assignments(reference.word())
            for backend, runtime in runtimes.items():
                assert runtime.word() == reference.word(), f"case {case}, {stage}"
                produced = list(runtime.assignments_by_index())
                assert len(produced) == len(set(produced)), (
                    f"case {case}, {stage}: duplicate answers on {backend}"
                )
                assert set(produced) == expected, (
                    f"case {case}, {stage}: {backend} disagrees with the oracle"
                )

        check("initial")
        for step in range(N_EDITS):
            op, *args = edit = reference.random_edit(rng)
            for runtime in runtimes.values():
                getattr(runtime, op)(*args)
            check(f"after edit {step} {edit!r}")

    @pytest.mark.parametrize("case", range(N_SCENARIOS))
    def test_backends_match_oracle_under_edits(self, case):
        tree, query, edits = _scenario(case)
        reference = tree.copy()
        enumerators = {
            backend: TreeRuntime(tree, query, relation_backend=backend)
            for backend in BACKENDS
        }

        def check(stage):
            expected = unranked_satisfying_assignments(query, reference)
            for backend, enumerator in enumerators.items():
                produced = list(enumerator.assignments())
                assert len(produced) == len(set(produced)), (
                    f"case {case}, {stage}: duplicate answers on {backend}"
                )
                assert set(produced) == expected, (
                    f"case {case}, {stage}: {backend} disagrees with the oracle"
                )

        check("initial")
        for step, edit in enumerate(edits):
            edit.apply_to_tree(reference)
            for enumerator in enumerators.values():
                enumerator.apply(edit)
            check(f"after edit {step} ({edit.describe()})")


class TestCircuitLevelDifferential:
    """Mask-native Algorithm 2 vs the generic path, provenance included."""

    @pytest.mark.parametrize("case", range(15))
    def test_mask_path_matches_generic_with_provenance(self, case):
        rng = random.Random(9000 + FUZZ_SEED + case)
        automaton = homogenize(
            random_binary_tva(
                rng.randrange(10_000),
                n_states=rng.choice((2, 3)),
                variables=("x", "y")[: rng.choice((1, 1, 2))],
            )
        )
        # Trees are kept small: the generic reference path is enumerated with
        # the *naive* box enumeration for every box of the circuit, and the
        # captured sets grow exponentially with the number of leaves.
        tree = random_binary_tree(rng.randrange(10_000), rng.randint(3, 6))
        circuit = build_assignment_circuit(tree, automaton)
        build_index(circuit)
        oracle = binary_satisfying_assignments(automaton, tree)
        for box in circuit.boxes():
            if not box.union_gates:
                continue
            # Every ∪-gate of the box (many positions), then each ∪-gate on
            # its own (one position).
            for gamma in [list(box.union_gates)] + [[gate] for gate in box.union_gates]:
                generic = {
                    (assignment, frozenset(id(g) for g in provenance))
                    for assignment, provenance in _enumerate_generic(gamma, naive_box_enum)
                }
                fast = {
                    (assignment, frozenset(id(gamma[p]) for p in iter_bits(mask)))
                    for assignment, mask in enumerate_boxed_masks(gamma)
                }
                assert fast == generic
                public = {
                    (assignment, frozenset(id(g) for g in provenance))
                    for assignment, provenance in enumerate_boxed_set(gamma)
                }
                assert public == generic

    @pytest.mark.parametrize("case", range(8))
    def test_root_enumeration_matches_dp_oracle(self, case):
        rng = random.Random(9900 + FUZZ_SEED + case)
        automaton = homogenize(
            random_binary_tva(rng.randrange(10_000), n_states=3, variables=("x",))
        )
        tree = random_binary_tree(rng.randrange(10_000), rng.randint(4, 10))
        circuit = build_assignment_circuit(tree, automaton)
        build_index(circuit)
        from repro.enumeration.assignment_iter import CircuitEnumerator

        produced = list(CircuitEnumerator(circuit, build=False).assignments())
        assert len(produced) == len(set(produced))
        assert set(produced) == binary_satisfying_assignments(automaton, tree)


# ===================================================== sharded differential
def _answer_text(answer):
    """Canonical text of one answer: its sorted ``[var, position]`` pairs."""
    return json.dumps(sorted([str(var), pos] for var, pos in answer), separators=(",", ":"))


def _ordered_answers(answers):
    """Order-preserving canonical text of an answer sequence.

    Unlike a sorted canonicalization, this pins the *order* the engine
    produced the answers in — the sharded engine must reproduce the
    single-process stream byte for byte, not just as a set.
    """
    return "[" + ",".join(_answer_text(answer) for answer in answers) + "]"


def _answers_digest(answers):
    """The answer count and a blake2b digest of :func:`_ordered_answers`'s
    text, fed answer by answer.

    A document's full answer sequence can run to millions of answers (a
    random 2–3-state query has 531,441 on one 12-node document), whose text
    would not fit in memory; the digest pins the same order-preserving text
    while holding one answer at a time.
    """
    digest = hashlib.blake2b(b"[", digest_size=16)
    count = 0
    for answer in answers:
        if count:
            digest.update(b",")
        digest.update(_answer_text(answer).encode())
        count += 1
    digest.update(b"]")
    return count, digest.hexdigest()


def _sharded_scenario(case_seed: int):
    """Build one reproducible sharded serving scenario from its seed.

    Returns ``(workers, trees, queries, doc_query, ops)`` where ``ops`` is a
    replayable schedule of ``("edits", doc, batch)``, ``("page", doc)`` and
    ``("stream", doc, n)`` events.  Edit batches are generated against
    reference copies that evolve alongside, so every edit is valid at its
    point in the schedule whatever engine replays it.
    """
    rng = random.Random(31000 + case_seed)
    workers = rng.choice((2, 3))
    n_docs = rng.randint(3, 5)
    queries = [
        random_unranked_tva(
            rng.randrange(10_000),
            n_states=rng.choice((2, 3)),
            variables=("x", "y")[: rng.choice((1, 1, 2))],
            initial_density=rng.uniform(0.3, 0.7),
            delta_density=rng.uniform(0.2, 0.5),
        )
        for _ in range(rng.choice((1, 2)))
    ]
    trees = [
        random_tree(rng.randint(5, 10), LABELS, seed=rng.randrange(10_000))
        for _ in range(n_docs)
    ]
    doc_query = [rng.randrange(len(queries)) for _ in range(n_docs)]
    references = [tree.copy() for tree in trees]
    ops = []
    for _ in range(rng.randint(10, 16)):
        kind = rng.choice(("edits", "page", "page", "stream", "stream"))
        doc = rng.randrange(n_docs)
        if kind == "edits":
            batch = random_edit_sequence(
                references[doc], LABELS, rng.randint(1, 2), seed=rng.randrange(10_000)
            )
            for edit in batch:
                edit.apply_to_tree(references[doc])
            ops.append(("edits", doc, batch))
        elif kind == "page":
            ops.append(("page", doc))
        else:
            ops.append(("stream", doc, rng.randint(1, 6)))
    return workers, trees, queries, doc_query, ops


def _fault_scenario(case_seed: int):
    """A sharded scenario plus exactly **one** injected fault.

    The fault is either a parent-side ``("kill", shard)`` op spliced into the
    schedule (SIGKILL mid-workload) or a worker-side one-shot hang rule (the
    deadline machinery must kill and fail over).  One fault per scenario is
    the contract under test — ``replicas=2`` survives any *single* shard loss
    with zero document/answer loss; two concurrent losses may legitimately
    lose cursors.  Returns ``(workers, trees, queries, doc_query, ops,
    fault_plan)``.
    """
    _workers, trees, queries, doc_query, ops = _sharded_scenario(case_seed)
    workers = 3  # replicas=2 always leaves a survivor to fail over to
    rng = random.Random(47000 + case_seed)
    ops = list(ops)
    fault_plan = None
    if rng.random() < 0.5:
        ops.insert(rng.randrange(len(ops) + 1), ("kill", rng.randrange(workers)))
    else:
        # a concrete (shard, op, nth) so the one-shot rule fires on at most
        # one worker: hang exactly once, somewhere plausible in the schedule
        target_op = rng.choice(("edits", "page", "add_batch", "stream_chunk"))
        fault_plan = f"{rng.randrange(workers)}:{target_op}:{rng.randrange(2)}:hang"
    return workers, trees, queries, doc_query, ops, fault_plan


def _replay_ops(engine, trees, queries, doc_query, ops, keep=None):
    """Replay a scenario schedule on one (possibly remote) engine facade.

    The transcript records every observable: epochs, per-batch rebuild and
    cursor-resume/invalidate counts, page contents/offsets/exhaustion,
    cursor invalidation reports, stream segments in production order with
    their end status, and the final answers (count and digest) + epoch of
    every document.  A failed edit batch and a stale stream are recorded as
    (type name, message), so a message that differs between transports
    fails every leg.
    """
    from repro import CursorInvalidatedError, ReproError, StaleIteratorError

    transcript = []
    docs = engine.add_documents(
        trees,
        queries=[queries[index] for index in doc_query],
        doc_ids=list(range(len(trees))),
    )
    pages = {}
    streams = {}
    for op_index, op in enumerate(ops):
        if keep is not None and op_index not in keep:
            continue
        kind, doc_index = op[0], op[1]
        if kind == "kill":
            # Fault-injection schedules only: SIGKILL one worker of the
            # replicated engine, mid-workload.  A no-op on the
            # single-process oracle — the transcripts must stay
            # byte-identical regardless.  A RemoteEngine points
            # ``_kill_target`` at the server-side engine, so the kill
            # lands on the real worker fleet while staying invisible to
            # the network client.
            target = getattr(engine, "_kill_target", engine)
            if target.workers:
                process = target._pool._shards[op[1]].process
                process.kill()
                process.join(timeout=10.0)
            continue
        doc = docs[doc_index]
        if kind == "edits":
            try:
                report = doc.apply_edits(op[2])
            except ReproError as exc:
                # Minimization may drop a batch whose Insert created the
                # node a later batch edits; the failure is deterministic
                # (both engines replay the same schedule), so record it
                # as a transcript event instead of aborting the replay.
                transcript.append(
                    ("edits-error", doc_index, type(exc).__name__, str(exc), doc.epoch)
                )
                continue
            transcript.append(
                (
                    "edits",
                    doc_index,
                    report.epoch,
                    report.boxes_rebuilt,
                    report.cursors_resumed,
                    report.cursors_invalidated,
                )
            )
        elif kind == "page":
            previous = pages.get(doc_index)
            try:
                if previous is None or previous.exhausted:
                    page = doc.page(page_size=3)
                else:
                    page = doc.page(cursor=previous)
                transcript.append(
                    (
                        "page",
                        doc_index,
                        _ordered_answers(page.answers),
                        page.offset,
                        page.exhausted,
                        page.epoch,
                    )
                )
                pages[doc_index] = page
            except CursorInvalidatedError as exc:
                transcript.append(
                    ("cursor-invalidated", doc_index, exc.report.answers_delivered)
                )
                pages[doc_index] = None
        else:
            wanted = op[2]
            iterator = streams.get(doc_index)
            if iterator is None:
                iterator = iter(doc.stream())
                streams[doc_index] = iterator
            collected = []
            status = "open"
            try:
                for _ in range(wanted):
                    collected.append(next(iterator))
            except StopIteration:
                status = "end"
                streams[doc_index] = None
            except StaleIteratorError as exc:
                status = ("stale", type(exc).__name__, str(exc))
                streams[doc_index] = None
            transcript.append(
                ("stream", doc_index, _ordered_answers(collected), status)
            )
    for doc_index, doc in enumerate(docs):
        transcript.append(
            ("final", doc_index, _answers_digest(doc.stream()), doc.epoch)
        )
    return transcript


def _replay_transcript(trees, queries, doc_query, ops, keep=None, **engine_kwargs):
    """Replay a scenario schedule on one local engine; full transcript."""
    from repro import Engine

    with Engine(**engine_kwargs) as engine:
        return _replay_ops(engine, trees, queries, doc_query, ops, keep=keep)


def _replay_transcript_network(trees, queries, doc_query, ops, keep=None, **engine_kwargs):
    """Replay a scenario through a real TCP connection to a served engine.

    The schedule runs on a :class:`repro.RemoteEngine` talking to an
    :class:`repro.EngineServer` over loopback TCP, with the server-side
    engine built from ``engine_kwargs`` (typically sharded, possibly
    replicated + fault-injected).  The transcript must be byte-identical
    to the in-process one — answers, epochs, cursor invalidations, stream
    staleness and all.
    """
    from repro import Engine
    from repro.net import EngineServer, RemoteEngine

    with Engine(**engine_kwargs) as engine:
        server = EngineServer(engine).start()
        try:
            with RemoteEngine(server.address) as remote:
                remote._kill_target = engine  # kill ops land on the real fleet
                return _replay_ops(remote, trees, queries, doc_query, ops, keep=keep)
        finally:
            server.stop()


def _transcripts(case_seed: int, start_method, keep=None, fault=False):
    if fault:
        workers, trees, queries, doc_query, ops, fault_plan = _fault_scenario(case_seed)
        sharded = _replay_transcript(
            trees, queries, doc_query, ops, keep=keep,
            workers=workers, replicas=2, deadline=FAULT_DEADLINE,
            fault_plan=fault_plan, start_method=start_method,
        )
    else:
        workers, trees, queries, doc_query, ops = _sharded_scenario(case_seed)
        sharded = _replay_transcript(
            trees, queries, doc_query, ops, keep=keep,
            workers=workers, start_method=start_method,
        )
    single = _replay_transcript(trees, queries, doc_query, ops, keep=keep)
    return sharded, single, len(ops)


def _minimize_failing_ops(
    case_seed: int, start_method, n_ops: int, budget: int = 40, fault=False
):
    """Greedy ddmin-lite: drop ops one by one while the divergence persists."""
    keep = list(range(n_ops))
    changed = True
    while changed and budget > 0:
        changed = False
        for op_index in list(keep):
            if budget <= 0:
                break
            trial = [k for k in keep if k != op_index]
            budget -= 1
            sharded, single, _ = _transcripts(
                case_seed, start_method, keep=trial, fault=fault
            )
            if sharded != single:
                keep = trial
                changed = True
    return keep


def _write_repro_artifact(
    case_seed: int, start_method, keep, sharded, single, fault=False
) -> str:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    if fault:
        workers, trees, _queries, doc_query, ops, fault_plan = _fault_scenario(case_seed)
    else:
        workers, trees, _queries, doc_query, ops = _sharded_scenario(case_seed)
        fault_plan = None
    first_diff = next(
        (i for i, (a, b) in enumerate(zip(sharded, single)) if a != b),
        min(len(sharded), len(single)),
    )
    tag = "fault_" if fault else ""
    path = os.path.join(
        ARTIFACT_DIR, f"sharded_{tag}case_{case_seed}_{start_method}.json"
    )
    with open(path, "w", encoding="utf8") as handle:
        json.dump(
            {
                "case_seed": case_seed,
                "start_method": start_method,
                "workers": workers,
                "fault": fault,
                "fault_plan": fault_plan,
                "doc_sizes": [tree.size() for tree in trees],
                "doc_query": doc_query,
                "kept_op_indices": keep,
                "kept_ops": [
                    (op[0], op[1]) + ((len(op[2]),) if op[0] == "edits" else op[2:])
                    for i, op in enumerate(ops)
                    if i in set(keep)
                ],
                "first_divergent_entry": first_diff,
                "sharded_entry": sharded[first_diff] if first_diff < len(sharded) else None,
                "single_entry": single[first_diff] if first_diff < len(single) else None,
                "repro": (
                    "PYTHONPATH=src python -c \"import sys; sys.path.insert(0, 'tests'); "
                    "import test_fuzz_differential as f; "
                    f"print(f._transcripts({case_seed}, {start_method!r}, keep={keep}, "
                    f"fault={fault})[0])\""
                ),
            },
            handle,
            indent=2,
        )
    return path


def _sharded_cases():
    fork_cases = [("fork", index) for index in range(N_SHARDED)]
    spawn_cases = [("spawn", index) for index in range(max(1, N_SHARDED // 3))]
    return fork_cases + spawn_cases


class TestShardedDifferential:
    """Pipelined shard protocol vs the single-process oracle, transcript-exact."""

    @pytest.mark.parametrize("start_method,case", _sharded_cases())
    def test_sharded_transcript_matches_single_process(self, start_method, case):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable on {sys.platform}")
        case_seed = FUZZ_SEED + case
        sharded, single, n_ops = _transcripts(case_seed, start_method)
        if sharded != single and os.environ.get("REPRO_FUZZ_ARTIFACTS"):
            keep = _minimize_failing_ops(case_seed, start_method, n_ops)
            sharded_min, single_min, _ = _transcripts(case_seed, start_method, keep=keep)
            path = _write_repro_artifact(
                case_seed, start_method, keep, sharded_min, single_min
            )
            pytest.fail(
                f"sharded transcript diverged from single-process "
                f"(seed {case_seed}, {start_method}); minimized repro: {path}"
            )
        assert sharded == single


class TestFaultInjectedDifferential:
    """The replicated fleet under injected kills and hangs, transcript-exact.

    Each scenario runs ``Engine(workers=3, replicas=2, deadline=...)`` through
    a randomized serving schedule with exactly one injected fault — a
    SIGKILL'd worker mid-workload or a one-shot worker hang the deadline
    machinery must catch — and requires the full transcript (epochs, page
    bytes, cursor invalidations, stream segments, final answers) to stay
    byte-identical to a fault-free single-process engine: a single shard
    loss may cost latency, never an answer.
    """

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("case", range(N_FAULT))
    def test_faulted_replicated_transcript_matches_single_process(self, case):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        case_seed = FUZZ_SEED + case
        sharded, single, n_ops = _transcripts(case_seed, "fork", fault=True)
        if sharded != single and os.environ.get("REPRO_FUZZ_ARTIFACTS"):
            keep = _minimize_failing_ops(case_seed, "fork", n_ops, fault=True)
            sharded_min, single_min, _ = _transcripts(
                case_seed, "fork", keep=keep, fault=True
            )
            path = _write_repro_artifact(
                case_seed, "fork", keep, sharded_min, single_min, fault=True
            )
            pytest.fail(
                f"fault-injected replicated transcript diverged from "
                f"single-process (seed {case_seed}); minimized repro: {path}"
            )
        assert sharded == single


# ===================================================== network differential
N_NET = int(os.environ.get("REPRO_FUZZ_NET_SCENARIOS", "2"))


class TestNetworkDifferential:
    """The network serving tier vs the in-process oracle, transcript-exact.

    The same randomized serving schedules as ``TestShardedDifferential``,
    replayed through a :class:`repro.RemoteEngine` over real loopback TCP
    against an :class:`repro.EngineServer` fronting a sharded engine — so
    the differential covers the wire codec, the framing, the demultiplexer
    and the credit-window streaming on top of everything below them.  The
    fault leg additionally SIGKILLs a worker of the *server-side* replicated
    fleet mid-schedule; the client must not be able to tell.
    """

    @pytest.mark.parametrize("case", range(N_NET))
    def test_network_transcript_matches_single_process(self, case):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        case_seed = FUZZ_SEED + case
        workers, trees, queries, doc_query, ops = _sharded_scenario(case_seed)
        networked = _replay_transcript_network(
            trees, queries, doc_query, ops, workers=workers, start_method="fork"
        )
        single = _replay_transcript(trees, queries, doc_query, ops)
        assert networked == single

    @pytest.mark.timeout(300)
    def test_network_faulted_transcript_matches_single_process(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        case_seed = FUZZ_SEED
        workers, trees, queries, doc_query, ops, fault_plan = _fault_scenario(case_seed)
        networked = _replay_transcript_network(
            trees, queries, doc_query, ops,
            workers=workers, replicas=2, deadline=FAULT_DEADLINE,
            fault_plan=fault_plan, start_method="fork",
        )
        single = _replay_transcript(trees, queries, doc_query, ops)
        assert networked == single

    @pytest.mark.timeout(120)
    def test_midstream_server_shard_kill_is_invisible_to_client(self):
        """SIGKILL the replica serving a live stream, mid-stream, behind the
        server's back: the client's answer sequence must be unaffected.

        The document is large enough (> one shard stream chunk) that the
        engine-side stream still needs the dead worker after the kill, so
        the replicated failover machinery (reopen on a survivor, replay
        skip) actually runs — under a network client none the wiser.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        from repro import Engine, queries as Q
        from repro.net import EngineServer, RemoteEngine
        from repro.trees.unranked import UnrankedTree

        # 9000 selected nodes: more than the worker's whole credit window
        # can push ahead (32 chunks x 256 answers), so the engine-side
        # stream is guaranteed to still need the worker when the kill lands
        # (with only ~10 answers consumed no credit grant has gone out yet).
        tree = UnrankedTree.from_nested(("b", ["a"] * 9000))
        query = Q.select_labeled("a")
        with Engine(workers=3, replicas=2, start_method="fork") as engine:
            with Engine() as oracle_engine:
                oracle = list(oracle_engine.add_tree(tree.copy(), query).stream())
            server = EngineServer(engine).start()
            try:
                # A tiny client chunk keeps the server-side pump from
                # prefetching the whole stream before the kill lands.
                with RemoteEngine(server.address, stream_chunk_size=1) as remote:
                    doc = remote.add_tree(tree.copy(), query)
                    iterator = iter(doc.stream())
                    collected = [next(iterator) for _ in range(10)]
                    serving = [
                        shard
                        for shard, entry in enumerate(engine._pool._shards)
                        if entry.streams
                    ]
                    assert serving, "no shard-side stream open mid-consumption"
                    process = engine._pool._shards[serving[0]].process
                    process.kill()
                    process.join(timeout=10.0)
                    collected.extend(iterator)
                    assert _ordered_answers(collected) == _ordered_answers(oracle)
                    assert engine.failovers_total >= 1
            finally:
                server.stop()

    def test_slow_consumer_holds_at_most_its_stream_credit(self):
        """A consumer that lets pushed chunks pile up client-side never holds
        more than its stream's credit: buffered chunks plus consumed ones
        not yet granted back (served answers unaffected)."""
        from repro import Engine, queries as Q
        from repro.engine.sharding import STREAM_CREDIT
        from repro.net import EngineServer, RemoteEngine
        from repro.trees.unranked import UnrankedTree

        # 200 one-answer chunks: a dozen credit grants of half the window.
        tree = UnrankedTree.from_nested(("b", ["a"] * 200))
        query = Q.select_labeled("a")
        with Engine() as engine:
            oracle = list(engine.add_tree(tree.copy(), query).stream())
            server = EngineServer(engine).start()
            try:
                with RemoteEngine(server.address, stream_chunk_size=1) as remote:
                    doc = remote.add_tree(tree.copy(), query)
                    iterator = iter(doc.stream())
                    (stream,) = remote._streams.values()
                    collected = []
                    for _ in range(len(oracle)):
                        # Interleaved calls drain pushed chunks into the
                        # stream buffer faster than the consumer pops them —
                        # the network shape of a slow consumer.  Each pop
                        # follows at least one call, and waits (bounded)
                        # until the server's pushes fill the window, however
                        # slowly the server thread runs.
                        deadline = time.monotonic() + 10.0
                        remote.ping()
                        while (
                            not stream.done
                            and len(stream.chunks) + stream.to_grant < STREAM_CREDIT
                            and time.monotonic() < deadline
                        ):
                            remote.ping()
                        assert len(stream.chunks) + stream.to_grant <= STREAM_CREDIT
                        collected.append(next(iterator))
                    assert _ordered_answers(collected) == _ordered_answers(oracle)
            finally:
                server.stop()


# ======================================================= word differential
def _word_schedule(case_seed: int):
    """A word serving schedule for :func:`_replay_ops`.

    Returns ``(words, queries, doc_query, ops)`` shaped like
    :func:`_sharded_scenario`'s, with ``replace`` / ``insert_after`` /
    ``delete`` tuples as the edit batches.
    """
    rng = random.Random(53000 + case_seed)
    n_docs = rng.randint(2, 4)
    queries = [_random_wva(rng) for _ in range(rng.choice((1, 2)))]
    words = [[rng.choice(LABELS) for _ in range(rng.randint(4, 8))] for _ in range(n_docs)]
    doc_query = [rng.randrange(len(queries)) for _ in range(n_docs)]
    references = [_WordReference(word) for word in words]
    ops = []
    for _ in range(rng.randint(10, 16)):
        kind = rng.choice(("edits", "page", "page", "stream", "stream"))
        doc = rng.randrange(n_docs)
        if kind == "edits":
            batch = [references[doc].random_edit(rng) for _ in range(rng.randint(1, 2))]
            ops.append(("edits", doc, batch))
        elif kind == "page":
            ops.append(("page", doc))
        else:
            ops.append(("stream", doc, rng.randint(1, 6)))
    return words, queries, doc_query, ops


class TestWordTransportDifferential:
    """Word documents on every transport, transcript-exact vs ``Engine()``.

    The same replay as the tree legs, on a word schedule: through
    ``Engine(workers=2)``, through a replicated fleet (``workers=3,
    replicas=2``) with one worker SIGKILLed mid-schedule, and over TCP to a
    server fronting ``Engine(workers=2)``.
    """

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("transport", ["sharded", "replicated-kill", "tcp"])
    @pytest.mark.parametrize("case", range(N_SHARDED))
    def test_word_transcript_matches_single_process(self, case, transport):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        words, queries, doc_query, ops = _word_schedule(FUZZ_SEED + case)
        if transport == "sharded":
            served = _replay_transcript(
                words, queries, doc_query, ops, workers=2, start_method="fork"
            )
        elif transport == "replicated-kill":
            rng = random.Random(59000 + FUZZ_SEED + case)
            ops.insert(rng.randrange(len(ops) + 1), ("kill", rng.randrange(3)))
            served = _replay_transcript(
                words, queries, doc_query, ops,
                workers=3, replicas=2, deadline=FAULT_DEADLINE, start_method="fork",
            )
        else:
            served = _replay_transcript_network(
                words, queries, doc_query, ops, workers=2, start_method="fork"
            )
        assert served == _replay_transcript(words, queries, doc_query, ops)


# ================================================= cursor-stability differential
N_CURSOR = int(os.environ.get("REPRO_FUZZ_CURSOR_SCENARIOS", "12"))
N_CURSOR_BACKENDS = int(os.environ.get("REPRO_FUZZ_CURSOR_BACKEND_SCENARIOS", "2"))


def _cursor_scenario(case_seed: int):
    """A relabel-heavy serving schedule exercising cursor resume paths.

    Like :func:`_sharded_scenario`, but pages are opened before the edits
    start and every other edit batch is a *guaranteed no-op relabel* (a node
    relabelled to its current label), so the schedule deterministically
    contains trunk rebuilds that are slot-for-slot fingerprint-equal — the
    case the fine-grained dependency test must let cursors survive.
    """
    from repro.trees.edits import Relabel

    rng = random.Random(61000 + case_seed)
    n_docs = 2
    # Regenerate until every document has a healthy answer count: a cursor
    # exhausted by its first 3-answer page has nothing left to resume, and
    # this leg exists to exercise resumes.
    while True:
        queries = [
            random_unranked_tva(
                rng.randrange(10_000),
                n_states=rng.choice((2, 3)),
                variables=("x", "y")[: rng.choice((1, 2))],
                initial_density=rng.uniform(0.3, 0.7),
                delta_density=rng.uniform(0.2, 0.5),
            )
        ]
        trees = [
            random_tree(rng.randint(8, 12), LABELS, seed=rng.randrange(10_000))
            for _ in range(n_docs)
        ]
        if all(
            len(unranked_satisfying_assignments(queries[0], tree)) >= 8
            for tree in trees
        ):
            break
    doc_query = [0] * n_docs
    references = [tree.copy() for tree in trees]
    ops = [("page", doc) for doc in range(n_docs)]
    noop_turn = True
    for _ in range(rng.randint(8, 12)):
        doc = rng.randrange(n_docs)
        kind = rng.choice(("edits", "edits", "page", "page", "page"))
        if kind == "edits":
            if noop_turn:
                node = rng.choice(list(references[doc].nodes()))
                batch = [Relabel(node.node_id, node.label)]
            else:
                batch = random_edit_sequence(
                    references[doc], LABELS, 1,
                    seed=rng.randrange(10_000), weights=(6, 1, 1, 1),
                )
            noop_turn = not noop_turn
            for edit in batch:
                edit.apply_to_tree(references[doc])
            ops.append(("edits", doc, batch))
        else:
            ops.append(("page", doc))
    return trees, queries, doc_query, ops


class TestCursorStabilityDifferential:
    """The fine-grained cursor dependency test, measured against oracles.

    Two legs.  The local leg drives one cursor through relabel-heavy edit
    sequences and checks, per edit, the fine decision against (a) the coarse
    whole-box decision the old code would have made (recomputed from the
    cursor's referenced-box serials and the maintainer's replaced set) and
    (b) the brute-force answer-set oracle: a resumed cursor must drain to a
    byte-identical suffix of the base-epoch stream (no false survivals), the
    fine test must never invalidate where the coarse test resumes, and over
    the whole suite it must resume strictly more often and false-invalidate
    (invalidate although the brute-force answer set did not change) at most
    as often.  The backend leg replays the same schedules on the sharded,
    replicated and network engines, transcript-exact against the
    single-process oracle — the resume/invalidate decision must be
    indistinguishable across all four backends.
    """

    @pytest.mark.parametrize("case", range(N_CURSOR))
    def test_fine_decisions_sound_and_more_precise_than_coarse(self, case):
        from repro.engine.local import LocalStore

        rng = random.Random(63000 + FUZZ_SEED + case)
        query = random_unranked_tva(
            rng.randrange(10_000),
            n_states=rng.choice((2, 3)),
            variables=("x", "y")[: rng.choice((1, 2))],
            initial_density=rng.uniform(0.3, 0.7),
            delta_density=rng.uniform(0.2, 0.5),
        )
        tree = random_tree(rng.randint(6, 10), LABELS, seed=rng.randrange(10_000))
        reference = tree.copy()
        store = LocalStore()
        doc = store.add_tree(tree, query)

        # The full base-epoch stream, recorded by a probe cursor at open time:
        # the cursor under test must deliver exactly this, in this order.
        base_stream = doc.open_cursor(page_size=10_000).fetch_all()
        cursor = doc.open_cursor(page_size=2)
        delivered = list(cursor.fetch().answers)

        fine = {"resumed": 0, "invalidated": 0, "false_invalidated": 0}
        coarse = {"resumed": 0, "invalidated": 0, "false_invalidated": 0}
        answers_before = sorted(
            map(sorted, unranked_satisfying_assignments(query, reference))
        )
        edits = iter(
            random_edit_sequence(
                reference.copy(), LABELS, 6,
                seed=rng.randrange(10_000), weights=(6, 1, 1, 1),
            )
        )
        # the guaranteed fingerprint-equal case: lead with a no-op relabel
        first_node = next(iter(reference.nodes()))
        from repro.trees.edits import Relabel

        schedule = [Relabel(first_node.node_id, first_node.label)] + list(edits)
        for edit in schedule:
            if not cursor.is_active():
                break
            refs = {box.serial for box in cursor.referenced_boxes()}
            report = doc.apply_edits([edit])
            edit.apply_to_tree(reference)
            answers_after = sorted(
                map(sorted, unranked_satisfying_assignments(query, reference))
            )
            replaced = set(doc.maintainer.last_replaced_deltas)
            changed = answers_before != answers_after
            answers_before = answers_after
            coarse_hit = bool(refs & replaced)
            fine_hit = report.cursors_invalidated == 1
            # the fine test only ever *refines* the coarse one
            assert not (fine_hit and not coarse_hit), (
                "fine test invalidated where the coarse whole-box test resumed"
            )
            for counters, hit in ((fine, fine_hit), (coarse, coarse_hit)):
                counters["invalidated" if hit else "resumed"] += 1
                if hit and not changed:
                    counters["false_invalidated"] += 1
            if fine_hit:
                break
            delivered.extend(cursor.fetch().answers)

        if cursor.is_active():
            delivered.extend(cursor.fetch_all())
        if cursor.status in ("active", "exhausted"):
            # no false survivals: the resumed cursor's pages are a
            # byte-identical continuation of the base-epoch stream
            assert delivered == base_stream
        assert fine["resumed"] >= coarse["resumed"]
        assert fine["false_invalidated"] <= coarse["false_invalidated"]
        TestCursorStabilityDifferential._totals["fine_resumed"] += fine["resumed"]
        TestCursorStabilityDifferential._totals["coarse_resumed"] += coarse["resumed"]
        TestCursorStabilityDifferential._totals["cases"] += 1
        if TestCursorStabilityDifferential._totals["cases"] == N_CURSOR:
            # measured precision: across the suite the fine test resumes
            # strictly more often than the coarse test would have
            totals = TestCursorStabilityDifferential._totals
            assert totals["fine_resumed"] > totals["coarse_resumed"], totals

    _totals = {"fine_resumed": 0, "coarse_resumed": 0, "cases": 0}

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("case", range(N_CURSOR_BACKENDS))
    def test_cursor_transcripts_identical_across_backends(self, case):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip(f"fork start method unavailable on {sys.platform}")
        case_seed = FUZZ_SEED + case
        trees, queries, doc_query, ops = _cursor_scenario(case_seed)
        single = _replay_transcript(trees, queries, doc_query, ops)
        sharded = _replay_transcript(
            trees, queries, doc_query, ops, workers=2, start_method="fork"
        )
        replicated = _replay_transcript(
            trees, queries, doc_query, ops,
            workers=3, replicas=2, start_method="fork",
        )
        networked = _replay_transcript_network(
            trees, queries, doc_query, ops, workers=2, start_method="fork"
        )
        assert sharded == single
        assert replicated == single
        assert networked == single
        resumes = sum(
            event[4] for event in single if event[0] == "edits"
        )
        assert resumes >= 1, "schedule produced no resumed cursors"


# ================================================ from-scratch (sharing-free) leg
class TestFromScratchDifferential:
    """Shared builds vs builds that share nothing, transcript-exact.

    ``Engine()`` reuses built subtrees and index shapes through its store's
    build cache, so every other leg shares them on both sides of its
    comparison.  ``Engine(build_cache_size=0)`` builds every box and every
    index entry from scratch: replaying the sharded and the cursor schedules
    on both must give byte-identical transcripts — answers and their order,
    epochs, rebuild counts, and each cursor's resume or invalidation.
    ``REPRO_FUZZ_SHARDED_SCENARIOS`` sets the number of schedules of each
    kind (a few cursor schedules enumerate about a million answers, seconds
    per replay).
    """

    _resumes = {"shared": 0, "scratch": 0, "cases": 0}

    @pytest.mark.parametrize("case", range(N_SHARDED))
    def test_sharded_schedule_matches_from_scratch_build(self, case):
        _workers, trees, queries, doc_query, ops = _sharded_scenario(FUZZ_SEED + case)
        shared = _replay_transcript(trees, queries, doc_query, ops)
        scratch = _replay_transcript(trees, queries, doc_query, ops, build_cache_size=0)
        assert shared == scratch

    @pytest.mark.parametrize("case", range(N_SHARDED))
    def test_cursor_schedule_matches_from_scratch_build(self, case):
        trees, queries, doc_query, ops = _cursor_scenario(FUZZ_SEED + case)
        shared = _replay_transcript(trees, queries, doc_query, ops)
        scratch = _replay_transcript(trees, queries, doc_query, ops, build_cache_size=0)
        assert shared == scratch
        totals = TestFromScratchDifferential._resumes
        for side, transcript in (("shared", shared), ("scratch", scratch)):
            totals[side] += sum(event[4] for event in transcript if event[0] == "edits")
        totals["cases"] += 1
        if totals["cases"] == N_SHARDED:
            # the schedules exercise cursor resumes, on both sides alike
            assert totals["shared"] == totals["scratch"] > 0, totals
