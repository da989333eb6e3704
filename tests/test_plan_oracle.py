"""Box plans against a reference builder, and answer order against δ order.

* Reference oracle.  ``_reference_leaf_plan`` and ``_reference_internal_plan``
  below are a straightforward builder over signatures spelled out as tuples
  of ``(state, is ⊤)`` pairs in canonical state order.  The library's plans
  must equal theirs field for field — every table, mask and slot number, and
  the signature converted to that form — on every key that a build and an
  edit script reach, and on random signatures.  Each automaton starts from
  an empty plan cache, so every plan checked was built by this run.
* Answer order does not depend on the iteration order of δ.  Compilation
  emits δ in the catalog payload's canonical order, so a shard worker that
  loads the payload holds the δ of the process it mirrors; with δ reversed
  the plans differ (input order, ×-gate numbering), the answer sequence
  does not.
* One automaton, whatever the hash seed.  The plan exports of four
  compiled queries after an edit script are pinned, and a subprocess under
  another ``PYTHONHASHSEED`` that loads the catalog entry as a shard worker
  does exports the same bytes.  ``make test-hashseeds`` runs this module
  under two more seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest

from repro import Engine
from repro.automata.binary_tva import BinaryTVA
from repro.automata.queries import DEFAULT_LABELS
from repro.automata.serialize import (
    binary_tva_from_payload,
    binary_tva_to_payload,
    canonical_json,
    canonical_key,
    encode_value,
    query_digest,
)
from repro.bench.workloads import query_for_name, tree_for_experiment
from repro.circuits.build import _LeafPlan, build_internal_box, export_box_plans
from repro.circuits.gates import BOTTOM, TOP, Box
from repro.core import enumerator as enumerator_module
from repro.core.enumerator import TreeRuntime, WordRuntime, compiled_automaton_for, register_automaton
from repro.engine.catalog import QueryCatalog
from repro.errors import CircuitStructureError, InvalidAutomatonError
from repro.spanners.compile import regex_to_wva
from repro.trees.edits import random_edit_sequence

_IN_LEFT, _IN_RIGHT, _IN_PROD = 0, 1, 2
_SPANNER = ".*x{ab}.*y{c+}a.*"


# --------------------------------------------------------------------------- reference builder
def _reference_states(automaton):
    """The states sorted by their canonical encoding (``repr`` as a fallback)."""

    def key(state):
        try:
            return canonical_key(encode_value(state))
        except InvalidAutomatonError:
            return repr(state)

    return tuple(sorted(automaton.states, key=key))


def _reference_leaf_plan(automaton, states, label):
    entries_out = []
    signature = []
    var_sets = []
    var_index = {}
    slot_var_masks = []
    for state in states:
        entries = automaton.initial_by_label_state.get((label, state), [])
        if state in automaton.zero_states:
            if any(not vs for vs in entries):
                entries_out.append((state, TOP))
                signature.append((state, True))
            else:
                entries_out.append((state, BOTTOM))
        elif state in automaton.one_states:
            indices = []
            seen = set()
            for vs in entries:
                if vs and vs not in seen:
                    seen.add(vs)
                    idx = var_index.get(vs)
                    if idx is None:
                        idx = len(var_sets)
                        var_index[vs] = idx
                        var_sets.append(vs)
                    indices.append(idx)
            if indices:
                entries_out.append((state, tuple(indices)))
                signature.append((state, False))
                slot_var_masks.append(sum(1 << i for i in set(indices)))
            else:
                entries_out.append((state, BOTTOM))
        else:
            entries_out.append((state, BOTTOM))
    return SimpleNamespace(
        entries=tuple(entries_out),
        var_sets=tuple(var_sets),
        local_mask=(1 << len(slot_var_masks)) - 1,
        signature=tuple(signature),
        slot_var_masks=tuple(slot_var_masks),
        n_unions=len(slot_var_masks),
        slot_inputs=tuple(value for _state, value in entries_out if value.__class__ is tuple),
    )


def _slots_of(signature):
    slots = {}
    for state, is_top in signature:
        if not is_top:
            slots[state] = len(slots)
    return slots


def _reference_internal_plan(automaton, states, label, left_sig, right_sig):
    left_slots = _slots_of(left_sig)
    right_slots = _slots_of(right_sig)
    left_top = dict(left_sig)
    right_top = dict(right_sig)
    contributions = {}
    for q1, q2, q in automaton.delta_by_label.get(label, ()):
        top1 = left_top.get(q1)
        if top1 is None:
            continue
        top2 = right_top.get(q2)
        if top2 is None:
            continue
        contributions.setdefault(q, []).append((q1, top1, q2, top2))

    entries = []
    signature = []
    prod_pairs = []
    prod_index = {}
    left_input_masks = []
    right_input_masks = []
    slot_prod_masks = []
    local_mask = 0
    left_wire = [0] * len(left_slots)
    right_wire = [0] * len(right_slots)
    for state in states:
        contribs = contributions.get(state, ())
        if state in automaton.zero_states:
            is_top = any(top1 and top2 for _q1, top1, _q2, top2 in contribs)
            entries.append((state, TOP if is_top else BOTTOM))
            if is_top:
                signature.append((state, True))
            continue
        if state not in automaton.one_states:
            entries.append((state, BOTTOM))
            continue
        inputs = []
        seen = set()
        has_local = False
        left_mask = right_mask = prod_mask = 0
        union_slot = len(left_input_masks)
        for q1, top1, q2, top2 in contribs:
            if top1 and top2:
                raise CircuitStructureError(f"1-state {state!r} captures the empty assignment")
            if top1:
                descriptor = (_IN_RIGHT, right_slots[q2])
            elif top2:
                descriptor = (_IN_LEFT, left_slots[q1])
            else:
                pair = (left_slots[q1], right_slots[q2])
                prod = prod_index.get(pair)
                if prod is None:
                    prod = len(prod_pairs)
                    prod_index[pair] = prod
                    prod_pairs.append(pair)
                descriptor = (_IN_PROD, prod)
            if descriptor not in seen:
                seen.add(descriptor)
                inputs.append(descriptor)
                source, slot = descriptor
                if source == _IN_LEFT:
                    left_mask |= 1 << slot
                    left_wire[slot] |= 1 << union_slot
                elif source == _IN_RIGHT:
                    right_mask |= 1 << slot
                    right_wire[slot] |= 1 << union_slot
                else:
                    has_local = True
                    prod_mask |= 1 << slot
        if inputs:
            entries.append((state, tuple(inputs)))
            signature.append((state, False))
            if has_local:
                local_mask |= 1 << union_slot
            left_input_masks.append(left_mask)
            right_input_masks.append(right_mask)
            slot_prod_masks.append(prod_mask)
        else:
            entries.append((state, BOTTOM))
    prod_pairs = tuple(prod_pairs)
    return SimpleNamespace(
        entries=tuple(entries),
        prod_pairs=prod_pairs,
        wire_masks=(tuple(left_wire), tuple(right_wire)),
        left_input_masks=tuple(left_input_masks),
        right_input_masks=tuple(right_input_masks),
        local_mask=local_mask,
        signature=tuple(signature),
        enum_tables=(
            (),
            (),
            tuple(a for a, _b in prod_pairs),
            tuple(b for _a, b in prod_pairs),
            tuple(slot_prod_masks),
        ),
        n_unions=len(left_input_masks),
        slot_inputs=tuple(value for _state, value in entries if value.__class__ is tuple),
    )


# --------------------------------------------------------------------------- the boundary
def _as_pairs(signature, states):
    """A library signature, a ``(present mask, ⊤ mask)`` pair of ints over
    canonical state indices, as ``(state, is ⊤)`` pairs in canonical order."""
    present, top = signature
    return tuple(
        (state, bool(top >> i & 1)) for i, state in enumerate(states) if present >> i & 1
    )


_LEAF_FIELDS = ("entries", "var_sets", "local_mask", "slot_var_masks", "n_unions", "slot_inputs")
_INTERNAL_FIELDS = (
    "entries",
    "prod_pairs",
    "wire_masks",
    "left_input_masks",
    "right_input_masks",
    "local_mask",
    "enum_tables",
    "n_unions",
    "slot_inputs",
)


def _assert_same_plan(plan, reference, fields, states):
    for field in fields:
        assert getattr(plan, field) == getattr(reference, field), field
    assert _as_pairs(plan.signature, states) == reference.signature


def _check_cached_plans(automaton):
    """Every plan in the automaton's cache equals the reference's; returns counts."""
    states = _reference_states(automaton)
    cache = automaton._box_plan_cache
    for label, plan in cache["leaf"].items():
        reference = _reference_leaf_plan(automaton, states, label)
        _assert_same_plan(plan, reference, _LEAF_FIELDS, states)
    for (label, left_sig, right_sig), plan in cache["internal"].items():
        reference = _reference_internal_plan(
            automaton, states, label, _as_pairs(left_sig, states), _as_pairs(right_sig, states)
        )
        _assert_same_plan(plan, reference, _INTERNAL_FIELDS, states)
    return len(cache["leaf"]), len(cache["internal"])


# --------------------------------------------------------------------------- drivers
def _query(name):
    return regex_to_wva(_SPANNER, ["a", "b", "c"]) if name == "spanner" else query_for_name(name)


def _fresh_automaton(monkeypatch, name):
    query = _query(name)
    automaton = compiled_automaton_for(query)
    monkeypatch.setattr(automaton, "_box_plan_cache", None, raising=False)  # fresh plans
    return automaton, query


def _drive(name, query):
    """A build plus a 200-edit script: on the 300-node tree, or on a word."""
    if name != "spanner":
        tree = tree_for_experiment(300, "random", seed=13)
        edits = random_edit_sequence(tree, DEFAULT_LABELS, 200, seed=29)
        with Engine() as engine:
            doc = engine.add(tree.copy(), query)
            for edit in edits:
                doc.apply_edits([edit])
        return
    rng = random.Random(41)
    runtime = WordRuntime([rng.choice("abc") for _ in range(300)], query)
    _word_edits(runtime, rng, 200)


def _word_edits(runtime, rng, steps):
    """``steps`` random replaces, inserts and deletes on a word runtime."""
    for _step in range(steps):
        ids = runtime.position_ids()
        op = rng.choice(("replace", "insert_after", "delete"))
        if op == "replace":
            runtime.replace(rng.choice(ids), rng.choice("abc"))
        elif op == "insert_after":
            runtime.insert_after(rng.choice([None] + ids), rng.choice("abc"))
        else:
            runtime.delete(rng.choice(ids))


def _child_box(label, signature, states):
    """A box that carries ``signature``, stamped as the library stamps one:
    from its plan, as the masks of its present and ⊤ states over canonical
    state indices.  ``build_internal_box`` reads nothing else of a child."""
    present = top = 0
    for state, is_top in signature:
        bit = 1 << states.index(state)
        present |= bit
        if is_top:
            top |= bit
    return Box(label, _LeafPlan((), (), 0, (present, top), ()))


def _random_signature(rng, states, zero_states):
    """Any subset of the states, ⊤ exactly on the present 0-states."""
    density = rng.random()
    return tuple((q, q in zero_states) for q in states if rng.random() < density)


AUTOMATA = ("select-a", "descendant", "nondet-6", "spanner")


@pytest.mark.parametrize("name", AUTOMATA)
def test_plans_reached_by_edits_match_the_reference(monkeypatch, name):
    automaton, query = _fresh_automaton(monkeypatch, name)
    _drive(name, query)
    n_leaf, n_internal = _check_cached_plans(automaton)
    assert n_leaf > 0 and n_internal > 0


@pytest.mark.parametrize("name", AUTOMATA)
def test_plans_of_random_signatures_match_the_reference(monkeypatch, name):
    automaton, _query = _fresh_automaton(monkeypatch, name)
    states = _reference_states(automaton)
    labels = sorted(automaton.delta_by_label, key=repr)
    rng = random.Random(f"plans-{name}")
    for _sample in range(500):
        label = rng.choice(labels)
        left_sig = _random_signature(rng, states, automaton.zero_states)
        right_sig = _random_signature(rng, states, automaton.zero_states)
        box = build_internal_box(
            label,
            _child_box(label, left_sig, states),
            _child_box(label, right_sig, states),
            automaton,
        )
        reference = _reference_internal_plan(automaton, states, label, left_sig, right_sig)
        _assert_same_plan(box.plan, reference, _INTERNAL_FIELDS, states)
        assert _as_pairs(box.state_sig, states) == reference.signature
    _check_cached_plans(automaton)  # the cache keys convert back to these signatures


# --------------------------------------------------------------------------- δ order
def _answer_sequences(monkeypatch, automaton, name):
    """Answers before and after a 30-edit script, served by ``automaton``."""
    tree = tree_for_experiment(300, "random", seed=13)
    edits = random_edit_sequence(tree, DEFAULT_LABELS, 30, seed=29)
    query = query_for_name(name)
    # serve this very automaton, from a table of its own for this test
    monkeypatch.setattr(enumerator_module, "_automata", weakref.WeakValueDictionary())
    register_automaton(query_digest(query), automaton)
    runtime = TreeRuntime(tree, query)
    assert runtime.binary_automaton is automaton
    before = [tuple(sorted(answer)) for answer in runtime.assignments()]
    for edit in edits:
        runtime.apply(edit)
    after = [tuple(sorted(answer)) for answer in runtime.assignments()]
    return before, after


@pytest.mark.parametrize("name", ["select-a", "descendant"])
def test_answer_order_ignores_delta_order(monkeypatch, name):
    compiled = compiled_automaton_for(query_for_name(name))
    monkeypatch.setattr(compiled, "_box_plan_cache", None, raising=False)
    reloaded = binary_tva_from_payload(binary_tva_to_payload(compiled))  # δ sorted
    reversed_delta = BinaryTVA(
        compiled.states,
        compiled.variables,
        compiled.initial,
        tuple(reversed(compiled.delta)),
        compiled.final,
    )
    assert reversed_delta.delta != compiled.delta
    sequences = [
        _answer_sequences(monkeypatch, a, name) for a in (compiled, reloaded, reversed_delta)
    ]
    assert sequences[0][0] and sequences[0][1]
    assert sequences[1] == sequences[0]
    assert sequences[2] == sequences[0]

    # the plans behind those sequences do differ, so the check bites
    plans = compiled._box_plan_cache["internal"]
    other = reversed_delta._box_plan_cache["internal"]
    common = [key for key in plans if key in other]
    assert common
    differing = [
        key
        for key in common
        if (plans[key].entries, plans[key].prod_pairs)
        != (other[key].entries, other[key].prod_pairs)
    ]
    assert differing


# --------------------------------------------------------------------------- one automaton
#: sha256 of each compiled query's plan export (canonical JSON) after the
#: 30-edit script, the plan cache empty before the build
PINNED_PLAN_EXPORTS = {
    "select-a": "e7bd886bfb71133559ffecf2138ba9e9fbbec38940a1ea9dd0a90058fd66a572",
    "descendant": "1f640c34af0170ca0e839738c782b648a1ca9c5ba11f36924ef28c6772b67999",
    "nondet-6": "e55a9b5a8104b3cecaad972f9b37eb5af8a8abc514e52f343dd26fc6620111ed",
    "spanner": "7121274fb3471c61d7a47af09dfbd1682fcc992bc68d483b5a0cc5bb2332b3f6",
}

#: a shard worker's way to a compiled query: the catalog entry, loaded by a
#: store; it then replays the script and prints its plan exports
_WORKER = """
import json, sys
from repro.core import enumerator
from repro.engine.catalog import QueryCatalog
from repro.engine.local import LocalStore
from test_plan_oracle import AUTOMATA, _content, _export_digest, _query, _run_script


def refuse(*args):
    raise AssertionError("a worker loads its compiled queries; it never compiles")


enumerator._compile = refuse
store = LocalStore(catalog=QueryCatalog(sys.argv[1]))
exports = {}
for name in AUTOMATA:
    runtime = store.add_document(_content(name), _query(name)).enumerator
    _run_script(runtime, name)
    exports[name] = _export_digest(runtime.binary_automaton)
print(json.dumps(exports))
"""


def _content(name):
    """The 300-node seed-13 tree, or for the spanner a 300-letter word."""
    if name == "spanner":
        rng = random.Random(41)
        return [rng.choice("abc") for _ in range(300)]
    return tree_for_experiment(300, "random", seed=13)


def _run_script(runtime, name):
    """The 30-edit script: random tree edits, or random word edits."""
    if name == "spanner":
        _word_edits(runtime, random.Random(43), 30)
        return
    for edit in random_edit_sequence(runtime.tree, DEFAULT_LABELS, 30, seed=29):
        runtime.apply(edit)


def _export_digest(automaton):
    return hashlib.sha256(canonical_json(export_box_plans(automaton)).encode()).hexdigest()


def _scripted_export(monkeypatch, name):
    automaton, query = _fresh_automaton(monkeypatch, name)
    runtime = (WordRuntime if name == "spanner" else TreeRuntime)(_content(name), query)
    assert runtime.binary_automaton is automaton
    _run_script(runtime, name)
    return _export_digest(automaton)


@pytest.mark.parametrize("name", AUTOMATA)
def test_compiled_automaton_equals_its_payload_reload(name):
    compiled = compiled_automaton_for(_query(name))
    reloaded = binary_tva_from_payload(binary_tva_to_payload(compiled))
    assert compiled.delta == reloaded.delta
    assert compiled.initial == reloaded.initial


@pytest.mark.parametrize("name", AUTOMATA)
def test_plan_exports_are_pinned(monkeypatch, name):
    assert _scripted_export(monkeypatch, name) == PINNED_PLAN_EXPORTS[name]


def test_a_worker_under_another_hash_seed_exports_the_same_plans(monkeypatch, tmp_path):
    catalog = QueryCatalog(str(tmp_path))
    expected = {}
    for name in AUTOMATA:
        catalog.save(_query(name))
        expected[name] = _scripted_export(monkeypatch, name)
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(
        os.environ,
        PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0",
        PYTHONPATH=os.pathsep.join([os.path.join(os.path.dirname(tests_dir), "src"), tests_dir]),
    )
    result = subprocess.run(
        [sys.executable, "-c", _WORKER, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout) == expected
