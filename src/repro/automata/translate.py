"""Translation of unranked TVAs and WVAs to binary TVAs on forest-algebra terms.

This is the *transition algebra* construction of Lemma 7.4 (Appendix E) and
its word specialization (Corollary 8.4).  The translated automaton ``A'``
runs on the balanced forest-algebra term ``T'`` built by
:mod:`repro.forest_algebra.encoder`, reading the term alphabet ``Λ'``:

* leaves ``("t", a)`` (a tree node labelled ``a``) and ``("c", a)`` (a node
  labelled ``a`` whose single child is the hole) carry the variable
  annotations of the corresponding tree node;
* internal labels ``concat_HH / concat_HV / concat_VH / apply_VV / apply_VH``
  implement the forest-algebra operations.

States of ``A'``:

* a **forest** term evaluates to a pair ``("H", q1, q2)``: reading the root
  states of the represented forest, the stepwise automaton can go from ``q1``
  to ``q2``;
* a **context** term evaluates to ``("V", q1, q2, q3, q4)``: *if* the forest
  plugged into the hole takes the hole node's child-reading from ``q3`` to
  ``q4``, *then* the context's roots take ``q1`` to ``q2``.

Acceptance uses two fresh states ``q0, qf`` and the extra transitions
``(q0, s, qf)`` for every final state ``s`` of the unranked automaton, so
``A'`` accepts exactly when the root of the represented tree can be assigned
a final state — i.e. ``ω`` is ``A, A'``-faithful in the sense of Lemma 7.4.
The construction yields ``O(|Q|⁴)`` states and ``O(|Q|⁶)`` transitions; the
result is trimmed to its useful states, which in practice shrinks it a lot.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.binary_tva import BinaryTVA
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.forest_algebra.terms import (
    APPLY_VH,
    APPLY_VV,
    CONCAT_HH,
    CONCAT_HV,
    CONCAT_VH,
)

__all__ = ["translate_unranked_tva", "translate_wva", "INITIAL_SENTINEL", "FINAL_SENTINEL"]

#: fresh states added to the unranked automaton to mark acceptance at the root
INITIAL_SENTINEL = ("__root_start__",)
FINAL_SENTINEL = ("__root_accept__",)


def _h(q1: object, q2: object) -> Tuple:
    return ("H", q1, q2)


def _v(q1: object, q2: object, q3: object, q4: object) -> Tuple:
    return ("V", q1, q2, q3, q4)


def translate_unranked_tva(automaton: UnrankedTVA, trim: bool = True) -> BinaryTVA:
    """Translate an unranked stepwise TVA into a binary TVA on term labels (Lemma 7.4).

    The returned automaton reads the ``alphabet_label()`` letters of
    :class:`repro.forest_algebra.terms.TermNode` and has a single final state
    ``("H", q0, qf)``.  Satisfying assignments are preserved through the
    leaf↔node bijection ``φ`` of the encoding.
    """
    base_states = list(automaton.states)
    q0, qf = INITIAL_SENTINEL, FINAL_SENTINEL
    extended: List[object] = base_states + [q0, qf]

    # δ_ext: the stepwise transitions plus the acceptance-marking transitions.
    delta_ext: List[Tuple[object, object, object]] = list(automaton.delta)
    delta_ext.extend((q0, s, qf) for s in automaton.final)
    #: child-state -> list of (from, to) pairs reading that child state
    reading_pairs: Dict[object, List[Tuple[object, object]]] = {}
    for q_from, q_child, q_to in delta_ext:
        reading_pairs.setdefault(q_child, []).append((q_from, q_to))

    initial: List[Tuple[object, FrozenSet[object], object]] = []
    for label, var_set, p in automaton.initial:
        # a_t leaves: a single tree node in state p behaves as a (q1 → q2)
        # segment whenever (q1, p, q2) ∈ δ_ext.
        for q1, q2 in reading_pairs.get(p, ()):
            initial.append((("t", label), var_set, _h(q1, q2)))
    for label, var_set, q3 in automaton.initial:
        # a_□ leaves: q3 is the initial state of the node, q4 the state after
        # reading the plugged forest; reading the node's state q4 at root
        # level gives the (q1 → q2) segment.
        for q4 in extended:
            for q1, q2 in reading_pairs.get(q4, ()):
                initial.append((("c", label), var_set, _v(q1, q2, q3, q4)))

    # Close the leaf-level states under the five forest-algebra operations,
    # generating only transitions whose arguments are reachable bottom-up.
    # The full transition algebra has Θ(|Q|⁶) transitions (the bound of
    # Lemma 7.4); the reachable fragment is what any run on any term can use,
    # so restricting to it preserves the satisfying assignments while keeping
    # the construction practical for product automata.
    reachable: Set[Tuple] = {state for _l, _vs, state in initial}
    delta_set: Set[Tuple[object, object, object, object]] = set()
    worklist: List[Tuple] = list(reachable)

    def combine(left: Tuple, right: Tuple) -> Iterable[Tuple[object, Tuple]]:
        """All (operation label, result state) for the ordered pair (left, right)."""
        results = []
        if left[0] == "H" and right[0] == "H":
            if left[2] == right[1]:
                results.append((CONCAT_HH, _h(left[1], right[2])))
        elif left[0] == "H" and right[0] == "V":
            if left[2] == right[1]:
                results.append((CONCAT_HV, _v(left[1], right[2], right[3], right[4])))
        elif left[0] == "V" and right[0] == "H":
            # ⊕VH: append a forest after a context's roots
            if left[2] == right[1]:
                results.append((CONCAT_VH, _v(left[1], right[2], left[3], left[4])))
            # ⊙VH: plug a forest into the context's hole
            if (left[3], left[4]) == (right[1], right[2]):
                results.append((APPLY_VH, _h(left[1], left[2])))
        elif left[0] == "V" and right[0] == "V":
            if (left[3], left[4]) == (right[1], right[2]):
                results.append((APPLY_VV, _v(left[1], left[2], right[3], right[4])))
        return results

    while worklist:
        state = worklist.pop()
        # pair the new state with every known state, in both argument orders
        for other in list(reachable):
            for first, second in ((state, other), (other, state)):
                for op_label, result in combine(first, second):
                    delta_set.add((op_label, first, second, result))
                    if result not in reachable:
                        reachable.add(result)
                        worklist.append(result)

    final_state = _h(q0, qf)
    all_states = set(reachable) | {state for _l, _vs, state in initial} | {final_state}

    translated = BinaryTVA(
        states=all_states,
        variables=automaton.variables,
        initial=initial,
        delta=delta_set,
        final=[final_state],
        name=f"translated({automaton.name})" if automaton.name else "translated",
    )
    if trim:
        translated = translated.trim_useful()
    return translated


def translate_wva(automaton: WVA, trim: bool = True) -> BinaryTVA:
    """Translate a WVA into a binary TVA on word terms (Corollary 8.4).

    A word is a forest of one-node trees, encoded as a balanced ⊕HH-term
    over one ``("t", a)`` leaf per position
    (:func:`repro.forest_algebra.encoder.encode_fragment`), so only the
    forest half of the transition algebra is needed: the translated automaton
    has ``O(|Q|²)`` states and ``O(|Q|³)`` transitions, as in the corollary.
    """
    states = list(automaton.states)

    initial: List[Tuple[object, FrozenSet[object], object]] = []
    for q, letter, var_set, q_next in automaton.transitions:
        initial.append((("t", letter), var_set, _h(q, q_next)))

    delta: List[Tuple[object, object, object, object]] = []
    for q1, q2, q3 in product(states, repeat=3):
        delta.append((CONCAT_HH, _h(q1, q2), _h(q2, q3), _h(q1, q3)))

    all_states = [_h(a, b) for a, b in product(states, repeat=2)]
    final = [_h(qi, qf) for qi in automaton.initial for qf in automaton.final]

    translated = BinaryTVA(
        states=all_states,
        variables=automaton.variables,
        initial=initial,
        delta=delta,
        final=final,
        name=f"translated({automaton.name})" if automaton.name else "translated_wva",
    )
    if trim:
        translated = translated.trim_useful()
    return translated
