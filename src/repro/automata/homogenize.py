"""Homogenization of TVAs (Lemma 2.1).

A state of a TVA is a *0-state* if it can be reached at the root of some tree
under the empty valuation, and a *1-state* if it can be reached under some
non-empty valuation.  The automaton is *homogenized* when every state is
exactly one of the two.  The circuit construction of Lemma 3.7 requires a
homogenized automaton: homogeneity is what guarantees that no gate ``γ(n, q)``
captures both the empty assignment and a non-empty assignment, which in turn
lets the construction avoid using ⊤-gates as inputs.

Following the proof of Lemma 2.1, homogenization is a product of the input
automaton with the two-state automaton that remembers whether a non-empty
annotation has been read, followed by trimming of unreachable states.  The
construction runs in linear time in the automaton and preserves the set of
satisfying assignments (in fact it preserves runs one-to-one).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.automata.binary_tva import BinaryTVA

__all__ = ["homogenize"]


def homogenize(automaton: BinaryTVA) -> BinaryTVA:
    """Return a homogenized TVA equivalent to ``automaton`` (Lemma 2.1).

    States of the result are pairs ``(q, flag)`` where ``flag`` is 1 iff some
    non-empty annotation occurs below.  The result is trimmed, so every state
    of the returned automaton is reachable and is a 0-state xor a 1-state.
    """
    if automaton.is_homogenized():
        return automaton

    initial: List[Tuple[object, frozenset, object]] = []
    for label, var_set, state in automaton.initial:
        flag = 1 if var_set else 0
        initial.append((label, var_set, (state, flag)))

    delta: List[Tuple[object, object, object, object]] = []
    for label, q1, q2, q in automaton.delta:
        for flag1 in (0, 1):
            for flag2 in (0, 1):
                delta.append(
                    (label, (q1, flag1), (q2, flag2), (q, flag1 | flag2))
                )

    states = [(q, flag) for q in automaton.states for flag in (0, 1)]
    final = [(q, flag) for q in automaton.final for flag in (0, 1)]

    product = BinaryTVA(
        states=states,
        variables=automaton.variables,
        initial=initial,
        delta=delta,
        final=final,
        name=f"homogenized({automaton.name})" if automaton.name else "homogenized",
    )
    return product.trim()
