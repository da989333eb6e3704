"""Top-level enumeration on an assignment circuit (Theorem 6.5).

``CircuitEnumerator`` bundles an assignment circuit, its index and the
duplicate-free enumeration of Sections 5–6 into the object the rest of the
library uses:

* preprocessing = building the index (:func:`repro.enumeration.index.build_index`),
* ``assignments()`` enumerates the satisfying assignments of the automaton on
  the tree the circuit was built for: the boxed set of the final states' root
  gates, plus the empty assignment when a final 0-state gate is ⊤.  On the
  default ``bitset`` backend with the index built this is the mask-native
  path of :mod:`repro.enumeration.duplicate_free`; the ``pairs`` oracle
  backend, and enumeration without the index, run its generic path,
* ``delay_probe()`` is a measurement helper used by the benchmarks: it
  reports the per-answer wall-clock delays.

The same class is reused unchanged by the incremental pipeline: after an
update rebuilds the trunk boxes and their index entries, a fresh
``CircuitEnumerator`` view over the (new) root box restarts enumeration, as
the paper's update model prescribes.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.assignments import EMPTY_ASSIGNMENT, Assignment
from repro.circuits.gates import BOTTOM, TOP, AssignmentCircuit, Box, UnionGate
from repro.enumeration.box_enum import indexed_box_enum, naive_box_enum
from repro.enumeration.duplicate_free import enumerate_boxed_masks, enumerate_boxed_set
from repro.enumeration.index import build_index
from repro.enumeration.relations import DEFAULT_BACKEND, validate_backend

__all__ = ["CircuitEnumerator", "root_boxed_set"]


def root_boxed_set(root_box: Box, final_states) -> Tuple[List[UnionGate], bool]:
    """The boxed set of final-state root gates and the empty-answer flag.

    The boxed set contains the gates ``γ(root, q)`` that are ∪-gates for
    final states ``q``; the flag is ``True`` when some final state's root
    gate is ⊤, i.e. when the empty assignment is an answer.  Shared by
    :class:`CircuitEnumerator` and the serving layer's cursors so the two
    can never diverge on empty-answer/dedup semantics.
    """
    gates: List[UnionGate] = []
    empty_answer = False
    seen = set()
    for state in final_states:
        gate = root_box.state_gate.get(state, BOTTOM)
        if gate is TOP:
            empty_answer = True
        elif gate is not BOTTOM and id(gate) not in seen:
            seen.add(id(gate))
            gates.append(gate)
    return gates, empty_answer


class CircuitEnumerator:
    """Enumerate the satisfying assignments captured by an assignment circuit."""

    def __init__(
        self,
        circuit: AssignmentCircuit,
        use_index: bool = True,
        relation_backend: Optional[str] = None,
        build: bool = True,
    ):
        self.circuit = circuit
        self.use_index = use_index
        if relation_backend is not None:
            validate_backend(relation_backend)
        self.relation_backend = relation_backend
        #: optional per-answer delay hook (seconds per produced answer); set
        #: by the serving layer's DelayMonitor.  ``None`` (default) leaves the
        #: enumeration loops untouched.
        self.on_delay: Optional[Callable[[float], None]] = None
        if use_index and build:
            self.preprocess()

    # ------------------------------------------------------------ preprocessing
    def preprocess(self) -> None:
        """Build the index of Definition 6.1 over the whole circuit (Lemma 6.3)."""
        build_index(self.circuit, relation_backend=self.relation_backend)

    # -------------------------------------------------------------- enumeration
    def _box_enum(self):
        """The box-enumeration procedure, bound to this enumerator's backend.

        Threading ``relation_backend`` into the initial Γ-relation keeps the
        *entire* enumeration-time composition chain on the requested backend
        (a composition with a ``bitset`` operand is a ``bitset`` relation,
        so a default-backend Γ would silently convert the chain).
        """
        procedure = indexed_box_enum if self.use_index else naive_box_enum
        return partial(procedure, backend=self.relation_backend)

    def _use_mask_path(self) -> bool:
        """True when enumeration should run the mask-native fast path.

        The mask path *is* the bitset composition chain (word-parallel
        Γ-position masks), so it is taken exactly when the indexed procedure
        runs on the ``bitset`` backend; a ``pairs`` request keeps the generic
        relation-based chain, the oracle the mask path is tested against and
        that the backend ablation (experiment E10) measures.
        """
        return self.use_index and (self.relation_backend or DEFAULT_BACKEND) == "bitset"

    def root_boxed_set(self, final_states: Optional[Sequence[object]] = None) -> Tuple[List[UnionGate], bool]:
        """Return the boxed set of final-state root gates and the empty-answer flag.

        The boxed set contains the gates ``γ(root, q)`` that are ∪-gates for
        final states ``q``; the flag is ``True`` when some final state's root
        gate is ⊤, i.e. when the empty assignment is an answer.
        """
        states = self.circuit.automaton.final if final_states is None else final_states
        return root_boxed_set(self.circuit.root_box, states)

    def assignments(self, final_states: Optional[Sequence[object]] = None) -> Iterator[Assignment]:
        """Enumerate the satisfying assignments, without duplicates.

        The empty assignment (if it is an answer) is produced first, then the
        non-empty assignments with the delay guarantees of Theorem 6.5.
        """
        gates, empty_answer = self.root_boxed_set(final_states)
        if empty_answer:
            yield EMPTY_ASSIGNMENT
        if not gates:
            return
        on_delay = self.on_delay
        if self._use_mask_path():
            # Mask-native fast path: Assignment objects are materialized at
            # this boundary; the position-mask provenance is dropped unread
            # (never converted to a gate set).
            iterator = enumerate_boxed_masks(gates)
            if on_delay is not None:
                iterator.on_delay = on_delay
            for assignment, _mask in iterator:
                yield assignment
        elif on_delay is None:
            for assignment, _provenance in enumerate_boxed_set(gates, self._box_enum()):
                yield assignment
        else:
            source = iter(enumerate_boxed_set(gates, self._box_enum()))
            while True:
                start = time.perf_counter()
                try:
                    assignment, _provenance = next(source)
                except StopIteration:
                    return
                on_delay(time.perf_counter() - start)
                yield assignment

    # -------------------------------------------------------------- measurement
    def delay_probe(self, max_answers: Optional[int] = None) -> List[float]:
        """Return the wall-clock delay (seconds) before each produced answer.

        Index 0 is the time to the first answer; used by the delay benchmarks
        (experiment E3) to check that delays do not grow with the tree.
        """
        delays: List[float] = []
        last = time.perf_counter()
        for _ in self.assignments():
            now = time.perf_counter()
            delays.append(now - last)
            last = now
            if max_answers is not None and len(delays) >= max_answers:
                break
        return delays
