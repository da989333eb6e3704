"""The live SLO layer: delay budgets and the structured operational event log.

The paper proves enumeration delay is independent of the document size
(Theorem 6.5); production wants that as a *monitored invariant*, not an
offline benchmark.  :class:`DelayMonitor` samples per-answer delay in-flight
— at the mask-stack iterator, under the materialization boundary — records
every sample into a shared histogram, and logs a structured event per
violation of the configured budget.  It never raises: an SLO breach is a
signal, not an error, so a stream under a budget ends as it would without
one, on every transport.

:class:`EventLog` is the bounded ring buffer behind ``Engine.events()``:
shard deaths, timeouts, protocol violations, slow operations, fault-plan
firings, divergence tripwires and delay violations all land here as plain
dicts ``{"kind", "ts", ...fields}``, newest-last, oldest evicted first.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = ["DelayMonitor", "EventLog", "DEFAULT_EVENT_LOG_SIZE"]

#: events retained by an :class:`EventLog` before the oldest are dropped
DEFAULT_EVENT_LOG_SIZE = 256


class EventLog:
    """A bounded ring buffer of structured operational events."""

    __slots__ = ("_events",)

    def __init__(self, capacity: int = DEFAULT_EVENT_LOG_SIZE):
        self._events: deque = deque(maxlen=max(1, capacity))

    def emit(self, kind: str, **fields) -> None:
        """Append one event (wall-clock stamped); oldest evicted past capacity."""
        self._events.append({"kind": kind, "ts": time.time(), **fields})

    def snapshot(self) -> List[Dict[str, object]]:
        """The retained events, oldest first (plain picklable dicts)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class DelayMonitor:
    """Sample per-answer enumeration delay against a budget, in-flight.

    ``observe(seconds)`` is the hook the enumeration layer calls once per
    produced answer (see ``MaskStackEnumeration.on_delay``): the sample is
    recorded into the registry's ``answer_delay_seconds`` histogram and, when
    it exceeds ``budget`` seconds, a ``delay_violation`` event is logged and
    the ``delay_violations`` counter incremented.
    """

    __slots__ = (
        "budget",
        "violations",
        "_metrics",
        "_observe_histogram",
        "_events",
    )

    def __init__(self, budget: float, metrics, events: Optional[EventLog] = None):
        if budget <= 0:
            from repro.errors import EngineError

            raise EngineError(f"the delay budget must be positive, got {budget}")
        self.budget = budget
        self.violations = 0
        self._metrics = metrics
        self._observe_histogram: Callable[[float], None] = metrics.timer(
            "answer_delay_seconds"
        )
        self._events = events

    def observe(self, seconds: float) -> None:
        """Record one per-answer delay sample; log a breach."""
        self._observe_histogram(seconds)
        if seconds <= self.budget:
            return
        self.violations += 1
        self._metrics.inc("delay_violations")
        if self._events is not None:
            self._events.emit(
                "delay_violation", seconds=seconds, budget=self.budget
            )
