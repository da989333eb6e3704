"""Per-document enumeration runtimes with update support, result types and
the baselines of Table 1.

The unified public front door is :class:`repro.Engine`;
:class:`TreeRuntime` / :class:`WordRuntime` are its per-document building
blocks."""

from repro.core.enumerator import TreeRuntime, WordRuntime
from repro.core.results import EnumeratorStats, UpdateStats
from repro.core.baselines import (
    BaselineStrategy,
    RecomputeTreeEnumerator,
    RelabelOnlyTreeEnumerator,
)

__all__ = [
    "TreeRuntime",
    "WordRuntime",
    "EnumeratorStats",
    "UpdateStats",
    "BaselineStrategy",
    "RecomputeTreeEnumerator",
    "RelabelOnlyTreeEnumerator",
]
