"""Project-specific static analysis + runtime lock-discipline checking.

The repo carries three load-bearing contracts that used to exist only as
prose (``docs/serving.md``, ``docs/analysis.md``):

* the **concurrency contract** — no index backend is thread-safe; locks
  live in the serving adapter layer (shard locks, the shared-L2 lock,
  the quantized tier's own lock);
* the **determinism discipline** — library code never reads wall time or
  global RNG state directly; library state is never stamped with time
  and randomness flows through seeded generators;
* the **crash-safety discipline** — persistence code writes snapshots only
  through the atomic staging helpers in :mod:`repro.index.snapshot`.

This package turns those contracts into checked code:

* :mod:`repro.analysis.engine` — a reusable AST-based lint engine (rule
  registry, ``# repro: ignore[rule-id]`` suppressions, JSON/text
  reporters);
* :mod:`repro.analysis.rules` — the project rules RPL001..RPL005;
* :mod:`repro.analysis.runtime` — the opt-in (``REPRO_DEBUG_CONCURRENCY=1``)
  runtime lock-order and index-ownership tracker the thread-hammer suites
  run under.

Run the engine locally with ``python -m repro.analysis src/repro``; it
exits non-zero on any finding.
"""

from repro.analysis.engine import (
    AnalysisEngine,
    Finding,
    ModuleContext,
    Report,
    Rule,
    default_rules,
)
from repro.analysis.runtime import (
    LockCycleError,
    LockDisciplineError,
    LockOwnershipError,
    TrackedLock,
    debug_enabled,
    guard_cache,
    guard_index,
    maybe_tracked_lock,
    maybe_tracked_rlock,
    reset_registry,
)

__all__ = [
    "AnalysisEngine",
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "default_rules",
    "LockCycleError",
    "LockDisciplineError",
    "LockOwnershipError",
    "TrackedLock",
    "debug_enabled",
    "guard_cache",
    "guard_index",
    "maybe_tracked_lock",
    "maybe_tracked_rlock",
    "reset_registry",
]
