"""Fleet simulation: N per-user caches against one shared LLM service.

:class:`FleetSimulator` replays a :class:`~repro.serving.workload.Trace`
on a virtual event clock: every arrival is looked up in its user's *local*
cache; misses are forwarded to the shared :class:`SimulatedLLMService` and
(optionally) enrolled.  Events that arrive within one ``batch_window_s`` are
scheduled together — each cache's queries in the window go through a single
``lookup_batch`` call, so the per-query embed/search overhead amortizes the
way a deployed batching frontend would.

The simulator is a façade over the one serving driver: its runs are
:meth:`CacheServer.replay <repro.serving.server.CacheServer.replay>` on a
deterministic one-shard server, the same flush the live threaded server
runs under wall-clock load.  Sharding changes nothing a replay decides or
stores — ``tests/test_serving_parity.py`` and
``tests/test_serving_parity_properties.py`` pin the one-shard replay as the
oracle for every shard count.

Any cache variant rides along: every variant returns
:class:`~repro.core.cache.CacheDecision`, which the executor folds into one
outcome shape (see :class:`LookupOutcome`), and enrolment goes through the
variant's ``enroll`` method.  A ``cache_factory``
returning the *same* object for every user models a central shared cache
(the GPTCache deployment); returning fresh instances models the paper's
per-device fleet.

With the service's default hashed latency jitter, a replayed trace produces
identical per-user results regardless of how fleet traffic interleaves.

The simulator also closes the paper's federated loop online: pass an
:class:`~repro.federated.online.OnlineThresholdAdapter` as ``adaptation`` and
every lookup outcome is mined for labelled pairs, adaptation rounds fire on
the trace's virtual clock between batching windows, and freshly aggregated
per-user thresholds land in each cache's live ``set_threshold`` hook.  Hits
are verified against the workload's intent oracle (the stand-in for the
user-feedback channel), which also powers the fleet-wide ``false_hit_rate``
aggregate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.index.snapshot import (
    SnapshotError,
    atomic_snapshot_dir,
    read_manifest,
    write_manifest,
)
from repro.llm.service import SimulatedLLMService
from repro.serving.scheduling import CacheAdapter, FleetResult
from repro.serving.server import CacheServer, ServerConfig
from repro.serving.workload import Trace

#: Snapshot format tag / version of ``FleetSimulator.checkpoint`` directories.
FLEET_FORMAT = "repro-fleet"
FLEET_VERSION = 1


@dataclass(frozen=True)
class FleetConfig:
    """Fleet scheduling and enrolment knobs.

    Attributes
    ----------
    batch_window_s:
        Width of the virtual batching window: arrivals within one window are
        grouped per cache and classified with one ``lookup_batch`` call
        before any of the window's misses enrol.  Wider windows amortize
        more but defer enrolment visibility to the next window (intra-window
        duplicate misses each pay the LLM); ``0`` batches only simultaneous
        arrivals, approaching sequential semantics.
    enroll_on_miss:
        Whether misses enrol the LLM's response in the user's cache.
    """

    batch_window_s: float = 0.25
    enroll_on_miss: bool = True

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")


class FleetSimulator:
    """Runs a traffic trace over N per-user caches and one shared service."""

    def __init__(
        self,
        cache_factory: Callable[[str], object],
        service: Optional[SimulatedLLMService] = None,
        config: Optional[FleetConfig] = None,
        adaptation: Optional[object] = None,
    ) -> None:
        """``cache_factory(user_id)`` supplies each user's cache instance.

        Return fresh instances for the paper's per-device fleet, or one
        shared object to model a central cache.  The cache's index backend
        is the factory's choice — e.g.
        ``MeanCacheConfig(index_backend="ivf")`` puts every device on
        sublinear approximate search.

        ``adaptation``, when given, closes the federated loop over live
        traffic: an :class:`~repro.federated.online.OnlineThresholdAdapter`
        (or anything with its ``register_user``/``observe``/``advance``
        surface).  The simulator registers each user's cache on first use,
        reports every lookup outcome, and advances the adapter on the
        virtual clock after each batching window so adaptation rounds fire
        deterministically between windows.
        """
        self.cache_factory = cache_factory
        self.service = service or SimulatedLLMService()
        self.config = config or FleetConfig()
        self.adaptation = adaptation
        self.server = CacheServer(
            cache_factory,
            service=self.service,
            config=ServerConfig(
                n_shards=1,
                # A replay offers a whole window before it drains it: no
                # window may be shed.
                max_queue_depth=sys.maxsize,
                enroll_on_miss=self.config.enroll_on_miss,
                deterministic=True,
            ),
            adaptation=adaptation,
        )

    @property
    def caches(self) -> Dict[str, CacheAdapter]:
        """User-id → cache-adapter map of every user served so far."""
        return self.server.adapters

    # ------------------------------------------------------------------ #
    # Checkpoint / warm-start
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: "str | Path") -> Path:
        """Snapshot every live cache so a later fleet can warm-start from it.

        Each distinct cache *object* is saved once (a shared central cache
        produces one snapshot no matter how many users route to it) via its
        ``save(path)`` method, and the manifest maps user ids to snapshot
        subdirectories.  Caches without a ``save`` method (e.g. the keyword
        baseline) raise :class:`~repro.index.SnapshotError`.

        The whole checkpoint directory is staged and published atomically
        (one ``os.replace``): a crash mid-checkpoint over a previous
        checkpoint leaves the old generation intact, and snapshots for
        users the new fleet no longer serves cannot leak into the new one.
        """
        path = Path(path)
        with atomic_snapshot_dir(path) as stage:
            key_of_cache: Dict[int, str] = {}
            users: Dict[str, str] = {}
            for user_id, adapter in self.caches.items():
                key = key_of_cache.get(id(adapter.cache))
                if key is None:
                    key = f"cache_{len(key_of_cache)}"
                    saver = getattr(adapter.cache, "save", None)
                    if saver is None:
                        raise SnapshotError(
                            f"cache for user {user_id!r} "
                            f"({type(adapter.cache).__name__}) has no save() method"
                        )
                    saver(stage / key)
                    key_of_cache[id(adapter.cache)] = key
                users[user_id] = key
            write_manifest(
                stage,
                {"format": FLEET_FORMAT, "version": FLEET_VERSION, "users": users},
            )
        # A cache that keeps a delta log where its snapshot just landed (a
        # restored tiered cache checkpointed in place) rebases it.
        for adapter in self.caches.values():
            published_at = getattr(adapter.cache, "published_at", None)
            if published_at is not None:
                published_at(path / key_of_cache[id(adapter.cache)])
        return path

    def restore(self, path: "str | Path", loader: Callable[[Path], object]) -> None:
        """Warm-start the fleet from a :meth:`checkpoint` directory.

        ``loader(snapshot_dir)`` rebuilds one cache instance — e.g.
        ``lambda p: MeanCache.load(p, encoder)``.  Each snapshot is loaded
        once and shared by every user the manifest maps to it, so a
        checkpointed central cache stays central.  Users not present in the
        checkpoint keep going through ``cache_factory`` on first use.
        """
        path = Path(path)
        manifest = read_manifest(path, FLEET_FORMAT, FLEET_VERSION)
        users = manifest.get("users")
        if not isinstance(users, dict):
            raise SnapshotError(f"fleet checkpoint at {path} has a corrupted user map")
        cache_of_key = {key: loader(path / key) for key in sorted(set(users.values()))}
        for user_id, key in users.items():
            self.server.register(user_id, cache_of_key[key])

    def storage_report(self) -> Dict[str, object]:
        """Fleet-level bytes-vs-hit-rate accounting across every live cache.

        Each distinct cache object is counted once (a shared central cache
        or shared quantized tier does not multiply by its user count), and
        tiered caches contribute a per-tier breakdown — see
        :func:`repro.serving.scheduling.storage_report`.
        """
        return self.server.storage_report()

    def run(self, trace: Trace, collect_outcomes: bool = False) -> FleetResult:
        """Replay ``trace`` through the fleet and aggregate the results.

        Parameters
        ----------
        trace:
            The time-ordered traffic trace (generated or loaded for replay).
        collect_outcomes:
            Also retain every per-event :class:`LookupOutcome` on the result
            (off by default: at fleet scale the aggregate is the product).
        """
        return self.server.replay(trace, self.config.batch_window_s, collect_outcomes)
