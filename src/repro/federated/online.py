"""Online federated threshold adaptation for the serving fleet (§III-A2 live).

The offline experiments (:mod:`repro.experiments.fig11_12_fl_training`) learn
the cosine admission threshold τ from static labelled pair datasets.  This
module closes the loop for the *serving* fleet: every simulated user device
mines labelled query pairs from its own live traffic, a round driver running
on the fleet's virtual clock periodically samples clients, runs local
threshold sweeps over the mined observations, aggregates the local optima
into a global τ with :func:`~repro.federated.aggregation.aggregate_thresholds`,
and pushes a per-user *personalized* blend of the local and global optima
into each cache's live ``set_threshold`` hook — it replaces the config whose
τ every lookup reads afresh, so the very next probe is admitted under it.

Pair mining (the client-side label source)
------------------------------------------
A device never sees other users' data; its labels come from its own cache
interactions, mirroring the paper's observation that users implicitly verify
cached answers (re-querying the LLM after a bad cached response marks a false
hit):

* **verified hits** — a served hit whose matched entry answers the same
  intent is a positive pair at its served similarity; a *false* hit (the
  user rejected the cached answer) is a negative pair at that similarity;
* **near-threshold misses** — a miss whose best candidate scored within
  ``miss_margin`` below the device's current τ is mined against that
  candidate: positive when the candidate would in fact have answered the
  probe (a duplicate the threshold wrongly rejected), negative otherwise.

In the simulation the verification signal comes from the workload's intent
oracle (the device knows its own intents), standing in for the user-feedback
channel a deployment would use (re-querying after a bad cached answer,
accepting a "did you mean" suggestion).  Unverifiable outcomes are skipped,
and follow-up probes' misses are not mined by default: their admission also
depends on context-chain verification, so a threshold-only label would
overstate what a lower τ could convert.

Each observation keeps the (probe, best-match) texts alongside the served
similarity, so a future online encoder fine-tuning loop can reuse the same
mined pairs; the threshold sweep itself runs directly on the similarities —
they were already computed while serving, so local rounds never re-encode.

Personalization
---------------
``personalization`` blends each device's own latest local optimum with the
global aggregate (``τ_user = λ·τ_local + (1-λ)·τ_global``).  Devices without
enough mined observations (cold-start, churned-in users) serve the global τ
until their history fills — mirroring MeanCache's use of the server threshold
for data-poor clients.  Caches shared by several users (a central deployment)
always receive the plain global τ.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.federated.aggregation import aggregate_thresholds
from repro.federated.sampling import ClientSampler, UniformSampler
from repro.federated.threshold import score_sweep


@dataclass(frozen=True)
class OnlineAdaptationConfig:
    """Knobs of the online adaptation loop.

    Attributes
    ----------
    round_interval_s:
        Virtual seconds between adaptation rounds (the fleet clock drives
        rounds, so replays are deterministic regardless of wall-clock speed).
    clients_per_round:
        Devices sampled per round (the paper samples 4 of 20 for offline FL).
    min_observations:
        A sampled device runs a local sweep only once it holds at least this
        many mined observations *and* both label classes; otherwise it keeps
        its previous local optimum (or the global τ when it has none).
    max_observations:
        Per-device recency window: older mined pairs age out, so adaptation
        chases drift instead of averaging over stale traffic.
    observation_ttl_s:
        Optional age limit (virtual seconds): pairs older than this are
        dropped before each local sweep.  A count window adapts at the pace
        a device accrues observations; the TTL bounds staleness uniformly in
        fleet time, which tracks sharp distribution shifts much faster.
    miss_margin:
        Misses are mined only when their best candidate scored at least
        ``τ - miss_margin`` — the near-threshold band where the admission
        decision was actually contested.
    mine_followup_misses:
        Also mine misses of conversational follow-up probes.  Off by
        default: converting those into hits needs context verification too,
        so their labels overstate the effect of lowering τ alone.
    threshold_grid:
        Number of sweep grid points over [0, 1].
    beta:
        Fβ selection weight for local sweeps (β < 1 favours precision).
    personalization:
        λ of the per-user blend ``λ·τ_local + (1-λ)·τ_global``; 0 serves the
        pure global threshold, 1 the pure local one.
    weighted:
        Weight the global aggregate by per-client observation counts
        (:func:`aggregate_thresholds` ``weighted=True``).
    initial_threshold:
        Global τ before the first round completes (the fleet's cold-start
        value; keep it equal to the caches' configured τ).
    min_threshold, max_threshold:
        Clamp on every pushed τ — a guard rail against degenerate local
        sweeps driving a device to admit everything (τ=0) or nothing (τ=1).
    seed:
        Seed of the default client sampler.
    """

    round_interval_s: float = 30.0
    clients_per_round: int = 4
    min_observations: int = 16
    max_observations: int = 512
    observation_ttl_s: Optional[float] = None
    miss_margin: float = 0.3
    mine_followup_misses: bool = False
    threshold_grid: int = 101
    beta: float = 1.0
    personalization: float = 0.5
    weighted: bool = False
    initial_threshold: float = 0.7
    min_threshold: float = 0.05
    max_threshold: float = 0.98
    seed: int = 0

    def __post_init__(self) -> None:
        if self.round_interval_s <= 0:
            raise ValueError("round_interval_s must be > 0")
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1")
        if self.min_observations < 2:
            raise ValueError("min_observations must be >= 2 (a sweep needs both classes)")
        if self.max_observations < self.min_observations:
            raise ValueError("max_observations must be >= min_observations")
        if self.observation_ttl_s is not None and self.observation_ttl_s <= 0:
            raise ValueError("observation_ttl_s must be > 0")
        if self.miss_margin < 0:
            raise ValueError("miss_margin must be >= 0")
        if self.threshold_grid < 2:
            raise ValueError("threshold_grid must be >= 2")
        if not 0.0 <= self.personalization <= 1.0:
            raise ValueError("personalization must be in [0, 1]")
        if not 0.0 <= self.initial_threshold <= 1.0:
            raise ValueError("initial_threshold must be in [0, 1]")
        if not 0.0 <= self.min_threshold <= self.max_threshold <= 1.0:
            raise ValueError("need 0 <= min_threshold <= max_threshold <= 1")


@dataclass(frozen=True)
class MinedPair:
    """One labelled (probe, best-match) pair mined from live traffic."""

    query: str
    matched_query: Optional[str]
    similarity: float
    label: bool
    time_s: float
    source: str  # "hit" | "miss"


@dataclass
class OnlineRound:
    """Record of one adaptation round (the fleet-side Figures 11/12 analogue)."""

    round_number: int
    time_s: float
    participants: List[str]
    local_thresholds: Dict[str, float]
    global_threshold: float
    n_observations: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (benchmark trajectory payload)."""
        return {
            "round_number": self.round_number,
            "time_s": self.time_s,
            "participants": list(self.participants),
            "local_thresholds": dict(self.local_thresholds),
            "global_threshold": self.global_threshold,
            "n_observations": self.n_observations,
        }


class _DeviceState:
    """Per-user mining buffer plus the latest local sweep optimum."""

    __slots__ = ("cache", "pairs", "local_threshold", "threshold")

    def __init__(self, cache: object, max_observations: int, threshold: float) -> None:
        self.cache = cache
        self.pairs: Deque[MinedPair] = deque(maxlen=max_observations)
        self.local_threshold: Optional[float] = None  # latest sweep optimum
        self.threshold = threshold  # τ currently served by this device

    def sweepable(self, min_observations: int) -> bool:
        """Whether the mined buffer supports a non-degenerate sweep."""
        if len(self.pairs) < min_observations:
            return False
        labels = {p.label for p in self.pairs}
        return len(labels) == 2


class OnlineThresholdAdapter:
    """The fleet-side federated round driver.

    Plug an instance into :class:`~repro.serving.server.CacheServer`
    (``adaptation=``): the server registers each user's cache on first
    use, reports every lookup outcome through :meth:`observe`, and advances
    the clock through :meth:`advance` after each flush (the trace's virtual
    clock in a replay), which runs any due rounds.
    The adapter is deliberately fleet-agnostic — any driver can feed it, and
    it only assumes each cache exposes ``set_threshold`` (``MeanCache`` and
    ``TieredCache`` both do), and every registered cache is pushed to.
    """

    def __init__(
        self,
        config: Optional[OnlineAdaptationConfig] = None,
        sampler: Optional[ClientSampler] = None,
    ) -> None:
        self.config = config or OnlineAdaptationConfig()
        self.sampler = sampler or UniformSampler(seed=self.config.seed)
        self.global_threshold = self.config.initial_threshold
        self.history: List[OnlineRound] = []
        self._devices: Dict[str, _DeviceState] = {}
        self._cache_user_count: Dict[int, int] = {}
        self._next_round_time = self.config.round_interval_s
        self._clock_started = False
        self._round_number = 0

    # ------------------------------------------------------------------ #
    # Fleet-facing surface
    # ------------------------------------------------------------------ #
    def register_user(self, user_id: str, cache: object) -> None:
        """Attach a user's cache; pushes the current τ to late joiners.

        Caches registered for more than one user are treated as shared
        (central) deployments and only ever receive the global τ.
        """
        if user_id in self._devices:
            return
        device = _DeviceState(cache, self.config.max_observations, self.global_threshold)
        self._devices[user_id] = device
        key = id(cache)
        self._cache_user_count[key] = self._cache_user_count.get(key, 0) + 1
        # A device joining mid-run (churn) starts from the fleet's current
        # global τ rather than the cache factory's cold-start default.
        self._push(user_id, device)

    def observe(
        self,
        user_id: str,
        *,
        similarity: float,
        hit: bool,
        verified: Optional[bool] = None,
        followup: bool = False,
        query: str = "",
        matched_query: Optional[str] = None,
        time_s: float = 0.0,
    ) -> None:
        """Mine one lookup outcome into the user's observation buffer.

        ``verified`` is the user-feedback signal: whether the entry this
        probe was (hit) or would have been (miss: the top retrieved
        candidate) served by actually answers the probe.  Unverifiable
        outcomes (``None``) are skipped — the loop learns only from labels
        the device can actually observe.
        """
        if not self._clock_started:
            # Rounds are owed from the first observation on: a live clock
            # reads far from its origin, and the grid points of the idle span
            # before it would otherwise all run in the next advance.
            self._clock_started = True
            interval = self.config.round_interval_s
            first_due = (math.floor(time_s / interval) + 1) * interval
            self._next_round_time = max(self._next_round_time, first_due)
        device = self._devices.get(user_id)
        if device is None or verified is None:
            return
        if hit:
            source = "hit"
        else:
            if similarity < device.threshold - self.config.miss_margin:
                return
            if followup and not self.config.mine_followup_misses:
                return
            source = "miss"
        label = bool(verified)
        device.pairs.append(
            MinedPair(
                query=query,
                matched_query=matched_query,
                similarity=float(similarity),
                label=label,
                time_s=float(time_s),
                source=source,
            )
        )

    def advance(self, now_s: float) -> List[OnlineRound]:
        """Run every round due at or before ``now_s`` on the virtual clock.

        Rounds fall on the multiples of ``round_interval_s``; those before
        the first :meth:`observe` are not owed.
        """
        completed: List[OnlineRound] = []
        while self._next_round_time <= now_s:
            completed.append(self._run_round(self._next_round_time))
            self._next_round_time += self.config.round_interval_s
        return completed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def user_ids(self) -> List[str]:
        """Registered device ids in a stable order."""
        return sorted(self._devices)

    def threshold_for(self, user_id: str) -> float:
        """The τ currently served by ``user_id`` (global τ if unknown)."""
        device = self._devices.get(user_id)
        return device.threshold if device is not None else self.global_threshold

    def mined_pairs(self, user_id: str) -> List[MinedPair]:
        """The user's current observation buffer (oldest first)."""
        device = self._devices.get(user_id)
        return list(device.pairs) if device is not None else []

    def threshold_trajectory(self) -> Dict[str, np.ndarray]:
        """Per-round global-τ series (mirrors ``FLServer.training_curves``)."""
        if not self.history:
            return {}
        return {
            "round": np.array([r.round_number for r in self.history], dtype=np.int64),
            "time_s": np.array([r.time_s for r in self.history]),
            "threshold": np.array([r.global_threshold for r in self.history]),
        }

    # ------------------------------------------------------------------ #
    # Round internals
    # ------------------------------------------------------------------ #
    def _clamp(self, tau: float) -> float:
        return float(
            min(max(tau, self.config.min_threshold), self.config.max_threshold)
        )

    def _push(self, user_id: str, device: _DeviceState) -> None:
        """Recompute and push the user's personalized τ into its cache."""
        cfg = self.config
        if self._cache_user_count.get(id(device.cache), 0) > 1:
            tau = self.global_threshold  # shared central cache: global only
        else:
            local = (
                device.local_threshold
                if device.local_threshold is not None
                else self.global_threshold
            )
            tau = cfg.personalization * local + (1.0 - cfg.personalization) * self.global_threshold
        tau = self._clamp(tau)
        device.threshold = tau
        device.cache.set_threshold(tau)

    def _run_round(self, time_s: float) -> OnlineRound:
        """One federated round: sample → local sweeps → aggregate → push."""
        cfg = self.config
        grid = np.linspace(0.0, 1.0, cfg.threshold_grid)
        participants: List[str] = []
        if self._devices:
            participants = self.sampler.sample(
                self.user_ids, cfg.clients_per_round, self._round_number
            )
        local_thresholds: Dict[str, float] = {}
        counts: List[float] = []
        n_observations = 0
        for uid in participants:
            device = self._devices[uid]
            if cfg.observation_ttl_s is not None:
                cutoff = time_s - cfg.observation_ttl_s
                while device.pairs and device.pairs[0].time_s < cutoff:
                    device.pairs.popleft()
            n_observations += len(device.pairs)
            if not device.sweepable(cfg.min_observations):
                continue
            scores = np.array([p.similarity for p in device.pairs])
            labels = np.array([p.label for p in device.pairs])
            sweep = score_sweep(scores, labels, thresholds=grid, beta=cfg.beta)
            device.local_threshold = sweep.optimal_threshold
            local_thresholds[uid] = sweep.optimal_threshold
            counts.append(float(len(device.pairs)))
        if local_thresholds:
            self.global_threshold = self._clamp(
                aggregate_thresholds(
                    list(local_thresholds.values()),
                    num_samples=counts if cfg.weighted else None,
                    weighted=cfg.weighted,
                )
            )
        # Personalized push to every registered device, participant or not:
        # the global component moved, so every served τ may move with it.
        for uid, device in self._devices.items():
            self._push(uid, device)
        record = OnlineRound(
            round_number=self._round_number,
            time_s=float(time_s),
            participants=participants,
            local_thresholds=local_thresholds,
            global_threshold=self.global_threshold,
            n_observations=n_observations,
        )
        self.history.append(record)
        self._round_number += 1
        return record
