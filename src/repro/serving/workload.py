"""Deterministic multi-user workload generation (the fleet's traffic source).

The paper's setting is a *fleet* of user devices, each running a local
MeanCache in front of one shared LLM web service.  :class:`WorkloadGenerator`
produces that fleet's traffic as a :class:`Trace` — a time-ordered stream of
:class:`WorkloadEvent` arrivals — from a handful of seeded stochastic knobs:

* **arrival process** — each user emits queries as an independent Poisson
  process (exponential inter-arrival times at ``arrival_rate_qps``);
* **per-user query mix** — every user draws a Dirichlet preference vector
  over the corpus domains, so users have distinct topical habits;
* **conversations** — with probability ``followup_rate`` a query continues
  the user's current conversation and carries its context chain;
* **duplicates** — with probability ``duplicate_rate`` a query re-asks (as a
  fresh paraphrase) an intent from the user's own history: the traffic that
  a local semantic cache should convert into hits.

Everything derives from ``(seed, user_index)`` so a trace is reproducible
event-for-event, and traces serialize to/from JSON for **traffic replay**:
record once, re-run against any cache variant or fleet configuration.

**Non-stationary scenarios.**  Real fleet traffic drifts; the online
federated adaptation loop (:mod:`repro.federated.online`) needs something to
chase.  :class:`DriftPhase` entries on ``WorkloadConfig.drift_phases`` apply
mid-stream overrides to every user — paraphrase/duplicate-rate shifts and
domain-mix drift (each user re-draws its Dirichlet preference vector, so the
topical mix of its traffic — and with it the hard-negative density its cache
faces — changes) — while ``churn_fraction`` replaces a share of the users
mid-stream with cold-start successors (fresh id, empty history, new domain
mix).  A config without drift knobs generates streams identical to the
stationary generator, so existing traces and benchmarks are unaffected.

**Arrival schedules.**  :class:`ArrivalSchedule` layers diurnal cycles and
flash crowds on the Poisson arrivals as a pure time-warp of the drawn
arrival times (inhomogeneous-Poisson time rescaling).  The warp runs after
generation and consumes no RNG draws, so schedules can never perturb the
seeded query contents — the structural guarantee the arrival-scenario
check in ``tests/test_scenarios.py`` relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.corpus import Corpus


@dataclass(frozen=True)
class WorkloadEvent:
    """One query arrival in the fleet trace."""

    time_s: float
    user_id: str
    query: str
    context: Tuple[str, ...] = ()
    is_followup: bool = False
    kind: str = "unique"  # "unique" | "duplicate"
    intent_key: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the replay file format)."""
        return {
            "time_s": self.time_s,
            "user_id": self.user_id,
            "query": self.query,
            "context": list(self.context),
            "is_followup": self.is_followup,
            "kind": self.kind,
            "intent_key": self.intent_key,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time_s=float(data["time_s"]),
            user_id=str(data["user_id"]),
            query=str(data["query"]),
            context=tuple(data.get("context", ())),
            is_followup=bool(data.get("is_followup", False)),
            kind=str(data.get("kind", "unique")),
            intent_key=str(data.get("intent_key", "")),
        )


@dataclass
class Trace:
    """A time-ordered fleet traffic trace (the replayable artefact)."""

    events: List[WorkloadEvent]
    n_users: int
    seed: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def duration_s(self) -> float:
        """Virtual time of the last arrival."""
        return self.events[-1].time_s if self.events else 0.0

    @property
    def user_ids(self) -> List[str]:
        """Distinct users appearing in the trace (sorted)."""
        return sorted({e.user_id for e in self.events})

    def events_for_user(self, user_id: str) -> List[WorkloadEvent]:
        """This user's arrivals, in time order."""
        return [e for e in self.events if e.user_id == user_id]

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of events re-asking an intent from the user's history."""
        if not self.events:
            return 0.0
        return sum(e.kind == "duplicate" for e in self.events) / len(self.events)

    # ------------------------------------------------------------------ #
    # Replay serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of the whole trace."""
        return {
            "n_users": self.n_users,
            "seed": self.seed,
            "metadata": dict(self.metadata),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Trace":
        """Inverse of :meth:`to_dict`.

        Events are re-sorted by arrival time, so hand-edited or merged
        replay files are normalised back to a valid time-ordered stream.
        """
        events = [WorkloadEvent.from_dict(e) for e in data["events"]]
        events.sort(key=lambda e: (e.time_s, e.user_id))
        return cls(
            events=events,
            n_users=int(data["n_users"]),
            seed=int(data.get("seed", 0)),
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, path: "str | Path") -> Path:
        """Write the trace as JSON (the traffic-replay file)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class ArrivalSchedule:
    """Deterministic rate profile layered on the Poisson arrival process.

    The stationary generator draws each user's arrivals as a *homogeneous*
    Poisson process.  A schedule reshapes those arrival times into an
    inhomogeneous process — diurnal load cycles, flash crowds — through the
    time-rescaling identity: a homogeneous arrival at virtual time ``u``
    lands at the warped time ``t`` solving ``∫₀ᵗ m(s) ds = u``, where
    ``m(t)`` is the schedule's rate multiplier.  Where ``m`` is large
    (peak hours, a flash crowd) arrivals compress together; where it is
    small they spread out.

    The warp is a pure, monotone transform of *already-drawn* times: it
    consumes no RNG draws and never touches event contents, so layering,
    changing or removing a schedule cannot perturb the per-user seeded
    query stream (``tests/test_serving.py`` pins that invariant with a
    golden digest).

    Attributes
    ----------
    kind:
        ``"constant"`` (identity), ``"diurnal"`` (sinusoidal load cycle) or
        ``"flash_crowd"`` (a rate spike over one interval).
    period_s:
        Diurnal cycle length in virtual seconds.
    amplitude:
        Diurnal multiplier swing: ``m(t) = 1 + amplitude·sin(2πt/period)``,
        so the rate oscillates in ``[1-amplitude, 1+amplitude]``; must stay
        below 1.0 to keep the intensity positive.
    flash_at_s, flash_duration_s, flash_multiplier:
        Flash-crowd window: between ``flash_at_s`` and
        ``flash_at_s + flash_duration_s`` the arrival rate is multiplied by
        ``flash_multiplier`` (≥ 1), compressing that interval's arrivals
        into a burst.
    """

    kind: str = "constant"
    period_s: float = 600.0
    amplitude: float = 0.6
    flash_at_s: float = 120.0
    flash_duration_s: float = 60.0
    flash_multiplier: float = 8.0

    #: grid points used for the numeric inversion of the cumulative rate
    _GRID_POINTS = 8193

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "diurnal", "flash_crowd"):
            raise ValueError(f"unknown arrival schedule kind: {self.kind!r}")
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.flash_at_s < 0:
            raise ValueError("flash_at_s must be >= 0")
        if self.flash_duration_s <= 0:
            raise ValueError("flash_duration_s must be > 0")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1")

    def rate_multiplier(self, times_s: "np.ndarray | float") -> np.ndarray:
        """The instantaneous rate multiplier ``m(t)`` (vectorized)."""
        t = np.asarray(times_s, dtype=np.float64)
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_s)
        if self.kind == "flash_crowd":
            in_flash = (t >= self.flash_at_s) & (
                t < self.flash_at_s + self.flash_duration_s
            )
            return np.where(in_flash, self.flash_multiplier, 1.0)
        return np.ones_like(t)

    def warp(self, times_s: Sequence[float]) -> np.ndarray:
        """Map homogeneous arrival times onto the schedule's clock.

        Solves ``Λ(t) = u`` for each input time ``u`` on a dense grid
        (``Λ`` is the cumulative rate multiplier), preserving order — the
        warp is strictly monotone because ``m(t) > 0`` everywhere.
        """
        times = np.asarray(times_s, dtype=np.float64)
        if self.kind == "constant" or times.size == 0:
            return times.copy()
        floor = 1.0 - self.amplitude if self.kind == "diurnal" else 1.0
        horizon = float(times.max()) / floor * 1.001 + 1.0
        grid = np.linspace(0.0, horizon, self._GRID_POINTS)
        m = self.rate_multiplier(grid)
        steps = np.diff(grid)
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * steps)]
        )
        return np.interp(times, cumulative, grid)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (stored in trace metadata)."""
        return {
            "kind": self.kind,
            "period_s": self.period_s,
            "amplitude": self.amplitude,
            "flash_at_s": self.flash_at_s,
            "flash_duration_s": self.flash_duration_s,
            "flash_multiplier": self.flash_multiplier,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalSchedule":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(data.get("kind", "constant")),
            period_s=float(data.get("period_s", 600.0)),
            amplitude=float(data.get("amplitude", 0.6)),
            flash_at_s=float(data.get("flash_at_s", 120.0)),
            flash_duration_s=float(data.get("flash_duration_s", 60.0)),
            flash_multiplier=float(data.get("flash_multiplier", 8.0)),
        )


def apply_arrival_schedule(trace: "Trace", schedule: ArrivalSchedule) -> "Trace":
    """Re-time an existing trace under an arrival schedule.

    Returns a new :class:`Trace` whose events carry warped arrival times
    (contents untouched), re-sorted into the fleet's global time order; the
    schedule is recorded in the trace metadata.  Because the warp is a pure
    function of time, applying a schedule to a generated trace and
    generating with ``WorkloadConfig.arrival_schedule`` set produce the
    same result — the former is what scenario baselines use to compare one
    stream with and without its schedule.
    """
    times = schedule.warp([e.time_s for e in trace.events])
    events = [
        replace(event, time_s=float(t)) for event, t in zip(trace.events, times)
    ]
    events.sort(key=lambda e: (e.time_s, e.user_id))
    return Trace(
        events=events,
        n_users=trace.n_users,
        seed=trace.seed,
        metadata={**trace.metadata, "arrival_schedule": schedule.to_dict()},
    )


@dataclass(frozen=True)
class DriftPhase:
    """One mid-stream shift of the traffic distribution.

    Applies to every (non-churned-out) user from the query at
    ``start_fraction`` of its stream onward; unset fields keep the previous
    phase's value.

    Attributes
    ----------
    start_fraction:
        Position in each user's stream, as a fraction of
        ``queries_per_user`` in [0, 1], at which the overrides take effect.
    duplicate_rate:
        New probability of paraphrase re-asks (the paraphrase-rate shift).
    redraw_domain_mix:
        Re-draw the user's Dirichlet domain-preference vector — the user's
        topical habits drift to a new mix.
    domain_concentration:
        Dirichlet concentration used for re-draws from this phase on
        (defaults to the config's base concentration).
    paraphrase_bias:
        New canonical-object bias for query realisation (paraphrase-style
        drift): near 1.0 re-asks share the distinctive noun phrase and score
        high; near 0.0 they are weak paraphrases whose similarities — and
        with them the optimal admission threshold — shift down.
    """

    start_fraction: float
    duplicate_rate: Optional[float] = None
    redraw_domain_mix: bool = False
    domain_concentration: Optional[float] = None
    paraphrase_bias: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction <= 1.0:
            raise ValueError("start_fraction must be in [0, 1]")
        if self.duplicate_rate is not None and not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if self.domain_concentration is not None and self.domain_concentration <= 0:
            raise ValueError("domain_concentration must be > 0")
        if self.paraphrase_bias is not None and not 0.0 <= self.paraphrase_bias <= 1.0:
            raise ValueError("paraphrase_bias must be in [0, 1]")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (stored in trace metadata)."""
        return {
            "start_fraction": self.start_fraction,
            "duplicate_rate": self.duplicate_rate,
            "redraw_domain_mix": self.redraw_domain_mix,
            "domain_concentration": self.domain_concentration,
            "paraphrase_bias": self.paraphrase_bias,
        }


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the fleet traffic model.

    Attributes
    ----------
    n_users:
        Number of simulated user devices.
    queries_per_user:
        Arrivals generated per user.
    arrival_rate_qps:
        Per-user Poisson arrival rate (queries per virtual second).
    duplicate_rate:
        Probability a query re-asks (paraphrased) an intent from the user's
        own history — the cacheable fraction of the traffic.
    followup_rate:
        Probability a query continues the user's current conversation
        (carrying a context chain) rather than starting a fresh one.
    max_context_depth:
        Parent queries kept in a follow-up's context chain.
    domain_concentration:
        Dirichlet concentration of each user's domain-preference vector
        (lower = more specialised users).
    paraphrase_bias:
        Base canonical-object bias of query realisation (``None`` keeps the
        corpus default of 0.45); see :class:`DriftPhase.paraphrase_bias`.
    drift_phases:
        Mid-stream distribution shifts (see :class:`DriftPhase`), applied in
        ascending ``start_fraction`` order.  Empty = stationary traffic.
    churn_fraction:
        Probability that a user churns: at ``churn_point`` of its stream the
        device disappears and a cold-start successor (fresh id ``<uid>-r``,
        empty history, re-drawn domain mix) takes over its arrival slots.
    churn_point:
        Stream fraction at which churned users are replaced.
    arrival_schedule:
        Optional :class:`ArrivalSchedule` layered on the Poisson arrivals
        (diurnal cycles, flash crowds).  Applied as a pure time-warp *after*
        all per-user streams are drawn, so it can never perturb the seeded
        query contents; ``None`` keeps homogeneous arrivals.
    """

    n_users: int = 10
    queries_per_user: int = 20
    arrival_rate_qps: float = 0.2
    duplicate_rate: float = 0.3
    followup_rate: float = 0.25
    max_context_depth: int = 3
    domain_concentration: float = 1.0
    paraphrase_bias: Optional[float] = None
    drift_phases: Tuple[DriftPhase, ...] = ()
    churn_fraction: float = 0.0
    churn_point: float = 0.5
    arrival_schedule: Optional[ArrivalSchedule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_phases", tuple(self.drift_phases))
        starts = [p.start_fraction for p in self.drift_phases]
        if starts != sorted(starts):
            raise ValueError("drift_phases must be in ascending start_fraction order")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be in [0, 1]")
        if not 0.0 <= self.churn_point <= 1.0:
            raise ValueError("churn_point must be in [0, 1]")
        if self.paraphrase_bias is not None and not 0.0 <= self.paraphrase_bias <= 1.0:
            raise ValueError("paraphrase_bias must be in [0, 1]")
        if self.n_users < 1 or self.queries_per_user < 1:
            raise ValueError("n_users and queries_per_user must be >= 1")
        if self.arrival_rate_qps <= 0:
            raise ValueError("arrival_rate_qps must be > 0")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if not 0.0 <= self.followup_rate <= 1.0:
            raise ValueError("followup_rate must be in [0, 1]")
        if self.max_context_depth < 1:
            raise ValueError("max_context_depth must be >= 1")
        if self.domain_concentration <= 0:
            raise ValueError("domain_concentration must be > 0")


class WorkloadGenerator:
    """Generates deterministic fleet traffic traces.

    Every user's stream derives from ``(seed, user_index)`` alone, so traces
    are reproducible regardless of generation order and stable across runs.
    """

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        corpus: Optional[Corpus] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or WorkloadConfig()
        self.seed = seed
        self.corpus = corpus or Corpus(seed=seed)
        self._domains = list(self.corpus.domains)
        self._domain_intents = {
            d: self.corpus.intents_for_domain(d) for d in self._domains
        }

    # ------------------------------------------------------------------ #
    def user_id(self, user_index: int) -> str:
        """Canonical id of the ``user_index``-th simulated device."""
        return f"user-{user_index:05d}"

    def _user_rng(self, user_index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, user_index]))

    def _user_events(self, user_index: int) -> List[WorkloadEvent]:
        """One user's whole arrival stream (independent of other users).

        Drift knobs consume RNG draws only when configured, so a config
        without them generates a stream identical to the stationary
        generator's.
        """
        cfg = self.config
        rng = self._user_rng(user_index)
        uid = self.user_id(user_index)
        mix = rng.dirichlet(np.full(len(self._domains), cfg.domain_concentration))
        duplicate_rate = cfg.duplicate_rate
        concentration = cfg.domain_concentration
        paraphrase_bias = cfg.paraphrase_bias
        # Fractions map to query indices clamped into the stream, so a
        # boundary of 1.0 still applies (from the final query) instead of
        # silently falling past the loop.  Phases that land on the same
        # index are all applied, in order — each one's unset fields keep the
        # previous phase's value, exactly as for distinct indices.
        last_index = cfg.queries_per_user - 1
        phase_starts: Dict[int, List[DriftPhase]] = {}
        for p in cfg.drift_phases:
            index = min(int(round(p.start_fraction * cfg.queries_per_user)), last_index)
            phase_starts.setdefault(index, []).append(p)
        churn_index = None
        if cfg.churn_fraction > 0 and rng.random() < cfg.churn_fraction:
            churn_index = min(
                int(round(cfg.churn_point * cfg.queries_per_user)), last_index
            )

        events: List[WorkloadEvent] = []
        history: List = []  # intents the user has asked before
        conversation: List[str] = []  # current conversation's turns
        t = 0.0
        for q_index in range(cfg.queries_per_user):
            for phase in phase_starts.get(q_index, ()):
                if phase.duplicate_rate is not None:
                    duplicate_rate = phase.duplicate_rate
                if phase.domain_concentration is not None:
                    concentration = phase.domain_concentration
                if phase.paraphrase_bias is not None:
                    paraphrase_bias = phase.paraphrase_bias
                if phase.redraw_domain_mix:
                    mix = rng.dirichlet(np.full(len(self._domains), concentration))
            if churn_index is not None and q_index == churn_index:
                # The device churns out; its arrival slots continue under a
                # cold-start successor with no history and fresh habits.
                uid = f"{uid}-r"
                history = []
                conversation = []
                mix = rng.dirichlet(np.full(len(self._domains), concentration))
            t += float(rng.exponential(1.0 / cfg.arrival_rate_qps))
            is_followup = bool(conversation) and bool(rng.random() < cfg.followup_rate)
            if not is_followup:
                conversation = []
            if history and rng.random() < duplicate_rate:
                intent = history[int(rng.integers(len(history)))]
                kind = "duplicate"
            else:
                domain = self._domains[int(rng.choice(len(self._domains), p=mix))]
                pool = self._domain_intents[domain]
                intent = pool[int(rng.integers(len(pool)))]
                kind = "unique"
            text = self.corpus.realize(intent, rng=rng, object_bias=paraphrase_bias)
            context = (
                tuple(conversation[-cfg.max_context_depth :]) if is_followup else ()
            )
            events.append(
                WorkloadEvent(
                    time_s=t,
                    user_id=uid,
                    query=text,
                    context=context,
                    is_followup=is_followup,
                    kind=kind,
                    intent_key=intent.key,
                )
            )
            history.append(intent)
            conversation.append(text)
        return events

    def generate(self) -> Trace:
        """Generate the whole fleet's trace, merged into one time-ordered stream."""
        cfg = self.config
        all_events: List[WorkloadEvent] = []
        for user_index in range(cfg.n_users):
            all_events.extend(self._user_events(user_index))
        # Stable, fully deterministic global order: by arrival time, then by
        # user id (two users never share an id, and one user's events already
        # arrive in increasing time).
        all_events.sort(key=lambda e: (e.time_s, e.user_id))
        trace = Trace(
            events=all_events,
            n_users=cfg.n_users,
            seed=self.seed,
            metadata={
                "queries_per_user": cfg.queries_per_user,
                "arrival_rate_qps": cfg.arrival_rate_qps,
                "duplicate_rate": cfg.duplicate_rate,
                "followup_rate": cfg.followup_rate,
                "max_context_depth": cfg.max_context_depth,
                "domain_concentration": cfg.domain_concentration,
                "paraphrase_bias": cfg.paraphrase_bias,
                "drift_phases": [p.to_dict() for p in cfg.drift_phases],
                "churn_fraction": cfg.churn_fraction,
                "churn_point": cfg.churn_point,
            },
        )
        # The schedule is layered on as a pure time-warp of the finished
        # stream (and recorded in metadata only when set, so stationary
        # traces stay byte-identical to pre-schedule generators).
        if cfg.arrival_schedule is not None:
            trace = apply_arrival_schedule(trace, cfg.arrival_schedule)
        return trace
