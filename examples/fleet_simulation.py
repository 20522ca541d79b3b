"""Fleet simulation: many user devices, one shared LLM web service.

Run with::

    python examples/fleet_simulation.py

It generates a deterministic multi-user traffic trace (Poisson arrivals,
per-user topic mixes, conversations and paraphrase duplicates), replays it
through a ``CacheServer`` holding one MeanCache per user against one
simulated LLM service, prints the fleet-wide and busiest-user statistics,
then saves the trace to a JSON file and replays it to show the results are
bit-identical — the traffic-replay workflow used to compare cache variants
on equal traffic.  It also checkpoints the fleet's caches and warm-starts a
fresh server from the checkpoint.

Then it closes the paper's federated loop online: the same fleet is
re-run on *drifting* traffic with an ``OnlineThresholdAdapter`` mining
labelled pairs from each device's own lookups and re-learning the cosine
threshold τ in periodic federated rounds on the virtual clock.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import MeanCache, MeanCacheConfig, SimulatedLLMService, load_encoder
from repro.federated.online import OnlineAdaptationConfig, OnlineThresholdAdapter
from repro.llm.service import LLMServiceConfig
from repro.serving import (
    CacheServer,
    DriftPhase,
    ServerConfig,
    Trace,
    WorkloadConfig,
    WorkloadGenerator,
)


def make_server(encoder, adaptation=None) -> CacheServer:
    """A fresh fleet: one MeanCache per user, one shared service, replayed
    deterministically on the trace's timestamps."""
    return CacheServer(
        lambda user_id: MeanCache(encoder, MeanCacheConfig(similarity_threshold=0.78)),
        SimulatedLLMService(LLMServiceConfig(seed=0)),
        ServerConfig(),
        adaptation=adaptation,
    )


# REPRO_SMOKE=1 shrinks the run so CI can execute every example quickly
# (unset or "0" means a full run).
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    # 1. Generate the fleet's traffic: 25 users, 20 queries each, 35% of
    #    queries re-asking (paraphrased) something the user asked before.
    generator = WorkloadGenerator(
        WorkloadConfig(
            n_users=8 if SMOKE else 25,
            queries_per_user=8 if SMOKE else 20,
            duplicate_rate=0.35,
            followup_rate=0.25,
        ),
        seed=0,
    )
    trace = generator.generate()
    print(
        f"trace: {len(trace)} arrivals from {trace.n_users} users over "
        f"{trace.duration_s:.0f} virtual seconds "
        f"({trace.duplicate_fraction:.0%} duplicate traffic)"
    )

    # 2. Replay it through the fleet (every device runs the same encoder).
    encoder = load_encoder("albert-sim")
    server = make_server(encoder)
    result = server.replay(trace)
    print()
    print(result.format())

    # 3. Per-user view: the busiest cache beneficiaries.
    print()
    print("user        lookups  hits  hit rate  mean latency")
    print("-" * 52)
    top = sorted(result.per_user.items(), key=lambda kv: -kv[1].hits)[:5]
    for user_id, stats in top:
        print(
            f"{user_id:<12}{stats.lookups:>6}{stats.hits:>6}"
            f"{stats.hit_rate:>9.0%}{stats.mean_latency_s * 1000:>11.1f} ms"
        )

    # 4. Traffic replay: save the trace, reload it, run an identical fleet —
    #    with hash-derived latency jitter the results match exactly.  Then
    #    checkpoint the fleet's caches and warm-start a fresh server.
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(Path(tmp) / "fleet_trace.json")
        replayed = make_server(encoder).replay(Trace.load(path))
        server.checkpoint(Path(tmp) / "checkpoint")
        warm = make_server(encoder)
        warm.restore(Path(tmp) / "checkpoint", lambda p: MeanCache.load(p, encoder))
    print()
    print(
        "replay from saved trace: "
        f"hit rate {replayed.hit_rate:.3f} (identical: "
        f"{replayed.hit_rate == result.hit_rate and replayed.total_cost_usd == result.total_cost_usd})"
    )
    print(
        f"warm start from checkpoint: {warm.n_users} users, "
        f"{warm.storage_report()['total_entries']} cached entries restored"
    )

    # 5. Online federated threshold adaptation on drifting traffic: halfway
    #    through, users switch to weak paraphrases over broader topic mixes
    #    and re-ask far more — the adapter mines labelled pairs from each
    #    device's own lookups and re-learns per-user τ in periodic rounds.
    drift_trace = WorkloadGenerator(
        WorkloadConfig(
            n_users=8 if SMOKE else 25,
            queries_per_user=16 if SMOKE else 60,
            duplicate_rate=0.35,
            domain_concentration=0.2,
            paraphrase_bias=0.9,
            drift_phases=(
                DriftPhase(
                    start_fraction=0.5,
                    duplicate_rate=0.6,
                    redraw_domain_mix=True,
                    domain_concentration=5.0,
                    paraphrase_bias=0.1,
                ),
            ),
            churn_fraction=0.1,
        ),
        seed=0,
    ).generate()
    adapter = OnlineThresholdAdapter(
        OnlineAdaptationConfig(
            round_interval_s=15.0,
            clients_per_round=8 if SMOKE else 12,
            min_observations=8,
            observation_ttl_s=120.0,
            beta=1.25,
            personalization=0.5,
            initial_threshold=0.78,
            seed=0,
        )
    )
    adaptive = make_server(encoder, adaptation=adapter).replay(drift_trace)
    print()
    print(
        f"online adaptation on drifting traffic: {len(adapter.history)} rounds, "
        f"global τ 0.780 -> {adapter.global_threshold:.3f}; "
        f"hit rate {adaptive.hit_rate:.3f} "
        f"(true {adaptive.true_hit_rate:.3f}, false {adaptive.false_hit_rate:.3f})"
    )
    taus = sorted(adapter.threshold_for(uid) for uid in adapter.user_ids)
    print(f"personalized device thresholds span [{taus[0]:.2f}, {taus[-1]:.2f}]")


if __name__ == "__main__":
    main()
