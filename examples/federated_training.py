"""Federated fine-tuning of the embedding model (paper §III-A, Figures 2/11/12).

Run with::

    python examples/federated_training.py

Twenty simulated users hold private shards of duplicate / non-duplicate query
pairs.  Each FL round a few of them fine-tune the global encoder locally with
the contrastive + multiple-negatives-ranking objective, search for their
locally-optimal cosine threshold, and send weights + threshold back for
FedAvg aggregation.  The script prints the global model's metrics per round
and finally deploys the trained encoder + learned threshold into a MeanCache
and compares it against the fixed-threshold GPTCache baseline.
"""

from __future__ import annotations

import os

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.datasets.semantic_pairs import generate_cache_workload, generate_pair_dataset
from repro.embeddings.zoo import load_encoder
from repro.experiments.table1 import evaluate_meancache_on_workload
from repro.federated.simulation import FLSimulation, SimulationConfig


# REPRO_SMOKE=1 shrinks the run so CI can execute every example quickly
# (unset or "0" means a full run).
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    # Synthetic "user query history": labelled duplicate / non-duplicate pairs.
    pairs = generate_pair_dataset(
        n_pairs=300 if SMOKE else 1200, duplicate_fraction=0.5, seed=0
    )
    train, val, test = pairs.split(0.7, 0.15, seed=1)

    config = SimulationConfig(
        encoder_name="mpnet-sim",
        n_clients=4 if SMOKE else 10,
        n_rounds=2 if SMOKE else 8,
        clients_per_round=2 if SMOKE else 4,
        local_epochs=1 if SMOKE else 3,
        seed=0,
    )
    print(f"Running FL: {config.n_clients} clients, {config.n_rounds} rounds, "
          f"{config.clients_per_round} sampled per round, {config.local_epochs} local epochs")
    simulation = FLSimulation(train, val, test_data=test, config=config)
    result = simulation.run()

    print("\nround  f1     precision  recall  accuracy  global-tau")
    curves = result.curves
    for i in range(result.n_rounds):
        print(
            f"{int(curves['round'][i]):>5}  "
            f"{curves['f1'][i]:.3f}  {curves['precision'][i]:.3f}      "
            f"{curves['recall'][i]:.3f}   {curves['accuracy'][i]:.3f}     "
            f"{curves['threshold'][i]:.2f}"
        )
    print(f"\nlearned global threshold: {result.final_threshold:.2f}")

    # Deploy: the FL-trained encoder + learned threshold power the local cache.
    trained_encoder = simulation.trained_encoder()
    scale = 100 if SMOKE else 400
    workload = generate_cache_workload(
        n_cached=scale, n_probes=scale, duplicate_fraction=0.3, seed=7
    )

    meancache = MeanCache(
        trained_encoder, MeanCacheConfig(similarity_threshold=result.final_threshold)
    )
    mc_eval = evaluate_meancache_on_workload(meancache, workload)

    gptcache = MeanCache(load_encoder("albert-sim"), GPTCACHE_CONFIG)
    gpt_eval = evaluate_meancache_on_workload(gptcache, workload)

    print("\nEnd-to-end cache decisions on a fresh 400-query workload (30% duplicates):")
    for name, ev in [("MeanCache (FL-trained)", mc_eval), ("GPTCache (baseline)", gpt_eval)]:
        m = ev.metrics
        print(
            f"  {name:<24} F0.5={m['f_score']:.3f}  precision={m['precision']:.3f}  "
            f"recall={m['recall']:.3f}  false hits={int(m['false_hits'])}"
        )


if __name__ == "__main__":
    main()
