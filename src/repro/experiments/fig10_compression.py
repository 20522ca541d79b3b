"""Figure 10: embedding compression — storage, search time and F-score.

For cache populations of 1000 / 2000 / 3000 queries, the paper compares
GPTCache, MeanCache (MPNet), MeanCache (Albert) and the PCA-compressed
MeanCache variants on (a) embedding storage, (b) mean semantic-search time per
probe and (c) F-score.  Compression reduces 768-d embeddings to 64 dimensions,
cutting storage by ~83% and speeding up the search, at a small F-score cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.core.compression import compress_cache
from repro.datasets.semantic_pairs import generate_cache_workload
from repro.experiments.common import SystemBundle, cached_system_bundle, resolve_scale
from repro.federated.threshold import find_optimal_threshold
from repro.metrics.classification import confusion_matrix
from repro.metrics.reporting import format_table


@dataclass
class CompressionPoint:
    """One (system, cache size) measurement."""

    system: str
    n_cached: int
    storage_kb: float
    mean_search_time_s: float
    f_score: float
    precision: float
    recall: float
    embedding_dim: int


@dataclass
class Fig10Result:
    """All measured points of Figure 10's three panels."""

    cache_sizes: Sequence[int]
    points: List[CompressionPoint] = field(default_factory=list)

    def series(self, system: str) -> Dict[str, np.ndarray]:
        """Per-panel series for one system, ordered by cache size."""
        pts = sorted((p for p in self.points if p.system == system), key=lambda p: p.n_cached)
        return {
            "n_cached": np.array([p.n_cached for p in pts]),
            "storage_kb": np.array([p.storage_kb for p in pts]),
            "search_time_s": np.array([p.mean_search_time_s for p in pts]),
            "f_score": np.array([p.f_score for p in pts]),
        }

    def systems(self) -> List[str]:
        """All system labels present."""
        return sorted({p.system for p in self.points})

    def storage_saving(self, base: str = "MeanCache (MPNet)", compressed: str = "MeanCache-Compressed (MPNet)") -> float:
        """Fractional embedding-storage saving of the compressed variant."""
        base_series = self.series(base)["storage_kb"]
        comp_series = self.series(compressed)["storage_kb"]
        if base_series.size == 0 or base_series.sum() == 0:
            return 0.0
        return float(1.0 - comp_series.sum() / base_series.sum())

    def search_speedup(self, base: str = "MeanCache (MPNet)", compressed: str = "MeanCache-Compressed (MPNet)") -> float:
        """Relative search-time reduction of the compressed variant."""
        base_series = self.series(base)["search_time_s"]
        comp_series = self.series(compressed)["search_time_s"]
        if base_series.size == 0 or base_series.sum() == 0:
            return 0.0
        return float(1.0 - comp_series.sum() / base_series.sum())

    def format(self) -> str:
        """Render all points as a table."""
        rows = [
            [p.system, p.n_cached, p.embedding_dim, p.storage_kb, p.mean_search_time_s * 1000.0, p.f_score]
            for p in sorted(self.points, key=lambda p: (p.system, p.n_cached))
        ]
        table = format_table(
            ["System", "Cached", "Dim", "Storage (KB)", "Search (ms)", "F score"],
            rows,
            float_fmt="{:.3f}",
            title="Figure 10: storage / search time / F-score vs number of cached queries",
        )
        summary = (
            f"\nEmbedding storage saving (MPNet, compressed): {self.storage_saving():.1%}"
            f"\nSearch-time reduction  (MPNet, compressed): {self.search_speedup():.1%}"
        )
        return table + summary


def _evaluate_cache_point(
    cache: MeanCache,
    system: str,
    workload,
    threshold_pairs,
    beta: float = 0.5,
) -> CompressionPoint:
    """Measure storage, search time and decision quality for one cache."""
    predictions = np.zeros(workload.n_probes, dtype=bool)
    search_times: List[float] = []
    for i, probe in enumerate(workload.probes):
        decision = cache.lookup(probe.text)
        predictions[i] = decision.hit
        search_times.append(decision.search_time_s)
    cm = confusion_matrix(workload.true_labels, predictions)
    metrics = cm.metrics(beta)
    return CompressionPoint(
        system=system,
        n_cached=len(cache),
        storage_kb=cache.embedding_storage_bytes() / 1024.0,
        mean_search_time_s=float(np.mean(search_times)) if search_times else 0.0,
        f_score=metrics["f_score"],
        precision=metrics["precision"],
        recall=metrics["recall"],
        embedding_dim=cache.embedding_dim,
    )


def run_fig10(
    scale: "str | None" = None,
    seed: int = 0,
    bundle: Optional[SystemBundle] = None,
    n_components: int = 64,
    include_albert: bool = True,
    beta: float = 0.5,
) -> Fig10Result:
    """Reproduce Figure 10 (three panels)."""
    resolved = bundle.scale if (bundle is not None and scale is None) else resolve_scale(scale)
    if bundle is None:
        bundle = cached_system_bundle(resolved, seed=seed, train_albert=include_albert)
    cache_sizes = list(resolved.compression_cache_sizes)
    result = Fig10Result(cache_sizes=cache_sizes)

    trained = [("MPNet", bundle.meancache_mpnet)]
    if include_albert and bundle.meancache_albert is not None:
        trained.append(("Albert", bundle.meancache_albert))

    for n_cached in cache_sizes:
        workload = generate_cache_workload(
            n_cached=n_cached,
            n_probes=min(resolved.n_probes, max(2 * n_cached, 50)),
            duplicate_fraction=0.3,
            corpus=bundle.corpus,
            seed=seed + 400 + n_cached,
        )

        # --- GPTCache baseline (uncompressed ALBERT, fixed threshold) ---- #
        gpt = MeanCache(bundle.gptcache_encoder(), GPTCACHE_CONFIG)
        gpt.populate(workload.cached_queries)
        result.points.append(
            _evaluate_cache_point(gpt, "GPTCache", workload, bundle.val_pairs, beta)
        )

        # --- MeanCache variants ------------------------------------------ #
        for label, trained_encoder in trained:
            # Uncompressed.
            mc = MeanCache(
                trained_encoder.encoder.clone(),
                MeanCacheConfig(similarity_threshold=trained_encoder.threshold),
            )
            mc.populate(workload.cached_queries)
            result.points.append(
                _evaluate_cache_point(
                    mc, f"MeanCache ({label})", workload, bundle.val_pairs, beta
                )
            )

            # Compressed: fit PCA on the cached queries, re-learn the
            # threshold on compressed embeddings (the adaptive-threshold
            # mechanism operates on whatever embedding space is deployed).
            mc_comp = MeanCache(
                trained_encoder.encoder.clone(),
                MeanCacheConfig(similarity_threshold=trained_encoder.threshold),
            )
            mc_comp.populate(workload.cached_queries)
            k = min(n_components, max(2, len(mc_comp) - 1))
            compress_cache(mc_comp, n_components=k)
            compressed_threshold = find_optimal_threshold(
                mc_comp.encoder,
                bundle.val_pairs.as_tuples(),
                beta=beta,
                default=trained_encoder.threshold,
            )
            mc_comp.set_threshold(compressed_threshold)
            result.points.append(
                _evaluate_cache_point(
                    mc_comp, f"MeanCache-Compressed ({label})", workload, bundle.val_pairs, beta
                )
            )
    return result
