"""Table I (contextual queries) and Figures 8 / 9.

Workload (paper §IV-C): the cache is populated with 200 queries — 100
standalone plus 100 follow-ups of those standalone queries (each follow-up is
stored with its context chain).  A probe stream of 250 queries follows: 75
duplicate standalone + 75 duplicate contextual (whose context matches the
cached chain) and 100 non-duplicates, most of which are "context traps" —
follow-ups that look exactly like a cached follow-up but arise under a
different conversation.  A context-oblivious cache false-hits on the traps;
MeanCache's context-chain verification rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.datasets.contextual import ContextualDataset, generate_contextual_dataset
from repro.experiments.common import SystemBundle, cached_system_bundle, resolve_scale
from repro.metrics.classification import ConfusionMatrix, confusion_matrix
from repro.metrics.reporting import format_confusion_matrix, format_metric_comparison


@dataclass
class ContextualSystemEvaluation:
    """Decisions and metrics of one system on the contextual workload."""

    predictions: np.ndarray
    metrics: Dict[str, float]
    matrix: ConfusionMatrix
    trap_false_hits: int = 0


@dataclass
class ContextualResult:
    """Table I (contextual half) + Figures 8/9."""

    dataset: ContextualDataset
    systems: Dict[str, ContextualSystemEvaluation] = field(default_factory=dict)

    def paper_rows(self) -> Dict[str, Dict[str, float]]:
        """Metric dict per system."""
        return {name: ev.metrics for name, ev in self.systems.items()}

    def format(self) -> str:
        """Render the contextual comparison and confusion matrices."""
        parts = [
            format_metric_comparison(
                self.paper_rows(),
                metrics=("f_score", "precision", "recall", "accuracy", "false_hits"),
                title="Table I (contextual queries): MeanCache vs GPTCache",
            )
        ]
        for name, ev in self.systems.items():
            parts.append("")
            parts.append(format_confusion_matrix(ev.matrix, name))
            parts.append(f"false hits on context traps: {ev.trap_false_hits}")
        return "\n".join(parts)


def _evaluate_meancache(
    cache: MeanCache, dataset: ContextualDataset, beta: float
) -> ContextualSystemEvaluation:
    cache.clear()
    for turn in dataset.cached_turns:
        cache.insert(turn.text, f"cached response for: {turn.text}", context=list(turn.context))
    decisions = cache.lookup_batch(
        [probe.text for probe in dataset.probes],
        contexts=[list(probe.context) for probe in dataset.probes],
    )
    predictions = np.array([d.hit for d in decisions], dtype=bool)
    trap_false_hits = sum(
        1
        for probe, decision in zip(dataset.probes, decisions)
        if decision.hit and probe.is_context_trap
    )
    cm = confusion_matrix(dataset.true_labels, predictions)
    return ContextualSystemEvaluation(
        predictions=predictions,
        metrics=cm.metrics(beta),
        matrix=cm,
        trap_false_hits=trap_false_hits,
    )


def run_contextual(
    scale: "str | None" = None,
    seed: int = 0,
    bundle: Optional[SystemBundle] = None,
    beta: float = 0.5,
) -> ContextualResult:
    """Reproduce the contextual-query comparison (Table I right half, Figs 8/9)."""
    resolved = bundle.scale if (bundle is not None and scale is None) else resolve_scale(scale)
    if bundle is None:
        bundle = cached_system_bundle(resolved, seed=seed)
    dataset = generate_contextual_dataset(
        n_standalone_cached=resolved.contextual_cached_standalone,
        n_contextual_cached=resolved.contextual_cached_followups,
        n_duplicate_standalone_probes=resolved.contextual_dup_standalone,
        n_duplicate_contextual_probes=resolved.contextual_dup_contextual,
        n_unique_probes=resolved.contextual_unique,
        corpus=bundle.corpus,
        seed=seed + 200,
    )
    result = ContextualResult(dataset=dataset)

    gpt = MeanCache(bundle.gptcache_encoder(), GPTCACHE_CONFIG)
    result.systems["GPTCache"] = _evaluate_meancache(gpt, dataset, beta)

    mpnet = bundle.meancache_mpnet
    mc = MeanCache(
        mpnet.encoder.clone(),
        MeanCacheConfig(similarity_threshold=mpnet.threshold, verify_context=True),
    )
    result.systems["MeanCache"] = _evaluate_meancache(mc, dataset, beta)

    # Ablation: MeanCache with context verification switched off quantifies
    # how much of the contextual win comes from the chain check itself.
    mc_noctx = MeanCache(
        mpnet.encoder.clone(),
        MeanCacheConfig(similarity_threshold=mpnet.threshold, verify_context=False),
    )
    result.systems["MeanCache (no context check)"] = _evaluate_meancache(mc_noctx, dataset, beta)
    return result
