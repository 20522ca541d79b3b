"""Table I (standalone queries) and Figure 7 confusion matrices.

Workload (paper §IV-B): 1000 queries are pre-loaded into each cache; a fresh
probe stream of 1000 queries follows, 30% of which are paraphrases of cached
queries (ground truth: hit) and 70% are new (ground truth: miss).  Systems
compared:

* **GPTCache** — pretrained ALBERT-class encoder, fixed τ = 0.7, no context.
* **MeanCache (MPNet)** — FL-fine-tuned MPNet-class encoder, learned τ.
* **MeanCache (Albert)** — FL-fine-tuned ALBERT-class encoder, learned τ.

Metrics use Fβ with β = 0.5 (precision weighted over recall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import GPTCACHE_CONFIG
from repro.core.cache import MeanCache, MeanCacheConfig
from repro.datasets.semantic_pairs import CacheWorkload, generate_cache_workload
from repro.experiments.common import SystemBundle, cached_system_bundle, resolve_scale
from repro.metrics.classification import ConfusionMatrix, confusion_matrix
from repro.metrics.reporting import format_confusion_matrix, format_metric_comparison


@dataclass
class SystemEvaluation:
    """Decisions and metrics of one cache on one workload.

    ``overhead_mode`` records how ``mean_overhead_s`` was measured:
    ``"amortized"`` (the default batched evaluation — batch cost split over
    the probes) or ``"per-request"`` (each probe timed as its own lookup,
    the seed's semantics; pass ``batched=False`` to the evaluator).
    """

    predictions: np.ndarray
    metrics: Dict[str, float]
    matrix: ConfusionMatrix
    mean_overhead_s: float = 0.0
    overhead_mode: str = "amortized"


@dataclass
class Table1Result:
    """All rows of Table I (standalone half) plus the Figure 7 matrices."""

    workload: CacheWorkload
    systems: Dict[str, SystemEvaluation] = field(default_factory=dict)

    def paper_rows(self) -> Dict[str, Dict[str, float]]:
        """Metric dict per system, keyed like the paper's column headers."""
        return {name: ev.metrics for name, ev in self.systems.items()}

    def format(self) -> str:
        """Render the table and the confusion matrices as text."""
        parts = [
            format_metric_comparison(
                self.paper_rows(),
                metrics=("f_score", "precision", "recall", "accuracy"),
                title="Table I (standalone queries): MeanCache vs GPTCache",
            )
        ]
        for name, ev in self.systems.items():
            parts.append("")
            parts.append(format_confusion_matrix(ev.matrix, name))
        return "\n".join(parts)


def evaluate_meancache_on_workload(
    cache: MeanCache,
    workload: CacheWorkload,
    beta: float = 0.5,
    batched: bool = True,
) -> SystemEvaluation:
    """Empty ``cache``, populate it with the workload and classify every probe.

    Evaluates MeanCache in any configuration, the GPTCache baseline's
    (``GPTCACHE_CONFIG``) included.

    With ``batched=True`` (default) the whole probe set goes through
    :meth:`MeanCache.lookup_batch` — one query-encoding call plus one index
    matmul — so ``mean_overhead_s`` is the batch's amortized per-probe cost.
    Pass ``batched=False`` to time each probe as its own request (the seed's
    per-request overhead semantics); hit/miss decisions are identical either
    way.
    """
    cache.clear()
    cache.populate(workload.cached_queries)
    if batched:
        decisions = cache.lookup_batch([probe.text for probe in workload.probes])
    else:
        decisions = [cache.lookup(probe.text) for probe in workload.probes]
    predictions = np.array([d.hit for d in decisions], dtype=bool)
    overheads: List[float] = [d.total_overhead_s for d in decisions]
    cm = confusion_matrix(workload.true_labels, predictions)
    return SystemEvaluation(
        predictions=predictions,
        metrics=cm.metrics(beta),
        matrix=cm,
        mean_overhead_s=float(np.mean(overheads)) if overheads else 0.0,
        overhead_mode="amortized" if batched else "per-request",
    )


def run_table1(
    scale: "str | None" = None,
    seed: int = 0,
    bundle: Optional[SystemBundle] = None,
    include_albert: bool = True,
    beta: float = 0.5,
) -> Table1Result:
    """Reproduce Table I (standalone) and Figure 7.

    Parameters
    ----------
    scale:
        Experiment scale (``paper`` / ``quick``); ignored when ``bundle`` is
        supplied.
    bundle:
        A prebuilt :class:`SystemBundle` (reuses its FL-trained encoders).
    include_albert:
        Also evaluate the MeanCache (Albert) column.
    """
    resolved = bundle.scale if (bundle is not None and scale is None) else resolve_scale(scale)
    if bundle is None:
        bundle = cached_system_bundle(resolved, seed=seed, train_albert=include_albert)
    workload = generate_cache_workload(
        n_cached=resolved.n_cached,
        n_probes=resolved.n_probes,
        duplicate_fraction=0.3,
        corpus=bundle.corpus,
        seed=seed + 100,
    )
    result = Table1Result(workload=workload)

    # GPTCache baseline: frozen ALBERT-class encoder, fixed 0.7.
    gpt = MeanCache(bundle.gptcache_encoder(), GPTCACHE_CONFIG)
    result.systems["GPTCache"] = evaluate_meancache_on_workload(gpt, workload, beta)

    # MeanCache (MPNet): FL-trained encoder + learned threshold.
    mpnet = bundle.meancache_mpnet
    mc_mpnet = MeanCache(
        mpnet.encoder.clone(),
        MeanCacheConfig(similarity_threshold=mpnet.threshold, verify_context=True),
    )
    result.systems["MeanCache (MPNet)"] = evaluate_meancache_on_workload(mc_mpnet, workload, beta)

    if include_albert and bundle.meancache_albert is not None:
        albert = bundle.meancache_albert
        mc_albert = MeanCache(
            albert.encoder.clone(),
            MeanCacheConfig(similarity_threshold=albert.threshold, verify_context=True),
        )
        result.systems["MeanCache (Albert)"] = evaluate_meancache_on_workload(
            mc_albert, workload, beta
        )
    return result
