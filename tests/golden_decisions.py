"""Golden-decision collector for the pipeline parity regression test.

No rewrite of the lookup rule (``repro.core.pipeline``) may change a single
hit/miss decision of any experiment.  This module runs the four
decision-producing experiments — Table I (standalone), Table I (contextual),
Figure 5 and Figure 10 — at ``quick`` scale and serializes every system's
decision stream to a canonical JSON structure:

* ``hits``   — the hit/miss bits as a ``"0"/"1"`` string (probe order);
* ``sims``   — each decision's similarity as ``float.hex()`` (bit-exact);
* ``matches``— the matched cache entry id (MeanCache) or matched query text
  (GPTCache), ``None`` on a miss.

Figure 10 is pinned per measured point instead: system, ``n_cached``,
``embedding_dim``, and ``storage_kb``/``f_score``/``precision``/``recall`` as
``float.hex()``.  Its wall-clock search time is left out.

``tests/fixtures/golden_decisions_quick.json`` was generated from the seed's
monolithic lookup loops via::

    PYTHONPATH=src:tests python -m golden_decisions

and the parity test asserts that the current code reproduces it byte for
byte.  It has since pinned three implementations: those loops, the stage
framework that replaced them, and today's three functions.  Regenerate only when a deliberate, documented decision-level change
lands, or for a value-level re-pin that moves no ``hits``/``matches`` entry
and no Figure 10 point (the last: every search's hits are scored one dot
per row, which moved 628 Table I ``sims`` by at most 10 float32 ulp).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "golden_decisions_quick.json"

GOLDEN_SCALE = "quick"
GOLDEN_SEED = 0


def _summarize(decisions, matched_key) -> Dict[str, object]:
    """Canonical JSON summary of one system's decision stream."""
    hits = "".join("1" if d.hit else "0" for d in decisions)
    sims = [float(d.similarity).hex() for d in decisions]
    matches: List[Optional[object]] = [matched_key(d) if d.hit else None for d in decisions]
    return {"hits": hits, "sims": sims, "matches": matches}


def _meancache_match(decision):
    return decision.entry_id


def _gptcache_match(decision):
    return decision.matched_query


def collect_decision_summary(bundle=None) -> Dict[str, object]:
    """Run table1 / contextual / fig05 / fig10 and summarize every decision stream."""
    from repro.experiments.common import cached_system_bundle, resolve_scale
    from repro.experiments.contextual import run_contextual
    from repro.experiments.fig05_latency import run_fig05
    from repro.experiments.fig10_compression import run_fig10
    from repro.baselines import GPTCACHE_CONFIG
    from repro.core.cache import MeanCache, MeanCacheConfig
    from repro.datasets.semantic_pairs import generate_cache_workload

    resolved = resolve_scale(GOLDEN_SCALE)
    if bundle is None:
        bundle = cached_system_bundle(resolved, seed=GOLDEN_SEED, train_albert=True)
    summary: Dict[str, object] = {"scale": resolved.name, "seed": GOLDEN_SEED}

    # --- Table I (standalone): re-run the workloads capturing raw decisions.
    workload = generate_cache_workload(
        n_cached=resolved.n_cached,
        n_probes=resolved.n_probes,
        duplicate_fraction=0.3,
        corpus=bundle.corpus,
        seed=GOLDEN_SEED + 100,
    )
    table1: Dict[str, object] = {}
    gpt = MeanCache(bundle.gptcache_encoder(), GPTCACHE_CONFIG)
    gpt.populate(workload.cached_queries)
    table1["GPTCache"] = _summarize(
        gpt.lookup_batch([p.text for p in workload.probes]), _gptcache_match
    )
    for label, trained in (
        ("MeanCache (MPNet)", bundle.meancache_mpnet),
        ("MeanCache (Albert)", bundle.meancache_albert),
    ):
        if trained is None:
            continue
        mc = MeanCache(
            trained.encoder.clone(),
            MeanCacheConfig(similarity_threshold=trained.threshold, verify_context=True),
        )
        mc.populate(workload.cached_queries)
        table1[label] = _summarize(
            mc.lookup_batch([p.text for p in workload.probes]), _meancache_match
        )
    summary["table1"] = table1

    # --- Table I (contextual): capture the experiment's own predictions.
    contextual = run_contextual(resolved.name, seed=GOLDEN_SEED, bundle=bundle)
    summary["contextual"] = {
        name: {"hits": "".join("1" if p else "0" for p in ev.predictions)}
        for name, ev in contextual.systems.items()
    }

    # --- Figure 5: per-probe hit/miss decisions of the two cached systems.
    fig05 = run_fig05(resolved.name, seed=GOLDEN_SEED, bundle=bundle)
    summary["fig05"] = {
        name: {"hits": "".join("1" if p else "0" for p in trace.predictions)}
        for name, trace in fig05.traces.items()
        if trace.predictions is not None
    }

    # --- Figure 10: every (system, cache size) point, in measured order.
    fig10 = run_fig10(resolved.name, seed=GOLDEN_SEED, bundle=bundle)
    summary["fig10"] = [
        {
            "system": p.system,
            "n_cached": p.n_cached,
            "embedding_dim": p.embedding_dim,
            "storage_kb": float(p.storage_kb).hex(),
            "f_score": float(p.f_score).hex(),
            "precision": float(p.precision).hex(),
            "recall": float(p.recall).hex(),
        }
        for p in fig10.points
    ]
    return summary


def main() -> None:
    summary = collect_decision_summary()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
