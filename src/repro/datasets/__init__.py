"""Synthetic datasets for the MeanCache reproduction.

The paper evaluates on (a) the GPTCache benchmark dataset of duplicate /
non-duplicate query pairs, (b) a GPT-4-generated contextual-query dataset of
450 queries, and (c) a 20-participant ChatGPT user study.  None of those are
redistributable or reachable offline, so this package generates deterministic
synthetic equivalents:

* :mod:`repro.datasets.corpus` — topic/action/object banks, query intents and
  template realisation.
* :mod:`repro.datasets.paraphrase` — paraphrase generation for an intent.
* :mod:`repro.datasets.semantic_pairs` — labelled duplicate / non-duplicate
  query pair datasets with train/val/test splits, plus cache workloads
  (population set + probe set with a configurable duplicate ratio).
* :mod:`repro.datasets.contextual` — multi-turn conversations with standalone
  and follow-up queries for the contextual-query experiments.
* :mod:`repro.datasets.userstudy` — per-participant query logs matching the
  Figure 4 totals.
* :mod:`repro.datasets.partition` — federated (per-client) partitioning.
"""
