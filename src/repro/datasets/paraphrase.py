"""Paraphrase generation.

Duplicates in the synthetic dataset are produced by re-realising the same
:class:`~repro.datasets.corpus.QueryIntent` with a *different* template and
(usually) different synonym choices, so the duplicate pair shares meaning but
not surface form — mirroring the paper's motivating example
("How can I increase the battery life of my smartphone?" vs
"Tips for extending the duration of my phone's power source").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.datasets.corpus import Corpus, QueryIntent, TEMPLATES


class Paraphraser:
    """Generates groups of mutually-duplicate realisations of an intent."""

    def __init__(self, corpus: Corpus, seed: int = 0) -> None:
        self.corpus = corpus
        self._rng = np.random.default_rng(seed)

    def realization_pair(
        self, intent: QueryIntent, rng: np.random.Generator | None = None
    ) -> Tuple[str, str]:
        """Return two distinct surface forms of the same intent.

        The second realisation is forced onto a different template, and the
        synonym slots are re-sampled, so the pair is never an exact string
        duplicate (exact duplicates would be trivially solvable by keyword
        caches and would not exercise semantic matching).
        """
        rng = rng or self._rng
        t1 = int(rng.integers(len(TEMPLATES)))
        offset = 1 + int(rng.integers(len(TEMPLATES) - 1))
        t2 = (t1 + offset) % len(TEMPLATES)
        q1 = self.corpus.realize(intent, rng=rng, template_index=t1)
        q2 = self.corpus.realize(intent, rng=rng, template_index=t2)
        # In the unlikely event synonym sampling still collides to an equal
        # string, nudge the second realisation's filler.
        attempts = 0
        while q2 == q1 and attempts < 8:
            q2 = self.corpus.realize(intent, rng=rng, template_index=t2, filler_index=attempts + 1)
            attempts += 1
        return q1, q2
