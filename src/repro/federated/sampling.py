"""Client-selection strategies for each FL round.

The paper samples 4 of 20 clients uniformly at random each round and notes
that selection may also consider battery level, bandwidth or past performance
(§III-A).  Three samplers are provided: uniform random (the default),
round-robin (deterministic coverage, useful in tests) and a resource-aware
sampler that weights clients by a supplied availability score.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


class ClientSampler:
    """Interface: pick ``n`` client ids out of ``client_ids`` for a round."""

    def sample(self, client_ids: Sequence[str], n: int, round_number: int) -> List[str]:
        """Return the selected client ids for ``round_number``."""
        raise NotImplementedError

    @staticmethod
    def _check(client_ids: Sequence[str], n: int) -> int:
        if not client_ids:
            raise ValueError("no clients to sample from")
        if n < 1:
            raise ValueError("must sample at least one client")
        return min(n, len(client_ids))


class UniformSampler(ClientSampler):
    """Uniform random sampling without replacement (the paper's setting)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def sample(self, client_ids: Sequence[str], n: int, round_number: int) -> List[str]:
        """Draw ``n`` distinct clients uniformly at random."""
        k = self._check(client_ids, n)
        idx = self._rng.choice(len(client_ids), size=k, replace=False)
        return [client_ids[int(i)] for i in idx]


class RoundRobinSampler(ClientSampler):
    """Deterministic rotation through the client list."""

    def sample(self, client_ids: Sequence[str], n: int, round_number: int) -> List[str]:
        """Take the next ``n`` clients in list order, wrapping around."""
        k = self._check(client_ids, n)
        start = (round_number * k) % len(client_ids)
        picked = [client_ids[(start + i) % len(client_ids)] for i in range(k)]
        return picked


class ResourceAwareSampler(ClientSampler):
    """Weighted sampling by a per-client availability score.

    Scores model battery level / bandwidth / historical reliability.
    Zero-score clients are avoided while enough positive-score clients
    exist; when a round needs more clients than have positive scores, every
    positive-score client is selected and the remainder fills uniformly
    from the zero-score pool (and when *all* scores are zero, sampling
    degrades to uniform).  A zero score is a soft preference, not an
    exclusion guarantee — model hard unavailability by omitting the client
    from ``client_ids``.
    """

    def __init__(self, scores: Dict[str, float], seed: int = 0) -> None:
        for cid, score in scores.items():
            if score < 0:
                raise ValueError(f"negative availability score for client {cid!r}")
        self.scores = dict(scores)
        self._rng = np.random.default_rng(seed)

    def sample(self, client_ids: Sequence[str], n: int, round_number: int) -> List[str]:
        """Draw ``n`` distinct clients weighted by score; zero scores fill a shortfall."""
        k = self._check(client_ids, n)
        weights = np.array([self.scores.get(cid, 1.0) for cid in client_ids], dtype=np.float64)
        if weights.sum() <= 0:
            weights = np.ones_like(weights)
        positive = np.flatnonzero(weights > 0)
        if len(positive) >= k:
            probs = weights / weights.sum()
            idx = self._rng.choice(len(client_ids), size=k, replace=False, p=probs)
        else:
            # Fewer positive-score clients than the round needs: take every
            # positive-score client and fill the remainder uniformly from the
            # zero-score ones (np.random.choice with p= would raise here).
            zero = np.flatnonzero(weights <= 0)
            fill = self._rng.choice(zero, size=k - len(positive), replace=False)
            idx = np.concatenate([positive, fill])
        return [client_ids[int(i)] for i in idx]
