"""Client-selection strategies for each FL round.

The paper samples 4 of 20 clients uniformly at random each round
(§III-A): :class:`UniformSampler`.  :class:`ClientSampler` is the interface
the servers take, so a caller can plug in another policy (the paper notes
selection may also weigh battery level, bandwidth or past performance).
"""

from __future__ import annotations

from typing import List, Sequence

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
