"""Federated data partitioning.

The paper distributes the training and validation splits across 20 clients
with non-overlapping data points (§IV-A1): IID random sharding.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

import numpy as np

from repro.datasets.semantic_pairs import QueryPairDataset

T = TypeVar("T")


def partition_iid(items: Sequence[T], n_clients: int, seed: int = 0) -> List[List[T]]:
    """Shuffle ``items`` and split them into ``n_clients`` near-equal shards."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    shards: List[List[T]] = [[] for _ in range(n_clients)]
    for rank, idx in enumerate(order):
        shards[rank % n_clients].append(items[int(idx)])
    return shards


def partition_pairs(
    dataset: QueryPairDataset, n_clients: int, seed: int = 0
) -> List[QueryPairDataset]:
    """IID-partition a pair dataset into per-client datasets."""
    shards = partition_iid(dataset.pairs, n_clients, seed=seed)
    return [QueryPairDataset(shard, seed=seed + i) for i, shard in enumerate(shards)]

