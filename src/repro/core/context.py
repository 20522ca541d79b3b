"""Context-chain representation and matching.

MeanCache records, for each cached query, the chain of parent queries under
which it was asked (paper Figure 1's "Query Context Chain" column).  When a
new query semantically matches a cached query, the cache additionally verifies
that the *contexts* match before declaring a hit (Algorithm 1, lines 4–6):

* a standalone probe only matches cached entries that are themselves
  standalone;
* a contextual probe (non-empty conversational history) only matches cached
  entries whose context chain is semantically similar to the probe's history.

Context similarity is computed on embeddings of the chain (mean of the parent
query embeddings), so paraphrased parents still match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.similarity import cosine_similarity
from repro.index.snapshot import stack_rows


@dataclass(frozen=True)
class ContextChain:
    """A query's conversational history (parent queries, oldest first)."""

    texts: Tuple[str, ...] = ()
    embedding: Optional[np.ndarray] = None

    @property
    def is_empty(self) -> bool:
        """True for standalone queries."""
        return len(self.texts) == 0

    @property
    def depth(self) -> int:
        """Number of parent queries in the chain."""
        return len(self.texts)

    @classmethod
    def empty(cls) -> "ContextChain":
        """The standalone (no-context) chain."""
        return cls(texts=(), embedding=None)

    @classmethod
    def from_texts(cls, texts: Sequence[str], encoder=None) -> "ContextChain":
        """Build a chain, embedding it with ``encoder`` when provided.

        The chain embedding is the mean of the parent-query embeddings,
        re-normalised to unit norm.
        """
        texts = tuple(t for t in texts if t)
        embedding = None
        if encoder is not None and texts:
            embs = encoder.encode(list(texts))
            embs = np.atleast_2d(embs)
            mean = embs.mean(axis=0)
            norm = np.linalg.norm(mean)
            embedding = mean / norm if norm > 1e-12 else mean
        return cls(texts=texts, embedding=embedding)

    def stored_at(self, dtype: np.dtype) -> "ContextChain":
        """This chain as a cache stores it: the embedding as a private
        ``dtype`` array (the cache's index dtype), sharing no memory with
        the array it was built from."""
        if self.embedding is None:
            return self
        return ContextChain(self.texts, np.array(self.embedding, dtype=dtype))

    @property
    def nbytes(self) -> int:
        """Bytes of the chain embedding (0 for a standalone chain)."""
        return 0 if self.embedding is None else int(self.embedding.nbytes)

    def similarity_to(self, other: "ContextChain") -> float:
        """Cosine similarity between two chain embeddings.

        Returns 1.0 when both chains are empty, 0.0 when exactly one is empty
        or an embedding is missing.
        """
        if self.is_empty and other.is_empty:
            return 1.0
        if self.is_empty != other.is_empty:
            return 0.0
        if self.embedding is None or other.embedding is None:
            return 0.0
        return float(cosine_similarity(self.embedding, other.embedding))


def context_matches(
    query_context: ContextChain,
    cached_context: ContextChain,
    threshold: float = 0.7,
) -> bool:
    """Decide whether two context chains refer to the same conversation state.

    Standalone matches standalone; contextual matches contextual only when the
    chain-embedding similarity reaches ``threshold``.
    """
    if query_context.is_empty and cached_context.is_empty:
        return True
    if query_context.is_empty != cached_context.is_empty:
        return False
    return query_context.similarity_to(cached_context) >= threshold


def pack_context_embeddings(
    embeddings: Iterable[Tuple[int, Optional[np.ndarray]]], dim: int, dtype: np.dtype
) -> Dict[str, np.ndarray]:
    """The ``ctx_entry_ids``/``ctx_embeddings`` arrays of a cache snapshot.

    ``embeddings`` yields ``(entry id, chain embedding)`` in entry order;
    only the chains that carry one (contextual entries) are stored.
    """
    embedded = [(int(i), e) for i, e in embeddings if e is not None]
    return {
        "ctx_entry_ids": np.asarray([i for i, _ in embedded], dtype=np.int64),
        "ctx_embeddings": stack_rows([e for _, e in embedded], dim, dtype),
    }


def unpack_context_embeddings(arrays: Mapping[str, np.ndarray]) -> Dict[int, np.ndarray]:
    """Entry id -> chain embedding, from :func:`pack_context_embeddings` arrays."""
    return {
        int(i): np.asarray(embedding)
        for i, embedding in zip(
            np.asarray(arrays["ctx_entry_ids"]), np.asarray(arrays["ctx_embeddings"])
        )
    }
