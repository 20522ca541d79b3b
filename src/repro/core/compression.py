"""Cache-level embedding compression (paper §III-A4, Figure 3, Figure 10).

:func:`compress_cache` takes a populated :class:`~repro.core.cache.MeanCache`,
learns PCA components from the embeddings of the queries it currently holds,
attaches the components to the encoder as an extra projection layer, converts
the cache to compressed mode and re-embeds the stored entries.  The returned
:class:`CompressionReport` records the storage saving — the quantity reported
in Figure 10(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.cache import MeanCache, MeanCacheConfig
from repro.embeddings.pca import PCA


@dataclass(frozen=True)
class CompressionReport:
    """Before/after accounting of a cache compression."""

    n_entries: int
    original_dim: int
    compressed_dim: int
    original_embedding_bytes: int
    compressed_embedding_bytes: int
    original_total_bytes: int
    compressed_total_bytes: int
    explained_variance_ratio: float

    @property
    def embedding_saving_fraction(self) -> float:
        """Fraction of embedding storage saved (≈0.91 at 768→64: float32 index
        rows of 3,084 vs 268 B, plus context chains)."""
        if self.original_embedding_bytes == 0:
            return 0.0
        return 1.0 - self.compressed_embedding_bytes / self.original_embedding_bytes

    @property
    def total_saving_fraction(self) -> float:
        """Fraction of total cache storage saved."""
        if self.original_total_bytes == 0:
            return 0.0
        return 1.0 - self.compressed_total_bytes / self.original_total_bytes


def compress_cache(
    cache: MeanCache,
    n_components: int = 64,
    fit_texts: Optional[Sequence[str]] = None,
) -> CompressionReport:
    """Compress a cache's embeddings in place.

    Parameters
    ----------
    cache:
        A populated MeanCache in uncompressed mode.
    n_components:
        Target embedding dimensionality (the paper uses 64).
    fit_texts:
        Texts to fit the PCA on; defaults to the cache's own queries
        (Figure 3-a fits on the user's query history).

    Raises
    ------
    ValueError
        If the cache is already compressed or holds too few entries to fit
        the requested number of components.
    """
    if cache.config.compressed:
        raise ValueError("cache is already compressed")
    texts = list(fit_texts) if fit_texts is not None else [e.query for e in cache.entries]
    if len(texts) < 2:
        raise ValueError("need at least 2 queries to fit PCA components")
    if n_components > cache.encoder.config.output_dim:
        raise ValueError(
            f"n_components={n_components} exceeds encoder output dim "
            f"{cache.encoder.config.output_dim}"
        )
    if n_components > len(texts):
        raise ValueError(
            f"n_components={n_components} exceeds the number of fitting queries ({len(texts)})"
        )

    original_dim = cache.encoder.config.output_dim
    original_embedding_bytes = cache.embedding_storage_bytes()
    original_total_bytes = cache.total_storage_bytes()

    # Figure 3-a: learn components on the embeddings of the user's queries.
    raw_embeddings = cache.encoder.encode(texts, compress=False)
    pca = PCA(n_components=n_components)
    pca.fit(raw_embeddings)
    cache.encoder.attach_pca(pca)

    # Switch the cache to compressed mode and re-embed its entries
    # (Figure 3-b: the PCA layer is now part of the deployed model).
    cache.config = MeanCacheConfig(
        similarity_threshold=cache.config.similarity_threshold,
        context_threshold=cache.config.context_threshold,
        top_k=cache.config.top_k,
        verify_context=cache.config.verify_context,
        max_entries=cache.config.max_entries,
        eviction_policy=cache.config.eviction_policy,
        compressed=True,
    )
    cache.rebuild_embeddings()

    return CompressionReport(
        n_entries=len(cache),
        original_dim=original_dim,
        compressed_dim=n_components,
        original_embedding_bytes=original_embedding_bytes,
        compressed_embedding_bytes=cache.embedding_storage_bytes(),
        original_total_bytes=original_total_bytes,
        compressed_total_bytes=cache.total_storage_bytes(),
        explained_variance_ratio=float(pca.explained_variance_ratio_.sum()),
    )
