"""GPTCache-style server-side semantic cache (the paper's baseline).

GPTCache (Bang, 2023) keeps a *central* cache of all users' queries and
responses on the server.  A probe is embedded (ALBERT in the paper's
"optimal configuration"), compared against every cached embedding, and served
from the cache when the best cosine similarity reaches a fixed threshold of
0.7.  Relative to MeanCache the baseline therefore:

* uses a fixed, not learned, similarity threshold;
* uses a pretrained, never fine-tuned encoder;
* performs no context-chain verification (contextual probes that merely look
  similar produce false hits);
* stores everything centrally, so even a cache hit costs a network round trip
  and the query leaves the user's device.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.cache import CacheDecision, CacheStats
from repro.core.pipeline import embed_probes, first_admissible, search_candidates
from repro.core.storage import object_nbytes
from repro.core.validation import require_query_text, require_query_texts
from repro.embeddings.model import SiameseEncoder
from repro.embeddings.zoo import load_encoder
from repro.index import IndexHit, VectorIndex
from repro.index.registry import resolve_index, validate_backend
from repro.index.snapshot import (
    SnapshotError,
    load_cache_snapshot,
    record_blocks,
    save_cache_snapshot,
)

#: Snapshot format tag / version of ``GPTCache.save`` directories.
#: Version 2 writes atomically and stores embeddings as a raw ``.npy``.
#: Version 3 stores each vector once, in the nested ``index/`` snapshot,
#: and has no ``arrays/`` (a v2 snapshot still loads; its copy is checked,
#: then dropped).
GPTCACHE_FORMAT = "repro-gptcache"
GPTCACHE_VERSION = 3


@dataclass(frozen=True)
class GPTCacheConfig:
    """Baseline configuration (paper §IV-A: ALBERT encoder, τ = 0.7).

    ``index_backend``/``index_params`` pick the vector-index backend through
    :func:`repro.index.make_index` — a central never-evicting cache is
    exactly where the corpus outgrows exact scans, so the routed backends
    (``"ivf"``, ``"ivf+sq8"``) matter most here.
    """

    similarity_threshold: float = 0.7
    top_k: int = 1
    encoder_name: str = "albert-sim"
    network_rtt_s: float = 0.03
    index_backend: str = "flat"
    index_params: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.network_rtt_s < 0:
            raise ValueError("network_rtt_s must be >= 0")
        validate_backend(self.index_backend)


@dataclass
class _StoredEntry:
    """One central entry: texts and attribution over its index row."""

    query: str
    response: str
    user_id: str
    entry_id: int
    #: the cache's vector index, which holds this entry's row
    index: VectorIndex = field(repr=False, compare=False)

    @property
    def embedding(self) -> np.ndarray:
        """The entry's vector, read from its index row."""
        return self.index.get(self.entry_id)

    def nbytes(self) -> int:
        """Text footprint (the vector is counted by the index)."""
        return (
            object_nbytes(self.query)
            + object_nbytes(self.response)
            + object_nbytes(self.user_id)
        )


class GPTCache:
    """Server-side semantic cache with a fixed cosine threshold."""

    def __init__(
        self,
        encoder: Optional[SiameseEncoder] = None,
        config: Optional[GPTCacheConfig] = None,
        index: Optional[VectorIndex] = None,
    ) -> None:
        self.config = config or GPTCacheConfig()
        self.encoder = encoder or load_encoder(self.config.encoder_name)
        self._entries: List[_StoredEntry] = []
        # The baseline never evicts, so index ids coincide with list
        # positions.  An explicit (empty) ``index`` instance wins over the
        # config's backend name — see resolve_index for the shared invariant.
        self._index = resolve_index(
            index, self.config.index_backend, self.config.index_params
        )
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[_StoredEntry]:
        """All cached entries across every user (central cache)."""
        return list(self._entries)

    @property
    def index(self) -> VectorIndex:
        """The vector index holding the cached query embeddings."""
        return self._index

    @property
    def stats(self) -> CacheStats:
        """The ``lookups``/``hits`` counters as a :class:`CacheStats` view."""
        return CacheStats(
            lookups=self.lookups, hits=self.hits, misses=self.lookups - self.hits
        )

    def users(self) -> List[str]:
        """Distinct user ids whose queries are stored centrally."""
        return sorted({e.user_id for e in self._entries})

    def embedding_storage_bytes(self) -> int:
        """Bytes of the vector state the cache holds: the index's live rows
        (with norms and ids) and any codec or routing tables.  Each entry's
        vector is counted once, as its index row."""
        return self._index.storage_nbytes

    def total_storage_bytes(self) -> int:
        """Bytes used by the whole central cache."""
        return self.embedding_storage_bytes() + sum(e.nbytes() for e in self._entries)

    # ------------------------------------------------------------------ #
    def embed(self, text: str) -> tuple[np.ndarray, float]:
        """Embed a query with the baseline's (frozen) encoder."""
        start = time.perf_counter()
        emb = self.encoder.encode(text)
        return np.asarray(emb, dtype=np.float64), time.perf_counter() - start

    def insert(
        self,
        query: str,
        response: str,
        user_id: str = "default",
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """Store a (query, response) pair in the central cache."""
        require_query_text(query)
        if embedding is None:
            embedding, _ = self.embed(query)
        entry_id = len(self._entries)
        self._index.add(np.asarray(embedding, dtype=np.float64).reshape(-1), id=entry_id)
        self._entries.append(_StoredEntry(query, response, user_id, entry_id, self._index))

    def populate(
        self, queries: Sequence[str], responses: Optional[Sequence[str]] = None, user_id: str = "default"
    ) -> None:
        """Bulk-insert queries (pre-loading experiment caches).

        The whole batch is embedded in one encoder call; each embedding is
        then appended to the index in O(1) amortized time.
        """
        if responses is not None and len(responses) != len(queries):
            raise ValueError("responses must align with queries")
        queries = require_query_texts(queries)
        if not queries:
            return
        embeddings = np.atleast_2d(np.asarray(self.encoder.encode(queries), dtype=np.float64))
        for i, query in enumerate(queries):
            response = responses[i] if responses is not None else f"cached response for: {query}"
            self.insert(query, response, user_id=user_id, embedding=embeddings[i])

    def enroll(
        self,
        query: str,
        response: str,
        context: Sequence[str] = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """:meth:`insert` under the enrolment signature every cache shares.

        The central cache never evicts and ignores ``context``; ``user_id``
        keeps the entry attributed to whoever asked.
        """
        self.insert(
            query,
            response,
            user_id="default" if user_id is None else user_id,
            embedding=embedding,
        )

    def lookup(self, query: str, context: Sequence[str] = (), user_id: str = "default") -> CacheDecision:
        """Hit/miss decision; ``context`` is accepted but ignored (no context handling).

        The same rule as :meth:`lookup_batch`, for one probe.
        """
        require_query_text(query)
        return self._lookup([query], None)[0]

    def lookup_batch(
        self,
        queries: Sequence[str],
        user_id: str = "default",
        embeddings: Optional[np.ndarray] = None,
    ) -> List[CacheDecision]:
        """Vectorized equivalent of calling :meth:`lookup` per query in order.

        One encoder call embeds the whole batch and one matmul searches it;
        the measured embed/search wall-clock is split evenly per query.
        ``embeddings`` (one row per query, from this cache's encoder) skips
        the embed call entirely — the serving micro-batcher's amortization
        hook.  A batch the cache rejects raises ``ValueError`` and counts no
        lookup.
        """
        queries = require_query_texts(queries)
        if not queries:
            return []
        return self._lookup(queries, embeddings)

    def _lookup(
        self, queries: Sequence[str], embeddings: Optional[np.ndarray]
    ) -> List[CacheDecision]:
        """MeanCache's lookup rule minus the context check, at a fixed τ.

        Candidates arrive ranked by descending similarity, so "first
        admissible candidate wins" is exactly the seed's "best candidate
        clears the fixed 0.7 threshold" rule.  Ignoring conversation state
        is what produces the baseline's context-trap false hits.
        """
        # compress=True mirrors the encoder's encode() default; it is a
        # no-op unless a PCA head is attached to the baseline encoder.
        matrix, embed_s = embed_probes(self.encoder, queries, True, embeddings)
        hit_lists, search_s = search_candidates(self._index, matrix, self.config.top_k)
        return [
            self._decide(query, hit_lists[i], matrix[i], embed_s, search_s)
            for i, query in enumerate(queries)
        ]

    def _decide(
        self,
        query: str,
        hits: List[IndexHit],
        embedding: np.ndarray,
        embed_s: float,
        search_s: float,
    ) -> CacheDecision:
        """One probe's decision plus the baseline's accounting.

        Every decision carries the modelled network round trip — the central
        cache is remote even on a hit.
        """
        best, _ = first_admissible(hits, self.config.similarity_threshold)
        decision = CacheDecision(
            hit=best is not None,
            query=query,
            top_candidate_query=self._entries[hits[0].id].query if hits else None,
            similarity=hits[0].score if hits else 0.0,
            candidates=hits,
            embed_time_s=embed_s,
            search_time_s=search_s,
            network_time_s=self.config.network_rtt_s,
            embedding=embedding,
        )
        self.lookups += 1
        if best is not None:
            entry = self._entries[best.id]
            self.hits += 1
            decision.response = entry.response
            decision.matched_query = entry.query
            decision.similarity = best.score
        return decision

    # ------------------------------------------------------------------ #
    # Persistence (versioned, atomically-published snapshot directory)
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> Path:
        """Snapshot the central cache to a directory (see ``MeanCache.save``).

        The same envelope with the baseline's payload: config, hit counters
        and every entry's texts/user id; the vectors live once, in the
        nested ``index/`` snapshot.
        """
        records = [
            {"query": e.query, "response": e.response, "user_id": e.user_id}
            for e in self._entries
        ]
        config = asdict(self.config)
        config["index_params"] = (
            dict(self.config.index_params) if self.config.index_params else None
        )
        payload = {
            "config": config,
            "lookups": int(self.lookups),
            "hits": int(self.hits),
        }
        return save_cache_snapshot(
            path,
            GPTCACHE_FORMAT,
            GPTCACHE_VERSION,
            payload,
            record_blocks(records),
            {},
            self._index,
        )

    @classmethod
    def load(
        cls, path: "str | Path", encoder: Optional[SiameseEncoder] = None
    ) -> "GPTCache":
        """Rebuild a central cache from a :meth:`save` snapshot.

        ``encoder`` defaults to the zoo encoder named in the saved config;
        pass the instance the saved cache used when decisions must reproduce
        byte-exactly.
        """
        path = Path(path)

        def build(manifest: Mapping[str, object]) -> "GPTCache":
            cache = cls(encoder=encoder, config=GPTCacheConfig(**manifest["config"]))
            cache.lookups = int(manifest["lookups"])
            cache.hits = int(manifest["hits"])
            return cache, int(manifest["version"])

        (cache, version), index, meta, data, _ = load_cache_snapshot(
            path, GPTCACHE_FORMAT, GPTCACHE_VERSION, build, required=()
        )
        cache._index = index
        if version < 3 and len(data.get("embeddings", ())) != len(meta):
            # Before v3 each vector was stored a second time beside the
            # index's rows; the copy must line up with the entries, and is
            # then dropped.
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: {len(meta)} entry records "
                f"vs {len(data.get('embeddings', ()))} embeddings"
            )
        # The baseline never evicts, so index ids must be exactly the list
        # positions — anything else is a corrupted/mixed snapshot.
        if cache._index.ids != list(range(len(meta))):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: index ids and entry "
                "positions differ"
            )
        cache._entries = [
            _StoredEntry(record["query"], record["response"], record["user_id"], i, index)
            for i, record in enumerate(meta)
        ]
        return cache
