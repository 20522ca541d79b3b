"""MeanCache: the user-side semantic cache (paper Algorithm 1 + Figure 1).

A :class:`MeanCache` instance lives on the user's device.  Each cached entry
holds the query text, its response and its context chain; the query's
(optionally PCA-compressed) embedding is stored once, as the entry's row in
the vector index.  On a lookup the cache:

1. embeds the query with the (FL-fine-tuned) local encoder,
2. retrieves the top-k most similar cached queries by cosine similarity from
   the incremental vector index (:class:`repro.index.FlatIndex`),
3. keeps candidates scoring at least the adaptive threshold τ,
4. verifies each surviving candidate's context chain against the probe's
   conversational history,
5. returns the best matching entry's response (hit) or reports a miss so the
   caller forwards the query to the LLM service and enrols the new
   (query, response) pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import (
    ContextChain,
    context_matches,
    pack_context_embeddings,
    unpack_context_embeddings,
)
from repro.core.pipeline import embed_probes, first_admissible, search_candidates
from repro.core.policy import LRUPolicy
from repro.core.storage import object_nbytes
from repro.core.validation import (
    require_context_texts,
    require_query_text,
    require_query_texts,
)
from repro.embeddings.model import SiameseEncoder
from repro.index import IndexHit, VectorIndex
from repro.index.registry import resolve_index, validate_backend
from repro.index.snapshot import (
    SnapshotError,
    load_cache_snapshot,
    native_float_dtype,
    save_cache_snapshot,
)

#: Snapshot format tag / version of ``MeanCache.save`` directories.
#: Version 2 writes atomically (staged + renamed) and stores arrays as raw
#: per-array ``.npy`` files.  Version 3 stores each vector once, in the
#: nested ``index/`` snapshot: v2's ``arrays/embeddings.npy`` copy is gone
#: (a v2 snapshot still loads; its copy is checked, then dropped).  Version
#: 4 entry records hold no time: the two per-entry time stamps of v2/v3
#: records are read and discarded.
MEANCACHE_FORMAT = "repro-meancache"
MEANCACHE_VERSION = 4


@dataclass(frozen=True)
class MeanCacheConfig:
    """MeanCache behaviour knobs.

    Attributes
    ----------
    similarity_threshold:
        The adaptive cosine threshold τ (learned via FL; 0.7 is GPTCache's
        fixed value and serves as the cold-start value).
    context_threshold:
        Cosine threshold used when comparing context-chain embeddings.
    top_k:
        Number of similar cached queries retrieved per lookup (Algorithm 1
        examines each candidate's context chain).
    verify_context:
        Toggle for the context-chain check (the ablation switch; the
        GPTCache baseline, ``repro.baselines.GPTCACHE_CONFIG``, is ``False``).
    max_entries:
        Cache capacity; inserting beyond it evicts the least recently used
        entry (the paper's LRU policy, the only one).
    compressed:
        Whether embeddings stored in the cache are PCA-compressed (the
        encoder must have a PCA head attached).
    index_backend:
        Vector-index backend name resolved through
        :func:`repro.index.make_index` — ``"flat"`` (exact, the default),
        ``"ivf"`` (sublinear approximate search for large caches), ``"sq8"``
        or ``"ivf+sq8"`` (int8 quantized storage); see ``docs/api.md`` for
        the choosing guide.
    index_params:
        Extra keyword parameters for the backend constructor (e.g.
        ``{"nprobe": 16}`` for IVF).
    """

    similarity_threshold: float = 0.7
    context_threshold: float = 0.7
    top_k: int = 5
    verify_context: bool = True
    max_entries: int = 100_000
    compressed: bool = False
    index_backend: str = "flat"
    index_params: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if not 0.0 <= self.context_threshold <= 1.0:
            raise ValueError("context_threshold must be in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        validate_backend(self.index_backend)


@dataclass
class CacheEntry:
    """One cached (query, response) pair with its context chain.

    The query's vector is not kept here: it lives once, as the entry's row
    in the owning cache's vector index, and :attr:`embedding` reads it there.
    """

    query: str
    response: str
    context: ContextChain
    entry_id: int
    #: the owning cache's vector index, which holds this entry's row
    index: VectorIndex = field(repr=False, compare=False)
    hit_count: int = 0

    @property
    def embedding(self) -> np.ndarray:
        """The entry's vector, read from its index row (a fresh float64
        array; exact for a float index, dequantized for a quantized one)."""
        return self.index.get(self.entry_id)

    def nbytes(self) -> int:
        """Text + context footprint (the vector is counted by the index)."""
        return (
            object_nbytes(self.query)
            + object_nbytes(self.response)
            + self.context.nbytes
            + sum(object_nbytes(t) for t in self.context.texts)
        )


@dataclass
class CacheDecision:
    """The outcome of one lookup, for every cache in the repository.

    :class:`MeanCache` (in any configuration, the GPTCache baseline's
    included) and :class:`~repro.core.tiered.TieredCache` return this type,
    so the serving layer reads decisions without probing their shape.

    For decisions produced by :meth:`MeanCache.lookup_batch`, ``embed_time_s``
    and ``search_time_s`` are the batch's wall-clock cost divided evenly over
    its queries (the whole batch is embedded and searched in one call).
    """

    hit: bool
    query: str
    response: Optional[str] = None
    matched_query: Optional[str] = None
    #: query text of the top *retrieved* candidate (set on misses too, when
    #: anything was retrieved) — the online adaptation loop verifies
    #: near-threshold misses against it
    top_candidate_query: Optional[str] = None
    entry_id: Optional[int] = None
    similarity: float = 0.0
    candidates: List[IndexHit] = field(default_factory=list)
    context_verified: bool = False
    embed_time_s: float = 0.0
    search_time_s: float = 0.0
    #: the probe's embedding as the lookup computed (or was handed) it; pass
    #: it to ``insert``/``enroll`` on a miss to skip a second encoder forward.
    embedding: Optional[np.ndarray] = None
    #: the probe's context chain, when the lookup embedded it (a candidate
    #: cleared τ and needed context verification); a tier probed after this
    #: one reuses it instead of embedding the chain again
    context_chain: Optional[ContextChain] = None

    @property
    def total_overhead_s(self) -> float:
        """Embedding plus search overhead."""
        return self.embed_time_s + self.search_time_s


@dataclass
class CacheStats:
    """Running counters of cache activity."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class MeanCache:
    """The user-centric semantic cache."""

    def __init__(
        self,
        encoder: SiameseEncoder,
        config: Optional[MeanCacheConfig] = None,
        index: Optional[VectorIndex] = None,
    ) -> None:
        self.encoder = encoder
        self.config = config or MeanCacheConfig()
        if self.config.compressed and encoder.pca is None:
            raise ValueError(
                "config.compressed=True requires an encoder with a PCA head attached"
            )
        self._entries: Dict[int, CacheEntry] = {}  # entry_id -> entry, insertion order
        # An explicit (empty) ``index`` instance wins over the config's
        # backend name — see resolve_index for the shared invariant.
        self._index = resolve_index(
            index, self.config.index_backend, self.config.index_params
        )
        self._policy = LRUPolicy()
        self._next_id = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[CacheEntry]:
        """The live cache entries (insertion order)."""
        return list(self._entries.values())

    @property
    def index(self) -> VectorIndex:
        """The vector index holding the cached query embeddings.

        Concrete type depends on ``config.index_backend`` (or the instance
        passed at construction): :class:`~repro.index.FlatIndex` by default.
        """
        return self._index

    @property
    def embedding_dim(self) -> int:
        """Dimensionality of stored embeddings."""
        return self.encoder.embedding_dim

    def embedding_storage_bytes(self) -> int:
        """Bytes of the vector state the cache holds (the Fig. 10a quantity).

        The index's live rows (with their norms and ids) and any codec or
        routing tables, plus the context-chain embeddings.  Each entry's
        vector is counted once, as its index row: no entry keeps a copy.
        """
        return self._index.storage_nbytes + sum(
            e.context.nbytes for e in self._entries.values()
        )

    def total_storage_bytes(self) -> int:
        """Bytes used by the whole cache (texts + responses + vector state)."""
        return self._index.storage_nbytes + sum(e.nbytes() for e in self._entries.values())

    # ------------------------------------------------------------------ #
    # Embedding helpers
    # ------------------------------------------------------------------ #
    def embed(self, text: str) -> Tuple[np.ndarray, float]:
        """Embed a query, returning (embedding, wall-clock seconds)."""
        start = time.perf_counter()
        emb = self.encoder.encode(text, compress=self.config.compressed)
        elapsed = time.perf_counter() - start
        return np.asarray(emb, dtype=np.float64), elapsed

    def _embed_context(self, context: Sequence[str]) -> ContextChain:
        if not context:
            return ContextChain.empty()
        return ContextChain.from_texts(context, encoder=_ContextEncoderProxy(self))

    # ------------------------------------------------------------------ #
    # Lookup (Algorithm 1, lines 1-7)
    # ------------------------------------------------------------------ #
    def lookup(self, query: str, context: Sequence[str] = ()) -> CacheDecision:
        """Decide hit/miss for ``query`` under conversational ``context``.

        The same rule as :meth:`lookup_batch`, for one probe.
        """
        require_query_text(query)
        return self._lookup([query], [require_context_texts(context)], None)[0]

    def lookup_batch(
        self,
        queries: Sequence[str],
        contexts: Optional[Sequence[Sequence[str]]] = None,
        embeddings: Optional[np.ndarray] = None,
    ) -> List[CacheDecision]:
        """Decide hit/miss for a whole batch of queries in one vectorized pass.

        Equivalent to calling :meth:`lookup` on each query in order (the same
        candidates, thresholding, context verification and stats/eviction
        bookkeeping), but the *queries* are embedded with **one** encoder
        call and searched with **one** matmul against the index, so per-query
        overhead amortizes across the batch.  Context chains, when probes
        carry them, are still embedded per probe — and only for probes whose
        best candidate clears τ and needs verification.
        ``embed_time_s``/``search_time_s`` on the returned decisions are the
        batch cost split evenly per query.

        Parameters
        ----------
        queries:
            The probe queries (each a non-empty string).
        contexts:
            Optional per-query conversational contexts, aligned with
            ``queries``; ``None`` means every probe is standalone.
        embeddings:
            Optional precomputed probe embeddings (one row per query,
            encoded with this cache's encoder and compression setting) —
            the serving micro-batcher's amortization hook: one cross-user
            encoder call upstream, no per-cache re-encode here.

        Returns
        -------
        One :class:`CacheDecision` per query, in input order.  A batch the
        cache rejects (misaligned, wrong-dimension or non-finite
        ``embeddings``) raises ``ValueError`` and counts no lookup.
        """
        queries = require_query_texts(queries)
        if contexts is not None:
            if len(contexts) != len(queries):
                raise ValueError("contexts must align with queries")
            contexts = [require_context_texts(c) for c in contexts]
        if not queries:
            return []
        return self._lookup(queries, contexts, embeddings)

    def _lookup(
        self,
        queries: Sequence[str],
        contexts: Optional[Sequence[Sequence[str]]],
        embeddings: Optional[np.ndarray],
    ) -> List[CacheDecision]:
        """Algorithm 1 lines 1-7 over validated, non-empty ``queries``.

        Nothing is captured from the config ahead of the call, so a τ pushed
        through :meth:`set_threshold` (or a replaced ``config``) governs the
        next probe.  The single body under both public entry points: neither
        of those calls the other.
        """
        config = self.config
        matrix, embed_s = embed_probes(
            self.encoder, queries, config.compressed, embeddings
        )
        hit_lists, search_s = search_candidates(self._index, matrix, config.top_k)
        return [
            self._decide(
                query,
                contexts[i] if contexts is not None else (),
                hit_lists[i],
                matrix[i],
                embed_s,
                search_s,
            )
            for i, query in enumerate(queries)
        ]

    def _decide(
        self,
        query: str,
        context: Sequence[str],
        hits: List[IndexHit],
        embedding: np.ndarray,
        embed_s: float,
        search_s: float,
    ) -> CacheDecision:
        """Pick the winner among one probe's candidates and account for it.

        Counts the lookup together with its hit or miss, so
        ``lookups == hits + misses`` whatever was rejected upstream.  A hit
        also bumps the entry's hit counter and LRU recency
        (Algorithm 1's cache-side effects).
        """
        config = self.config
        chain: List[ContextChain] = []

        def context_ok(entry_id: int) -> bool:
            if not chain:  # embedded for the first candidate to clear τ, once
                chain.append(self._embed_context(context))
            return context_matches(
                chain[0], self._entries[entry_id].context, config.context_threshold
            )

        best, context_checked = first_admissible(
            hits,
            config.similarity_threshold,
            context_ok if config.verify_context else None,
        )
        decision = CacheDecision(
            hit=best is not None,
            query=query,
            top_candidate_query=self._entries[hits[0].id].query if hits else None,
            similarity=hits[0].score if hits else 0.0,
            candidates=hits,
            context_verified=context_checked,
            embed_time_s=embed_s,
            search_time_s=search_s,
            embedding=embedding,
            context_chain=chain[0] if chain else None,
        )
        self.stats.lookups += 1
        if best is None:
            self.stats.misses += 1
            return decision
        entry = self._entries[best.id]
        entry.hit_count += 1
        self._policy.record_access(entry.entry_id)
        self.stats.hits += 1
        decision.response = entry.response
        decision.matched_query = entry.query
        decision.entry_id = entry.entry_id
        decision.similarity = best.score
        return decision

    # ------------------------------------------------------------------ #
    # Insertion (Algorithm 1, line 9) and eviction
    # ------------------------------------------------------------------ #
    def insert(
        self,
        query: str,
        response: str,
        context: "Sequence[str] | ContextChain" = (),
        embedding: Optional[np.ndarray] = None,
    ) -> int:
        """Enrol a (query, response) pair; returns the new entry id.

        ``context`` may be a sequence of parent-query texts (embedded here)
        or an already-embedded :class:`ContextChain` — the tiered cache's
        promotion/demotion path hands chains across tiers without paying a
        re-encode.
        """
        require_query_text(query)
        if not isinstance(context, ContextChain):
            context = require_context_texts(context)
        if embedding is None:
            embedding, _ = self.embed(query)
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if self._index.dim is not None and embedding.shape[0] != self._index.dim:
            raise ValueError(
                f"embedding dim {embedding.shape[0]} does not match cache dim "
                f"{self._index.dim}"
            )

        if not math.isfinite(embedding @ embedding):
            # The index's own criterion (a finite norm), asked before a
            # victim is evicted for a row its store would then refuse.
            raise ValueError("embedding must be finite (NaN/inf component)")
        # Everything that can fail comes before the capacity loop: an encoder
        # error while embedding the context chain must not cost a victim.
        chain = context if isinstance(context, ContextChain) else self._embed_context(context)

        while len(self._entries) >= self.config.max_entries:
            self._evict_one()

        # The index copies ``embedding`` into its row; nothing else keeps it,
        # so a row view of a lookup batch's probe matrix pins nothing.
        entry = CacheEntry(
            query=query,
            response=response,
            context=chain.stored_at(native_float_dtype(self._index)),
            entry_id=self._next_id,
            index=self._index,
        )
        self._index.add(embedding, id=entry.entry_id)
        self._next_id += 1
        self._entries[entry.entry_id] = entry
        self._policy.record_insert(entry.entry_id)
        self.stats.insertions += 1
        return entry.entry_id

    def enroll(
        self,
        query: str,
        response: str,
        context: Sequence[str] = (),
        user_id: Optional[str] = None,
        embedding: Optional[np.ndarray] = None,
    ) -> None:
        """Admit a missed query's (query, response) pair — the one enrolment
        surface every cache variant shares (the serving layer calls it).

        :meth:`insert` under the uniform signature: ``user_id`` is ignored
        (the device *is* the user); ``embedding`` — the missed lookup's
        ``decision.embedding`` — skips a second encoder forward.
        """
        self.insert(query, response, context=context, embedding=embedding)

    def _evict_one(self) -> None:
        victim_id = self._policy.select_victim()
        self.remove(victim_id)
        self.stats.evictions += 1

    def remove(self, entry_id: int) -> None:
        """Remove a cache entry by id (O(d): the index swap-deletes its row)."""
        if entry_id not in self._entries:
            raise KeyError(f"no cache entry with id {entry_id}")
        del self._entries[entry_id]
        self._index.remove(entry_id)
        self._policy.record_remove(entry_id)

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
        self._index.clear()
        self._policy = LRUPolicy()

    # ------------------------------------------------------------------ #
    # Bulk / maintenance operations
    # ------------------------------------------------------------------ #
    def populate(
        self,
        queries: Sequence[str],
        responses: Optional[Sequence[str]] = None,
        contexts: Optional[Sequence[Sequence[str]]] = None,
    ) -> List[int]:
        """Insert many queries at once (used to pre-load experiment caches).

        The whole batch is embedded with a single encoder call; each entry is
        then enrolled through :meth:`insert` (one O(1) index append apiece),
        so pre-loading n queries costs one encode plus O(n) appends instead
        of the seed's O(n²) matrix rebuilds.
        """
        if responses is not None and len(responses) != len(queries):
            raise ValueError("responses must align with queries")
        if contexts is not None and len(contexts) != len(queries):
            raise ValueError("contexts must align with queries")
        queries = require_query_texts(queries)
        if not queries:
            return []
        embeddings = np.atleast_2d(
            np.asarray(
                self.encoder.encode(queries, compress=self.config.compressed),
                dtype=np.float64,
            )
        )
        ids: List[int] = []
        for i, query in enumerate(queries):
            response = responses[i] if responses is not None else f"cached response for: {query}"
            context = contexts[i] if contexts is not None else ()
            ids.append(self.insert(query, response, context=context, embedding=embeddings[i]))
        return ids

    def rebuild_embeddings(self) -> None:
        """Re-embed every cached query with the current encoder state.

        Called after the encoder is fine-tuned by FL or after a PCA head is
        attached/detached, so stored embeddings stay consistent with the
        encoder used for probes.
        """
        if not self._entries:
            self._index.clear(reset_ids=False)
            return
        live = list(self._entries.values())
        texts = [e.query for e in live]
        embs = self.encoder.encode(texts, compress=self.config.compressed)
        embs = np.atleast_2d(np.asarray(embs, dtype=np.float64))
        # Everything is embedded before anything changes: an index that
        # refuses the rows (a NaN from the encoder) leaves the cache as it was.
        native = native_float_dtype(self._index)
        chains = [
            entry.context
            if entry.context.is_empty
            else self._embed_context(list(entry.context.texts)).stored_at(native)
            for entry in live
        ]
        self._index.rebuild(embs, ids=[e.entry_id for e in live])
        for entry, chain in zip(live, chains):
            entry.context = chain

    def maintenance(self) -> None:
        """Off-query-path upkeep: delegate to the index's maintenance hook.

        The serving scheduler calls this between batching windows; subclasses
        and wrappers (e.g. the tiered cache) extend it with their own
        background work such as delta-log compaction.
        """
        self._index.maintenance()

    def set_threshold(self, threshold: float) -> None:
        """Update the adaptive similarity threshold τ.

        The live hook the federated layer drives: offline FL
        (:mod:`repro.federated.simulation`) pushes the round's aggregated τ
        here, and the online fleet loop
        (:class:`~repro.federated.online.OnlineThresholdAdapter`) pushes each
        user's personalized τ between batching windows.  Every lookup reads
        the config afresh, so the next one already admits under the new value.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        # MeanCacheConfig is frozen; replace it wholesale.
        self.config = replace(self.config, similarity_threshold=threshold)

    # ------------------------------------------------------------------ #
    # Persistence (versioned, atomically-published snapshot directory)
    # ------------------------------------------------------------------ #
    def save(self, path: "str | Path") -> Path:
        """Snapshot the whole cache state to a directory, atomically.

        One cache snapshot envelope (:func:`repro.index.snapshot.
        save_cache_snapshot`): the manifest carries config, stats,
        the LRU order and the next entry id; ``entries.json`` the
        texts and per-entry metadata; ``arrays/`` the entry ids and the
        context-chain embeddings; the vectors live once, in the nested
        ``index/`` snapshot.  :meth:`load` rebuilds a cache whose lookup decisions are
        byte-identical to this one's.  The encoder is *not* serialized —
        model weights are distributed by the FL pipeline, so ``load`` takes
        the encoder as an argument.
        """
        entries = list(self._entries.values())
        records = [
            {
                "entry_id": int(e.entry_id),
                "query": e.query,
                "response": e.response,
                "context": list(e.context.texts),
                "hit_count": int(e.hit_count),
            }
            for e in entries
        ]
        dim = self._index.dim or 0
        arrays = {
            "entry_ids": np.asarray(
                [int(e.entry_id) for e in entries], dtype=np.int64
            ),
            **pack_context_embeddings(
                ((e.entry_id, e.context.embedding) for e in entries),
                dim,
                native_float_dtype(self._index),
            ),
        }
        config = asdict(self.config)
        config["index_params"] = (
            dict(self.config.index_params) if self.config.index_params else None
        )
        payload = {
            "config": config,
            "next_id": int(self._next_id),
            "stats": asdict(self.stats),
            "policy": {"name": "lru", "state": self._policy.state_dict()},
            "embedding_dim": int(dim) if dim else None,
        }
        return save_cache_snapshot(
            path,
            MEANCACHE_FORMAT,
            MEANCACHE_VERSION,
            payload,
            records,
            arrays,
            self._index,
        )

    @classmethod
    def load(
        cls,
        path: "str | Path",
        encoder: SiameseEncoder,
    ) -> "MeanCache":
        """Rebuild a cache from a :meth:`save` snapshot.

        ``encoder`` must be configured like the saved cache's encoder (same
        weights, and a PCA head attached when the saved config used
        ``compressed=True``) for lookups to reproduce the saved decisions.
        Raises :class:`~repro.index.SnapshotError` for missing, corrupted,
        foreign-format or future-version snapshots.
        """
        path = Path(path)

        def build(manifest: Mapping[str, object]) -> tuple:
            # Snapshots written before threshold early stop was retired
            # carry its margin; retrieval is exhaustive now, so it is dropped.
            config = dict(manifest["config"])
            config.pop("early_stop_margin", None)
            # Snapshots written while the eviction policy was a setting name
            # it; LRU is the only policy now, so only an LRU cache loads.
            policy = (config.pop("eviction_policy", "lru"), manifest["policy"]["name"])
            if policy != ("lru", "lru"):
                raise SnapshotError(
                    f"snapshot at {path} uses eviction policy {policy[0]!r}; "
                    "only 'lru' is supported"
                )
            cache = cls(encoder, MeanCacheConfig(**config))
            cache._next_id = int(manifest["next_id"])
            cache.stats = CacheStats(**manifest["stats"])
            cache._policy.load_state_dict(manifest["policy"]["state"])
            return cache, manifest.get("embedding_dim"), int(manifest["version"])

        (cache, saved_dim, version), index, meta, data = load_cache_snapshot(
            path,
            MEANCACHE_FORMAT,
            MEANCACHE_VERSION,
            build,
            required=("entry_ids", "ctx_entry_ids", "ctx_embeddings"),
        )
        cache._index = index
        if (
            saved_dim is not None
            and index.dim is not None
            and int(saved_dim) != int(index.dim)
        ):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: manifest embedding_dim "
                f"{saved_dim} vs index dim {index.dim}"
            )
        entry_ids = [int(i) for i in np.asarray(data["entry_ids"])]
        if len(meta) != len(entry_ids):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: {len(meta)} entry records "
                f"vs {len(entry_ids)} entry ids"
            )
        if version < 3 and len(data.get("embeddings", ())) != len(entry_ids):
            # Before v3 each vector was stored a second time beside the
            # index's rows; the copy must line up with the entries, and is
            # then dropped (the rows are what searches read).
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: {len(entry_ids)} entries "
                f"vs {len(data.get('embeddings', ()))} embeddings"
            )
        native = native_float_dtype(index)
        ctx_embedding_of = unpack_context_embeddings(data)
        entries: Dict[int, CacheEntry] = {}
        for record, entry_id in zip(meta, entry_ids):
            if int(record["entry_id"]) != entry_id:
                raise SnapshotError(
                    f"snapshot at {path} is inconsistent: entries.json and "
                    "the entry id array disagree on entry ids"
                )
            entries[entry_id] = CacheEntry(
                query=record["query"],
                response=record["response"],
                context=ContextChain(
                    texts=tuple(record["context"]),
                    embedding=ctx_embedding_of.get(entry_id),
                ).stored_at(native),
                entry_id=entry_id,
                index=index,
                hit_count=int(record["hit_count"]),
            )
        if set(entries) != set(cache._index.ids):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: entry ids and index ids differ"
            )
        # The order holds no id twice (load_state_dict refused that), so it
        # lists each entry exactly once when it names the same ids.
        if set(cache._policy.state_dict()["order"]) != set(entries):
            raise SnapshotError(
                f"snapshot at {path} is inconsistent: the LRU order and the "
                "entry ids differ"
            )
        cache._entries = entries
        return cache


class _ContextEncoderProxy:
    """Adapter exposing ``encode`` honouring the cache's compression setting."""

    def __init__(self, cache: MeanCache) -> None:
        self._cache = cache

    def encode(self, texts):
        return self._cache.encoder.encode(texts, compress=self._cache.config.compressed)
