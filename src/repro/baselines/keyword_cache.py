"""Classic keyword/exact-match web cache.

Represents the pre-semantic caching literature the paper surveys (Markatos
2001, Lempel & Moran 2003, Fagni et al. 2006): queries are normalised
(lower-cased, whitespace-collapsed, optionally stop-word-stripped and sorted)
and matched *exactly*.  Such caches cannot detect paraphrases, which is the
motivating failure mode of the paper's introduction, and serve as a floor in
the ablation benchmarks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import CacheDecision, CacheStats
from repro.core.policy import EvictionPolicy, make_policy
from repro.core.validation import require_query_text, require_query_texts
from repro.embeddings.tokenizer import DEFAULT_STOPWORDS

_WS_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^a-z0-9\s]")


@dataclass(frozen=True)
class KeywordCacheConfig:
    """Normalisation and capacity knobs."""

    remove_stopwords: bool = True
    sort_tokens: bool = False
    max_entries: int = 100_000
    eviction_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")


class KeywordCache:
    """Exact-match cache over normalised query strings."""

    def __init__(self, config: Optional[KeywordCacheConfig] = None) -> None:
        self.config = config or KeywordCacheConfig()
        self._data: Dict[str, Tuple[str, str]] = {}  # key -> (query, response)
        self._policy: EvictionPolicy = make_policy(self.config.eviction_policy)
        self._key_ids: Dict[str, int] = {}
        self._id_keys: Dict[int, str] = {}
        self._next_id = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------ #
    def normalize(self, query: str) -> str:
        """Lower-case, strip punctuation, collapse whitespace, optionally
        drop stop-words and sort tokens."""
        text = _PUNCT_RE.sub(" ", query.lower())
        tokens = _WS_RE.sub(" ", text).strip().split()
        if self.config.remove_stopwords:
            kept = [t for t in tokens if t not in DEFAULT_STOPWORDS]
            if kept:
                tokens = kept
        if self.config.sort_tokens:
            tokens = sorted(tokens)
        return " ".join(tokens)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, query: str) -> bool:
        return self.normalize(query) in self._data

    # ------------------------------------------------------------------ #
    def _evict_one(self) -> None:
        victim = self._policy.select_victim()
        victim_key = self._id_keys.pop(victim)
        self._key_ids.pop(victim_key, None)
        self._data.pop(victim_key, None)
        self._policy.record_remove(victim)

    def insert(self, query: str, response: str) -> None:
        """Store a (query, response) pair under the normalised key."""
        require_query_text(query)
        key = self.normalize(query)
        if key in self._data:
            self._data[key] = (query, response)
            self._policy.record_access(self._key_ids[key])
            return
        while len(self._data) >= self.config.max_entries:
            self._evict_one()
        entry_id = self._next_id
        self._next_id += 1
        self._data[key] = (query, response)
        self._key_ids[key] = entry_id
        self._id_keys[entry_id] = key
        self._policy.record_insert(entry_id)

    def populate(self, queries: Sequence[str], responses: Optional[Sequence[str]] = None) -> None:
        """Bulk insert."""
        if responses is not None and len(responses) != len(queries):
            raise ValueError("responses must align with queries")
        for i, query in enumerate(require_query_texts(queries)):
            response = responses[i] if responses is not None else f"cached response for: {query}"
            self.insert(query, response)

    def enroll(
        self,
        query: str,
        response: str,
        context: Sequence[str] = (),
        user_id: Optional[str] = None,
        embedding: Optional[object] = None,
    ) -> None:
        """:meth:`insert` under the enrolment signature every cache shares.

        Exact matching stores no vectors and knows no conversations or
        users, so everything but the pair itself is ignored.
        """
        self.insert(query, response)

    def lookup(self, query: str) -> CacheDecision:
        """Hit (with the cached response) on an exact normalised match, else miss.

        A hit reports similarity 1.0 and leaves ``matched_query`` unset: a
        key stands for every query that normalises to it, so there is no
        single matched text to verify against.  The timings stay 0.0 too — a
        dictionary probe is reported as free, which keeps the keyword floor's
        latency numbers purely the LLM's.
        """
        key = self.normalize(require_query_text(query))
        self.lookups += 1
        entry_id = self._key_ids.get(key)
        if entry_id is None:
            return CacheDecision(hit=False, query=query)
        self.hits += 1
        self._policy.record_access(entry_id)
        return CacheDecision(
            hit=True, query=query, response=self._data[key][1], similarity=1.0
        )

    def lookup_batch(self, queries: Sequence[str]) -> List[CacheDecision]:
        """Look up many queries in order (the batched workload entry point).

        Exact-match lookups are already O(1), so unlike the semantic caches
        this is pure convenience: it mirrors ``MeanCache.lookup_batch`` /
        ``GPTCache.lookup_batch`` so workload drivers treat every cache
        uniformly.
        """
        return [self.lookup(query) for query in require_query_texts(queries)]

    @property
    def stats(self) -> CacheStats:
        """The ``lookups``/``hits`` counters as a :class:`CacheStats` view."""
        return CacheStats(
            lookups=self.lookups, hits=self.hits, misses=self.lookups - self.hits
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        return self.hits / self.lookups if self.lookups else 0.0
