"""Baseline caching systems the paper compares against."""

from repro.baselines.gptcache import GPTCache, GPTCacheConfig
from repro.baselines.keyword_cache import KeywordCache, KeywordCacheConfig

__all__ = [
    "GPTCache",
    "GPTCacheConfig",
    "KeywordCache",
    "KeywordCacheConfig",
]
