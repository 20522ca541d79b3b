"""Deterministic synthetic response generation.

MeanCache's behaviour never depends on response *content* (the paper notes
"MeanCache's performance is not dependent on the response as it only matches
the queries"), but the cache stores responses and the storage experiments
account for their size, so the simulator produces plausible, deterministic
responses of a configurable token length.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

_OPENERS = [
    "Sure, here is a concise answer.",
    "Here is what you need to know.",
    "Certainly — the short version follows.",
    "Good question; the key points are below.",
    "Here is a step-by-step explanation.",
]

_BODY_WORDS = [
    "first", "ensure", "that", "the", "required", "dependencies", "are",
    "installed", "then", "follow", "the", "steps", "outlined", "below",
    "carefully", "checking", "each", "result", "before", "continuing",
    "next", "configure", "the", "relevant", "settings", "and", "verify",
    "the", "expected", "behaviour", "finally", "review", "the", "output",
    "and", "adjust", "parameters", "if", "anything", "looks", "incorrect",
    "this", "approach", "is", "robust", "widely", "used", "and", "easy",
    "to", "maintain", "over", "time", "in", "practice",
]


def _stable_seed(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class ResponseGenerator:
    """Generates a deterministic pseudo-response for a query."""

    def __init__(self, response_tokens: int = 50) -> None:
        if response_tokens < 1:
            raise ValueError("response_tokens must be >= 1")
        self.response_tokens = response_tokens

    def generate(self, query: str, response_tokens: Optional[int] = None) -> str:
        """Return a deterministic response of roughly ``response_tokens`` words."""
        n_tokens = response_tokens if response_tokens is not None else self.response_tokens
        if n_tokens < 1:
            raise ValueError("response_tokens must be >= 1")
        rng = np.random.default_rng(_stable_seed(query))
        opener = _OPENERS[int(rng.integers(len(_OPENERS)))]
        words: List[str] = opener.split()
        if len(words) < n_tokens:
            # One sized draw yields the same bounded-integer stream as one
            # scalar draw per word (pinned by tests/test_response_generator.py).
            picks = rng.integers(len(_BODY_WORDS), size=n_tokens - len(words))
            words.extend(_BODY_WORDS[i] for i in picks.tolist())
        return " ".join(words[:n_tokens])


def count_tokens(text: str) -> int:
    """Whitespace token count (the simulator's notion of a token)."""
    return len(text.split())
