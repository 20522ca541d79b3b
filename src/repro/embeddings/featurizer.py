"""Hashed sparse feature extraction (the encoder's "input layer").

The transformer encoders in the paper map token sequences into a continuous
space through learned token embeddings.  The NumPy substitute uses the hashing
trick: each token is hashed (with a fixed, seeded hash) into one of
``n_features`` buckets with a sign, producing a sparse count vector.  Two
queries that share words or character n-grams therefore share active features,
which is the lexical/semantic overlap signal that the trainable projection
head (:class:`repro.embeddings.model.SiameseEncoder`) sharpens.

The hashing is implemented without Python-level ``hash()`` so it is stable
across processes and interpreter runs (``PYTHONHASHSEED`` independence), which
matters for federated clients exchanging model parameters.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig

#: Most tokens :class:`HashedFeaturizer` keeps hashed slots for; the memo is
#: cleared when it would grow past this.
SLOT_MEMO_TOKENS = 32768


def stable_token_hash(token: str, seed: int = 0) -> int:
    """Return a stable 64-bit hash of ``token``.

    Uses blake2b with the seed mixed into the key so distinct featurizer
    instances can decorrelate their hash functions.
    """
    key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


@dataclass(frozen=True)
class FeaturizerConfig:
    """Configuration for :class:`HashedFeaturizer`.

    Attributes
    ----------
    n_features:
        Dimensionality of the hashed feature space (the encoder input width).
    seed:
        Seed mixed into the hash function.
    signed:
        If True, half the hash bits choose a +1/-1 sign per token, which
        reduces collision bias (as in scikit-learn's HashingVectorizer).
    normalize:
        L2-normalise the output feature vectors.
    sublinear_tf:
        Apply ``1 + log(count)`` damping to repeated tokens.
    """

    n_features: int = 2048
    seed: int = 0
    signed: bool = True
    normalize: bool = True
    sublinear_tf: bool = True

    def __post_init__(self) -> None:
        if self.n_features < 2:
            raise ValueError("n_features must be >= 2")


class HashedFeaturizer:
    """Map raw text to dense ``float64`` feature vectors of fixed width.

    The featurizer is stateless apart from its configuration (no fitted
    vocabulary), so federated clients construct identical featurizers from the
    same config without exchanging any data — an important property for the
    privacy-preserving design.
    """

    def __init__(
        self,
        config: FeaturizerConfig | None = None,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        self.config = config or FeaturizerConfig()
        self.tokenizer = tokenizer or Tokenizer(TokenizerConfig())
        # Per-instance memo of token -> (index, sign).  Purely a speed
        # optimisation: contents are fully determined by the config, so it is
        # bounded by SLOT_MEMO_TOKENS and simply cleared on overflow.
        self._memo: Dict[str, tuple[int, float]] = {}

    @property
    def n_features(self) -> int:
        """Width of the produced feature vectors."""
        return self.config.n_features

    def _slot(self, token: str) -> tuple[int, float]:
        cached = self._memo.get(token)
        if cached is not None:
            return cached
        h = stable_token_hash(token, self.config.seed)
        index = h % self.config.n_features
        sign = 1.0
        if self.config.signed:
            sign = 1.0 if (h >> 63) & 1 else -1.0
        slot = (int(index), sign)
        if len(self._memo) >= SLOT_MEMO_TOKENS:
            self._memo.clear()
        self._memo[token] = slot
        return slot

    def transform_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Featurize an already-tokenized query."""
        vec = np.zeros(self.config.n_features, dtype=np.float64)
        if not tokens:
            return vec
        try:
            counts = Counter(map(self._memo.__getitem__, tokens))
        except KeyError:
            counts = Counter(map(self._slot, tokens))
        sublinear = self.config.sublinear_tf
        for (index, sign), count in counts.items():
            if count == 1:
                vec[index] += sign  # 1 + log 1 is exactly 1.0
            else:
                vec[index] += sign * (1.0 + np.log(count) if sublinear else count)
        if self.config.normalize:
            norm = np.linalg.norm(vec)
            if norm > 0.0:
                vec /= norm
        return vec

    def transform(self, text: str) -> np.ndarray:
        """Featurize a single raw text query."""
        return self.transform_tokens(self.tokenizer.tokenize(text))

    def transform_batch(self, texts: Sequence[str] | Iterable[str]) -> np.ndarray:
        """Featurize a batch of texts into a ``(len(texts), n_features)`` matrix."""
        texts = list(texts)
        out = np.zeros((len(texts), self.config.n_features), dtype=np.float64)
        for i, text in enumerate(texts):
            out[i] = self.transform(text)
        return out
