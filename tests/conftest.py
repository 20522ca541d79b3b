"""Shared fixtures for the test suite.

Most unit tests use a deliberately tiny encoder (256 hashed features, 32
hidden units, 64-d embeddings, no pretraining) so the whole suite stays fast;
a handful of integration tests use the real zoo encoders, which load their
shipped checkpoints once per session and are cached by the zoo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.corpus import Corpus
from repro.datasets.semantic_pairs import generate_cache_workload, generate_pair_dataset
from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig


TINY_CONFIG = EncoderConfig(
    n_features=256,
    hidden_dim=32,
    output_dim=64,
    seed=5,
    anisotropy=0.3,
)


def make_tiny_encoder(seed: int = 5, anisotropy: float = 0.3) -> SiameseEncoder:
    """Construct a small untrained encoder (helper usable outside fixtures)."""
    config = EncoderConfig(
        n_features=256, hidden_dim=32, output_dim=64, seed=seed, anisotropy=anisotropy
    )
    featurizer = HashedFeaturizer(
        FeaturizerConfig(n_features=256, seed=seed), Tokenizer(TokenizerConfig())
    )
    return SiameseEncoder(config, featurizer)


@pytest.fixture()
def tiny_encoder() -> SiameseEncoder:
    """A fresh tiny encoder per test."""
    return make_tiny_encoder()


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """The full synthetic corpus."""
    return Corpus(seed=0)


@pytest.fixture(scope="session")
def small_pair_dataset():
    """A small labelled pair dataset reused across tests."""
    return generate_pair_dataset(n_pairs=120, duplicate_fraction=0.5, seed=11)


@pytest.fixture(scope="session")
def small_workload():
    """A small cache workload reused across tests."""
    return generate_cache_workload(n_cached=60, n_probes=60, duplicate_fraction=0.3, seed=13)


@pytest.fixture(scope="session")
def albert_encoder():
    """The pretrained ALBERT-class zoo encoder (loaded once per session)."""
    from repro.embeddings.zoo import load_encoder

    return load_encoder("albert-sim")


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded NumPy RNG."""
    return np.random.default_rng(123)
