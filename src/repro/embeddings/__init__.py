"""Sentence-embedding substrate.

This package replaces the paper's use of SBERT + HuggingFace transformer
encoders (MPNet, ALBERT, Llama-2) with a self-contained, trainable NumPy
implementation:

* :mod:`repro.embeddings.tokenizer` — word + character n-gram tokenization.
* :mod:`repro.embeddings.featurizer` — hashed sparse feature vectors.
* :mod:`repro.embeddings.model` — a siamese two-layer MLP projection encoder
  with L2-normalised outputs, trainable by backpropagation.
* :mod:`repro.embeddings.losses` — contrastive loss and multiple-negatives
  ranking loss (the two objectives used by MeanCache client training).
* :mod:`repro.embeddings.optim` — the Adam optimizer.
* :mod:`repro.embeddings.zoo` — the "model zoo" mirroring the paper's three
  encoder classes (``mpnet-sim``, ``albert-sim``, ``llama2-sim``).
* :mod:`repro.embeddings.similarity` — vectorized cosine similarity (top-k
  search over cached embeddings is :mod:`repro.index`).
* :mod:`repro.embeddings.pca` — principal component analysis used for
  embedding compression.
"""

from repro.embeddings.featurizer import HashedFeaturizer, FeaturizerConfig
from repro.embeddings.losses import contrastive_loss, multiple_negatives_ranking_loss
from repro.embeddings.model import SiameseEncoder, EncoderConfig
from repro.embeddings.optim import Adam
from repro.embeddings.pca import PCA
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig
from repro.embeddings.zoo import load_encoder, ENCODER_SPECS, EncoderSpec

__all__ = [
    "Tokenizer",
    "TokenizerConfig",
    "HashedFeaturizer",
    "FeaturizerConfig",
    "SiameseEncoder",
    "EncoderConfig",
    "contrastive_loss",
    "multiple_negatives_ranking_loss",
    "Adam",
    "PCA",
    "cosine_similarity",
    "load_encoder",
    "ENCODER_SPECS",
    "EncoderSpec",
]
