"""Cosine similarity between embedding rows.

Dense, float64 similarity helpers used by training and evaluation.  Cached
embeddings are searched through :mod:`repro.index` instead (see
:class:`repro.index.FlatIndex`), whose rows are normalized once at insert.
"""

from __future__ import annotations

import numpy as np


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity between rows of ``a`` and rows of ``b``.

    Accepts 1-D or 2-D inputs; returns a scalar for two 1-D inputs, otherwise
    an ``(n_a, n_b)`` matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scalar = a.ndim == 1 and b.ndim == 1
    A = np.atleast_2d(a)
    B = np.atleast_2d(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    a_norm = np.linalg.norm(A, axis=1, keepdims=True)
    b_norm = np.linalg.norm(B, axis=1, keepdims=True)
    a_safe = A / np.where(a_norm > 1e-12, a_norm, 1.0)
    b_safe = B / np.where(b_norm > 1e-12, b_norm, 1.0)
    sims = a_safe @ b_safe.T
    return float(sims[0, 0]) if scalar else sims


def pairwise_cosine(pairs_a: np.ndarray, pairs_b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity between two equally-shaped batches."""
    A = np.atleast_2d(np.asarray(pairs_a, dtype=np.float64))
    B = np.atleast_2d(np.asarray(pairs_b, dtype=np.float64))
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    a_norm = np.linalg.norm(A, axis=1)
    b_norm = np.linalg.norm(B, axis=1)
    denom = a_norm * b_norm
    dots = np.einsum("ij,ij->i", A, B)
    return dots / np.where(denom > 1e-12, denom, 1.0)
