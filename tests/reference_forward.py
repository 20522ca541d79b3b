"""Former bodies of the encoder's forward pass and text noise: the oracles.

``reference_forward`` is the body of
:meth:`repro.embeddings.model.SiameseEncoder.forward` as it stood before the
first layer became a lookup, moved here verbatim (the
``tests/reference_topk.py`` convention; ``self`` became ``encoder``).  It
computes the first layer as one ``X @ W1`` whatever the caller wants the
result for.  Production still does exactly that when a ``cache`` is requested
(training), so there the two must agree bit for bit; without one (inference)
production sums only the rows of ``W1`` a probe's non-zero features select,
the same products in another order, and must stay within the tolerance
``tests/test_forward_differential.py`` fixes.

``reference_lookup_forward`` is the inference body of ``forward`` as it
stood before a one-row batch got its own vector path, and
``reference_text_noise`` the ``_apply_text_noise`` loop before it lost its
up-front copy and ``np.linalg.norm`` calls; both moved here verbatim.
Production must equal them byte for byte at every batch size, one row
included.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.embeddings.featurizer import stable_token_hash
from repro.embeddings.model import SiameseEncoder


def reference_forward(
    encoder: SiameseEncoder, X: np.ndarray, cache: Optional[Dict[str, np.ndarray]] = None
) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    pre_h = X @ encoder.W1 + encoder.b1
    h = np.tanh(pre_h)
    z = h @ encoder.W2 + encoder.b2
    z_norms = np.linalg.norm(z, axis=1, keepdims=True)
    z_norms = np.where(z_norms > 1e-12, z_norms, 1.0)
    zn = z / z_norms
    alpha = encoder.config.anisotropy
    if alpha > 0.0:
        v = zn + alpha * encoder._aniso_dir
        v_norms = np.linalg.norm(v, axis=1, keepdims=True)
        v_norms = np.where(v_norms > 1e-12, v_norms, 1.0)
        e = v / v_norms
    else:
        v_norms = np.ones_like(z_norms)
        e = zn
    if cache is not None:
        cache["X"] = X
        cache["h"] = h
        cache["zn"] = zn
        cache["z_norms"] = z_norms
        cache["v_norms"] = v_norms
        cache["e"] = e
    return e


def reference_lookup_forward(encoder: SiameseEncoder, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != encoder.W1.shape[0]:
        raise ValueError(
            f"feature matrix of shape {X.shape} does not match the encoder's "
            f"input width: {X.shape[-1]} != {encoder.W1.shape[0]}"
        )
    W1 = encoder.W1
    pre_h = np.empty((X.shape[0], W1.shape[1]), dtype=np.float64)
    for i, x in enumerate(X):
        nz = np.flatnonzero(x)
        pre_h[i] = x[nz] @ W1[nz]
    pre_h += encoder.b1
    h = np.tanh(pre_h)
    z = h @ encoder.W2 + encoder.b2
    z_norms = np.linalg.norm(z, axis=1, keepdims=True)
    z_norms = np.where(z_norms > 1e-12, z_norms, 1.0)
    zn = z / z_norms
    alpha = encoder.config.anisotropy
    if alpha > 0.0:
        v = zn + alpha * encoder._aniso_dir
        v_norms = np.linalg.norm(v, axis=1, keepdims=True)
        v_norms = np.where(v_norms > 1e-12, v_norms, 1.0)
        e = v / v_norms
    else:
        v_norms = np.ones_like(z_norms)
        e = zn
    return e


def reference_text_noise(encoder: SiameseEncoder, E: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    sigma = encoder.config.text_noise
    noisy = np.array(E, dtype=np.float64, copy=True)
    for i, text in enumerate(texts):
        rng = np.random.default_rng(stable_token_hash(text, encoder.config.seed))
        noise = rng.normal(size=noisy.shape[1])
        noise /= np.linalg.norm(noise)
        noisy[i] = noisy[i] + sigma * noise
        norm = np.linalg.norm(noisy[i])
        if norm > 1e-12:
            noisy[i] /= norm
    return noisy
