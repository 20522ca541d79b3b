"""The dense forward pass as it stood before the first layer became a lookup: the oracle.

``reference_forward`` is the former body of
:meth:`repro.embeddings.model.SiameseEncoder.forward`, moved here verbatim
(the ``tests/reference_topk.py`` convention; ``self`` became ``encoder``).
It computes the first layer as one ``X @ W1`` whatever the caller wants the
result for.  Production still does exactly that when a ``cache`` is requested
(training), so there the two must agree bit for bit; without one (inference)
production sums only the rows of ``W1`` a probe's non-zero features select,
the same products in another order, and must stay within the tolerance
``tests/test_forward_differential.py`` fixes.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

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
