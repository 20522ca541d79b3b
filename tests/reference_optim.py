"""Adam as it stood before its step ran in place: the oracle.

``ReferenceAdam.step`` is the former body of
:meth:`repro.embeddings.optim.Adam.step`, kept verbatim (the
``tests/reference_topk.py`` convention).  It evaluates the textbook
expressions with a fresh temporary per operation; the production step performs
the same operations in the same order into reused arrays, so parameters and
both moments must come out byte-equal — which is what keeps every pretrained
zoo checkpoint, and with it every pinned embedding, where it was.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.embeddings.optim import Adam


class ReferenceAdam(Adam):
    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads must have the same length")
        self._t += 1
        t = self._t
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
            if self.weight_decay:
                g = g + self.weight_decay * p
            m = self._m.get(i)
            v = self._v.get(i)
            if m is None:
                m = np.zeros_like(p)
                v = np.zeros_like(p)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self._m[i] = m
            self._v[i] = v
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
