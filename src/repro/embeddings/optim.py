"""The gradient-descent optimizer of the NumPy encoder.

Adam, the one optimizer the reproduction trains with (client-side
fine-tuning and zoo pretraining, mirroring SBERT's default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class Adam:
    """Adam optimizer (Kingma & Ba, 2015)."""

    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    _m: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _v: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _t: int = field(default=0, repr=False)
    _scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """One bias-corrected Adam update of ``params``, in place.

        The moments are updated in place too, and every intermediate lands in
        one of two scratch arrays kept per parameter, so a step allocates
        nothing after the first.  Each line is one operation of the textbook
        expressions noted beside it, in their evaluation order, so the result
        is bit-identical to evaluating them with temporaries.
        """
        if len(params) != len(grads):
            raise ValueError("params and grads must have the same length")
        self._t += 1
        t = self._t
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
            if i not in self._m:
                dtype = np.result_type(p, g)
                self._m[i] = np.zeros(p.shape, dtype=dtype)
                self._v[i] = np.zeros(p.shape, dtype=dtype)
                self._scratch[i] = (np.empty(p.shape, dtype=dtype), np.empty(p.shape, dtype=dtype))
            m, v = self._m[i], self._v[i]
            a, b = self._scratch[i]
            if self.weight_decay:
                # g = g + weight_decay * p   (b is free until v_hat)
                np.multiply(p, self.weight_decay, out=b)
                b += g
                g = b
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * (g * g)
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - self.beta1**t, out=a)
            a *= self.lr
            np.divide(v, 1.0 - self.beta2**t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a

    def reset(self) -> None:
        """Forget both moment estimates and the step count."""
        self._m.clear()
        self._v.clear()
        self._scratch.clear()
        self._t = 0
