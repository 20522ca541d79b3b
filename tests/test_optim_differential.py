"""Differential test of the in-place ``Adam.step`` against its predecessor.

The step was rewritten to reuse its arrays; what it must not change is a
single bit of any parameter or moment, because the zoo's pretrained
checkpoints are 55 such steps and every pinned embedding follows from them.
The oracle is the old body, kept verbatim in ``tests/reference_optim.py``; it
runs beside the production step in this process (a pinned digest would be
specific to one BLAS build).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tiny_encoder
from reference_optim import ReferenceAdam
from repro.embeddings.optim import Adam

SHAPES = [(40, 16), (16,), (16, 24), (1,)]


def assert_same_state(opt: Adam, ref: ReferenceAdam, params, ref_params) -> None:
    assert opt._t == ref._t
    for i, (p, q) in enumerate(zip(params, ref_params)):
        assert p.dtype == q.dtype and p.tobytes() == q.tobytes()
        for got, want in ((opt._m[i], ref._m[i]), (opt._v[i], ref._v[i])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("param_dtype", [np.float64, np.float32])
def test_sixty_steps_are_byte_equal(weight_decay, param_dtype):
    rng = np.random.default_rng(7)
    params = [rng.standard_normal(shape).astype(param_dtype) for shape in SHAPES]
    ref_params = [p.copy() for p in params]
    opt = Adam(lr=3e-3, weight_decay=weight_decay)
    ref = ReferenceAdam(lr=3e-3, weight_decay=weight_decay)
    for _ in range(60):
        grads = [rng.standard_normal(shape) for shape in SHAPES]
        kept = [g.copy() for g in grads]
        opt.step(params, grads)
        ref.step(ref_params, [g.copy() for g in grads])
        # grads are read, never used as scratch
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
        assert_same_state(opt, ref, params, ref_params)


def test_state_restarts_after_reset():
    rng = np.random.default_rng(8)
    params = [rng.standard_normal((5, 3))]
    ref_params = [params[0].copy()]
    opt, ref = Adam(), ReferenceAdam()
    for _ in range(2):
        for _ in range(3):
            grad = rng.standard_normal((5, 3))
            opt.step(params, [grad])
            ref.step(ref_params, [grad])
        assert_same_state(opt, ref, params, ref_params)
        opt.reset()
        ref.reset()
        assert not opt._m and not opt._v and not opt._scratch


def test_train_on_pairs_leaves_byte_equal_weights(small_pair_dataset):
    pairs = small_pair_dataset.as_tuples()[:64]
    encoder, reference = make_tiny_encoder(), make_tiny_encoder()
    opt, ref = Adam(lr=1e-2), ReferenceAdam(lr=1e-2)
    losses = encoder.train_on_pairs(pairs, epochs=2, batch_size=16, optimizer=opt)
    ref_losses = reference.train_on_pairs(pairs, epochs=2, batch_size=16, optimizer=ref)
    assert losses == ref_losses
    assert opt._t == 8
    assert_same_state(opt, ref, encoder.get_parameters(), reference.get_parameters())
