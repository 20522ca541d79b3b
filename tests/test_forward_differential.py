"""Differential test of the lookup first layer against the dense forward.

Inference ``forward(X)`` sums, per row, only the rows of ``W1`` the row's
non-zero features select; training ``forward(X, cache)`` keeps the dense
``X @ W1``.  The oracle is the old all-dense body, kept verbatim in
``tests/reference_forward.py``.  What is pinned:

* inference stays within ``8 * 2**-53`` of the oracle per embedding component
  (the same products summed in another order; measured maxima 1.1 on the
  768-d zoo encoders, 5.3 over 20,000 texts on a 24-d one) — generated texts
  plus the edge rows a gather could get wrong;
* on a fixed corpus both round to the **same float32**, the width every index
  stores and scores with, which is why no cache decision moves (a fixed
  corpus, not a generated one: a one-in-10^6 rounding boundary would be a
  flake, not a finding);
* training is bit-equal to the oracle, intermediates included;
* a row's first-layer activations no longer depend on its batch, an all-zero
  row's are exactly ``b1``, and a wrong-width ``X`` raises in both modes;
* inference, and ``encode`` with its text noise, equal the former lookup
  body and noise loop (``reference_lookup_forward``,
  ``reference_text_noise``) byte for byte at one row — the vector path a
  batch of one takes — and at batches of 2, 8 and 64, edge rows included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_forward import reference_forward, reference_lookup_forward, reference_text_noise
from repro.datasets.corpus import Corpus
from repro.embeddings import model as model_module
from repro.embeddings.featurizer import HashedFeaturizer
from repro.embeddings.model import EncoderConfig, SiameseEncoder
from repro.embeddings.zoo import load_encoder

TOLERANCE = 8 * 2.0**-53

TINY32 = EncoderConfig(
    n_features=256, hidden_dim=32, output_dim=24, seed=5, anisotropy=0.3, dtype="float32"
)


def build(name: str) -> SiameseEncoder:
    if name == "tiny-float32":
        return SiameseEncoder(TINY32)
    return load_encoder(name, pretrained=name != "llama2-sim")


@pytest.fixture(scope="module", params=["albert-sim", "mpnet-sim", "llama2-sim", "tiny-float32"])
def encoder(request) -> SiameseEncoder:
    return build(request.param)


def corpus_texts(seed: int, n: int) -> "list[str]":
    """``n`` seeded realisations of corpus intents: query-shaped, ~50 features each."""
    corpus = Corpus(seed=seed)
    rng = np.random.default_rng(seed)
    return [corpus.realize(intent, rng=rng) for intent in corpus.sample_intents(n, rng=rng)]


def colliding_tokens(featurizer: HashedFeaturizer) -> "tuple[str, str]":
    """Two tokens hashed to one slot with opposite signs: the feature sums to 0.0."""
    seen = {}
    for i in range(100_000):
        index, sign = featurizer._slot(f"tok{i}")
        if (index, -sign) in seen:
            return seen[(index, -sign)], f"tok{i}"
        seen[(index, sign)] = f"tok{i}"
    raise AssertionError("no colliding pair found")


def edge_rows(encoder: SiameseEncoder) -> np.ndarray:
    a, b = colliding_tokens(encoder.featurizer)
    cancelled = encoder.featurizer.transform_tokens([a, b, "other"])
    assert np.count_nonzero(cancelled) == 1  # the shared slot holds an explicit 0.0
    texts = [
        "",
        "what is the",
        "python",
        " ".join(f"word{i}" for i in range(3000)),
    ]
    all_cancelled = encoder.featurizer.transform_tokens([a, b])
    return np.vstack([encoder.featurize(texts), cancelled, all_cancelled])


def pre_activations(monkeypatch, encoder, X, cache=None) -> np.ndarray:
    """What ``forward`` hands to ``tanh``: the first layer's output."""
    seen = []
    real_tanh = np.tanh

    def spy(values):
        seen.append(values.copy())
        return real_tanh(values)

    with monkeypatch.context() as patch:
        patch.setattr(model_module.np, "tanh", spy)
        encoder.forward(X, cache)
    (pre_h,) = seen
    return pre_h


_words = st.sampled_from(
    ["sort", "sorting", "list", "python", "the", "is", "what", "it's", "naïve", "Ünïcode", "a1b2"]
)
texts = st.one_of(st.lists(_words, max_size=30).map(" ".join), st.text(max_size=60))


@given(batch=st.lists(texts, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_inference_is_within_tolerance_of_the_dense_oracle(encoder, batch):
    X = encoder.featurize(batch)
    assert np.abs(encoder.forward(X) - reference_forward(encoder, X)).max() <= TOLERANCE


def test_edge_rows_are_within_tolerance(encoder):
    X = edge_rows(encoder)
    assert np.count_nonzero(X[0]) == 0 and np.count_nonzero(X[-1]) == 0
    assert np.count_nonzero(X[3]) > 0.25 * X.shape[1]  # the densest row a text gives
    got, want = encoder.forward(X), reference_forward(encoder, X)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= TOLERANCE
    assert got.tobytes() == reference_lookup_forward(encoder, X).tobytes()
    for row in X:  # one row at a time: the shape every on-device probe has
        former = reference_lookup_forward(encoder, row)
        assert np.abs(former - reference_forward(encoder, row)).max() <= TOLERANCE
        for probe in (row, row[None, :]):
            got = encoder.forward(probe)
            assert got.shape == former.shape and got.tobytes() == former.tobytes()


@pytest.mark.parametrize("name", ["albert-sim", "mpnet-sim", "tiny-float32"])
def test_both_round_to_the_same_float32(name):
    encoder = build(name)
    rows = corpus_texts(seed=2024, n=800)
    assert len(set(rows)) > 400
    X = encoder.featurize(rows)
    batched = encoder.forward(X).astype(np.float32)
    assert np.array_equal(batched, reference_forward(encoder, X).astype(np.float32))
    single = np.vstack([encoder.forward(row) for row in X]).astype(np.float32)
    oracle_single = np.vstack([reference_forward(encoder, row) for row in X]).astype(np.float32)
    assert np.array_equal(single, oracle_single)


def reference_encode(encoder: SiameseEncoder, texts: "list[str]") -> np.ndarray:
    """``encode(texts, compress=False)`` by the former bodies."""
    E = reference_lookup_forward(encoder, encoder.featurize(texts))
    return reference_text_noise(encoder, E, texts) if encoder.config.text_noise > 0.0 else E


@pytest.mark.parametrize("size", [1, 2, 8, 64])
def test_encode_is_bit_equal_to_the_former_bodies(encoder, size):
    texts = corpus_texts(seed=13, n=size)
    got, want = encoder.encode(texts, compress=False), reference_encode(encoder, texts)
    assert got.shape == want.shape == (size, encoder.config.output_dim)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for text in texts[:16]:  # and one text at a time, the on-device shape
        single = encoder.encode(text, compress=False)
        assert single.tobytes() == reference_encode(encoder, [text])[0].tobytes()


def test_training_forward_is_bit_equal_to_the_oracle(encoder):
    X = edge_rows(encoder)
    cache, want_cache = {}, {}
    got = encoder.forward(X, cache)
    want = reference_forward(encoder, X, want_cache)
    assert got.tobytes() == want.tobytes()
    assert list(cache) == list(want_cache) == ["X", "h", "zn", "z_norms", "v_norms", "e"]
    for key in cache:
        assert cache[key].dtype == want_cache[key].dtype
        assert cache[key].tobytes() == want_cache[key].tobytes()


def test_first_layer_of_a_row_does_not_depend_on_its_batch(encoder, monkeypatch):
    X = encoder.featurize(corpus_texts(seed=7, n=64))
    batched = pre_activations(monkeypatch, encoder, X)
    assert batched.shape == (64, encoder.config.hidden_dim) and batched.dtype == np.float64
    for i in (0, 17, 63):
        assert pre_activations(monkeypatch, encoder, X[i]).tobytes() == batched[i : i + 1].tobytes()


def test_all_zero_row_activates_to_exactly_the_bias(monkeypatch):
    encoder = SiameseEncoder(TINY32)
    encoder.b1 = np.linspace(-1.0, 1.0, 32).astype(np.float32)
    X = np.zeros((2, 256))
    X[1, 9] = 0.5
    pre_h = pre_activations(monkeypatch, encoder, X)
    assert np.array_equal(pre_h[0], encoder.b1.astype(np.float64))
    assert np.array_equal(pre_h[1], 0.5 * encoder.W1[9].astype(np.float64) + encoder.b1)


@pytest.mark.parametrize("width", [255, 257, 0])
@pytest.mark.parametrize("training", [False, True])
def test_wrong_width_raises_naming_both_widths(width, training):
    encoder = SiameseEncoder(TINY32)
    cache = {} if training else None
    with pytest.raises(ValueError, match=rf"{width} != 256"):
        encoder.forward(np.ones((3, width)), cache)
    with pytest.raises(ValueError, match=rf"{width} != 256"):
        encoder.forward(np.ones(width), cache)
    with pytest.raises(ValueError, match=rf"{width} != 256"):
        encoder.forward(np.ones((1, width)), cache)
    assert cache is None or cache == {}
