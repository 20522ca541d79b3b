"""The fast tokenizer/featurizer path is bit-identical to the loop it replaced.

``reference_tokenize`` / ``reference_transform_tokens`` are the implementation
as it stood before the per-word n-gram memo, the ``Counter`` slot count and the
skipped ``log 1`` went in; the properties require equal lists and
``array_equal`` vectors, not closeness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import featurizer as featurizer_module
from repro.embeddings import tokenizer as tokenizer_module
from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer, stable_token_hash
from repro.embeddings.tokenizer import Tokenizer, TokenizerConfig

# The two tokenizer configurations the zoo builds (llama2-sim: no stop-word
# removal, no character n-grams).
TOKENIZER_CONFIGS = {
    "default": TokenizerConfig(),
    "llama2-sim": TokenizerConfig(remove_stopwords=False, char_ngram_max=0),
}


def reference_tokenize(tokenizer, text):
    words = tokenizer.words(text)
    tokens = list(words)
    for word in words:
        tokens.extend(f"cg:{g}" for g in tokenizer.char_ngrams(word))
    return tokens


def reference_transform_tokens(config, tokens):
    vec = np.zeros(config.n_features, dtype=np.float64)
    if not tokens:
        return vec
    counts = {}
    for token in tokens:
        h = stable_token_hash(token, config.seed)
        sign = (1.0 if (h >> 63) & 1 else -1.0) if config.signed else 1.0
        slot = (int(h % config.n_features), sign)
        counts[slot] = counts.get(slot, 0.0) + 1.0
    for (index, sign), count in counts.items():
        value = 1.0 + np.log(count) if config.sublinear_tf else count
        vec[index] += sign * value
    if config.normalize:
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
    return vec


# Words repeat (the ``count > 1`` branch), stop words appear alone, unicode and
# punctuation pass through the word regex, and "" is a legal text.
_words = st.sampled_from(
    ["sort", "sorting", "list", "python", "the", "is", "what", "it's", "naïve", "Ünïcode", "a1b2"]
)
_word_runs = st.lists(_words, max_size=12).map(" ".join)
texts = st.one_of(_word_runs, st.text(max_size=40), st.just(""), st.just("what is the"))


@pytest.mark.parametrize("name", sorted(TOKENIZER_CONFIGS))
@given(text=texts)
@settings(max_examples=150, deadline=None)
def test_tokenize_equals_reference(name, text):
    tokenizer = Tokenizer(TOKENIZER_CONFIGS[name])
    expected = reference_tokenize(tokenizer, text)
    assert tokenizer.tokenize(text) == expected
    assert tokenizer.tokenize(text) == expected  # now from the n-gram memo


@pytest.mark.parametrize("name", sorted(TOKENIZER_CONFIGS))
@pytest.mark.parametrize("sublinear_tf", [True, False])
@given(batch=st.lists(texts, max_size=5))
@settings(max_examples=100, deadline=None)
def test_transform_equals_reference(name, sublinear_tf, batch):
    config = FeaturizerConfig(n_features=64, seed=3, sublinear_tf=sublinear_tf)
    feat = HashedFeaturizer(config, Tokenizer(TOKENIZER_CONFIGS[name]))
    token_lists = [reference_tokenize(feat.tokenizer, text) for text in batch]
    expected = [reference_transform_tokens(config, tokens) for tokens in token_lists]
    for tokens, row in zip(token_lists, expected):
        assert np.array_equal(feat.transform_tokens(tokens), row)
    out = feat.transform_batch(batch)
    assert out.shape == (len(batch), 64) and out.dtype == np.float64
    assert np.array_equal(out, np.array(expected).reshape(len(batch), 64))


def test_repeated_word_takes_the_log_branch():
    config = FeaturizerConfig(n_features=512, normalize=False)
    feat = HashedFeaturizer(config)
    text = "python python python list"
    vec = feat.transform(text)
    assert np.array_equal(vec, reference_transform_tokens(config, feat.tokenizer.tokenize(text)))
    assert np.isclose(np.abs(vec).max(), 1.0 + np.log(3.0))


class TestMemoBounds:
    def test_slot_memo_is_cleared_on_overflow(self, monkeypatch):
        monkeypatch.setattr(featurizer_module, "SLOT_MEMO_TOKENS", 50)
        monkeypatch.setattr(tokenizer_module, "NGRAM_MEMO_WORDS", 10)
        feat = HashedFeaturizer(FeaturizerConfig(n_features=128))
        texts = [f"word{i} token{i} again{i}" for i in range(200)]
        rows = []
        for text in texts:
            rows.append(feat.transform(text))
            assert len(feat._memo) <= 50
            assert len(feat.tokenizer._ngram_memo) <= 10
        fresh = HashedFeaturizer(FeaturizerConfig(n_features=128))
        for text, row in zip(texts, rows):
            assert np.array_equal(row, fresh.transform(text))

    def test_one_text_wider_than_the_cap(self, monkeypatch):
        """A clear in the middle of a text drops slots that text already used."""
        monkeypatch.setattr(featurizer_module, "SLOT_MEMO_TOKENS", 8)
        feat = HashedFeaturizer(FeaturizerConfig(n_features=128))
        text = " ".join(f"word{i}" for i in range(30))
        expected = reference_transform_tokens(feat.config, feat.tokenizer.tokenize(text))
        assert np.array_equal(feat.transform(text), expected)
        assert np.array_equal(feat.transform(text), expected)
        assert len(feat._memo) <= 8
