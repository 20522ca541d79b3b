"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.policy import LRUPolicy
from repro.embeddings.featurizer import FeaturizerConfig, HashedFeaturizer
from repro.embeddings.pca import PCA
from repro.embeddings.similarity import cosine_similarity, pairwise_cosine
from repro.federated.aggregation import aggregate_thresholds, fedavg
from repro.index import FlatIndex
from repro.metrics.classification import confusion_matrix

# Bounded, finite float arrays for numerical properties.
finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw, max_dim=16):
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    a = draw(hnp.arrays(np.float64, dim, elements=finite_floats))
    b = draw(hnp.arrays(np.float64, dim, elements=finite_floats))
    return a, b


class TestCosineProperties:
    @given(vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bounded_in_unit_interval(self, pair):
        a, b = pair
        sim = cosine_similarity(a, b)
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9

    @given(vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, pair):
        a, b = pair
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-9)

    @given(vector_pairs(), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, pair, scale):
        a, b = pair
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(scale * a, b), abs=1e-8)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_is_one(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        X = rng.normal(size=(n, d))
        sims = pairwise_cosine(X, X)
        assert np.allclose(sims, 1.0)


class TestFlatSearchProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_is_truly_the_best(self, n_corpus, dim, top_k, seed):
        rng = np.random.default_rng(seed)
        corpus = rng.normal(size=(n_corpus, dim))
        query = rng.normal(size=dim)
        index = FlatIndex(dtype=np.float64)
        index.add_batch(corpus)
        hits = index.search(query, top_k=top_k)[0]
        all_sims = cosine_similarity(query, corpus).ravel()
        expected_best = float(np.max(all_sims))
        assert hits[0].score == pytest.approx(expected_best, abs=1e-9)
        assert len(hits) == min(top_k, n_corpus)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestFeaturizerProperties:
    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_norm_at_most_one(self, text):
        feat = HashedFeaturizer(FeaturizerConfig(n_features=128))
        vec = feat.transform(text)
        assert vec.shape == (128,)
        assert np.linalg.norm(vec) <= 1.0 + 1e-9

    @given(st.lists(st.sampled_from(["sort", "list", "python", "bake", "cookies", "trip"]), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_token_order_invariance(self, tokens):
        # Bag-of-features: permuting tokens must not change the vector.
        feat = HashedFeaturizer(FeaturizerConfig(n_features=256))
        a = feat.transform(" ".join(tokens))
        b = feat.transform(" ".join(reversed(tokens)))
        assert np.allclose(a, b)


class TestFedAvgProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_average_stays_in_coordinatewise_hull(self, n_clients, n_params, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(1, 4, size=2)) for _ in range(n_params)]
        clients = [[rng.normal(size=s) for s in shapes] for _ in range(n_clients)]
        weights = rng.integers(1, 10, size=n_clients).astype(float)
        out = fedavg(clients, list(weights))
        for j in range(n_params):
            stacked = np.stack([c[j] for c in clients])
            assert np.all(out[j] <= stacked.max(axis=0) + 1e-9)
            assert np.all(out[j] >= stacked.min(axis=0) - 1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_threshold_mean_bounded(self, thresholds):
        agg = aggregate_thresholds(thresholds)
        assert min(thresholds) - 1e-12 <= agg <= max(thresholds) + 1e-12


class TestConfusionMatrixProperties:
    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_sum_and_metric_bounds(self, labelled):
        y_true = [a for a, _ in labelled]
        y_pred = [b for _, b in labelled]
        cm = confusion_matrix(y_true, y_pred)
        assert cm.total == len(labelled)
        for value in (cm.precision(), cm.recall(), cm.accuracy(), cm.f1(), cm.fbeta(0.5)):
            assert 0.0 <= value <= 1.0
        # Fbeta lies between min and max of precision/recall when both nonzero.
        p, r = cm.precision(), cm.recall()
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= cm.fbeta(0.5) <= max(p, r) + 1e-12


class TestPCAProperties:
    @given(
        st.integers(min_value=6, max_value=30),
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=30, deadline=None)
    def test_variance_ratio_bounded_and_monotone(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        k = min(3, min(n, d) - 1)
        pca = PCA(n_components=max(k, 1)).fit(X)
        ratios = pca.explained_variance_ratio_
        assert np.all(ratios >= -1e-12) and ratios.sum() <= 1.0 + 1e-9
        assert np.all(np.diff(pca.explained_variance_) <= 1e-9)


class TestPolicyProperties:
    @given(st.lists(st.tuples(st.sampled_from(["insert", "access", "remove"]), st.integers(0, 9)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_policies_never_track_ghost_entries(self, ops):
        policy = LRUPolicy()
        live = set()
        for op, key in ops:
            if op == "insert":
                policy.record_insert(key)
                live.add(key)
            elif op == "access":
                policy.record_access(key)
            else:
                policy.record_remove(key)
                live.discard(key)
        assert len(policy) == len(live)
        if live:
            victim = policy.select_victim()
            assert victim in live
