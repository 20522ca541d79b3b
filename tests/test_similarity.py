"""Unit tests for cosine similarity (top-k search is tested in ``test_index.py``)."""

import numpy as np
import pytest

from repro.embeddings.similarity import cosine_similarity, pairwise_cosine


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(-1.0)

    def test_matrix_output_shape(self, rng):
        A = rng.normal(size=(3, 5))
        B = rng.normal(size=(4, 5))
        assert cosine_similarity(A, B).shape == (3, 4)

    def test_scale_invariance(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(10 * a, 0.1 * b))

    def test_zero_vector_is_safe(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == pytest.approx(0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestPairwiseCosine:
    def test_matches_elementwise_cosine(self, rng):
        A = rng.normal(size=(6, 7))
        B = rng.normal(size=(6, 7))
        sims = pairwise_cosine(A, B)
        for i in range(6):
            assert sims[i] == pytest.approx(cosine_similarity(A[i], B[i]))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            pairwise_cosine(rng.normal(size=(3, 4)), rng.normal(size=(4, 4)))
