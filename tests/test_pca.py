"""Unit tests for the PCA compression module."""

import numpy as np
import pytest

from repro.embeddings.pca import PCA


@pytest.fixture()
def data(rng):
    # Low-rank data plus noise: 100 samples in 20 dims, true rank ~5.
    basis = rng.normal(size=(5, 20))
    coeffs = rng.normal(size=(100, 5))
    return coeffs @ basis + 0.01 * rng.normal(size=(100, 20))


class TestFit:
    def test_components_shape(self, data):
        pca = PCA(n_components=5).fit(data)
        assert pca.components_.shape == (5, 20)
        assert pca.mean_.shape == (20,)

    def test_components_are_orthonormal(self, data):
        pca = PCA(n_components=5).fit(data)
        gram = pca.components_ @ pca.components_.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_explained_variance_is_sorted(self, data):
        pca = PCA(n_components=6).fit(data)
        ev = pca.explained_variance_
        assert np.all(np.diff(ev) <= 1e-12)

    def test_low_rank_data_explained_by_few_components(self, data):
        pca = PCA(n_components=5).fit(data)
        assert pca.explained_variance_ratio_.sum() > 0.98

    def test_too_many_components_rejected(self, data):
        with pytest.raises(ValueError):
            PCA(n_components=21).fit(data)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            PCA(n_components=1).fit(np.ones((1, 4)))

    def test_invalid_component_count(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_and_nothing_fitted(self, data, bad):
        X = data.copy()
        X[3, 7] = bad
        pca = PCA(n_components=5)
        with pytest.raises(ValueError, match="infs or NaNs"):
            pca.fit(X)
        assert not pca.is_fitted and pca.mean_ is None
        fitted = PCA(n_components=5).fit(data)
        before = fitted.state_dict()
        with pytest.raises(ValueError, match="infs or NaNs"):
            fitted.fit(X)
        assert all(np.array_equal(v, fitted.state_dict()[k]) for k, v in before.items())


class TestTransform:
    def test_transform_shape(self, data):
        pca = PCA(n_components=4).fit(data)
        z = pca.transform(data[:7])
        assert z.shape == (7, 4)

    def test_transform_before_fit_rejected(self, data):
        with pytest.raises(RuntimeError):
            PCA(n_components=3).transform(data)

    def test_wrong_width_rejected(self, data):
        pca = PCA(n_components=3).fit(data)
        with pytest.raises(ValueError):
            pca.transform(np.ones((2, 19)))

    def test_fit_transform_equals_fit_then_transform(self, data):
        a = PCA(n_components=4).fit_transform(data)
        pca = PCA(n_components=4).fit(data)
        assert np.allclose(a, pca.transform(data))

    def test_projection_preserves_neighbourhoods(self, data):
        # The nearest neighbour of a point should usually survive a projection
        # that captures almost all the variance.
        pca = PCA(n_components=5).fit(data)
        z = pca.transform(data)
        orig_d = np.linalg.norm(data[0] - data[1:], axis=1)
        proj_d = np.linalg.norm(z[0] - z[1:], axis=1)
        assert np.argmin(orig_d) == np.argmin(proj_d)


class TestInverseTransform:
    def test_reconstruction_error_small_for_low_rank(self, data):
        pca = PCA(n_components=5).fit(data)
        assert pca.reconstruction_error(data) < 1e-3

    def test_reconstruction_error_larger_with_fewer_components(self, data):
        full = PCA(n_components=5).fit(data).reconstruction_error(data)
        truncated = PCA(n_components=2).fit(data).reconstruction_error(data)
        assert truncated > full

    def test_inverse_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=2).inverse_transform(np.ones((2, 2)))

    def test_inverse_wrong_width_rejected(self, data):
        pca = PCA(n_components=3).fit(data)
        with pytest.raises(ValueError):
            pca.inverse_transform(np.ones((2, 4)))


class TestWhitenAndState:
    def test_whitened_components_have_unit_variance(self, data):
        pca = PCA(n_components=3, whiten=True).fit(data)
        z = pca.transform(data)
        assert np.allclose(z.var(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_state_dict_roundtrip(self, data):
        pca = PCA(n_components=4).fit(data)
        restored = PCA.from_state_dict(pca.state_dict())
        assert np.allclose(restored.transform(data), pca.transform(data))

    def test_unfitted_state_dict_rejected(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=2).state_dict()

    def test_clone_unfitted_and_fitted(self, data):
        assert not PCA(n_components=2).clone().is_fitted
        fitted = PCA(n_components=2).fit(data)
        clone = fitted.clone()
        assert np.allclose(clone.transform(data), fitted.transform(data))
