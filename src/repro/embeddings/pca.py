"""Principal component analysis for embedding compression.

MeanCache compresses 768-dimensional embeddings down to 64 dimensions by
learning principal components over the users' query embeddings and attaching
them as an extra projection layer (paper §III-A4, Figure 3).  This module
implements PCA via the SVD of the centred data matrix (``full_matrices=False``
per the HPC optimization guide — we never need the full orthonormal basis).

The SVD is NumPy's (LAPACK ``gesdd``), so a fit loads no second numerical
stack into the process.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class PCA:
    """Principal component analysis fitted by thin SVD.

    Parameters
    ----------
    n_components:
        Number of principal components to keep (the compressed dimension).
    whiten:
        If True, scale projected components to unit variance.
    """

    def __init__(self, n_components: int = 64, whiten: bool = False) -> None:
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = int(n_components)
        self.whiten = bool(whiten)
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None  # (n_components, n_features)
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None
        self.n_features: Optional[int] = None
        self.n_samples_: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.components_ is not None

    def fit(self, X: np.ndarray) -> "PCA":
        """Learn the principal components of ``X`` (shape ``(n, d)``)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n, d = X.shape
        if n < 2:
            raise ValueError(f"PCA requires at least 2 samples, got {n}")
        if self.n_components > min(n, d):
            raise ValueError(
                f"n_components={self.n_components} exceeds min(n_samples, n_features)={min(n, d)}"
            )
        # LAPACK would iterate on a NaN until it reports no convergence.
        if not np.isfinite(X).all():
            raise ValueError("array must not contain infs or NaNs")
        mean = X.mean(axis=0)
        Xc = X - mean
        # Thin SVD: we only need the top singular vectors.
        _, s, vt = np.linalg.svd(Xc, full_matrices=False)
        variance = (s**2) / max(n - 1, 1)
        total_var = variance.sum()
        k = self.n_components
        self.mean_ = mean
        self.components_ = vt[:k].copy()
        self.explained_variance_ = variance[:k].copy()
        self.explained_variance_ratio_ = (
            variance[:k] / total_var if total_var > 0 else np.zeros(k)
        )
        self.n_features = d
        self.n_samples_ = n
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project ``X`` onto the principal components."""
        if not self.is_fitted:
            raise RuntimeError("PCA.transform called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        Z = (X - self.mean_) @ self.components_.T
        if self.whiten:
            scale = np.sqrt(np.where(self.explained_variance_ > 1e-12, self.explained_variance_, 1.0))
            Z = Z / scale
        return Z

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit the components and return the projection of ``X``."""
        return self.fit(X).transform(X)

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Map compressed vectors back into the original space (lossy)."""
        if not self.is_fitted:
            raise RuntimeError("PCA.inverse_transform called before fit")
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.n_components:
            raise ValueError(f"expected {self.n_components} components, got {Z.shape[1]}")
        if self.whiten:
            scale = np.sqrt(np.where(self.explained_variance_ > 1e-12, self.explained_variance_, 1.0))
            Z = Z * scale
        return Z @ self.components_ + self.mean_

    def reconstruction_error(self, X: np.ndarray) -> float:
        """Mean squared reconstruction error of ``X`` through the compression."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        recon = self.inverse_transform(self.transform(X))
        return float(np.mean((X - recon) ** 2))

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serializable state."""
        if not self.is_fitted:
            raise RuntimeError("cannot serialize an unfitted PCA")
        return {
            "mean": self.mean_.copy(),
            "components": self.components_.copy(),
            "explained_variance": self.explained_variance_.copy(),
            "explained_variance_ratio": self.explained_variance_ratio_.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, np.ndarray], whiten: bool = False) -> "PCA":
        """Rebuild a fitted PCA from :meth:`state_dict` output."""
        components = np.asarray(state["components"], dtype=np.float64)
        obj = cls(n_components=components.shape[0], whiten=whiten)
        obj.components_ = components
        obj.mean_ = np.asarray(state["mean"], dtype=np.float64)
        obj.explained_variance_ = np.asarray(state["explained_variance"], dtype=np.float64)
        obj.explained_variance_ratio_ = np.asarray(
            state["explained_variance_ratio"], dtype=np.float64
        )
        obj.n_features = obj.components_.shape[1]
        return obj

    def clone(self) -> "PCA":
        """Deep copy."""
        if not self.is_fitted:
            return PCA(self.n_components, self.whiten)
        return PCA.from_state_dict(self.state_dict(), whiten=self.whiten)
