"""Principal component analysis via singular value decomposition.

Used twice by the paper: Figure 3 reads the explained-variance curve to
pick the target number of kernels, and the PCA + k-means pruner clusters
in the reduced space and maps centroids back through
:meth:`PCA.inverse_transform`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseEstimator, check_is_fitted
from repro.utils.validation import check_array

__all__ = ["PCA"]


class PCA(BaseEstimator):
    """Linear dimensionality reduction onto directions of maximal variance.

    Parameters
    ----------
    n_components:
        Number of components to keep; ``None`` keeps
        ``min(n_samples, n_features)``.

    Attributes
    ----------
    components_ : (n_components, n_features)
        Principal axes, ordered by decreasing explained variance.
    explained_variance_ : (n_components,)
        Variance captured by each component.
    explained_variance_ratio_ : (n_components,)
        Fraction of total variance captured by each component.
    mean_ : (n_features,)
        Training-data mean subtracted before projection.
    """

    def __init__(self, n_components: Optional[int] = None):
        self.n_components = n_components

    def fit(self, X) -> "PCA":
        X = check_array(X, name="X")
        n_samples, n_features = X.shape
        max_components = min(n_samples, n_features)
        k = self.n_components if self.n_components is not None else max_components
        if not 1 <= k <= max_components:
            raise ValueError(
                f"n_components must be in [1, {max_components}], got {k}"
            )
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        # Imported here: scipy.linalg adds ~28 MB to every process that
        # imports repro, and only PCA needs it.
        import scipy.linalg

        # Thin SVD (full_matrices=False): the guide's SVD idiom — never
        # materialise the full orthogonal factors for a rectangular input.
        u, s, vt = scipy.linalg.svd(centered, full_matrices=False)
        # Deterministic sign convention: largest |loading| positive.
        signs = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
        signs[signs == 0.0] = 1.0
        vt = vt * signs[:, None]
        u = u * signs[None, :]

        explained = (s**2) / max(1, n_samples - 1)
        total = explained.sum()
        self.components_ = vt[:k]
        self.singular_values_ = s[:k]
        self.explained_variance_ = explained[:k]
        self.explained_variance_ratio_ = (
            explained[:k] / total if total > 0 else np.zeros(k)
        )
        self.n_components_ = k
        self.n_features_in_ = n_features
        self.n_samples_ = n_samples
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "components_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; PCA was fit on "
                f"{self.n_features_in_}"
            )
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, Z) -> np.ndarray:
        """Map reduced coordinates back into the original feature space."""
        check_is_fitted(self, "components_")
        Z = check_array(Z, name="Z")
        if Z.shape[1] != self.n_components_:
            raise ValueError(
                f"Z has {Z.shape[1]} components; PCA keeps {self.n_components_}"
            )
        return Z @ self.components_ + self.mean_

    def components_for_variance(self, threshold: float) -> int:
        """Smallest component count whose cumulative ratio reaches ``threshold``.

        This is exactly the Figure 3 query: "how many components account
        for 80% / 90% / 95% of the variance".
        """
        check_is_fitted(self, "components_")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        cumulative = np.cumsum(self.explained_variance_ratio_)
        hits = np.nonzero(cumulative >= threshold - 1e-12)[0]
        if len(hits) == 0:
            raise ValueError(
                f"kept components only explain {cumulative[-1]:.3f} of the "
                f"variance; cannot reach {threshold}"
            )
        return int(hits[0]) + 1
