"""Random forests: bagged CART trees with feature subsampling.

:class:`RandomForestClassifier` is the paper's Table I entry (bagged
Gini trees).  :class:`RandomForestRegressor` bags the MSE regressor and
additionally exposes the cross-tree prediction spread
(:meth:`RandomForestRegressor.predict_std`), which the onboarding
layer's active sampler uses as its uncertainty signal
(:mod:`repro.onboard.sampler`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseEstimator, check_is_fitted
from repro.ml.tree.classifier import DecisionTreeClassifier
from repro.ml.tree.regressor import DecisionTreeRegressor
from repro.utils.rng import rng_from
from repro.utils.validation import check_array, check_positive_int

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _Forest(BaseEstimator):
    """The bagging loop both forests share: each ``_tree_class`` tree
    fits ``size`` rows (a bootstrap resample, a subsample without
    replacement when ``size < n``, or every row), then draws its
    ``random_state`` from the forest's RNG."""

    _tree_class: type

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        mf = self.max_features
        if mf is None:
            return None
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, (int, np.integer)):
            return int(min(mf, n_features))
        raise ValueError(f"unsupported max_features {mf!r}")

    def _bag(self, X: np.ndarray, y: np.ndarray, size: int) -> None:
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        check_positive_int(self.n_estimators, "n_estimators")
        rng = rng_from(self.random_state)
        n = len(X)
        max_features = self._resolve_max_features(X.shape[1])
        self.estimators_ = []
        for _ in range(self.n_estimators):
            if self.bootstrap:
                sample = rng.integers(0, n, size=size)
            elif size < n:
                sample = rng.choice(n, size=size, replace=False)
            else:
                sample = np.arange(n)
            tree = self._tree_class(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=int(rng.integers(2**31 - 1)),
            )
            tree.fit(X[sample], y[sample])
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]


class RandomForestClassifier(_Forest):
    """Bootstrap-aggregated decision trees (Breiman 2001).

    Each tree is trained on a bootstrap resample with ``sqrt(n_features)``
    features considered per split (the classification default).
    Predictions average the trees' class probability vectors.
    """

    _tree_class = DecisionTreeClassifier

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: str | int | None = "sqrt",
        bootstrap: bool = True,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        X = check_array(X, name="X")
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self._bag(X, y, len(X))
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X, name="X")
        proba = np.zeros((X.shape[0], len(self.classes_)))
        class_pos = {c: i for i, c in enumerate(self.classes_.tolist())}
        for tree in self.estimators_:
            # A bootstrap sample may miss classes; align columns.
            cols = [class_pos[c] for c in tree.classes_.tolist()]
            proba[:, cols] += tree.predict_proba(X)
        proba /= len(self.estimators_)
        return proba

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y), self.predict(X))


class RandomForestRegressor(_Forest):
    """Bootstrap-aggregated MSE regression trees (single-output).

    Predictions average the trees; :meth:`predict_std` returns the
    cross-tree standard deviation, a cheap epistemic-uncertainty proxy:
    rows far from the training distribution (or in regions where the
    bootstrap resamples disagree) spread the ensemble.  ``max_samples``
    caps the bootstrap sample size per tree, which bounds fit cost on
    large stacked datasets (the onboarding imputer trains over every
    fleet device's table at once).
    """

    _tree_class = DecisionTreeRegressor

    def __init__(
        self,
        n_estimators: int = 10,
        *,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: str | int | None = "sqrt",
        max_samples: Optional[int] = None,
        bootstrap: bool = True,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_samples = max_samples
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        X = check_array(X, name="X")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if self.max_samples is not None:
            check_positive_int(self.max_samples, "max_samples")
        size = len(X) if self.max_samples is None else min(self.max_samples, len(X))
        self._bag(X, y, size)
        return self

    def _tree_predictions(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X, name="X")
        return np.stack([tree.predict(X) for tree in self.estimators_])

    def predict(self, X) -> np.ndarray:
        return self._tree_predictions(X).mean(axis=0)

    def predict_std(self, X) -> np.ndarray:
        """Cross-tree standard deviation per row (0.0 for one tree)."""
        return self.predict_with_std(X)[1]

    def predict_with_std(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(mean, cross-tree std) in one ensemble pass."""
        preds = self._tree_predictions(X)
        std = (
            np.zeros(preds.shape[1])
            if preds.shape[0] == 1
            else preds.std(axis=0)
        )
        return preds.mean(axis=0), std

    def score(self, X, y) -> float:
        from repro.ml.metrics import r2_score

        return r2_score(np.asarray(y, dtype=np.float64), self.predict(X))
