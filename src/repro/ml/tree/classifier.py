"""Decision tree classifier (CART, Gini)."""

from __future__ import annotations

import numpy as np

from repro.ml.tree.builder import _CARTEstimator
from repro.ml.tree.criteria import GiniCriterion
from repro.utils.validation import check_array

__all__ = ["DecisionTreeClassifier"]


class DecisionTreeClassifier(_CARTEstimator):
    """CART classifier with Gini impurity.

    Supports depth-first growth or best-first growth under a
    ``max_leaf_nodes`` budget, plus the usual stopping rules.  Leaf values
    store class probability vectors, so :meth:`predict_proba` is free.
    """

    _criterion = GiniCriterion

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = check_array(X, name="X")
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D labels, got shape {y.shape}")
        self.classes_, encoded = np.unique(y, return_inverse=True)
        onehot = np.zeros((len(y), len(self.classes_)), dtype=np.float64)
        onehot[np.arange(len(y)), encoded] = 1.0
        self._grow(X, onehot)
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self._predict_value(X)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(np.asarray(y), self.predict(X))
