"""Multi-output decision tree regressor (CART, MSE).

The paper's decision-tree pruner regresses the full 640-wide vector of
normalized performance scores against the matrix-size features with a
bounded number of leaves; each leaf's mean vector then acts as a cluster
representative.  Multi-output support is therefore first-class here.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_is_fitted
from repro.ml.tree.builder import _CARTEstimator
from repro.ml.tree.criteria import MSECriterion
from repro.utils.validation import check_array

__all__ = ["DecisionTreeRegressor"]


class DecisionTreeRegressor(_CARTEstimator):
    """CART regressor minimising summed per-output squared error."""

    _criterion = MSECriterion

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = check_array(X, name="X")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
            self._single_output = True
        elif y.ndim == 2:
            self._single_output = False
        else:
            raise ValueError(f"y must be 1-D or 2-D, got shape {y.shape}")
        self._grow(X, y)
        self.n_outputs_ = y.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        out = self._predict_value(X)
        return out[:, 0] if self._single_output else out

    def leaf_representatives(self) -> np.ndarray:
        """Mean target vector of every leaf — the pruner's representatives."""
        check_is_fitted(self, "tree_")
        return self.tree_.leaf_values()

    def score(self, X, y) -> float:
        from repro.ml.metrics import r2_score

        return r2_score(np.asarray(y, dtype=np.float64), self.predict(X))
