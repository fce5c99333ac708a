"""Flat array representation of a fitted decision tree.

Nodes live in parallel arrays (feature, threshold, children, value,
impurity, sample count) — the same layout sklearn uses — so prediction is
an iterative descent with no recursion or per-node objects.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["Tree", "TreeBuilderState"]

LEAF = -1


class Tree:
    """Immutable fitted tree."""

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        impurity: np.ndarray,
        n_samples: np.ndarray,
    ):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.impurity = impurity
        self.n_samples = n_samples

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == LEAF))

    @property
    def max_depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=np.int64)
        for node in range(self.node_count):
            if self.feature[node] != LEAF:
                depth[self.left[node]] = depth[node] + 1
                depth[self.right[node]] = depth[node] + 1
        return int(depth.max()) if self.node_count else 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each sample.

        Vectorized iterative descent: every still-internal sample advances
        one level per step through gathered ``feature``/``threshold``/
        ``left``/``right`` arrays, so a batch of n samples costs
        O(max_depth) NumPy passes instead of n Python tree walks.  The
        comparisons are the same ``x <= threshold`` as the scalar walk, so
        each result is the last node of :meth:`decision_path_nodes`.
        """
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        if n == 0 or self.node_count == 0:
            return nodes
        active = np.nonzero(self.feature[nodes] != LEAF)[0]
        while active.size:
            cur = nodes[active]
            feat = self.feature[cur]
            go_left = X[active, feat] <= self.threshold[cur]
            nodes[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[nodes[active]] != LEAF]
        return nodes

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Per-sample node values (class distribution or regression mean)."""
        return self.value[self.apply(X)]

    def leaf_values(self) -> np.ndarray:
        """Values of all leaves, in node order."""
        return self.value[self.feature == LEAF]

    def decision_path_nodes(self, x: np.ndarray) -> List[int]:
        """The sequence of node ids one sample traverses."""
        x = np.asarray(x, dtype=np.float64)
        node = 0
        path = [0]
        while self.feature[node] != LEAF:
            if x[self.feature[node]] <= self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
            path.append(node)
        return path


class TreeBuilderState:
    """Mutable node storage used while growing, frozen into a Tree."""

    def __init__(self, n_outputs: int):
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[np.ndarray] = []
        self.impurity: List[float] = []
        self.n_samples: List[int] = []
        self._n_outputs = n_outputs

    def add_node(self, value: np.ndarray, impurity: float, n_samples: int) -> int:
        node_id = len(self.feature)
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.value.append(np.asarray(value, dtype=np.float64))
        self.impurity.append(float(impurity))
        self.n_samples.append(int(n_samples))
        return node_id

    def make_split(
        self, node_id: int, feature: int, threshold: float, left: int, right: int
    ) -> None:
        self.feature[node_id] = int(feature)
        self.threshold[node_id] = float(threshold)
        self.left[node_id] = int(left)
        self.right[node_id] = int(right)

    def freeze(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.vstack(self.value),
            impurity=np.asarray(self.impurity, dtype=np.float64),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
        )
