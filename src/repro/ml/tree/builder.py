"""Tree growth: depth-first CART and best-first with a leaf budget, and
the base both CART estimators grow through."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, check_is_fitted
from repro.ml.tree.criteria import _CumulativeCriterion
from repro.ml.tree.splitter import Split, find_best_split
from repro.ml.tree.structure import Tree, TreeBuilderState
from repro.utils.rng import rng_from
from repro.utils.validation import check_array

__all__ = ["GrowthParams", "grow_best_first", "grow_depth_first"]


@dataclass(frozen=True)
class GrowthParams:
    """Stopping rules shared by both growth strategies."""

    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_leaf_nodes: Optional[int] = None
    #: Number of features examined per split; None means all.  Used by
    #: random forests for feature subsampling.
    max_features: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.max_leaf_nodes is not None and self.max_leaf_nodes < 2:
            raise ValueError(
                f"max_leaf_nodes must be >= 2, got {self.max_leaf_nodes}"
            )
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(
                f"max_features must be >= 1, got {self.max_features}"
            )


def _feature_subset(
    n_features: int,
    params: GrowthParams,
    rng: Optional[np.random.Generator],
) -> Optional[Sequence[int]]:
    if params.max_features is None or params.max_features >= n_features:
        return None
    if rng is None:
        raise ValueError("max_features subsampling requires an rng")
    return rng.choice(n_features, size=params.max_features, replace=False)


def _try_split(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    criterion: _CumulativeCriterion,
    params: GrowthParams,
    rng: Optional[np.random.Generator],
) -> Optional[Split]:
    if params.max_depth is not None and depth >= params.max_depth:
        return None
    if len(idx) < params.min_samples_split:
        return None
    features = _feature_subset(X.shape[1], params, rng)
    return find_best_split(
        X[idx],
        y[idx],
        criterion,
        min_samples_leaf=params.min_samples_leaf,
        features=features,
    )


def grow_depth_first(
    X: np.ndarray,
    y: np.ndarray,
    criterion: _CumulativeCriterion,
    params: GrowthParams,
    rng: Optional[np.random.Generator] = None,
) -> Tree:
    """Classic recursive CART growth (iterative stack, no recursion limit)."""
    state = TreeBuilderState(n_outputs=y.shape[1])
    root_idx = np.arange(X.shape[0])
    root = state.add_node(
        criterion.node_value(y), criterion.node_impurity(y), len(root_idx)
    )
    stack = [(root, root_idx, 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        split = _try_split(X, y, idx, depth, criterion, params, rng)
        if split is None:
            continue
        left_idx = idx[split.left_mask]
        right_idx = idx[~split.left_mask]
        left = state.add_node(
            criterion.node_value(y[left_idx]),
            criterion.node_impurity(y[left_idx]),
            len(left_idx),
        )
        right = state.add_node(
            criterion.node_value(y[right_idx]),
            criterion.node_impurity(y[right_idx]),
            len(right_idx),
        )
        state.make_split(node_id, split.feature, split.threshold, left, right)
        stack.append((left, left_idx, depth + 1))
        stack.append((right, right_idx, depth + 1))
    return state.freeze()


@dataclass(order=True)
class _Frontier:
    """Heap entry: best-improvement-first, FIFO tiebreak for determinism."""

    neg_improvement: float
    order: int
    node_id: int = field(compare=False)
    idx: np.ndarray = field(compare=False)
    depth: int = field(compare=False)
    split: Split = field(compare=False)


def grow_best_first(
    X: np.ndarray,
    y: np.ndarray,
    criterion: _CumulativeCriterion,
    params: GrowthParams,
    rng: Optional[np.random.Generator] = None,
) -> Tree:
    """Best-first growth honouring ``max_leaf_nodes``.

    The frontier is a priority queue of splittable leaves keyed by the
    impurity improvement their best split would realise; expanding the
    best leaf first means a leaf budget keeps the most informative
    structure (sklearn's strategy for ``max_leaf_nodes``).
    """
    if params.max_leaf_nodes is None:
        raise ValueError("grow_best_first requires max_leaf_nodes")
    state = TreeBuilderState(n_outputs=y.shape[1])
    counter = itertools.count()
    root_idx = np.arange(X.shape[0])
    root = state.add_node(
        criterion.node_value(y), criterion.node_impurity(y), len(root_idx)
    )

    heap: list = []

    def push(node_id: int, idx: np.ndarray, depth: int) -> None:
        split = _try_split(X, y, idx, depth, criterion, params, rng)
        if split is not None:
            heapq.heappush(
                heap,
                _Frontier(
                    neg_improvement=-split.improvement,
                    order=next(counter),
                    node_id=node_id,
                    idx=idx,
                    depth=depth,
                    split=split,
                ),
            )

    push(root, root_idx, 0)
    n_leaves = 1
    while heap and n_leaves < params.max_leaf_nodes:
        entry = heapq.heappop(heap)
        split = entry.split
        left_idx = entry.idx[split.left_mask]
        right_idx = entry.idx[~split.left_mask]
        left = state.add_node(
            criterion.node_value(y[left_idx]),
            criterion.node_impurity(y[left_idx]),
            len(left_idx),
        )
        right = state.add_node(
            criterion.node_value(y[right_idx]),
            criterion.node_impurity(y[right_idx]),
            len(right_idx),
        )
        state.make_split(
            entry.node_id, split.feature, split.threshold, left, right
        )
        n_leaves += 1  # one leaf became two
        push(left, left_idx, entry.depth + 1)
        push(right, right_idx, entry.depth + 1)
    return state.freeze()


class _CARTEstimator(BaseEstimator):
    """Parameters, growth and predict checks of both CART estimators.

    Subclasses name their ``_criterion`` and pass :meth:`_grow` a 2-D
    float target; growth is best-first under ``max_leaf_nodes``.
    """

    _criterion: type

    def __init__(
        self,
        *,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_leaf_nodes: Optional[int] = None,
        max_features: Optional[int] = None,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_leaf_nodes = max_leaf_nodes
        self.max_features = max_features
        self.random_state = random_state

    def _grow(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit ``tree_`` to the validated ``X`` and 2-D target ``y``."""
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        params = GrowthParams(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_leaf_nodes=self.max_leaf_nodes,
            max_features=self.max_features,
        )
        rng = rng_from(self.random_state) if self.random_state is not None else None
        grow = grow_depth_first if self.max_leaf_nodes is None else grow_best_first
        self.tree_ = grow(X, y, self._criterion(), params, rng)
        self.n_features_in_ = X.shape[1]

    def _predict_value(self, X) -> np.ndarray:
        """Each row's leaf value, after the fitted and width checks."""
        check_is_fitted(self, "tree_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; fit used {self.n_features_in_}"
            )
        return self.tree_.predict_value(X)

    @property
    def n_leaves_(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves
