"""Condensing the single-linkage hierarchy by minimum cluster size.

Walking the dendrogram from the root, splits where both children hold at
least ``min_cluster_size`` points become true cluster splits; smaller
children are treated as points "falling out" of their parent cluster at
that level.  Levels are expressed as ``lambda = 1 / distance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["CondensedTree", "condense_tree"]


@dataclass(frozen=True)
class CondensedTree:
    """Edge list of the condensed hierarchy.

    Children with ``child_size == 1`` and ``child < n_points`` are points;
    larger children are condensed clusters.  The root cluster has id
    ``n_points``.
    """

    parent: np.ndarray
    child: np.ndarray
    lambda_val: np.ndarray
    child_size: np.ndarray
    n_points: int

    def children_clusters(self, cluster: int) -> np.ndarray:
        mask = (self.parent == cluster) & (self.child_size > 1)
        return self.child[mask]


def condense_tree(linkage: np.ndarray, min_cluster_size: int) -> CondensedTree:
    """Condense a single-linkage matrix (see module docstring)."""
    if min_cluster_size < 2:
        raise ValueError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}"
        )
    n = linkage.shape[0] + 1
    root = 2 * (n - 1)  # dendrogram id of the top merge, as node index n + (n-2)

    def node_children(node: int):
        row = linkage[node - n]
        return int(row[0]), int(row[1]), float(row[2])

    def node_size(node: int) -> int:
        return 1 if node < n else int(linkage[node - n, 3])

    def subtree_points(node: int) -> List[int]:
        stack, points = [node], []
        while stack:
            cur = stack.pop()
            if cur < n:
                points.append(cur)
            else:
                a, b, _ = node_children(cur)
                stack.extend((a, b))
        return points

    parents: List[int] = []
    children: List[int] = []
    lambdas: List[float] = []
    sizes: List[int] = []

    def emit(parent: int, child: int, lam: float, size: int) -> None:
        parents.append(parent)
        children.append(child)
        lambdas.append(lam)
        sizes.append(size)

    next_cluster = n + 1
    # (dendrogram node, condensed cluster id it belongs to)
    stack = [(root, n)]
    while stack:
        node, cluster = stack.pop()
        if node < n:
            continue
        left, right, dist = node_children(node)
        lam = 1.0 / dist if dist > 0 else np.inf
        left_big = node_size(left) >= min_cluster_size
        right_big = node_size(right) >= min_cluster_size
        if left_big and right_big:
            for child_node in (left, right):
                cid = next_cluster
                next_cluster += 1
                emit(cluster, cid, lam, node_size(child_node))
                stack.append((child_node, cid))
        elif left_big != right_big:
            big, small = (left, right) if left_big else (right, left)
            for p in subtree_points(small):
                emit(cluster, p, lam, 1)
            stack.append((big, cluster))
        else:
            for p in subtree_points(left) + subtree_points(right):
                emit(cluster, p, lam, 1)

    return CondensedTree(
        parent=np.asarray(parents, dtype=np.int64),
        child=np.asarray(children, dtype=np.int64),
        lambda_val=np.asarray(lambdas, dtype=np.float64),
        child_size=np.asarray(sizes, dtype=np.int64),
        n_points=n,
    )
