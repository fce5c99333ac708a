"""HDBSCAN: every pipeline stage plus the estimator."""

import numpy as np
import pytest

from repro.ml.hdbscan import HDBSCAN
from repro.ml.hdbscan.condense import condense_tree
from repro.ml.hdbscan.core import core_distances, mutual_reachability
from repro.ml.hdbscan.extract import cluster_stabilities, extract_clusters
from repro.ml.hdbscan.hierarchy import single_linkage
from repro.ml.hdbscan.mst import minimum_spanning_tree
from repro.ml.metrics import euclidean_distances


def blobs(rng, centers, n=25, spread=0.3):
    return np.vstack([rng.normal(c, spread, (n, len(c))) for c in centers])


class TestCoreDistances:
    def test_kth_neighbour_distance(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        d = euclidean_distances(X, X)
        core = core_distances(d, min_samples=2)
        # Point 0's 2nd neighbour (beyond itself) is at distance 2.
        assert core[0] == pytest.approx(2.0)
        assert core[3] == pytest.approx(9.0)

    def test_min_samples_bounds(self):
        d = euclidean_distances(np.arange(4.0)[:, None], np.arange(4.0)[:, None])
        with pytest.raises(ValueError):
            core_distances(d, min_samples=4)


class TestMutualReachability:
    def test_at_least_euclidean(self, rng):
        X = rng.normal(size=(20, 3))
        mr = mutual_reachability(X, min_samples=3)
        d = euclidean_distances(X, X)
        off = ~np.eye(20, dtype=bool)
        assert np.all(mr[off] >= d[off] - 1e-12)

    def test_symmetric_zero_diagonal(self, rng):
        X = rng.normal(size=(15, 2))
        mr = mutual_reachability(X, min_samples=3)
        np.testing.assert_allclose(mr, mr.T)
        np.testing.assert_allclose(np.diag(mr), 0.0)


class TestMST:
    def test_edge_count_and_sorted(self, rng):
        X = rng.normal(size=(12, 2))
        mst = minimum_spanning_tree(euclidean_distances(X, X))
        assert mst.shape == (11, 3)
        assert np.all(np.diff(mst[:, 2]) >= 0)

    def test_spans_all_vertices(self, rng):
        X = rng.normal(size=(10, 2))
        mst = minimum_spanning_tree(euclidean_distances(X, X))
        vertices = set(mst[:, 0].astype(int)) | set(mst[:, 1].astype(int))
        assert vertices == set(range(10))

    def test_total_weight_matches_scipy(self, rng):
        from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

        X = rng.normal(size=(25, 3))
        d = euclidean_distances(X, X)
        ours = minimum_spanning_tree(d)[:, 2].sum()
        theirs = scipy_mst(d).sum()
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            minimum_spanning_tree(np.ones((3, 4)))

    def test_single_point(self):
        assert minimum_spanning_tree(np.zeros((1, 1))).shape == (0, 3)


class TestSingleLinkage:
    def test_linkage_shape_and_sizes(self, rng):
        X = rng.normal(size=(8, 2))
        mst = minimum_spanning_tree(euclidean_distances(X, X))
        linkage = single_linkage(mst)
        assert linkage.shape == (7, 4)
        assert linkage[-1, 3] == 8  # final merge holds everything

    def test_sizes_monotone(self, rng):
        X = rng.normal(size=(20, 2))
        mst = minimum_spanning_tree(euclidean_distances(X, X))
        linkage = single_linkage(mst)
        # Each row's size is at least 2 and at most n.
        assert np.all(linkage[:, 3] >= 2)
        assert np.all(linkage[:, 3] <= 20)


class TestCondensedTree:
    @pytest.fixture
    def tree(self, rng):
        X = blobs(rng, [(0, 0), (10, 10)], n=20)
        mr = mutual_reachability(X, min_samples=5)
        return condense_tree(single_linkage(minimum_spanning_tree(mr)), 5)

    def test_root_is_n_points(self, tree):
        assert tree.n_points == 40
        assert int(tree.parent.min()) == 40

    def test_every_point_appears_once(self, tree):
        points = tree.child[tree.child_size == 1]
        assert sorted(points.tolist()) == list(range(40))

    def test_two_blob_split(self, tree):
        assert len(tree.children_clusters(40)) == 2

    def test_rejects_small_mcs(self, rng):
        X = blobs(rng, [(0, 0)], n=10)
        linkage = single_linkage(
            minimum_spanning_tree(mutual_reachability(X, min_samples=3))
        )
        with pytest.raises(ValueError):
            condense_tree(linkage, 1)

    def test_stabilities_nonnegative(self, tree):
        stability = cluster_stabilities(tree)
        assert all(v >= 0 for v in stability.values())


class TestHDBSCANEstimator:
    def test_recovers_blobs(self, rng):
        X = blobs(rng, [(0, 0), (10, 10), (0, 10)])
        h = HDBSCAN(min_cluster_size=10).fit(X)
        assert h.n_clusters_ == 3
        # Every blob coherently labelled.
        for start in range(0, 75, 25):
            labels = h.labels_[start : start + 25]
            labels = labels[labels >= 0]
            assert len(np.unique(labels)) == 1

    def test_noise_points_labelled_minus_one(self, rng):
        X = np.vstack(
            [blobs(rng, [(0, 0), (20, 20)], n=30), [[10.0, 10.0]]]
        )
        h = HDBSCAN(min_cluster_size=10).fit(X)
        assert h.labels_[-1] == -1

    def test_uniform_noise_mostly_unclustered(self, rng):
        X = rng.uniform(0, 1, (60, 2))
        h = HDBSCAN(min_cluster_size=25).fit(X)
        assert h.n_clusters_ <= 1

    def test_fit_predict(self, rng):
        X = blobs(rng, [(0, 0), (8, 8)])
        h = HDBSCAN(min_cluster_size=10)
        np.testing.assert_array_equal(h.fit_predict(X), h.labels_)
        assert h.labels_.shape == (len(X),)

    def test_medoids_one_per_cluster_and_member(self, rng):
        X = blobs(rng, [(0, 0), (9, 9)])
        h = HDBSCAN(min_cluster_size=10).fit(X)
        medoids = h.cluster_medoids()
        assert len(medoids) == h.n_clusters_
        for label, medoid in enumerate(medoids):
            assert h.labels_[medoid] == label

    def test_medoids_are_central(self, rng):
        X = blobs(rng, [(0, 0), (9, 9)], spread=0.2)
        h = HDBSCAN(min_cluster_size=10).fit(X)
        for label, medoid in enumerate(h.cluster_medoids()):
            members = X[h.labels_ == label]
            center = members.mean(axis=0)
            assert np.linalg.norm(X[medoid] - center) < 0.25

    def test_min_samples_defaults_to_mcs(self, rng):
        X = blobs(rng, [(0, 0), (8, 8)])
        a = HDBSCAN(min_cluster_size=8).fit(X)
        b = HDBSCAN(min_cluster_size=8, min_samples=8).fit(X)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            HDBSCAN(min_cluster_size=10).fit(rng.normal(size=(5, 2)))

    def test_no_cluster_medoids_raises(self, rng):
        X = rng.uniform(0, 1, (40, 2))
        h = HDBSCAN(min_cluster_size=30).fit(X)
        if h.n_clusters_ == 0:
            with pytest.raises(ValueError):
                h.cluster_medoids()

    def test_varying_density_clusters(self, rng):
        # A tight cluster and a loose one; density-based methods should
        # find both where a global-threshold method could not.
        tight = rng.normal(0, 0.1, (30, 2))
        loose = rng.normal((12, 12), 1.2, (30, 2))
        X = np.vstack([tight, loose])
        h = HDBSCAN(min_cluster_size=10).fit(X)
        assert h.n_clusters_ == 2
