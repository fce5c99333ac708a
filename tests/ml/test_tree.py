"""Decision trees: criteria, splitting, growth, prediction, export."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    export_cpp,
    export_python,
    export_text,
)
from repro.ml.tree.criteria import GiniCriterion, MSECriterion
from repro.ml.tree.splitter import find_best_split
from repro.testing import reference_leaves


class TestGiniCriterion:
    def test_pure_node_zero_impurity(self):
        y = np.array([[1.0, 0.0]] * 5)
        assert GiniCriterion().node_impurity(y) == pytest.approx(0.0)

    def test_balanced_binary_is_half(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        assert GiniCriterion().node_impurity(y) == pytest.approx(0.5)

    def test_split_costs_match_direct_evaluation(self, rng):
        labels = rng.integers(0, 3, 12)
        y = np.eye(3)[labels]
        costs = GiniCriterion().split_costs(y)
        for i in range(1, 12):
            left, right = y[:i], y[i:]
            direct = i * GiniCriterion().node_impurity(left) + (
                12 - i
            ) * GiniCriterion().node_impurity(right)
            assert costs[i - 1] == pytest.approx(direct)

    def test_node_value_is_distribution(self):
        y = np.eye(2)[[0, 0, 1, 0]]
        np.testing.assert_allclose(GiniCriterion().node_value(y), [0.75, 0.25])


class TestMSECriterion:
    def test_constant_target_zero(self):
        y = np.full((5, 2), 3.0)
        assert MSECriterion().node_impurity(y) == pytest.approx(0.0)

    def test_split_costs_match_direct_sse(self, rng):
        y = rng.normal(size=(10, 3))
        costs = MSECriterion().split_costs(y)
        for i in range(1, 10):
            left, right = y[:i], y[i:]
            sse = lambda a: float(np.sum((a - a.mean(axis=0)) ** 2))
            assert costs[i - 1] == pytest.approx(sse(left) + sse(right), abs=1e-9)

    def test_costs_never_negative(self, rng):
        y = rng.normal(size=(30, 4)) * 1e6
        assert np.all(MSECriterion().split_costs(y) >= 0.0)


class TestSplitter:
    def test_finds_obvious_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.eye(2)[[0, 0, 1, 1]]
        split = find_best_split(X, y, GiniCriterion())
        assert split.feature == 0
        assert 1.0 < split.threshold < 10.0
        np.testing.assert_array_equal(split.left_mask, [True, True, False, False])

    def test_pure_node_returns_none(self):
        X = np.arange(6.0)[:, None]
        y = np.eye(2)[[0] * 6]
        assert find_best_split(X, y, GiniCriterion()) is None

    def test_constant_features_return_none(self):
        X = np.ones((6, 2))
        y = np.eye(2)[[0, 1] * 3]
        assert find_best_split(X, y, GiniCriterion()) is None

    def test_min_samples_leaf_respected(self):
        X = np.array([[0.0], [5.0], [6.0], [7.0]])
        y = np.eye(2)[[0, 1, 1, 1]]
        split = find_best_split(X, y, GiniCriterion(), min_samples_leaf=2)
        assert split is None or split.left_mask.sum() >= 2

    def test_feature_subset(self):
        X = np.column_stack([np.array([0, 0, 1, 1.0]), np.array([0, 1, 0, 1.0])])
        y = np.eye(2)[[0, 0, 1, 1]]
        split = find_best_split(X, y, GiniCriterion(), features=[1])
        assert split is None or split.feature == 1

    def test_threshold_separates(self, rng):
        X = rng.normal(size=(40, 3))
        y = np.eye(2)[(X[:, 1] > 0).astype(int)]
        split = find_best_split(X, y, GiniCriterion())
        col = X[:, split.feature]
        assert np.array_equal(split.left_mask, col <= split.threshold)


class TestApplyVectorized:
    """The vectorized descent must match the scalar walk exactly."""

    def _fitted_tree(self, rng, n=300, d=5, classes=4):
        X = rng.normal(size=(n, d))
        y = rng.integers(0, classes, n)
        return DecisionTreeClassifier(random_state=0).fit(X, y).tree_, X

    def test_bit_identical_to_loop_on_random_inputs(self, rng):
        tree, X_train = self._fitted_tree(rng)
        for X in (X_train, rng.normal(size=(500, 5)), rng.normal(size=(1, 5))):
            np.testing.assert_array_equal(tree.apply(X), reference_leaves(tree, X))

    def test_bit_identical_at_thresholds(self, rng):
        # Samples exactly on split thresholds exercise the <= boundary.
        tree, _ = self._fitted_tree(rng)
        internal = tree.feature != -1
        if not internal.any():
            pytest.skip("degenerate tree with no splits")
        X = np.zeros((int(internal.sum()), 5))
        for row, node in enumerate(np.nonzero(internal)[0]):
            X[row, tree.feature[node]] = tree.threshold[node]
        np.testing.assert_array_equal(tree.apply(X), reference_leaves(tree, X))

    def test_empty_batch(self, rng):
        tree, _ = self._fitted_tree(rng)
        assert tree.apply(np.empty((0, 5))).shape == (0,)

    def test_single_leaf_tree(self):
        X = np.zeros((4, 2))
        y = np.zeros(4, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y).tree_
        np.testing.assert_array_equal(tree.apply(X), np.zeros(4, dtype=np.int64))


class TestClassifier:
    def test_fits_xor_with_depth_2(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 5, dtype=float)
        y = np.array([0, 1, 1, 0] * 5)
        clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_max_depth_limits(self, rng):
        X = rng.normal(size=(100, 4))
        y = rng.integers(0, 2, 100)
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert clf.tree_.max_depth <= 3

    def test_max_leaf_nodes_limits(self, rng):
        X = rng.normal(size=(100, 4))
        y = rng.integers(0, 4, 100)
        clf = DecisionTreeClassifier(max_leaf_nodes=5).fit(X, y)
        assert clf.n_leaves_ <= 5

    def test_min_samples_leaf(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, 60)
        clf = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        leaf_sizes = clf.tree_.n_samples[clf.tree_.feature == -1]
        assert leaf_sizes.min() >= 10

    def test_predict_proba_rows_sum_to_one(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 3, 50)
        proba = DecisionTreeClassifier().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_string_labels(self, rng):
        X = rng.normal(size=(20, 2))
        y = np.array(["cat", "dog"] * 10)
        clf = DecisionTreeClassifier().fit(X, y)
        assert set(clf.predict(X)) <= {"cat", "dog"}

    def test_unbounded_tree_memorises(self, rng):
        X = rng.normal(size=(80, 5))
        y = rng.integers(0, 3, 80)
        assert DecisionTreeClassifier().fit(X, y).score(X, y) == 1.0

    def test_rejects_2d_y(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(rng.normal(size=(4, 2)), np.zeros((4, 2)))


class TestRegressor:
    def test_single_output_shape(self, rng):
        X = rng.normal(size=(50, 2))
        y = X[:, 0] * 2.0
        reg = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert reg.predict(X).shape == (50,)
        assert reg.score(X, y) > 0.9

    def test_multi_output(self, rng):
        X = rng.normal(size=(60, 2))
        y = np.column_stack([X[:, 0], -X[:, 1], X.sum(axis=1)])
        reg = DecisionTreeRegressor(max_leaf_nodes=16).fit(X, y)
        assert reg.predict(X).shape == (60, 3)
        assert reg.n_outputs_ == 3
        assert reg.n_leaves_ <= 16

    def test_leaf_representatives_count(self, rng):
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=(80, 5))
        reg = DecisionTreeRegressor(max_leaf_nodes=6).fit(X, y)
        reps = reg.leaf_representatives()
        assert reps.shape == (reg.n_leaves_, 5)
        assert reg.n_leaves_ <= 6

    def test_best_first_beats_random_subset_of_leaves(self, rng):
        # Best-first with a budget should capture the dominant structure:
        # a step function with one huge and several small steps.
        X = np.linspace(0, 1, 200)[:, None]
        y = np.where(X[:, 0] < 0.5, 0.0, 10.0) + np.sin(20 * X[:, 0]) * 0.1
        reg = DecisionTreeRegressor(max_leaf_nodes=2).fit(X, y)
        # The single split must be the big step at 0.5.
        assert abs(reg.tree_.threshold[0] - 0.5) < 0.05

    def test_prediction_is_leaf_mean(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        reg = DecisionTreeRegressor(max_depth=2).fit(X, y)
        leaves = reg.tree_.apply(X)
        for leaf in np.unique(leaves):
            members = leaves == leaf
            np.testing.assert_allclose(
                reg.predict(X[members]),
                y[members].mean(),
                atol=1e-10,
            )

    @settings(max_examples=20, deadline=None)
    @given(budget=st.integers(2, 20), seed=st.integers(0, 100))
    def test_leaf_budget_property(self, budget, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 2))
        reg = DecisionTreeRegressor(max_leaf_nodes=budget).fit(X, y)
        assert 1 <= reg.n_leaves_ <= budget


class TestExport:
    @pytest.fixture
    def fitted(self, rng):
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        return DecisionTreeClassifier(max_depth=3).fit(X, y)

    def test_text_contains_structure(self, fitted):
        text = export_text(fitted.tree_, feature_names=["m", "k"])
        assert "m <=" in text or "k <=" in text
        assert "value:" in text

    def test_python_export_is_executable_and_agrees(self, fitted, rng):
        src = export_python(fitted.tree_, feature_names=["f0", "f1"])
        namespace = {}
        exec(src, namespace)  # noqa: S102 - generated by us, test only
        select = namespace["select"]
        X = rng.normal(size=(40, 2))
        expected = fitted.predict(X)
        got = np.array([int(select(*row)) for row in X])
        np.testing.assert_array_equal(got, expected)

    def test_python_export_with_class_names(self, fitted):
        src = export_python(fitted.tree_, class_names=["cfgA", "cfgB"])
        namespace = {}
        exec(src, namespace)  # noqa: S102
        assert namespace["select"](0.0, 0.0) in ("cfgA", "cfgB")

    def test_cpp_export_structure(self, fitted):
        src = export_cpp(fitted.tree_, feature_names=["m", "k"])
        assert src.startswith("int select_kernel(double m, double k)")
        assert "if (" in src and "return" in src
        assert src.count("{") == src.count("}")

    def test_cpp_export_class_names(self, fitted):
        src = export_cpp(
            fitted.tree_,
            class_names=["KernelA", "KernelB"],
            return_type="Kernel",
        )
        assert "return KernelA;" in src or "return KernelB;" in src
