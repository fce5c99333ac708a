"""Differential suite: compiled tree descent vs the reference walk.

The generated nested-``if`` descent must return leaf indices
bit-identical to ``repro.testing.reference_leaves`` for *any* fitted
tree and *any* float64 input — including samples landing exactly on
split thresholds, negative and astronomically large dims, and NaNs
(which descend right, like the reference walk's ``else`` branch).
"""

import numpy as np
import pytest

from repro.ml.tree import (
    DecisionTreeClassifier,
    export_cpp,
    export_python,
    export_text,
)
from repro.ml.tree.codegen import (
    MAX_SOURCE_DEPTH,
    CompiledTree,
    compile_tree,
    tree_apply_source,
)
from repro.ml.tree.structure import LEAF, Tree
from repro.testing import reference_leaves

#: Both nested-``if`` emitters share one walker and its checks.
EMITTERS = pytest.mark.parametrize(
    "emit", [tree_apply_source, export_python], ids=lambda f: f.__name__
)


def _fit_tree(rng, n_samples=160, n_features=4, n_classes=5, **kwargs):
    X = rng.integers(1, 4096, size=(n_samples, n_features)).astype(np.float64)
    y = rng.integers(0, n_classes, size=n_samples)
    clf = DecisionTreeClassifier(random_state=0, **kwargs)
    clf.fit(X, y)
    return clf.tree_


def _boundary_rows(tree, rng, n_random=64):
    """Inputs that stress the descent: thresholds, extremes, randoms."""
    width = int(tree.feature.max(initial=-1)) + 1
    width = max(width, 1)
    rows = []
    thresholds = [
        float(t) for f, t in zip(tree.feature, tree.threshold) if f >= 0
    ]
    # Every split threshold, exactly: x <= t must take the left branch.
    for t in thresholds[:40]:
        rows.append([t] * width)
        rows.append([np.nextafter(t, np.inf)] * width)
        rows.append([np.nextafter(t, -np.inf)] * width)
    rows.append([0.0] * width)
    rows.append([-1e18] * width)
    rows.append([2.0**50] * width)
    rows.append([np.nan] * width)
    rows.extend(
        rng.uniform(-1e6, 1e6, size=(n_random, width)).tolist()
    )
    return np.asarray(rows, dtype=np.float64)


class TestDifferential:
    @pytest.mark.parametrize("tree_seed", range(6))
    def test_random_trees_match_reference_walk(self, tree_seed):
        rng = np.random.default_rng(tree_seed)
        tree = _fit_tree(rng, n_features=2 + tree_seed % 3)
        compiled = compile_tree(tree)
        X = _boundary_rows(tree, rng)
        np.testing.assert_array_equal(
            compiled.apply(X), reference_leaves(tree, X)
        )

    def test_deep_unbalanced_tree(self):
        # A staircase target forces a deep chain of axis splits.
        rng = np.random.default_rng(99)
        X = np.arange(64, dtype=np.float64).reshape(-1, 1)
        y = np.arange(64) // 2
        clf = DecisionTreeClassifier(random_state=0).fit(X, y)
        tree = clf.tree_
        compiled = compile_tree(tree)
        probe = _boundary_rows(tree, rng)
        np.testing.assert_array_equal(
            compiled.apply(probe), reference_leaves(tree, probe)
        )

    def test_stump_and_constant_targets(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, size=(30, 2))
        clf = DecisionTreeClassifier(max_depth=1, random_state=0)
        clf.fit(X, np.zeros(30, dtype=np.int64))  # pure leaf, no split
        compiled = compile_tree(clf.tree_)
        np.testing.assert_array_equal(
            compiled.apply(X), reference_leaves(clf.tree_, X)
        )


class TestSourceEmission:
    def test_source_round_trips_thresholds_exactly(self):
        rng = np.random.default_rng(5)
        tree = _fit_tree(rng)
        compiled = compile_tree(tree)
        assert isinstance(compiled, CompiledTree)
        assert compiled.source.startswith("def tree_apply(")
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                assert repr(float(t)) in compiled.source

    def test_feature_names_become_arguments(self):
        rng = np.random.default_rng(6)
        tree = _fit_tree(rng, n_features=4)
        source = tree_apply_source(
            tree, feature_names=("m", "k", "n", "batch")
        )
        assert source.startswith("def tree_apply(m, k, n, batch):")

    @pytest.mark.parametrize(
        "emit",
        [tree_apply_source, export_python, export_cpp],
        ids=lambda f: f.__name__,
    )
    def test_invalid_identifiers_rejected(self, emit):
        rng = np.random.default_rng(7)
        tree = _fit_tree(rng, n_features=2)
        with pytest.raises(ValueError, match="identifier"):
            emit(tree, feature_names=["m", "not valid"])
        with pytest.raises(ValueError, match="identifier"):
            emit(tree, feature_names=["if", "k"])
        with pytest.raises(ValueError, match="identifier"):
            emit(tree, function_name="bad name")

    def test_too_few_feature_names_rejected(self):
        rng = np.random.default_rng(8)
        tree = _fit_tree(rng, n_features=3)
        if int(tree.feature.max(initial=-1)) < 2:
            pytest.skip("tree never split on the last feature")
        with pytest.raises(ValueError, match="feature names"):
            compile_tree(tree, feature_names=("a",))


class TestPinnedFormats:
    """The exact text of every emitter on a hand-built one-split tree:
    threshold precision, the ``>  `` spacing, ``(n=…)`` and the brace
    layout."""

    TREE = Tree(
        feature=np.array([1, LEAF, LEAF]),
        threshold=np.array([1234.5678, 0.0, 0.0]),
        left=np.array([1, LEAF, LEAF]),
        right=np.array([2, LEAF, LEAF]),
        value=np.array([[3.0, 3.0], [3.0, 1.0], [0.0, 2.0]]),
        impurity=np.zeros(3),
        n_samples=np.array([6, 4, 2]),
    )

    def test_export_text(self):
        assert export_text(self.TREE) == (
            "|--- x[1] <= 1234.57\n"
            "|   |--- value: 0 (n=4)\n"
            "|--- x[1] >  1234.57\n"
            "|   |--- value: 1 (n=2)"
        )
        named = export_text(
            self.TREE, feature_names=["m", "k"], class_names=["A", "B"],
            precision=3,
        )
        assert named == (
            "|--- k <= 1234.568\n"
            "|   |--- value: A (n=4)\n"
            "|--- k >  1234.568\n"
            "|   |--- value: B (n=2)"
        )

    def test_export_python(self):
        assert export_python(self.TREE) == (
            "def select(x0, x1):\n"
            "    if x1 <= 1234.5678:\n"
            "        return '0'\n"
            "    else:\n"
            "        return '1'\n"
        )
        named = export_python(
            self.TREE, feature_names=["m", "k"], class_names=["A", "B"]
        )
        assert named == (
            "def select(m, k):\n"
            "    if k <= 1234.5678:\n"
            "        return 'A'\n"
            "    else:\n"
            "        return 'B'\n"
        )

    def test_export_cpp(self):
        assert export_cpp(self.TREE) == (
            "int select_kernel(double x0, double x1) {\n"
            "  if (x1 <= 1234.5678) {\n"
            "    return 0;\n"
            "  } else {\n"
            "    return 1;\n"
            "  }\n"
            "}\n"
        )
        named = export_cpp(
            self.TREE,
            function_name="pick",
            feature_names=["m", "k"],
            class_names=["KA", "KB"],
            return_type="Kernel",
        )
        assert named == (
            "Kernel pick(double m, double k) {\n"
            "  if (k <= 1234.5678) {\n"
            "    return KA;\n"
            "  } else {\n"
            "    return KB;\n"
            "  }\n"
            "}\n"
        )

    def test_tree_apply_source(self):
        assert tree_apply_source(self.TREE, feature_names=["m", "k"]) == (
            "def tree_apply(m, k):\n"
            "    if k <= 1234.5678:\n"
            "        return 1\n"
            "    else:\n"
            "        return 2\n"
        )


class TestDepthLimit:
    def _deep_tree(self):
        # A synthetic right-leaning chain deeper than CPython's nesting
        # limit: internal node i splits x0 <= i (left: leaf, right:
        # next internal node).  Fitting rarely produces such chains —
        # building the flat arrays directly pins the guard exactly.
        depth = MAX_SOURCE_DEPTH + 10
        n_nodes = 2 * depth + 1
        feature = np.full(n_nodes, LEAF, dtype=np.int64)
        threshold = np.zeros(n_nodes)
        left = np.full(n_nodes, LEAF, dtype=np.int64)
        right = np.full(n_nodes, LEAF, dtype=np.int64)
        value = np.zeros((n_nodes, 1))
        for i in range(depth):
            node = 2 * i
            feature[node] = 0
            threshold[node] = float(i)
            left[node] = node + 1
            right[node] = node + 2
        return Tree(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            impurity=np.zeros(n_nodes),
            n_samples=np.ones(n_nodes, dtype=np.int64),
        )

    @EMITTERS
    def test_emitters_guard_python_nesting_limit(self, emit):
        tree = self._deep_tree()
        assert tree.max_depth > MAX_SOURCE_DEPTH
        with pytest.raises(ValueError, match="MAX_SOURCE_DEPTH"):
            emit(tree)

    def test_deep_tree_is_served_by_the_numpy_selector(self):
        from repro.core.pruning.base import PrunedSet
        from repro.kernels.params import config_space
        from repro.pipeline.mapped import rebuild_deployed
        from repro.workloads.gemm import GemmShape

        tree = self._deep_tree()
        with pytest.raises(ValueError, match="MAX_SOURCE_DEPTH"):
            compile_tree(tree)
        # A tree selector over the chain: node i's leaf picks config
        # i % 2, and the first feature (m) walks down the chain.
        tree.value = np.eye(2)[np.arange(tree.node_count) % 2]
        configs = tuple(config_space(tile_sizes=(1, 2), work_groups=((8, 8),)))
        deployed = rebuild_deployed(
            {
                "pruned": PrunedSet((0, 1), configs[:2], "chain"),
                "classifier": "DecisionTree",
                "constant": None,
                "has_tree": True,
                "classes": [0, 1],
                "n_features_in": 4,
            },
            tree,
        )
        with pytest.raises(ValueError, match="MAX_SOURCE_DEPTH"):
            deployed.compiled()
        shapes = [
            GemmShape(m=m, k=8, n=8) for m in range(1, tree.max_depth + 20)
        ]
        batch = deployed.select_batch(shapes)
        assert batch == tuple(deployed.select(shape) for shape in shapes)
        assert set(batch) == set(configs[:2])


class TestDeployedSelectorCompiled:
    @pytest.fixture(scope="class")
    def deployed(self, small_dataset):
        from repro.core.deploy import tune

        train, _ = small_dataset.split(test_size=0.3, random_state=0)
        return tune(train, n_configs=4, random_state=0)

    def test_decisions_identical_to_selector(self, deployed, small_dataset):
        compiled = deployed.compiled()
        shapes = tuple(small_dataset.shapes)
        assert compiled.select_batch(shapes) == deployed.select_batch(shapes)
        for shape in shapes:
            assert compiled.select(shape) == deployed.select(shape)

    def test_source_property_exposed(self, deployed):
        compiled = deployed.compiled()
        assert "def tree_apply(m, k, n, batch):" in compiled.source

    def test_constant_selector_compiles_to_single_leaf(self, small_dataset):
        from repro.core.deploy import tune

        train, _ = small_dataset.split(test_size=0.3, random_state=0)
        deployed = tune(train, n_configs=1, random_state=0)
        compiled = deployed.compiled()
        shapes = tuple(small_dataset.shapes)
        assert compiled.select_batch(shapes) == deployed.select_batch(shapes)
        # The source exporters walk the same one-leaf tree.
        namespace = {}
        exec(deployed.export_python(), namespace)  # noqa: S102
        (config,) = set(deployed.select_batch(shapes))
        assert namespace["select_kernel"](1, 2, 3, 1) == config.short_name()
