"""Differential oracles: every fast path pinned to its reference path,
>= 200 randomized cases each, all seeds fixed."""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner
from repro.core.pruning import TopNPruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.dynamic import DynamicTrialSelector
from repro.kernels.params import config_space
from repro.sycl.device import Device
from repro.testing import (
    OracleReport,
    adaptive_select_oracle,
    batch_select_oracle,
    queue_equivalence_oracle,
    random_shapes,
    random_tree,
    reference_leaves,
    tree_apply_oracle,
)
from repro.utils.rng import stream


class TestTreeApplyOracle:
    def test_200_randomized_cases_agree(self):
        report = tree_apply_oracle(cases=200, seed=0).raise_on_failure()
        assert report.ok and report.cases == 200

    def test_deterministic_across_runs(self):
        a = tree_apply_oracle(cases=50, seed=7)
        b = tree_apply_oracle(cases=50, seed=7)
        assert a == b

    def test_single_leaf_tree_routes_everything_to_root(self):
        rng = stream(0, "test", "single-leaf")
        tree = random_tree(rng, leaf_probability=1.0)
        assert tree.node_count == 1
        X = rng.standard_normal((32, 4))
        np.testing.assert_array_equal(tree.apply(X), np.zeros(32, dtype=np.intp))
        np.testing.assert_array_equal(tree.apply(X), reference_leaves(tree, X))

    def test_empty_batch(self):
        rng = stream(0, "test", "empty-batch")
        tree = random_tree(rng)
        X = np.empty((0, 4))
        assert tree.apply(X).shape == (0,)
        np.testing.assert_array_equal(tree.apply(X), reference_leaves(tree, X))


class TestBatchSelectOracle:
    @pytest.fixture(scope="class")
    def pruned_and_dataset(self, small_dataset):
        return TopNPruner().select(small_dataset, 4), small_dataset

    def test_decision_tree_selector(self, pruned_and_dataset):
        pruned, dataset = pruned_and_dataset
        policy = make_selector("DecisionTree", pruned, random_state=0).fit(dataset)
        batch_select_oracle(policy, cases=200, seed=1).raise_on_failure()

    def test_dynamic_trial_selector(self, pruned_and_dataset):
        pruned, _ = pruned_and_dataset
        runner = BenchmarkRunner(
            Device.r9_nano(),
            configs=config_space(tile_sizes=(1, 2), work_groups=((8, 8),)),
        )
        policy = DynamicTrialSelector(runner, pruned, trial_iterations=1)
        batch_select_oracle(policy, cases=200, seed=2).raise_on_failure()

    def test_oracle_detects_a_lying_batch_path(self):
        class _Lying:
            def select(self, shape):
                return ("scalar", shape.m)

            def select_batch(self, shapes):
                # Deliberately wrong for one specific shape in the stream.
                return tuple(
                    ("batch", s.m) if i == 3 else ("scalar", s.m)
                    for i, s in enumerate(shapes)
                )

        report = batch_select_oracle(_Lying(), cases=16, seed=3, batch=16)
        assert not report.ok
        with pytest.raises(AssertionError, match="select_batch chose"):
            report.raise_on_failure()


class TestAdaptiveSelectOracle:
    @pytest.fixture(scope="class")
    def tree_policy(self, small_dataset):
        pruned = TopNPruner().select(small_dataset, 4)
        return make_selector("DecisionTree", pruned, random_state=0).fit(
            small_dataset
        )

    def test_200_randomized_cases_agree(self, tree_policy):
        report = adaptive_select_oracle(
            tree_policy, cases=200, seed=0
        ).raise_on_failure()
        assert report.ok and report.cases >= 200

    def test_deterministic_across_runs(self, tree_policy):
        a = adaptive_select_oracle(tree_policy, cases=50, seed=7)
        b = adaptive_select_oracle(tree_policy, cases=50, seed=7)
        assert a == b

    def test_oracle_detects_a_stateful_policy(self):
        # A policy whose answers depend on call order breaks the
        # pass-through equivalence: the reference and adaptive services
        # memoise different answers per shape, and the oracle must see
        # the disagreement.  (No library/pruned attribute either, so
        # the dummy-candidate fallback path is exercised too.)
        class _Stateful:
            def __init__(self):
                self.calls = 0

            def select(self, shape):
                self.calls += 1
                return ("answer", self.calls)

            def select_batch(self, shapes):
                return tuple(self.select(s) for s in shapes)

        report = adaptive_select_oracle(_Stateful(), cases=32, seed=1)
        assert not report.ok
        with pytest.raises(AssertionError, match="adaptive chose"):
            report.raise_on_failure()


class TestQueueEquivalenceOracle:
    def test_200_randomized_cases_agree(self):
        report = queue_equivalence_oracle(cases=200, seed=4).raise_on_failure()
        assert report.ok and report.cases == 200

    def test_other_device(self):
        queue_equivalence_oracle(
            cases=25, seed=5, device=Device.desktop()
        ).raise_on_failure()


class TestGenerators:
    def test_random_shapes_are_valid_and_repeat(self):
        rng = stream(0, "test", "shapes")
        shapes = random_shapes(rng, 200)
        assert len(shapes) == 200
        assert all(s.m >= 1 and s.k >= 1 and s.n >= 1 for s in shapes)
        assert len(set(shapes)) < 200  # repeats occurred

    def test_random_tree_respects_depth(self):
        rng = stream(0, "test", "tree-depth")
        tree = random_tree(rng, max_depth=3, leaf_probability=0.0)
        # A full binary tree of depth 3 has 2**4 - 1 nodes.
        assert tree.node_count == 15

    def test_report_repr_and_ok(self):
        good = OracleReport("demo", 10, ())
        bad = OracleReport("demo", 10, ("case 0: boom",))
        assert good.ok and "ok" in repr(good)
        assert not bad.ok and "1 mismatches" in repr(bad)
