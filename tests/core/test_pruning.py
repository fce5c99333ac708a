"""Pruning techniques and their evaluation."""

import numpy as np
import pytest

from repro.core.pruning import (
    DecisionTreePruner,
    HDBSCANPruner,
    KMeansPruner,
    PCAKMeansPruner,
    PrunedSet,
    TopNPruner,
    achievable_performance,
    default_pruners,
    sweep_pruners,
)

ALL_PRUNERS = [
    TopNPruner(),
    KMeansPruner(random_state=0),
    PCAKMeansPruner(random_state=0),
    HDBSCANPruner(),
    DecisionTreePruner(),
]


class TestPrunedSet:
    def test_duplicate_indices_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="duplicate"):
            PrunedSet(
                indices=(0, 0),
                configs=(small_dataset.configs[0], small_dataset.configs[0]),
                method="x",
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PrunedSet(indices=(), configs=(), method="x")

    def test_length_mismatch_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            PrunedSet(indices=(0,), configs=(), method="x")


@pytest.mark.parametrize("pruner", ALL_PRUNERS, ids=lambda p: p.name)
class TestAllPruners:
    def test_respects_budget(self, small_dataset, pruner):
        for budget in (2, 4, 8):
            pruned = pruner.select(small_dataset, budget)
            assert 1 <= len(pruned) <= budget

    def test_indices_and_configs_align(self, small_dataset, pruner):
        pruned = pruner.select(small_dataset, 5)
        for idx, cfg in zip(pruned.indices, pruned.configs):
            assert small_dataset.configs[idx] == cfg

    def test_deterministic(self, small_dataset, pruner):
        a = pruner.select(small_dataset, 6)
        b = pruner.select(small_dataset, 6)
        assert a.indices == b.indices

    def test_achievable_performance_bounds(self, small_dataset, pruner):
        pruned = pruner.select(small_dataset, 6)
        score = achievable_performance(pruned, small_dataset)
        assert 0.0 < score <= 1.0

    def test_bigger_budget_not_worse_on_training_data(self, small_dataset, pruner):
        small = pruner.select(small_dataset, 3)
        # Evaluating on the *training* data itself, a superset budget
        # cannot do worse for monotone methods; allow tiny slack for the
        # clustering methods whose selections are not nested.
        big = pruner.select(small_dataset, 10)
        s_small = achievable_performance(small, small_dataset)
        s_big = achievable_performance(big, small_dataset)
        assert s_big >= s_small - 0.05


class TestTopN:
    def test_first_pick_is_most_frequent_winner(self, small_dataset):
        pruned = TopNPruner().select(small_dataset, 3)
        wins = small_dataset.win_counts()
        assert wins[pruned.indices[0]] == wins.max()

    def test_full_budget_returns_all_winners_first(self, small_dataset):
        pruned = TopNPruner().select(small_dataset, small_dataset.n_configs)
        assert len(pruned) == small_dataset.n_configs


class TestDecisionTreePruner:
    def test_stores_last_tree(self, small_dataset):
        pruner = DecisionTreePruner()
        pruner.select(small_dataset, 6)
        assert pruner.last_tree_.n_leaves_ <= 6

    def test_budget_one_degenerates_to_global_best(self, small_dataset):
        pruned = DecisionTreePruner().select(small_dataset, 1)
        mean_best = int(np.argmax(small_dataset.normalized().mean(axis=0)))
        assert pruned.indices == (mean_best,)


class TestOracleDataset:
    """A hand-built dataset with two obvious shape families."""

    @pytest.fixture
    def oracle(self, small_dataset):
        # Family A (first half of shapes): config 0 is optimal;
        # family B: config 1.  Everything else is far worse.
        n_s, n_c = small_dataset.n_shapes, small_dataset.n_configs
        g = np.full((n_s, n_c), 10.0)
        half = n_s // 2
        g[:half, 0] = 100.0
        g[half:, 1] = 100.0
        from repro.core.dataset import PerformanceDataset

        return PerformanceDataset(
            shapes=small_dataset.shapes,
            configs=small_dataset.configs,
            gflops=g,
        )

    @pytest.mark.parametrize("pruner", ALL_PRUNERS, ids=lambda p: p.name)
    def test_two_configs_suffice(self, oracle, pruner):
        pruned = pruner.select(oracle, 2)
        assert set(pruned.indices) == {0, 1}
        assert achievable_performance(pruned, oracle) == pytest.approx(1.0)


class TestSweep:
    def test_sweep_structure(self, small_dataset):
        train, test = small_dataset.split(test_size=0.3, random_state=0)
        out = sweep_pruners(train, test, budgets=(3, 5))
        assert set(out) == {p.name for p in default_pruners()}
        for scores in out.values():
            assert set(scores) == {3, 5}
            assert all(0 < v <= 1 for v in scores.values())

    def test_sweep_rejects_empty_budgets(self, small_dataset):
        train, test = small_dataset.split(test_size=0.3, random_state=0)
        with pytest.raises(ValueError):
            sweep_pruners(train, test, budgets=())


class TestDefaultKnobs:
    """The pruners' defaults are not a lucky pick: on the full dataset
    the achievable performance at 8 configurations barely moves across
    the knob each default sets."""

    @pytest.fixture(scope="class")
    def split(self, full_dataset):
        return full_dataset.split(test_size=0.2, random_state=0)

    def test_pca_variance_threshold(self, split):
        train, test = split
        for threshold in (0.80, 0.90, 0.95, 0.99):
            pruner = PCAKMeansPruner(variance_threshold=threshold, random_state=0)
            score = achievable_performance(pruner.select(train, 8), test)
            assert 0.8 < score <= 1.0, threshold

    def test_tree_min_samples_leaf(self, split):
        train, test = split
        scores = [
            achievable_performance(
                DecisionTreePruner(min_samples_leaf=leaf).select(train, 8), test
            )
            for leaf in (1, 2, 4, 8)
        ]
        assert max(scores) - min(scores) < 0.08
