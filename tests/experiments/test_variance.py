"""Variance experiment mechanics on the small dataset."""

import pytest

from repro.bench.runner import RunnerConfig
from repro.experiments.variance import run_seed_spread, run_variance


@pytest.fixture(scope="module")
def result(small_dataset):
    return run_variance(
        small_dataset,
        seeds=(0, 1, 2),
        budgets=(4, 6),
        selection_budget=4,
        classifiers=("DecisionTree", "RadialSVM"),
    )


class TestVariance:
    def test_structure(self, result):
        assert set(result.budgets) == {4, 6}
        for per_budget in result.pruning.values():
            for mean, std in per_budget.values():
                assert 0 < mean <= 1.0
                assert std >= 0.0

    def test_selection_entries(self, result):
        assert set(result.selection) == {"DecisionTree", "RadialSVM"}
        for mean, std in result.selection.values():
            assert 0 < mean <= 1.0

    def test_robust_winner_is_method_or_none(self, result):
        winner = result.robust_winner(4)
        assert winner is None or winner in result.pruning

    def test_render(self, result):
        text = result.render()
        assert "+/-" in text and "across 3 splits" in text

    def test_empty_seeds_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            run_variance(small_dataset, seeds=())


class TestSeedSpread:
    def test_aggregates_each_quantity_over_seeds(self):
        seen = []

        def measure(dataset, protocol):
            seen.append(protocol.seed)
            return {
                "winners": int((dataset.win_counts() > 0).sum()),
                "peak": float(dataset.best_gflops().max()),
            }

        spread = run_seed_spread(
            measure,
            seeds=(3, 4, 5),
            runner_config=RunnerConfig(warmup_iterations=1, timed_iterations=2),
            networks=("mobilenet_v2",),
        )
        assert seen == [3, 4, 5]
        assert set(spread) == {"winners", "peak"}
        peak = spread["peak"]
        assert peak.low <= peak.mean <= peak.high
        # Different seeds are different noise draws.
        assert peak.std > 0 and peak.low < peak.high

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_seed_spread(lambda ds, rc: {}, seeds=())
