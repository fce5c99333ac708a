"""Table I regeneration: runtime classifiers at budgets {5, 6, 8, 15}."""

import numpy as np

from repro.experiments import run_table1


def test_bench_table1(benchmark, full_dataset):
    result = benchmark.pedantic(
        run_table1, args=(full_dataset,), rounds=1, iterations=1
    )
    print("\n" + result.render())

    budgets = (5, 6, 8, 15)
    # Ceilings in the caption's band (paper: 92.99-96.61%).
    for budget in budgets:
        assert 0.90 <= result.ceiling(budget) <= 0.99
    # No classifier reaches its ceiling (paper: all < 89% vs 93-97%).
    for budget in budgets:
        for ev in result.evaluations[budget]:
            assert ev.score < result.ceiling(budget)
    # The decision tree coming within 5 points of every other classifier
    # holds on the mean over noise draws, not on this one (random forest
    # leads by 5.2 points at budget 5-8): see
    # tests/integration/test_paper_claims.py (EXPERIMENTS.md,
    # runner-seed spread).
    # The radial SVM collapses to a flat, low row.
    radial = [result.score("RadialSVM", b) for b in budgets]
    tree = [result.score("DecisionTree", b) for b in budgets]
    assert np.mean(radial) < np.mean(tree) - 0.05
