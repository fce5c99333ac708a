"""Figure 4 regeneration: pruning-technique sweep over budgets 4..15."""

import pytest

from repro.experiments import run_fig4


def test_bench_fig4(benchmark, full_dataset):
    result = benchmark.pedantic(
        run_fig4,
        args=(full_dataset,),
        kwargs={"split_seeds": (0, 1, 2)},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.render())

    # Clustering beating naive top-n at the smallest budget is a mean
    # over noise draws, not a property of this one draw: see
    # tests/integration/test_paper_claims.py (EXPERIMENTS.md,
    # runner-seed spread).
    # Best methods reach the mid-90s regime.
    _, _, best = result.best_score()
    assert best > 0.95
    # The decision tree stays competitive at every budget >= 6.
    for budget in (6, 8, 10, 12, 15):
        top = max(s[budget] for s in result.scores.values())
        assert result.scores["decision tree"][budget] >= top - 0.025
