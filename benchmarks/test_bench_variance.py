"""Reproducibility bench: split-seed variance of the Fig 4 sweep.

Its one claim needs all 8 splits of the full dataset (~20 s), which no
tier-1 test computes: the pruning results move by a few points at most
from one 34-shape test split to another.  The claims the variance run
also shows (clustering beats naive top-n at budget 4, RadialSVM below
the decision tree) are tier-1 tests in
``tests/integration/test_paper_claims.py``.
"""

from repro.experiments.variance import run_variance


def test_bench_variance(benchmark, full_dataset):
    result = benchmark.pedantic(
        run_variance, args=(full_dataset,), rounds=1, iterations=1
    )
    print("\n" + result.render())

    for per_budget in result.pruning.values():
        for _, std in per_budget.values():
            assert std < 0.06
