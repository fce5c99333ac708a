"""Extension bench: sparse-data generalization (the paper's future work).

Full-scale run of the experiment behind EXPERIMENTS.md's sparse section
(~20 s).  Its one claim holds only at full scale: selection quality
degrades as density falls.  On the strided tier-1 run
(``tests/experiments/test_sparse.py``) density 0.1 scores above 0.5, so
the claim cannot move there; that test makes the experiment's other
claims.
"""

from repro.experiments.sparse import run_sparse_generalization


def test_bench_sparse_generalization(benchmark):
    result = benchmark.pedantic(
        run_sparse_generalization, rounds=1, iterations=1
    )
    print("\n" + result.render())

    scores = result.per_density_scores
    assert scores[0.1] <= scores[0.5] + 0.05
