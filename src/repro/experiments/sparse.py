"""Extension experiment: does kernel selection generalize to sparse data?

The paper's closing question.  Setup:

* the dense GEMM shapes are crossed with pruning densities
  (1.0 / 0.5 / 0.25 / 0.1) and benchmarked under the sparse performance
  model — optimal configurations shift toward smaller accumulator steps
  and tiles as density falls;
* base shapes are split 80/20; the test set is the *sparse* (density<1)
  rows of held-out base shapes;
* two pipelines are compared at the same budget:

  - **dense-trained** — pruned and fitted on dense rows only (what a
    library tuned per the paper would ship today);
  - **sparsity-aware** — pruned and fitted on all densities, with
    density as a fifth feature.

The gap between them is the paper's open question, answered on the
simulated substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.core.pruning.decision_tree import DecisionTreePruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.evaluate import evaluate_selector
from repro.experiments.report import ascii_table
from repro.perfmodel.sparse import SparseGemmPerfModel
from repro.sycl.device import Device
from repro.utils.rng import rng_from
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.sparse import sparsify

__all__ = ["SparseGeneralization", "run_sparse_generalization"]

DEFAULT_DENSITIES: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.1)
#: Every third dataset shape is a base shape (55 of 163).
_SHAPE_STRIDE = 3


@dataclass(frozen=True)
class SparseGeneralization:
    """Scores of the two pipelines on held-out sparse shapes."""

    densities: Tuple[float, ...]
    budget: int
    #: Achievable ceiling of each pipeline's pruned set on the test rows.
    ceiling_dense_trained: float
    ceiling_sparsity_aware: float
    #: Selector scores vs the absolute optimum on the test rows.
    score_dense_trained: float
    score_sparsity_aware: float
    #: Per-density selector scores of the sparsity-aware pipeline.
    per_density_scores: Dict[float, float]
    n_test_rows: int

    @property
    def generalization_gap(self) -> float:
        """How much shipping a dense-tuned library loses on sparse work."""
        return self.score_sparsity_aware - self.score_dense_trained

    def render(self) -> str:
        rows = [
            [
                "dense-trained",
                f"{self.ceiling_dense_trained * 100:.1f}",
                f"{self.score_dense_trained * 100:.1f}",
            ],
            [
                "sparsity-aware",
                f"{self.ceiling_sparsity_aware * 100:.1f}",
                f"{self.score_sparsity_aware * 100:.1f}",
            ],
        ]
        table = ascii_table(
            ["pipeline", "ceiling %", "selector %"],
            rows,
            title=(
                f"Sparse generalization (budget {self.budget}, "
                f"{self.n_test_rows} held-out sparse rows)"
            ),
        )
        density_lines = "\n".join(
            f"  density {d:>4.0%}: {s * 100:5.1f}%"
            for d, s in sorted(self.per_density_scores.items(), reverse=True)
        )
        return (
            f"{table}\n\nsparsity-aware score by density:\n{density_lines}\n"
            f"generalization gap: {self.generalization_gap * 100:+.1f} points"
        )


def _build_sparse_dataset(
    densities: Sequence[float], *, device: Device, seed: int
) -> PerformanceDataset:
    dense_shapes, _ = extract_dataset_shapes()
    base = dense_shapes[::_SHAPE_STRIDE]
    sparse_shapes = sparsify(base, densities)
    model = SparseGemmPerfModel(device, seed=seed)
    runner = BenchmarkRunner(
        device,
        runner_config=RunnerConfig(timed_iterations=3, seed=seed),
        model=model,
    )
    return PerformanceDataset.from_benchmark(runner.run(sparse_shapes))


def run_sparse_generalization(
    *,
    densities: Sequence[float] = DEFAULT_DENSITIES,
    budget: int = 8,
    split_seed: int = 0,
    random_state: int = 0,
    device: Optional[Device] = None,
    dataset: Optional[PerformanceDataset] = None,
) -> SparseGeneralization:
    """Run the experiment (see module docstring)."""
    if 1.0 not in densities:
        raise ValueError("densities must include 1.0 (the dense rows)")
    device = device or Device.r9_nano()
    if dataset is None:
        dataset = _build_sparse_dataset(densities, device=device, seed=2020)

    # Split by *base shape* so test rows are unseen at every density.
    bases = sorted({s.dense_equivalent().as_tuple() for s in dataset.shapes})
    order = np.arange(len(bases))
    rng_from(split_seed).shuffle(order)
    n_test = max(1, len(bases) // 5)
    test_bases = {bases[i] for i in order[:n_test]}

    def rows(predicate):
        return [
            i for i, s in enumerate(dataset.shapes) if predicate(s)
        ]

    is_test_base = lambda s: s.dense_equivalent().as_tuple() in test_bases
    train_all = dataset.subset(rows(lambda s: not is_test_base(s)))
    train_dense = dataset.subset(
        rows(lambda s: not is_test_base(s) and s.density >= 1.0)
    )
    test_sparse = dataset.subset(
        rows(lambda s: is_test_base(s) and s.density < 1.0)
    )

    pruner = DecisionTreePruner()
    results = {}
    for name, train in (("dense", train_dense), ("aware", train_all)):
        pruned = pruner.select(train, budget)
        selector = make_selector(
            "DecisionTree", pruned, random_state=random_state
        ).fit(train)
        evaluation = evaluate_selector(selector, test_sparse)
        results[name] = (pruned, selector, evaluation)

    aware_selector = results["aware"][1]
    per_density: Dict[float, float] = {}
    for density in densities:
        if density >= 1.0:
            continue
        sub_rows = [
            i
            for i, s in enumerate(test_sparse.shapes)
            if s.density == density
        ]
        sub = test_sparse.subset(sub_rows)
        per_density[float(density)] = evaluate_selector(
            aware_selector, sub
        ).score

    return SparseGeneralization(
        densities=tuple(float(d) for d in densities),
        budget=budget,
        ceiling_dense_trained=results["dense"][2].ceiling,
        ceiling_sparsity_aware=results["aware"][2].ceiling,
        score_dense_trained=results["dense"][2].score,
        score_sparsity_aware=results["aware"][2].score,
        per_density_scores=per_density,
        n_test_rows=test_sparse.n_shapes,
    )
