"""Figure 4: achievable performance of each pruning technique vs budget.

Reproduces Section III.A's experiment: split the dataset 80/20, prune on
the training shapes at budgets 4..15, and score each technique by the
geometric-mean best-in-set performance on the held-out shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.core.pruning import default_pruners, sweep_pruners
from repro.experiments.report import ascii_series, ascii_table

__all__ = ["Fig4Result", "fig4_stage", "run_fig4"]

DEFAULT_BUDGETS: Tuple[int, ...] = tuple(range(4, 16))


def fig4_stage(inputs, params) -> "Fig4Result":
    """Pipeline stage: the pruning sweep on the shared dataset.

    Parameters: ``budgets``, ``test_size``, ``split_seed`` and
    ``random_state`` — matching :func:`run_fig4`'s signature so pipeline
    output is bit-identical to the direct path.
    """
    return run_fig4(
        inputs["dataset"],
        budgets=tuple(params.get("budgets", DEFAULT_BUDGETS)),
        test_size=params.get("test_size", 0.2),
        split_seed=params.get("split_seed", 0),
        random_state=params.get("random_state", 0),
    )


@dataclass(frozen=True)
class Fig4Result:
    """Scores per technique per budget, plus the headline comparisons."""

    budgets: Tuple[int, ...]
    #: {technique: {budget: score in (0, 1]}}
    scores: Dict[str, Dict[int, float]]
    train_shapes: int
    test_shapes: int

    def best_technique(self, budget: int) -> str:
        return max(self.scores, key=lambda m: self.scores[m][budget])

    def best_score(self) -> Tuple[str, int, float]:
        """(technique, budget, score) of the overall best cell."""
        best = max(
            (
                (score, name, budget)
                for name, per_budget in self.scores.items()
                for budget, score in per_budget.items()
            )
        )
        return best[1], best[2], best[0]

    def naive_vs_clustering_gap(self, budget: int) -> float:
        """Best clustering score minus the naive top-n score at a budget."""
        clustering = max(
            score
            for name, per_budget in self.scores.items()
            if name != "top-n"
            for b, score in per_budget.items()
            if b == budget
        )
        return clustering - self.scores["top-n"][budget]

    def render(self) -> str:
        headers = ["technique"] + [str(b) for b in self.budgets]
        rows = [
            [name] + [f"{per_budget[b] * 100:.1f}" for b in self.budgets]
            for name, per_budget in self.scores.items()
        ]
        table = ascii_table(
            headers,
            rows,
            title=(
                "Fig 4 - achievable % of optimal performance on the test set "
                f"({self.train_shapes} train / {self.test_shapes} test shapes)"
            ),
        )
        plot = ascii_series(
            list(self.budgets),
            {
                name: [per_budget[b] * 100 for b in self.budgets]
                for name, per_budget in self.scores.items()
            },
            title="test-set achievable performance (%) vs configuration budget",
        )
        tech, budget, score = self.best_score()
        return (
            f"{table}\n\n{plot}\n\n"
            f"best cell: {tech} at {budget} configs -> {score * 100:.1f}%"
        )


def run_fig4(
    dataset: Optional[PerformanceDataset] = None,
    *,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    test_size: float = 0.2,
    split_seed: int = 0,
    split_seeds: Optional[Sequence[int]] = None,
    random_state: int = 0,
) -> Fig4Result:
    """Run the pruning sweep.

    The paper evaluates on a single random split (``split_seed``); with 34
    test shapes the method *ranking* is noisy, so ``split_seeds`` can
    average the sweep over several splits (used by the integration tests
    and EXPERIMENTS.md's multi-seed table).
    """
    dataset = dataset if dataset is not None else generate_dataset()
    seeds = tuple(split_seeds) if split_seeds is not None else (split_seed,)
    if not seeds:
        raise ValueError("at least one split seed is required")

    accumulated: Dict[str, Dict[int, float]] = {}
    train_shapes = test_shapes = 0
    for seed in seeds:
        train, test = dataset.split(test_size=test_size, random_state=seed)
        train_shapes, test_shapes = train.n_shapes, test.n_shapes
        scores = sweep_pruners(
            train,
            test,
            budgets=budgets,
            pruners=default_pruners(random_state=random_state),
        )
        for name, per_budget in scores.items():
            acc = accumulated.setdefault(name, {b: 0.0 for b in per_budget})
            for budget, value in per_budget.items():
                acc[budget] += value / len(seeds)
    return Fig4Result(
        budgets=tuple(int(b) for b in budgets),
        scores=accumulated,
        train_shapes=train_shapes,
        test_shapes=test_shapes,
    )
