"""Split-seed sensitivity: how stable are the paper's conclusions?

The paper evaluates on a single random 136/34 split.  With 34 test
shapes, individual percentages carry meaningful variance; this experiment
repeats Figure 4 and the Table I headline cells across many splits and
reports mean +/- standard deviation, separating conclusions that are
robust (clustering beats naive at small budgets; classifiers sit below
the ceiling) from those that are split luck (exact per-budget rankings).

:func:`run_seed_spread` does the same for the *dataset*: it regenerates
the sweep at several runner seeds (each seed keys the measurement
noise), separating properties of the performance model from properties
of one noise draw — the protocol behind every noise-sensitive test floor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import RunnerConfig
from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.core.pruning import default_pruners, sweep_pruners
from repro.core.pruning.decision_tree import DecisionTreePruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.evaluate import evaluate_selector
from repro.experiments.report import ascii_table

__all__ = ["Spread", "VarianceResult", "run_seed_spread", "run_variance"]


@dataclass(frozen=True)
class VarianceResult:
    """Mean and standard deviation per method/budget over split seeds."""

    seeds: Tuple[int, ...]
    budgets: Tuple[int, ...]
    #: {method: {budget: (mean, std)}} for the Fig 4 pruning sweep.
    pruning: Dict[str, Dict[int, Tuple[float, float]]]
    #: {classifier: (mean, std)} for the Table I selectors at one budget.
    selection: Dict[str, Tuple[float, float]]
    selection_budget: int

    def robust_winner(self, budget: int) -> Optional[str]:
        """The method whose mean beats every other by > 1 pooled std, or
        ``None`` when the ranking is within noise."""
        means = {m: v[budget][0] for m, v in self.pruning.items()}
        stds = {m: v[budget][1] for m, v in self.pruning.items()}
        best = max(means, key=means.get)
        for method, mean in means.items():
            if method == best:
                continue
            pooled = float(np.hypot(stds[best], stds[method]))
            if means[best] - mean <= pooled:
                return None
        return best

    def render(self) -> str:
        rows = []
        for method, per_budget in self.pruning.items():
            cells = [method]
            for budget in self.budgets:
                mean, std = per_budget[budget]
                cells.append(f"{mean * 100:.1f}+/-{std * 100:.1f}")
            rows.append(cells)
        pruning_table = ascii_table(
            ["technique"] + [str(b) for b in self.budgets],
            rows,
            title=(
                f"Fig 4 across {len(self.seeds)} splits "
                "(achievable %, mean +/- std)"
            ),
        )
        sel_rows = [
            [name, f"{mean * 100:.1f}+/-{std * 100:.1f}"]
            for name, (mean, std) in self.selection.items()
        ]
        selection_table = ascii_table(
            ["classifier", f"score % @ {self.selection_budget}"],
            sel_rows,
            title=f"Table I selectors across {len(self.seeds)} splits",
        )
        return pruning_table + "\n\n" + selection_table


def run_variance(
    dataset: Optional[PerformanceDataset] = None,
    *,
    seeds: Sequence[int] = tuple(range(8)),
    budgets: Sequence[int] = (4, 6, 8, 15),
    selection_budget: int = 8,
    classifiers: Sequence[str] = ("DecisionTree", "RandomForest", "RadialSVM"),
    random_state: int = 0,
) -> VarianceResult:
    """Repeat the headline experiments over ``seeds`` splits."""
    if not seeds:
        raise ValueError("at least one seed is required")
    dataset = dataset if dataset is not None else generate_dataset()

    pruning_samples: Dict[str, Dict[int, list]] = {}
    selection_samples: Dict[str, list] = {name: [] for name in classifiers}
    for seed in seeds:
        train, test = dataset.split(test_size=0.2, random_state=seed)
        sweep = sweep_pruners(
            train,
            test,
            budgets=budgets,
            pruners=default_pruners(random_state=random_state),
        )
        for method, per_budget in sweep.items():
            dest = pruning_samples.setdefault(method, {b: [] for b in per_budget})
            for budget, value in per_budget.items():
                dest[budget].append(value)

        pruned = DecisionTreePruner().select(train, selection_budget)
        for name in classifiers:
            selector = make_selector(name, pruned, random_state=random_state)
            selector.fit(train)
            selection_samples[name].append(
                evaluate_selector(selector, test).score
            )

    pruning = {
        method: {
            budget: (float(np.mean(vals)), float(np.std(vals)))
            for budget, vals in per_budget.items()
        }
        for method, per_budget in pruning_samples.items()
    }
    selection = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in selection_samples.items()
    }
    return VarianceResult(
        seeds=tuple(int(s) for s in seeds),
        budgets=tuple(int(b) for b in budgets),
        pruning=pruning,
        selection=selection,
        selection_budget=selection_budget,
    )


@dataclass(frozen=True)
class Spread:
    """One quantity's spread over runner seeds."""

    mean: float
    std: float
    low: float
    high: float


def run_seed_spread(
    measure: Callable[[PerformanceDataset, RunnerConfig], Mapping[str, float]],
    *,
    seeds: Sequence[int] = tuple(range(2020, 2032)),
    runner_config: Optional[RunnerConfig] = None,
    **generate_kwargs,
) -> Dict[str, Spread]:
    """Repeat ``measure`` on the dataset regenerated at each runner seed.

    ``measure(dataset, runner_config)`` returns named quantities; it also
    gets the runner protocol in force (``runner_config`` with the seed
    replaced) so it can sweep further shapes or devices on the same
    draw.  ``generate_kwargs`` go to :func:`generate_dataset`.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    base = runner_config or RunnerConfig()
    samples: Dict[str, list] = {}
    for seed in seeds:
        protocol = dataclasses.replace(base, seed=int(seed))
        dataset = generate_dataset(runner_config=protocol, **generate_kwargs)
        for name, value in measure(dataset, protocol).items():
            samples.setdefault(name, []).append(float(value))
    return {
        name: Spread(
            mean=float(np.mean(values)),
            std=float(np.std(values)),
            low=min(values),
            high=max(values),
        )
        for name, values in samples.items()
    }
