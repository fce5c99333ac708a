"""Table I: runtime-classifier performance at budgets {5, 6, 8, 15}.

The pruned sets come from the decision-tree pruner (the paper's best
technique); each classifier is trained on the training split's
best-in-set labels and scored against the absolute optimum on the test
split.  The table caption's "maximum achievable performance" row is the
pruned sets' ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.core.pruning.decision_tree import DecisionTreePruner
from repro.core.selection.classifiers import TABLE1_CLASSIFIERS
from repro.core.selection.evaluate import SelectorEvaluation, sweep_selectors
from repro.experiments.report import ascii_table

__all__ = ["Table1Result", "run_table1", "table1_stage"]

DEFAULT_BUDGETS: Tuple[int, ...] = (5, 6, 8, 15)


def table1_stage(inputs, params) -> "Table1Result":
    """Pipeline stage: the classifier sweep on the shared dataset."""
    return run_table1(
        inputs["dataset"],
        budgets=tuple(params.get("budgets", DEFAULT_BUDGETS)),
        test_size=params.get("test_size", 0.2),
        split_seed=params.get("split_seed", 0),
        random_state=params.get("random_state", 0),
    )


@dataclass(frozen=True)
class Table1Result:
    """All evaluations, keyed by budget then classifier order."""

    budgets: Tuple[int, ...]
    evaluations: Dict[int, List[SelectorEvaluation]]

    def score(self, classifier: str, budget: int) -> float:
        for ev in self.evaluations[budget]:
            if ev.classifier == classifier:
                return ev.score
        raise KeyError(f"no evaluation for {classifier!r} at {budget}")

    def ceiling(self, budget: int) -> float:
        return self.evaluations[budget][0].ceiling

    def best_classifier(self, budget: int) -> str:
        return max(
            self.evaluations[budget], key=lambda ev: ev.score
        ).classifier

    def render(self) -> str:
        headers = ["Classifier"] + [str(b) for b in self.budgets]
        rows = [
            ["(ceiling)"]
            + [f"{self.ceiling(b) * 100:.2f}" for b in self.budgets]
        ]
        for name in TABLE1_CLASSIFIERS:
            rows.append(
                [name]
                + [f"{self.score(name, b) * 100:.2f}" for b in self.budgets]
            )
        return ascii_table(
            headers,
            rows,
            title=(
                "Table I - classifier performance (% of absolute optimal) "
                "for decision-tree-pruned configuration sets"
            ),
        )


def run_table1(
    dataset: Optional[PerformanceDataset] = None,
    *,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    test_size: float = 0.2,
    split_seed: int = 0,
    random_state: int = 0,
) -> Table1Result:
    """Run the classifier sweep on a fresh train/test split."""
    dataset = dataset if dataset is not None else generate_dataset()
    train, test = dataset.split(test_size=test_size, random_state=split_seed)
    evaluations = sweep_selectors(
        train,
        test,
        DecisionTreePruner(),
        budgets=budgets,
        random_state=random_state,
    )
    return Table1Result(
        budgets=tuple(int(b) for b in budgets), evaluations=evaluations
    )
