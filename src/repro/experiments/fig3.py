"""Figure 3: PCA explained-variance curve and the target kernel budget.

Paper: "The first 4 components account for over 80% of the variance, 8
components account for 90% and 15 account for 95%, and so we investigate
limiting the number of kernels between 4 and 15."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.core.pca_analysis import analyze_dataset
from repro.experiments.report import ascii_bars

__all__ = ["Fig3Result", "fig3_stage", "run_fig3"]


def fig3_stage(inputs, params) -> "Fig3Result":
    """Pipeline stage: Figure 3 from the shared dataset artifact."""
    return run_fig3(inputs["dataset"])


@dataclass(frozen=True)
class Fig3Result:
    """Explained-variance structure."""

    explained_variance_ratio: np.ndarray
    components_for_threshold: Dict[float, int]

    @property
    def suggested_budgets(self) -> Tuple[int, int]:
        values = sorted(self.components_for_threshold.values())
        return values[0], values[-1]

    def render(self, *, top: int = 16) -> str:
        ratios = self.explained_variance_ratio[:top]
        bars = ascii_bars(
            [f"PC{i + 1}" for i in range(len(ratios))],
            ratios * 100,
            title="Fig 3 - % variance per PCA component",
            fmt="{:.1f}%",
        )
        thresholds = "\n".join(
            f"components for {int(t * 100)}% variance: {k}"
            for t, k in sorted(self.components_for_threshold.items())
        )
        low, high = self.suggested_budgets
        return (
            f"{bars}\n\n{thresholds}\n"
            f"suggested configuration budget range: {low}..{high}"
        )


def run_fig3(
    dataset: Optional[PerformanceDataset] = None,
    *,
    thresholds: Tuple[float, ...] = (0.80, 0.90, 0.95),
) -> Fig3Result:
    """PCA over the normalized performance table."""
    dataset = dataset if dataset is not None else generate_dataset()
    analysis = analyze_dataset(dataset, thresholds=thresholds)
    return Fig3Result(
        explained_variance_ratio=analysis.explained_variance_ratio,
        components_for_threshold=analysis.components_for_threshold,
    )
