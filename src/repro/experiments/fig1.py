"""Figure 1: normalized performance of every configuration on every shape.

The paper plots all 640 configurations (sorted by mean performance)
against all shapes, highlighting three regimes: configurations bad
everywhere (left), good on average but not universally (right), and niche
specialists in the middle.  The result object captures the sorted
distribution statistics that make those regimes quantifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.experiments.report import ascii_series, ascii_table

__all__ = ["Fig1Result", "fig1_stage", "run_fig1"]


def fig1_stage(inputs, params) -> "Fig1Result":
    """Pipeline stage: Figure 1 from the shared dataset artifact."""
    return run_fig1(inputs["dataset"])


@dataclass(frozen=True)
class Fig1Result:
    """Sorted per-configuration performance distribution."""

    #: Config order by increasing mean normalized performance.
    order: np.ndarray
    #: (n_configs,) mean normalized performance, sorted ascending.
    mean_sorted: np.ndarray
    #: (n_configs,) max over shapes, in the same order.
    max_sorted: np.ndarray
    #: (n_configs,) min over shapes, in the same order.
    min_sorted: np.ndarray
    #: Configs whose best-anywhere performance stays below 30%.
    n_never_above_30pct: int
    #: Configs with below-median mean that are optimal somewhere (the
    #: paper's "perform poorly on the majority ... well on a small number
    #: of specific matrix sizes").
    n_niche_specialists: int

    def render(self) -> str:
        idx = np.linspace(0, len(self.mean_sorted) - 1, 9).astype(int)
        table = ascii_table(
            ["config rank", "mean", "min", "max"],
            [
                [int(i), f"{self.mean_sorted[i]:.3f}", f"{self.min_sorted[i]:.3f}",
                 f"{self.max_sorted[i]:.3f}"]
                for i in idx
            ],
            title="Fig 1 - normalized performance by config (sorted by mean)",
        )
        downsample = np.linspace(0, len(self.mean_sorted) - 1, 16).astype(int)
        plot = ascii_series(
            [int(i) for i in downsample],
            {
                "mean": self.mean_sorted[downsample],
                "max": self.max_sorted[downsample],
                "min": self.min_sorted[downsample],
            },
            title="distribution across shapes (x: config rank)",
            height=12,
        )
        stats = (
            f"configs never above 30% anywhere: {self.n_never_above_30pct}\n"
            f"below-median configs optimal somewhere: {self.n_niche_specialists}"
        )
        return "\n\n".join([table, plot, stats])


def run_fig1(dataset: Optional[PerformanceDataset] = None) -> Fig1Result:
    """Compute Figure 1's distribution from a dataset (generated if absent)."""
    dataset = dataset if dataset is not None else generate_dataset()
    normalized = dataset.normalized()
    mean = normalized.mean(axis=0)
    order = np.argsort(mean, kind="stable")
    cmax = normalized.max(axis=0)[order]
    cmin = normalized.min(axis=0)[order]
    best_idx = set(dataset.best_config_indices().tolist())
    median_mean = float(np.median(mean))
    niche = sum(
        1 for c in best_idx if mean[c] < median_mean
    )
    return Fig1Result(
        order=order,
        mean_sorted=mean[order],
        max_sorted=cmax,
        min_sorted=cmin,
        n_never_above_30pct=int(np.sum(cmax < 0.30)),
        n_niche_specialists=int(niche),
    )
