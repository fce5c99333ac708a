"""Figure 2: how often each configuration achieves optimal performance.

The paper's headline numbers: one configuration is best in 32 of 170
cases (more than 3x the runner-up), yet 58 distinct configurations are
optimal at least once — the long tail that motivates learned pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.experiments.report import ascii_bars
from repro.kernels.params import KernelConfig

__all__ = ["Fig2Result", "fig2_stage", "run_fig2"]


def fig2_stage(inputs, params) -> "Fig2Result":
    """Pipeline stage: Figure 2 from the shared dataset artifact."""
    return run_fig2(inputs["dataset"])


@dataclass(frozen=True)
class Fig2Result:
    """Win-count distribution over configurations."""

    #: (config, wins) for every configuration that wins at least once,
    #: sorted by decreasing wins.
    winners: Tuple[Tuple[KernelConfig, int], ...]
    n_shapes: int

    @property
    def n_distinct_winners(self) -> int:
        return len(self.winners)

    @property
    def top_winner(self) -> Tuple[KernelConfig, int]:
        return self.winners[0]

    @property
    def dominance_ratio(self) -> float:
        """Top winner's count over the runner-up's."""
        if len(self.winners) < 2:
            return float("inf")
        return self.winners[0][1] / self.winners[1][1]

    def render(self, *, top: int = 15) -> str:
        head = self.winners[:top]
        bars = ascii_bars(
            [c.short_name() for c, _ in head],
            [w for _, w in head],
            title=(
                f"Fig 2 - optimal-configuration win counts "
                f"(top {len(head)} of {self.n_distinct_winners} winners, "
                f"{self.n_shapes} shapes)"
            ),
            fmt="{:.0f}",
        )
        tail = (
            f"distinct winning configurations: {self.n_distinct_winners}\n"
            f"dominance ratio (best vs runner-up): {self.dominance_ratio:.2f}x"
        )
        return bars + "\n\n" + tail


def run_fig2(dataset: Optional[PerformanceDataset] = None) -> Fig2Result:
    """Count optimal configurations per shape."""
    dataset = dataset if dataset is not None else generate_dataset()
    wins = dataset.win_counts()
    nonzero = np.nonzero(wins)[0]
    order = nonzero[np.argsort(wins[nonzero], kind="stable")[::-1]]
    winners = tuple((dataset.configs[i], int(wins[i])) for i in order)
    return Fig2Result(winners=winners, n_shapes=dataset.n_shapes)
