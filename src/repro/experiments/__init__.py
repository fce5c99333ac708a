"""Experiment drivers: one module per figure/table of the paper.

Every driver exposes ``run(...)`` returning a result object with the raw
data plus ``render()`` producing the ASCII figure/table, so the same code
backs the CLI, the examples and the regression benchmarks.

* :mod:`repro.experiments.fig1` — per-config performance distribution.
* :mod:`repro.experiments.fig2` — optimal-configuration win counts.
* :mod:`repro.experiments.fig3` — PCA explained-variance curve.
* :mod:`repro.experiments.fig4` — pruning-technique sweep.
* :mod:`repro.experiments.table1` — runtime-classifier comparison.
* :mod:`repro.experiments.run_all` — everything, with a summary report.
"""

from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.placement import PlacementFlipResult, run_placement_flip
from repro.experiments.sparse import SparseGeneralization, run_sparse_generalization
from repro.experiments.dataset_size import DatasetSizeResult, run_dataset_size
from repro.experiments.variance import (
    Spread,
    VarianceResult,
    run_seed_spread,
    run_variance,
)
from repro.experiments.tradeoff import TradeoffResult, run_tradeoff
from repro.experiments.run_all import run_all

__all__ = [
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "DatasetSizeResult",
    "Fig4Result",
    "PlacementFlipResult",
    "SparseGeneralization",
    "Spread",
    "Table1Result",
    "TradeoffResult",
    "VarianceResult",
    "run_all",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_dataset_size",
    "run_fig4",
    "run_placement_flip",
    "run_seed_spread",
    "run_sparse_generalization",
    "run_table1",
    "run_tradeoff",
    "run_variance",
]
