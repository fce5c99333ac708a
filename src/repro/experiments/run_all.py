"""Run every experiment and assemble the full reproduction report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, run_fig3
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.table1 import Table1Result, run_table1

__all__ = ["AllResults", "run_all", "run_all_pipeline"]


@dataclass(frozen=True)
class AllResults:
    """Every experiment's result plus the dataset they share."""

    dataset: PerformanceDataset
    fig1: Fig1Result
    fig2: Fig2Result
    fig3: Fig3Result
    fig4: Fig4Result
    table1: Table1Result

    def render(self) -> str:
        sections = [
            f"Reproduction report - dataset: {self.dataset!r}",
            self.fig1.render(),
            self.fig2.render(),
            self.fig3.render(),
            self.fig4.render(),
            self.table1.render(),
        ]
        rule = "\n\n" + "=" * 72 + "\n\n"
        return rule.join(sections)


def run_all(
    dataset: Optional[PerformanceDataset] = None,
    *,
    split_seed: int = 0,
) -> AllResults:
    """Regenerate every figure and table from one shared dataset."""
    if dataset is None:
        dataset = generate_dataset()
    return AllResults(
        dataset=dataset,
        fig1=run_fig1(dataset),
        fig2=run_fig2(dataset),
        fig3=run_fig3(dataset),
        fig4=run_fig4(dataset, split_seed=split_seed),
        table1=run_table1(dataset, split_seed=split_seed),
    )


def run_all_pipeline(store, config=None):
    """Every experiment via the staged pipeline, reusing cached artifacts.

    ``store`` is a :class:`~repro.pipeline.store.ArtifactStore`;
    ``config`` a :class:`~repro.pipeline.paper.PaperPipelineConfig`.
    Returns ``(AllResults, PipelineRun)`` — the same report as
    :func:`run_all` plus the per-stage cache/runtime account.  Results
    are bit-identical to the direct path for the same parameters.
    """
    from repro.pipeline.paper import run_paper_pipeline

    run = run_paper_pipeline(store, config)
    results = AllResults(
        dataset=run.value("dataset"),
        fig1=run.value("fig1"),
        fig2=run.value("fig2"),
        fig3=run.value("fig3"),
        fig4=run.value("fig4"),
        table1=run.value("table1"),
    )
    return results, run
