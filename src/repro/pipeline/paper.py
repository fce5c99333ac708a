"""The paper's artifact chain as a staged pipeline.

Benchmark sweep -> normalized dataset -> train/test split -> pruned
config set -> trained selector -> evaluation, plus the figure/table
stages hanging off the shared dataset::

    sweep ──> dataset ──┬──> fig1
                        ├──> fig2
                        ├──> fig3
                        ├──> fig4      (split_seed in params)
                        ├──> table1    (split_seed in params)
                        └──> split ──> prune ──> train ──> eval

Changing ``split_seed`` re-fingerprints only split/prune/train/eval (and
the split-dependent figure stages) — the sweep artifact is reused, which
is the whole point: the 640-config sweep is the expensive stage and must
never re-run for a downstream parameter change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.bench.runner import RunnerConfig
from repro.core.dataset import (
    DEFAULT_NETWORKS,
    dataset_stage,
    split_stage,
    sweep_stage,
)
from repro.core.deploy import eval_stage, prune_stage, train_stage
from repro.experiments.fig1 import fig1_stage
from repro.experiments.fig2 import fig2_stage
from repro.experiments.fig3 import fig3_stage
from repro.experiments.fig4 import DEFAULT_BUDGETS as FIG4_BUDGETS
from repro.experiments.fig4 import fig4_stage
from repro.experiments.table1 import DEFAULT_BUDGETS as TABLE1_BUDGETS
from repro.experiments.table1 import table1_stage
from repro.perfmodel.params import PerfModelParams
from repro.pipeline.executor import PipelineExecutor, PipelineRun
from repro.pipeline.stage import Pipeline, Stage
from repro.pipeline.store import ArtifactStore
from repro.sycl.device import Device

__all__ = [
    "PaperPipelineConfig",
    "generate_dataset_stages",
    "paper_params",
    "paper_pipeline",
    "run_paper_pipeline",
]


@dataclass(frozen=True)
class PaperPipelineConfig:
    """Every fingerprinted knob of the paper pipeline in one place."""

    device_preset: str = "r9-nano"
    networks: Tuple[str, ...] = DEFAULT_NETWORKS
    #: Optional data-placement axis for the sweep (e.g. ("device",
    #: "host")).  ``None`` keeps the classic device-resident sweep and
    #: leaves historical sweep fingerprints untouched.
    placements: Optional[Tuple[str, ...]] = None
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    model_params: Optional[PerfModelParams] = None
    test_size: float = 0.2
    split_seed: int = 0
    pruner: str = "decision tree"
    budget: int = 8
    classifier: str = "DecisionTree"
    random_state: int = 0
    fig4_budgets: Tuple[int, ...] = FIG4_BUDGETS
    table1_budgets: Tuple[int, ...] = TABLE1_BUDGETS


def _dataset_stages() -> Tuple[Stage, Stage]:
    """The shared sweep/dataset stage definitions.

    Built in one place so :func:`generate_dataset_stages` and the full
    pipeline fingerprint identically — a dataset generated standalone is
    a cache hit for a later full run.
    """
    # Sweep version 2: measurement noise moved from per-cell PCG64
    # streams to the counter-based generator of repro.perfmodel.noise.
    return (
        Stage("sweep", sweep_stage, (), codec="bench-result", version="2"),
        Stage("dataset", dataset_stage, ("sweep",), codec="dataset", version="1"),
    )


def paper_pipeline() -> Pipeline:
    """The full reproduction DAG."""
    sweep, dataset = _dataset_stages()
    pipeline = Pipeline()
    pipeline.add(sweep)
    pipeline.add(dataset)
    pipeline.add(Stage("fig1", fig1_stage, ("dataset",)))
    pipeline.add(Stage("fig2", fig2_stage, ("dataset",)))
    pipeline.add(Stage("fig3", fig3_stage, ("dataset",)))
    pipeline.add(Stage("fig4", fig4_stage, ("dataset",)))
    pipeline.add(Stage("table1", table1_stage, ("dataset",)))
    pipeline.add(Stage("split", split_stage, ("dataset",), codec="split"))
    pipeline.add(Stage("prune", prune_stage, ("split",)))
    # Train version 2: the selector codec writes one .npz of tree arrays.
    pipeline.add(
        Stage("train", train_stage, ("split", "prune"), codec="selector", version="2")
    )
    pipeline.add(Stage("eval", eval_stage, ("split", "train")))
    return pipeline


def _sweep_params(
    device: Device,
    networks: Tuple[str, ...],
    runner: RunnerConfig,
    model_params: Optional[PerfModelParams],
    placements: Optional[Tuple[str, ...]] = None,
) -> Dict[str, Any]:
    params: Dict[str, Any] = {
        "device_spec": device.spec,
        "networks": tuple(networks),
        "runner": runner,
        "model_params": model_params,
    }
    # Only present when requested: adding the key unconditionally would
    # re-fingerprint (and re-run) every existing device-resident sweep.
    if placements:
        params["placements"] = tuple(placements)
    return params


def paper_params(
    config: Optional[PaperPipelineConfig] = None,
) -> Dict[str, Any]:
    """Per-stage parameter assignment for :func:`paper_pipeline`."""
    config = config or PaperPipelineConfig()
    device = Device.from_preset(config.device_preset)
    return {
        "sweep": _sweep_params(
            device,
            config.networks,
            config.runner,
            config.model_params,
            config.placements,
        ),
        "split": {
            "test_size": config.test_size,
            "split_seed": config.split_seed,
        },
        "prune": {
            "pruner": config.pruner,
            "budget": config.budget,
            "random_state": config.random_state,
        },
        "train": {
            "classifier": config.classifier,
            "random_state": config.random_state,
        },
        "fig4": {
            "budgets": tuple(config.fig4_budgets),
            "test_size": config.test_size,
            "split_seed": config.split_seed,
            "random_state": config.random_state,
        },
        "table1": {
            "budgets": tuple(config.table1_budgets),
            "test_size": config.test_size,
            "split_seed": config.split_seed,
            "random_state": config.random_state,
        },
    }


def run_paper_pipeline(
    store: ArtifactStore,
    config: Optional[PaperPipelineConfig] = None,
    *,
    force: bool = False,
) -> PipelineRun:
    """Run (or incrementally resume) the whole reproduction."""
    executor = PipelineExecutor(store)
    return executor.run(paper_pipeline(), paper_params(config), force=force)


def generate_dataset_stages(
    store: ArtifactStore,
    *,
    device: Device,
    runner_config: RunnerConfig,
    model_params: Optional[PerfModelParams],
    networks: Tuple[str, ...],
    placements: Optional[Tuple[str, ...]] = None,
):
    """Sweep + dataset stages only (the ``generate_dataset`` fast path)."""
    sweep, dataset = _dataset_stages()
    pipeline = Pipeline()
    pipeline.add(sweep)
    pipeline.add(dataset)
    params = {
        "sweep": _sweep_params(
            device, networks, runner_config, model_params, placements
        )
    }
    return PipelineExecutor(store).run(pipeline, params).value("dataset")
