"""The onboarding branch of the fleet DAG.

Onboarding a device ``t`` adds a second, budgeted branch next to its
full-sweep branch::

    onboard-budget@t -> onboard-sweep@t -> onboard-dataset@t
        -> onboard-split@t -> onboard-prune@t -> onboard-train@t
        -> onboard-report@t

The branch roots at a content-addressed :class:`OnboardBudget` params
artifact: changing the budget (fraction, sampler, seed, forest knobs)
re-fingerprints — and re-runs — exactly the ``onboard-*`` stages of
exactly that device, while every full-sweep branch and every other
device stay 100% cache hits.  The sweep and dataset stages additionally
depend on the *source* devices' ``profile@s``/``dataset@s`` artifacts
(the imputation model learns from them), so retuning a source device
correctly invalidates the onboarded dataset too.

The report stage closes the loop against ground truth: it compares the
budgeted selector with the device's full-sweep selector on the full
branch's held-out test shapes (see :mod:`repro.onboard.report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bench.runner import BenchmarkRunner
from repro.core.dataset import split_stage
from repro.core.deploy import prune_stage, train_stage
from repro.fleet.pipeline import (
    FleetPipelineConfig,
    fleet_params,
    fleet_pipeline,
    parse_stage_name,
    stage_name,
)
from repro.fleet.profile import DeviceProfile
from repro.onboard.budget import OnboardBudget
from repro.onboard.impute import SourceBranch
from repro.onboard.report import build_report
from repro.onboard.sweep import run_partial_sweep
from repro.onboard.transfer import TransferSelector, calibrated_dataset
from repro.pipeline.artifact import Artifact
from repro.pipeline.executor import PipelineExecutor, PipelineRun
from repro.pipeline.stage import Pipeline, Stage
from repro.pipeline.store import ArtifactStore
from repro.workloads.extract import extract_dataset_shapes

__all__ = [
    "ONBOARD_STAGES",
    "OnboardPipelineConfig",
    "OnboardRun",
    "onboard_fingerprints",
    "onboard_params",
    "onboard_pipeline",
    "run_onboard_pipeline",
]

#: Per-target onboard stage kinds, in branch order.
ONBOARD_STAGES: Tuple[str, ...] = (
    "onboard-budget",
    "onboard-sweep",
    "onboard-dataset",
    "onboard-split",
    "onboard-prune",
    "onboard-train",
    "onboard-report",
)


def _collect(inputs: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Group suffixed inputs by stage kind: ``{kind: {device_id: value}}``.

    Onboard stages take several same-kind inputs (one ``dataset@s`` per
    source device), so the fleet module's flat re-keying would collide;
    this keeps the device axis.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    for name, value in inputs.items():
        kind, device_id = parse_stage_name(name)
        grouped.setdefault(kind, {})[device_id] = value
    return grouped


def _source_branches(
    grouped: Mapping[str, Mapping[str, Any]], target: str
) -> Tuple[SourceBranch, ...]:
    profiles = grouped.get("profile", {})
    datasets = grouped.get("dataset", {})
    return tuple(
        SourceBranch(
            device_id=did,
            spec=profiles[did].spec,
            dataset=datasets[did],
        )
        for did in sorted(datasets)
        if did != target
    )


# -- onboard stage functions -------------------------------------------------


def onboard_budget_stage(inputs, params) -> OnboardBudget:
    """Pipeline stage: the budget itself, as the branch's root artifact."""
    return params["budget"]


def onboard_sweep_stage(inputs, params):
    """Pipeline stage: the budgeted partial benchmark on the target."""
    grouped = _collect(inputs)
    target = params["target"]
    profile: DeviceProfile = grouped["profile"][target]
    budget: OnboardBudget = next(iter(grouped["onboard-budget"].values()))
    sources = _source_branches(grouped, target)
    shapes, _ = extract_dataset_shapes(networks=tuple(params["networks"]))
    runner = BenchmarkRunner(
        profile.device(),
        configs=params.get("configs"),
        runner_config=params["runner"],
        model_params=profile.model_params,
    )
    return run_partial_sweep(runner, shapes, budget, sources=sources)


def onboard_dataset_stage(inputs, params):
    """Pipeline stage: impute + calibrate the partial sweep to a full table."""
    grouped = _collect(inputs)
    target = params["target"]
    profile: DeviceProfile = grouped["profile"][target]
    budget: OnboardBudget = next(iter(grouped["onboard-budget"].values()))
    sweep = next(iter(grouped["onboard-sweep"].values()))
    sources = _source_branches(grouped, target)
    return calibrated_dataset(
        sources, profile.spec, sweep, budget, seed=budget.seed
    )


def onboard_split_stage(inputs, params):
    grouped = _collect(inputs)
    dataset = next(iter(grouped["onboard-dataset"].values()))
    return split_stage({"dataset": dataset}, params)


def onboard_prune_stage(inputs, params):
    grouped = _collect(inputs)
    split = next(iter(grouped["onboard-split"].values()))
    return prune_stage({"split": split}, params)


def onboard_train_stage(inputs, params):
    grouped = _collect(inputs)
    return train_stage(
        {
            "split": next(iter(grouped["onboard-split"].values())),
            "prune": next(iter(grouped["onboard-prune"].values())),
        },
        params,
    )


def onboard_report_stage(inputs, params):
    """Pipeline stage: score the budgeted selector against ground truth."""
    grouped = _collect(inputs)
    target = params["target"]
    budget: OnboardBudget = next(iter(grouped["onboard-budget"].values()))
    sweep = next(iter(grouped["onboard-sweep"].values()))
    onboard_selector = next(iter(grouped["onboard-train"].values()))
    full_selector = grouped["train"][target]
    truth_split = grouped["split"][target]
    zero_shot_score = None
    if params.get("zero_shot", True):
        sources = _source_branches(grouped, target)
        if sources:
            transfer = TransferSelector(
                random_state=params.get("random_state", 0)
            ).fit(sources)
            profile: DeviceProfile = grouped["profile"][target]
            zero_shot_score = transfer.score(profile.spec, truth_split.test)
    return build_report(
        device_id=target,
        budget=budget,
        sweep=sweep,
        onboard=onboard_selector,
        full=full_selector,
        truth_split=truth_split,
        zero_shot_score=zero_shot_score,
    )


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class OnboardPipelineConfig:
    """Every fingerprinted knob of an onboarding run.

    ``target`` is the device being onboarded; ``sources`` are the
    existing fleet devices the imputation model learns from (default:
    every fleet device except the target).  The underlying ``fleet``
    config must include the target — its full-sweep branch is the
    ground truth the report stage scores against.
    """

    target: str
    budget: OnboardBudget = field(default_factory=OnboardBudget)
    sources: Optional[Tuple[str, ...]] = None
    fleet: FleetPipelineConfig = field(default_factory=FleetPipelineConfig)
    zero_shot: bool = True

    def __post_init__(self) -> None:
        fleet_ids = tuple(p.device_id for p in self.fleet.profiles())
        if self.target not in fleet_ids:
            raise ValueError(
                f"target {self.target!r} has no fleet branch; known "
                f"devices: {list(fleet_ids)}"
            )
        for src in self.source_ids():
            if src not in fleet_ids:
                raise ValueError(
                    f"source {src!r} has no fleet branch; known devices: "
                    f"{list(fleet_ids)}"
                )
        if self.target in self.source_ids():
            raise ValueError(
                f"target {self.target!r} cannot be its own source"
            )
        if not self.source_ids():
            raise ValueError(
                "onboarding needs at least one source device to learn from"
            )

    def source_ids(self) -> Tuple[str, ...]:
        if self.sources is not None:
            return tuple(self.sources)
        return tuple(
            p.device_id
            for p in self.fleet.profiles()
            if p.device_id != self.target
        )

    def with_budget(self, **changes: Any) -> "OnboardPipelineConfig":
        """This config with budget knobs replaced (fingerprint-changing)."""
        return replace(self, budget=replace(self.budget, **changes))


def onboard_pipeline(config: OnboardPipelineConfig) -> Pipeline:
    """The fleet DAG plus the target's budgeted onboarding branch."""
    pipeline = fleet_pipeline(config.fleet)
    t = config.target
    sources = config.source_ids()
    source_inputs = tuple(stage_name("profile", s) for s in sources) + tuple(
        stage_name("dataset", s) for s in sources
    )
    pipeline.add(
        Stage(stage_name("onboard-budget", t), onboard_budget_stage, ())
    )
    pipeline.add(
        Stage(
            stage_name("onboard-sweep", t),
            onboard_sweep_stage,
            (
                stage_name("onboard-budget", t),
                stage_name("profile", t),
            )
            + source_inputs,
            codec="partial-sweep",
            # 2: counter-based measurement noise (repro.perfmodel.noise).
            version="2",
        )
    )
    pipeline.add(
        Stage(
            stage_name("onboard-dataset", t),
            onboard_dataset_stage,
            (
                stage_name("onboard-budget", t),
                stage_name("onboard-sweep", t),
                stage_name("profile", t),
            )
            + source_inputs,
            codec="dataset",
        )
    )
    pipeline.add(
        Stage(
            stage_name("onboard-split", t),
            onboard_split_stage,
            (stage_name("onboard-dataset", t),),
            codec="split",
        )
    )
    pipeline.add(
        Stage(
            stage_name("onboard-prune", t),
            onboard_prune_stage,
            (stage_name("onboard-split", t),),
        )
    )
    pipeline.add(
        Stage(
            stage_name("onboard-train", t),
            onboard_train_stage,
            (
                stage_name("onboard-split", t),
                stage_name("onboard-prune", t),
            ),
            codec="selector",
        )
    )
    pipeline.add(
        Stage(
            stage_name("onboard-report", t),
            onboard_report_stage,
            (
                stage_name("onboard-budget", t),
                stage_name("onboard-sweep", t),
                stage_name("onboard-train", t),
                stage_name("train", t),
                stage_name("split", t),
                stage_name("profile", t),
            )
            + source_inputs,
            codec="onboard-report",
        )
    )
    return pipeline


def onboard_params(config: OnboardPipelineConfig) -> Dict[str, Any]:
    """Per-stage parameters: the fleet assignment plus the onboard branch."""
    params = fleet_params(config.fleet)
    t = config.target
    fleet = config.fleet
    params[stage_name("onboard-budget", t)] = {"budget": config.budget}
    params[stage_name("onboard-sweep", t)] = {
        "target": t,
        "networks": tuple(fleet.networks),
        "runner": fleet.runner,
        "configs": fleet.configs,
    }
    params[stage_name("onboard-dataset", t)] = {"target": t}
    params[stage_name("onboard-split", t)] = {
        "test_size": fleet.test_size,
        "split_seed": fleet.split_seed,
    }
    params[stage_name("onboard-prune", t)] = {
        "pruner": fleet.pruner,
        "budget": fleet.budget,
        "random_state": fleet.random_state,
    }
    params[stage_name("onboard-train", t)] = {
        "classifier": fleet.classifier,
        "random_state": fleet.random_state,
    }
    params[stage_name("onboard-report", t)] = {
        "target": t,
        "zero_shot": config.zero_shot,
        "random_state": fleet.random_state,
    }
    return params


def onboard_fingerprints(config: OnboardPipelineConfig) -> Dict[str, str]:
    """Content address of every stage (fleet and onboard) under ``config``."""
    return onboard_pipeline(config).fingerprints(onboard_params(config))


@dataclass(frozen=True)
class OnboardRun:
    """One onboarding build: the run plus target-branch accessors."""

    run: PipelineRun
    target: str
    sources: Tuple[str, ...]

    @property
    def stats(self):
        return self.run.stats

    def artifact(self, stage: str) -> Artifact:
        return self.run.artifacts[stage_name(stage, self.target)]

    def value(self, stage: str) -> Any:
        return self.artifact(stage).value

    def report(self):
        """The terminal :class:`~repro.onboard.report.OnboardReport`."""
        return self.value("onboard-report")

    def selector(self):
        """The budgeted branch's :class:`DeployedSelector`."""
        return self.value("onboard-train")


def run_onboard_pipeline(
    store: ArtifactStore,
    config: OnboardPipelineConfig,
    *,
    force: bool = False,
    registry=None,
    tracer=None,
) -> OnboardRun:
    """Build (or incrementally resume) the target's onboarding branch.

    Runs the whole DAG — fleet branches are cache hits when already
    built, so an onboarding rerun after a budget change executes only
    the ``onboard-*`` stages of the target.
    """
    executor = PipelineExecutor(store, registry=registry, tracer=tracer)
    run = executor.run(
        onboard_pipeline(config), onboard_params(config), force=force
    )
    return OnboardRun(run=run, target=config.target, sources=config.source_ids())
