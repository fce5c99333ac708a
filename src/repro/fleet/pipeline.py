"""The fleet DAG: the paper's artifact chain fanned out per device.

Each device profile gets its own branch of the staged pipeline::

    profile@<id> -> sweep@<id> -> dataset@<id> -> split@<id>
                                     -> prune@<id> -> train@<id> -> eval@<id>

The branch roots at a ``profile`` artifact holding the
:class:`~repro.fleet.profile.DeviceProfile` itself, so every per-device
artifact fingerprints through the device's spec and model calibration.
Branches share no artifacts: adding a fifth profile to a built fleet
runs exactly that profile's seven stages and reuses the other four
branches as cache hits.

The stage functions here are thin module-level wrappers over the
single-device stage functions in :mod:`repro.core.dataset` and
:mod:`repro.core.deploy` — inputs arrive keyed by suffixed stage names
(``sweep@r9-nano``) and are re-keyed to the canonical names the core
stages expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import (
    DEFAULT_NETWORKS,
    PerformanceDataset,
    split_stage,
)
from repro.core.deploy import eval_stage, prune_stage, train_stage
from repro.fleet.profile import DeviceProfile, fleet_profiles
from repro.kernels.params import KernelConfig
from repro.pipeline.artifact import Artifact
from repro.pipeline.executor import PipelineExecutor, PipelineRun
from repro.pipeline.stage import Pipeline, Stage
from repro.pipeline.store import ArtifactStore
from repro.workloads.extract import extract_dataset_shapes

__all__ = [
    "FLEET_STAGES",
    "FleetPipelineConfig",
    "FleetRun",
    "fleet_fingerprints",
    "fleet_params",
    "fleet_pipeline",
    "parse_stage_name",
    "run_fleet_pipeline",
    "stage_name",
]

#: Per-device stage kinds, in branch order.
FLEET_STAGES: Tuple[str, ...] = (
    "profile",
    "sweep",
    "dataset",
    "split",
    "prune",
    "train",
    "eval",
)


def stage_name(stage: str, device_id: str) -> str:
    """The fleet DAG name of one device's stage: ``stage@device_id``."""
    return f"{stage}@{device_id}"


def parse_stage_name(name: str) -> Tuple[str, str]:
    """Split ``stage@device_id`` back into its parts."""
    stage, sep, device_id = name.partition("@")
    if not sep or not device_id:
        raise ValueError(f"{name!r} is not a fleet stage name (stage@device)")
    return stage, device_id


def _canonical(inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-key suffixed input names to the canonical single-device names."""
    return {name.partition("@")[0]: value for name, value in inputs.items()}


# -- per-device stage functions ----------------------------------------------


def profile_stage(inputs, params) -> DeviceProfile:
    """Pipeline stage: the device profile itself, as a root artifact."""
    return params["profile"]


def fleet_sweep_stage(inputs, params):
    """Pipeline stage: benchmark sweep on one profile's device.

    The device spec and model constants come from the upstream profile
    artifact (not the params), so the sweep's fingerprint tracks the
    profile's content.  ``configs`` optionally restricts the swept
    configuration space (None = the full 640).
    """
    profile: DeviceProfile = _canonical(inputs)["profile"]
    shapes, _ = extract_dataset_shapes(networks=tuple(params["networks"]))
    runner = BenchmarkRunner(
        profile.device(),
        configs=params.get("configs"),
        runner_config=params["runner"],
        model_params=profile.model_params,
    )
    return runner.run(shapes)


def fleet_dataset_stage(inputs, params) -> PerformanceDataset:
    return PerformanceDataset.from_benchmark(_canonical(inputs)["sweep"])


def fleet_split_stage(inputs, params):
    return split_stage(_canonical(inputs), params)


def fleet_prune_stage(inputs, params):
    return prune_stage(_canonical(inputs), params)


def fleet_train_stage(inputs, params):
    return train_stage(_canonical(inputs), params)


def fleet_eval_stage(inputs, params):
    return eval_stage(_canonical(inputs), params)


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class FleetPipelineConfig:
    """Every fingerprinted knob of the fleet pipeline in one place.

    ``device_ids`` name registered profiles (see
    :mod:`repro.fleet.profile`); selection/pruning knobs apply uniformly
    across devices.  ``configs`` restricts the swept configuration space
    (None = the full 640) — tests and CI use reduced spaces to keep the
    per-device sweeps fast.
    """

    device_ids: Optional[Tuple[str, ...]] = None
    networks: Tuple[str, ...] = DEFAULT_NETWORKS
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    configs: Optional[Tuple[KernelConfig, ...]] = None
    test_size: float = 0.2
    split_seed: int = 0
    pruner: str = "decision tree"
    budget: int = 8
    classifier: str = "DecisionTree"
    random_state: int = 0

    def profiles(self) -> Tuple[DeviceProfile, ...]:
        return fleet_profiles(self.device_ids)


def fleet_pipeline(config: Optional[FleetPipelineConfig] = None) -> Pipeline:
    """The fleet DAG: one independent branch per device profile."""
    config = config or FleetPipelineConfig()
    pipeline = Pipeline()
    for profile in config.profiles():
        did = profile.device_id
        pipeline.add(
            Stage(stage_name("profile", did), profile_stage, (), codec="profile")
        )
        pipeline.add(
            Stage(
                stage_name("sweep", did),
                fleet_sweep_stage,
                (stage_name("profile", did),),
                codec="bench-result",
                # 2: counter-based measurement noise (repro.perfmodel.noise).
                version="2",
            )
        )
        pipeline.add(
            Stage(
                stage_name("dataset", did),
                fleet_dataset_stage,
                (stage_name("sweep", did),),
                codec="dataset",
            )
        )
        pipeline.add(
            Stage(
                stage_name("split", did),
                fleet_split_stage,
                (stage_name("dataset", did),),
                codec="split",
            )
        )
        pipeline.add(
            Stage(
                stage_name("prune", did),
                fleet_prune_stage,
                (stage_name("split", did),),
            )
        )
        pipeline.add(
            Stage(
                stage_name("train", did),
                fleet_train_stage,
                (stage_name("split", did), stage_name("prune", did)),
                codec="selector",
                version="2",  # the selector codec writes one .npz
            )
        )
        pipeline.add(
            Stage(
                stage_name("eval", did),
                fleet_eval_stage,
                (stage_name("split", did), stage_name("train", did)),
            )
        )
    return pipeline


def fleet_params(
    config: Optional[FleetPipelineConfig] = None,
) -> Dict[str, Any]:
    """Per-stage parameter assignment for :func:`fleet_pipeline`."""
    config = config or FleetPipelineConfig()
    params: Dict[str, Any] = {}
    for profile in config.profiles():
        did = profile.device_id
        params[stage_name("profile", did)] = {"profile": profile}
        params[stage_name("sweep", did)] = {
            "networks": tuple(config.networks),
            "runner": config.runner,
            "configs": config.configs,
        }
        params[stage_name("split", did)] = {
            "test_size": config.test_size,
            "split_seed": config.split_seed,
        }
        params[stage_name("prune", did)] = {
            "pruner": config.pruner,
            "budget": config.budget,
            "random_state": config.random_state,
        }
        params[stage_name("train", did)] = {
            "classifier": config.classifier,
            "random_state": config.random_state,
        }
    return params


def fleet_fingerprints(
    config: Optional[FleetPipelineConfig] = None,
) -> Dict[str, str]:
    """Content address of every fleet stage under ``config``."""
    config = config or FleetPipelineConfig()
    return fleet_pipeline(config).fingerprints(fleet_params(config))


@dataclass(frozen=True)
class FleetRun:
    """One fleet build: the underlying run plus per-device accessors."""

    run: PipelineRun
    device_ids: Tuple[str, ...]

    @property
    def stats(self):
        return self.run.stats

    def artifact(self, stage: str, device_id: str) -> Artifact:
        return self.run.artifacts[stage_name(stage, device_id)]

    def value(self, stage: str, device_id: str) -> Any:
        return self.artifact(stage, device_id).value

    def selectors(self) -> Dict[str, Any]:
        """The trained :class:`DeployedSelector` of every device."""
        return {did: self.value("train", did) for did in self.device_ids}


def run_fleet_pipeline(
    store: ArtifactStore,
    config: Optional[FleetPipelineConfig] = None,
    *,
    force: bool = False,
    registry=None,
    tracer=None,
) -> FleetRun:
    """Build (or incrementally resume) every device's selector artifact.

    ``registry``/``tracer`` are forwarded to the underlying
    :class:`PipelineExecutor`, so the build's per-stage spans and cache
    counters land in the same obs snapshot as later serving traffic.
    """
    config = config or FleetPipelineConfig()
    executor = PipelineExecutor(store, registry=registry, tracer=tracer)
    run = executor.run(
        fleet_pipeline(config), fleet_params(config), force=force
    )
    return FleetRun(
        run=run,
        device_ids=tuple(p.device_id for p in config.profiles()),
    )
