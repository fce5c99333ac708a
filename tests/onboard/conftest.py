"""Onboarding fixtures: four full-sweep branches at reduced scale.

Every fixture is session-scoped and deterministic: sweeps use the
counter-based noise model, so the full tables (and everything derived
from them) are bit-identical across runs — the determinism tests below
rely on that.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.fleet.profile import fleet_profiles
from repro.onboard import OnboardBudget, SourceBranch
from repro.workloads.extract import extract_dataset_shapes

FLEET_IDS = ("r9-nano", "compute-heavy", "bandwidth-lean", "latency-bound")

#: Fast settings for unit tests; the CI quality gates run the defaults.
FAST_BUDGET = OnboardBudget(
    fraction=0.12, sampler="active", seed=0, rounds=3, n_trees=8
)


@pytest.fixture(scope="session")
def onboard_runner_config() -> RunnerConfig:
    return RunnerConfig(warmup_iterations=1, timed_iterations=3)


@pytest.fixture(scope="session")
def onboard_shapes(all_shapes):
    # Every other mobilenet-leaning shape: 11 rows, all families present.
    shapes, _ = extract_dataset_shapes(networks=("mobilenet_v2",))
    return tuple(shapes[::2])


def profile_runner(profile, configs, runner_config) -> BenchmarkRunner:
    """A fresh benchmark runner for one profile's device."""
    return BenchmarkRunner(
        profile.device(),
        configs=configs,
        runner_config=runner_config,
        model_params=profile.model_params,
    )


def build_branches(shapes, configs, runner_config):
    """device_id -> (profile, full-sweep dataset) for the builtin four."""
    return {
        profile.device_id: (
            profile,
            PerformanceDataset.from_benchmark(
                profile_runner(profile, configs, runner_config).run(shapes)
            ),
        )
        for profile in fleet_profiles(FLEET_IDS)
    }


def branch_sources(branches, target: str):
    """Every branch except the target, as SourceBranch tuples."""
    return tuple(
        SourceBranch(device_id=did, spec=prof.spec, dataset=ds)
        for did, (prof, ds) in branches.items()
        if did != target
    )


@pytest.fixture(scope="session")
def branches(onboard_shapes, small_configs, onboard_runner_config):
    return build_branches(onboard_shapes, small_configs, onboard_runner_config)


@pytest.fixture(scope="session")
def make_runner(small_configs, onboard_runner_config):
    """Factory: a fresh benchmark runner for one profile's device."""
    return lambda profile: profile_runner(
        profile, small_configs, onboard_runner_config
    )


@pytest.fixture(scope="session")
def sources_for(branches):
    """Factory: every branch except the target, as SourceBranch tuples."""
    return lambda target: branch_sources(branches, target)
