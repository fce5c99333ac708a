"""Runner-seed spread of the dataset-structure and onboarding-quality floors.

The runner seed keys the measurement noise, so each seed is a different
noise draw of the same performance model.  This script regenerates the
full 163 x 640 dataset at each seed and measures the quantities that
``tests/integration/test_dataset_structure.py`` and
``tests/onboard/test_pipeline.py::TestRun::test_report_is_sane`` gate
on, printing each as ``mean +/- std [min, max]`` — the source of those
floors in EXPERIMENTS.md ("Runner-seed spread").  About 7 s per seed
on a 2-vCPU VM::

    PYTHONPATH=src python examples/runner_seed_spread.py [--seeds 12]
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile

import numpy as np

from repro.core.pca_analysis import analyze_dataset
from repro.experiments import run_seed_spread
from repro.fleet.pipeline import FleetPipelineConfig
from repro.kernels.params import config_space
from repro.onboard import OnboardBudget, OnboardPipelineConfig, run_onboard_pipeline
from repro.pipeline.store import ArtifactStore


def structure(dataset):
    """The targets of tests/integration/test_dataset_structure.py."""
    wins = np.sort(dataset.win_counts())[::-1]
    normalized = dataset.normalized()
    mean = normalized.mean(axis=0)
    counts = analyze_dataset(dataset).components_for_threshold
    return {
        "winners": np.count_nonzero(wins),
        "top wins": wins[0],
        "top / runner-up": wins[0] / wins[1],
        "never above 50%": np.sum(normalized.max(axis=0) < 0.5),
        "niche winners": len(
            [c for c in set(dataset.best_config_indices().tolist()) if mean[c] < 0.6]
        ),
        "best single config": np.exp(np.mean(np.log(normalized), axis=0)).max(),
        "pca 90% components": counts[0.90],
    }


def report_quality(protocol):
    """The onboarding report of tests/onboard/test_pipeline.py."""
    config = OnboardPipelineConfig(
        target="latency-bound",
        budget=OnboardBudget(
            fraction=0.12, sampler="active", seed=0, rounds=2, n_trees=6
        ),
        fleet=FleetPipelineConfig(
            device_ids=("r9-nano", "compute-heavy", "latency-bound"),
            networks=("mobilenet_v2",),
            runner=dataclasses.replace(
                protocol, warmup_iterations=1, timed_iterations=3
            ),
            configs=config_space(
                tile_sizes=(1, 2, 4),
                work_groups=((8, 8), (1, 64), (16, 16), (64, 1)),
            ),
        ),
    )
    with tempfile.TemporaryDirectory() as store:
        report = run_onboard_pipeline(ArtifactStore(store), config).report()
    return report.quality


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12, help="runner seeds from 2020")
    args = parser.parse_args()
    spread = run_seed_spread(
        lambda dataset, protocol: {
            **structure(dataset),
            "onboarding report quality": report_quality(protocol),
        },
        seeds=tuple(range(2020, 2020 + args.seeds)),
    )
    print(f"{args.seeds} runner seeds from 2020: mean +/- std [min, max]")
    for name, s in spread.items():
        print(
            f"  {name:28s} {s.mean:.4g} +/- {s.std:.2g} [{s.low:.4g}, {s.high:.4g}]"
        )


if __name__ == "__main__":
    main()
