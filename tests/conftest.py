"""Shared fixtures.

Two dataset tiers keep the suite fast:

* ``small_dataset`` — a reduced configuration space (108 configs) over a
  24-shape subset; regenerates in well under a second and is enough for
  pipeline mechanics.
* ``full_dataset`` — the real 640-config x all-shapes table, generated
  once per session (used by the integration/calibration tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset, generate_dataset
from repro.kernels.params import config_space
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes


SMALL_TILES = (1, 2, 4)
SMALL_WGS = ((8, 8), (1, 64), (16, 16), (64, 1))


@pytest.fixture(scope="session")
def small_configs():
    return config_space(tile_sizes=SMALL_TILES, work_groups=SMALL_WGS)


@pytest.fixture(scope="session")
def all_shapes():
    shapes, _ = extract_dataset_shapes()
    return shapes


@pytest.fixture(scope="session")
def small_dataset(small_configs, all_shapes) -> PerformanceDataset:
    # A spread of shapes: every 7th keeps all families represented.
    shapes = all_shapes[::7]
    runner = BenchmarkRunner(
        Device.r9_nano(),
        configs=small_configs,
        runner_config=RunnerConfig(warmup_iterations=1, timed_iterations=3),
    )
    return PerformanceDataset.from_benchmark(runner.run(shapes))


@pytest.fixture(scope="session")
def full_dataset() -> PerformanceDataset:
    return generate_dataset()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
