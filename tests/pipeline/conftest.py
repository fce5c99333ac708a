"""Shared fixtures: one small tuned selector, written once per session.

Tuning even a reduced sweep costs ~a second, and every mapped-layout
test needs the same deployable artefact — so the selector and its
mapped layout are session-scoped.
"""

import pytest


@pytest.fixture(scope="session")
def tiny_deployed():
    from repro.bench.runner import BenchmarkRunner, RunnerConfig
    from repro.core.dataset import PerformanceDataset
    from repro.core.deploy import tune
    from repro.kernels.params import config_space
    from repro.sycl.device import Device
    from repro.workloads.extract import extract_dataset_shapes

    configs = config_space(
        tile_sizes=(1, 2), work_groups=((8, 8), (16, 16))
    )
    shapes, _ = extract_dataset_shapes()
    runner = BenchmarkRunner(
        Device.r9_nano(),
        configs=configs,
        runner_config=RunnerConfig(
            warmup_iterations=1, timed_iterations=1, seed=0
        ),
    )
    dataset = PerformanceDataset.from_benchmark(runner.run(shapes[::11]))
    return tune(dataset, n_configs=4, random_state=0)


@pytest.fixture(scope="session")
def mapped_dir(tiny_deployed, tmp_path_factory):
    from repro.pipeline.mapped import write_mapped_selector

    directory = tmp_path_factory.mktemp("mapped") / "selector"
    write_mapped_selector(tiny_deployed, directory)
    return directory


@pytest.fixture(scope="session")
def shape_pool():
    from repro.loadgen.workload import network_shape_pool

    return network_shape_pool()
