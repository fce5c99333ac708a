"""Benchmark runner."""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkResult, BenchmarkRunner, RunnerConfig
from repro.kernels.params import KernelConfig, config_space
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape

SHAPES = (
    GemmShape(m=128, k=64, n=128),
    GemmShape(m=1, k=1024, n=512),
    GemmShape(m=3136, k=64, n=64),
)
CONFIGS = config_space(tile_sizes=(1, 4), work_groups=((8, 8), (1, 64)))


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner(Device.r9_nano(), configs=CONFIGS)


class TestRunner:
    def test_result_dimensions(self, runner):
        result = runner.run(SHAPES)
        assert result.gflops.shape == (3, len(CONFIGS))
        assert result.seconds.shape == (3, len(CONFIGS))
        assert result.device_name == Device.r9_nano().name

    def test_gflops_consistent_with_seconds(self, runner):
        result = runner.run(SHAPES)
        for si, shape in enumerate(SHAPES):
            np.testing.assert_allclose(
                result.gflops[si],
                shape.flops / result.seconds[si] / 1e9,
                rtol=1e-12,
            )

    def test_deterministic_across_runs(self, runner):
        a = runner.run(SHAPES)
        b = runner.run(SHAPES)
        np.testing.assert_array_equal(a.gflops, b.gflops)

    def test_default_config_space_is_full(self):
        r = BenchmarkRunner(Device.r9_nano())
        assert len(r.configs) == 640

    def test_warmup_iterations_excluded(self):
        shapes = SHAPES[:1]
        no_warm = BenchmarkRunner(
            Device.r9_nano(),
            configs=CONFIGS[:2],
            runner_config=RunnerConfig(warmup_iterations=0, timed_iterations=3),
        ).run(shapes)
        warm = BenchmarkRunner(
            Device.r9_nano(),
            configs=CONFIGS[:2],
            runner_config=RunnerConfig(warmup_iterations=2, timed_iterations=3),
        ).run(shapes)
        # Different iteration windows -> different noise draws.
        assert not np.array_equal(no_warm.gflops, warm.gflops)

    def test_seed_controls_noise(self):
        a = BenchmarkRunner(
            Device.r9_nano(),
            configs=CONFIGS[:2],
            runner_config=RunnerConfig(seed=1),
        ).run(SHAPES[:1])
        b = BenchmarkRunner(
            Device.r9_nano(),
            configs=CONFIGS[:2],
            runner_config=RunnerConfig(seed=2),
        ).run(SHAPES[:1])
        assert not np.array_equal(a.gflops, b.gflops)

    def test_empty_shapes_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run(())

    @pytest.mark.parametrize("workers", [0, 2])
    def test_only_a_serial_sweep_is_accepted(self, runner, workers):
        with pytest.raises(ValueError, match="max_workers"):
            runner.run(SHAPES[:1], max_workers=workers)

    def test_bench_single(self, runner):
        summary = runner.bench_single(SHAPES[0], CONFIGS[0])
        assert summary.iterations == RunnerConfig().timed_iterations
        assert summary.minimum > 0

    def test_invalid_runner_config(self):
        with pytest.raises(ValueError):
            RunnerConfig(warmup_iterations=-1)
        with pytest.raises(ValueError):
            RunnerConfig(timed_iterations=0)

    def test_result_shape_validation(self):
        with pytest.raises(ValueError):
            BenchmarkResult(
                device_name="x",
                shapes=SHAPES,
                configs=CONFIGS,
                gflops=np.ones((2, 2)),
                seconds=np.ones((2, 2)),
            )
