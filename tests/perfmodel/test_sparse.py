"""Sparse performance model."""

import numpy as np
import pytest

from repro.kernels.params import KernelConfig, config_space
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.sparse import SparseGemmPerfModel
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape
from repro.workloads.sparse import SparseGemmShape


@pytest.fixture(scope="module")
def model():
    return SparseGemmPerfModel(Device.r9_nano())


def cfg(acc=4, rows=4, cols=4, wg=(16, 16)):
    return KernelConfig(acc=acc, rows=rows, cols=cols, wg_rows=wg[0], wg_cols=wg[1])


def sparse(density, m=1024, k=1024, n=1024):
    return SparseGemmShape(m=m, k=k, n=n, density=density)


class TestDenseConsistency:
    def test_density_one_matches_dense_model(self, model):
        shape = sparse(1.0)
        dense_time = GemmPerfModel(Device.r9_nano(), seed=model.seed).time_seconds(
            shape.dense_equivalent(), cfg()
        )
        assert model.time_seconds(shape, cfg()) == pytest.approx(dense_time)

    def test_accepts_plain_gemm_shape(self, model):
        shape = GemmShape(m=256, k=256, n=256)
        assert model.time_seconds(shape, cfg()) == pytest.approx(
            GemmPerfModel(Device.r9_nano(), seed=model.seed).time_seconds(
                shape, cfg()
            )
        )


class TestSparsityEffects:
    def test_sparse_is_faster_than_dense_in_absolute_time(self, model):
        # 10x fewer multiplies should still win despite overheads.
        assert model.time_seconds(sparse(0.1), cfg()) < model.time_seconds(
            sparse(1.0), cfg()
        )

    def test_sparse_efficiency_lower_than_dense(self, model):
        # GFLOP/s on useful flops drop with sparsity (index/gather tax).
        dense_rate = model.gflops(sparse(1.0), cfg())
        sparse_rate = model.gflops(sparse(0.1), cfg())
        assert sparse_rate < dense_rate

    def test_time_monotone_in_low_density_regime(self, model):
        # Below the break-even point, fewer nonzeros means less time.
        times = [
            model.time_seconds(sparse(d), cfg()) for d in (0.05, 0.1, 0.25)
        ]
        assert times == sorted(times)

    def test_break_even_density_exists(self, model):
        """Moderate sparsity does NOT pay on GPU-like hardware (index and
        imbalance overheads eat the 2x flop saving); only high sparsity
        wins — the well-known break-even behaviour the model reproduces."""
        dense_time = model.time_seconds(sparse(1.0), cfg())
        assert model.time_seconds(sparse(0.5), cfg()) > 0.9 * dense_time
        assert model.time_seconds(sparse(0.1), cfg()) < dense_time

    def test_gather_penalty_grows_with_acc(self, model):
        """Wide accumulator steps pay the gather tax; visible wherever
        compute (not memory) bounds the kernel — isolate it by comparing
        against a gather-free model."""
        no_gather = SparseGemmPerfModel(Device.r9_nano(), gather_cost=0.0)
        shape = sparse(0.5)  # compute-bound at this density
        slowdown_wide = model.time_seconds(shape, cfg(acc=8)) / no_gather.time_seconds(
            shape, cfg(acc=8)
        )
        slowdown_narrow = model.time_seconds(
            shape, cfg(acc=1)
        ) / no_gather.time_seconds(shape, cfg(acc=1))
        assert slowdown_wide > slowdown_narrow

    def test_optimum_shifts_with_density(self, model):
        configs = config_space()
        shape_dense = sparse(1.0, m=3136, k=576, n=128)
        shape_sparse = sparse(0.1, m=3136, k=576, n=128)
        best_dense = min(configs, key=lambda c: model.time_seconds(shape_dense, c))
        best_sparse = min(configs, key=lambda c: model.time_seconds(shape_sparse, c))
        assert best_dense != best_sparse


class TestMeasurement:
    def test_noise_independent_across_densities(self, model):
        a = model.measured_times_seconds(sparse(0.5), cfg(), iterations=3)
        b = model.measured_times_seconds(sparse(0.25), cfg(), iterations=3)
        # Ratios differ -> noise streams are independent per density.
        assert not np.allclose(a / a[0], b / b[0])

    def test_measured_reproducible(self, model):
        a = model.measured_times_seconds(sparse(0.5), cfg(), iterations=4)
        b = model.measured_times_seconds(sparse(0.5), cfg(), iterations=4)
        np.testing.assert_array_equal(a, b)

    def test_scalar_accessor(self, model):
        v = model.measured_time_seconds(sparse(0.5), cfg(), iteration=2)
        block = model.measured_times_seconds(sparse(0.5), cfg(), iterations=3)
        assert v == block[2]

    def test_supported_delegates(self, model):
        assert model.supported(cfg())

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            SparseGemmPerfModel(Device.r9_nano(), decode_cost=-1)


class TestWindowSweep:
    """The inherited whole-window sweep against the per-cell oracle."""

    def test_block_matches_per_cell(self, model):
        rng = np.random.default_rng(5)
        shapes = [
            SparseGemmShape(
                m=int(rng.integers(1, 4097)),
                k=int(rng.integers(1, 4097)),
                n=int(rng.integers(1, 4097)),
                batch=int(rng.integers(1, 5)),
                density=float(density),
            )
            for density in (1.0, 0.5, 0.25, 0.1, 1.0, rng.uniform(0.01, 1.0))
        ]
        configs = config_space()
        for iterations, start in ((3, 2), (2, 7)):
            block = model.measured_times_block(
                shapes, configs, iterations=iterations, start_iteration=start
            )
            cells = np.array(
                [
                    [
                        model.measured_times_seconds(
                            shape, config, iterations=iterations, start_iteration=start
                        )
                        for config in configs
                    ]
                    for shape in shapes
                ]
            )
            np.testing.assert_array_equal(block, cells)


class TestRunnerIntegration:
    def test_runner_with_sparse_model(self):
        from repro.bench.runner import BenchmarkRunner, RunnerConfig
        from repro.kernels.params import config_space as full_space

        model = SparseGemmPerfModel(Device.r9_nano())
        runner = BenchmarkRunner(
            Device.r9_nano(),
            configs=full_space()[:8],
            runner_config=RunnerConfig(timed_iterations=2),
            model=model,
        )
        result = runner.run([sparse(0.5, m=128, k=128, n=128)])
        assert result.gflops.shape == (1, 8)
        assert np.all(result.gflops > 0)

    def test_runner_rejects_model_and_params(self):
        from repro.bench.runner import BenchmarkRunner
        from repro.perfmodel.params import PerfModelParams

        with pytest.raises(ValueError):
            BenchmarkRunner(
                Device.r9_nano(),
                model=SparseGemmPerfModel(Device.r9_nano()),
                model_params=PerfModelParams(),
            )
