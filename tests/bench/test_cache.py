"""Dataset persistence."""

import dataclasses

import numpy as np
import pytest

from repro.bench.cache import CacheMismatchError, load_dataset, save_dataset
from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.kernels.params import config_space
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape


@pytest.fixture(scope="module")
def result():
    runner = BenchmarkRunner(
        Device.r9_nano(),
        configs=config_space(tile_sizes=(1, 2), work_groups=((8, 8),)),
        runner_config=RunnerConfig(seed=77),
    )
    return runner.run((GemmShape(m=64, k=64, n=64), GemmShape(m=1, k=256, n=64)))


class TestRoundTrip:
    def test_everything_preserved(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        loaded = load_dataset(path)
        assert loaded.device_name == result.device_name
        assert loaded.shapes == result.shapes
        assert loaded.configs == result.configs
        np.testing.assert_array_equal(loaded.gflops, result.gflops)
        np.testing.assert_array_equal(loaded.seconds, result.seconds)
        assert loaded.runner == result.runner

    def test_suffix_normalisation(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_creates_parent_dirs(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "a" / "b" / "ds.npz")
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nothing.npz")

    def test_model_params_recorded(self, result, tmp_path):
        params = PerfModelParams()
        path = save_dataset(result, tmp_path / "ds.npz", model_params=params)
        loaded = load_dataset(path, expected_model_params=params)
        assert loaded.device_name == result.device_name

    def test_format_version_checked(self, result, tmp_path):
        import json

        path = save_dataset(result, tmp_path / "ds.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["format_version"] = 999
        arrays["meta"] = json.dumps(meta)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported dataset format"):
            load_dataset(path)


    def test_previous_format_refused_as_stale(self, result, tmp_path):
        # Version-1 files hold the retired per-cell noise draws.
        import json

        path = save_dataset(result, tmp_path / "ds.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["format_version"] = 1
        arrays["meta"] = json.dumps(meta)
        np.savez(path, **arrays)
        with pytest.raises(CacheMismatchError, match="format 1"):
            load_dataset(path)


class TestCacheValidation:
    def test_no_expectations_accepts_any_cache(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        load_dataset(path)  # must not raise

    def test_matching_expectations_accepted(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        load_dataset(
            path,
            expected_runner=RunnerConfig(seed=77),
            expected_device_name=result.device_name,
        )

    def test_runner_mismatch_raises(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        with pytest.raises(CacheMismatchError, match="runner"):
            load_dataset(path, expected_runner=RunnerConfig(seed=78))

    def test_device_mismatch_raises(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        with pytest.raises(CacheMismatchError, match="device"):
            load_dataset(path, expected_device_name="other-gpu")

    def test_model_params_mismatch_raises(self, result, tmp_path):
        path = save_dataset(
            result, tmp_path / "ds.npz", model_params=PerfModelParams()
        )
        changed = dataclasses.replace(PerfModelParams(), noise_sigma=0.5)
        with pytest.raises(CacheMismatchError, match="model_params"):
            load_dataset(path, expected_model_params=changed)

    def test_cache_without_model_params_counts_as_mismatch(
        self, result, tmp_path
    ):
        # Old-format caches never recorded model constants; demanding
        # specific ones must be a miss, not a silent acceptance.
        path = save_dataset(result, tmp_path / "ds.npz")
        with pytest.raises(CacheMismatchError, match="absent"):
            load_dataset(path, expected_model_params=PerfModelParams())

    def test_all_mismatches_reported_together(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        with pytest.raises(CacheMismatchError) as excinfo:
            load_dataset(
                path,
                expected_runner=RunnerConfig(seed=1),
                expected_device_name="other-gpu",
            )
        message = str(excinfo.value)
        assert "runner" in message and "device" in message

    def test_mismatch_is_a_value_error(self):
        # Callers catching ValueError from load_dataset keep working.
        assert issubclass(CacheMismatchError, ValueError)
