"""Dataset persistence."""

import dataclasses
import json

import numpy as np
import pytest

from repro.bench.cache import load_dataset, save_dataset
from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.kernels.params import config_space
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape


def _rewrite_meta(path, **changes):
    """Rewrite a saved file with some meta keys changed."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta.update(changes)
    arrays["meta"] = json.dumps(meta)
    np.savez(path, **arrays)


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
        # Older writers also recorded the model constants in the meta;
        # such files still load.
        path = save_dataset(result, tmp_path / "ds.npz")
        _rewrite_meta(
            path, model_params=dataclasses.asdict(PerfModelParams())
        )
        loaded = load_dataset(path)
        assert loaded.device_name == result.device_name
        np.testing.assert_array_equal(loaded.gflops, result.gflops)

    def test_format_version_checked(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        _rewrite_meta(path, format_version=999)
        with pytest.raises(ValueError, match="unsupported dataset format"):
            load_dataset(path)

    def test_previous_format_refused_as_stale(self, result, tmp_path):
        # Version-1 files hold the retired per-cell noise draws.
        path = save_dataset(result, tmp_path / "ds.npz")
        _rewrite_meta(path, format_version=1)
        with pytest.raises(ValueError, match="format 1"):
            load_dataset(path)


class TestCacheValidation:
    """A file is checked for its format version only: reusing a sweep
    safely is the artifact store's job (its fingerprint covers the
    device, the runner protocol and the model constants)."""

    def test_no_expectations_accepts_any_cache(self, result, tmp_path):
        path = save_dataset(result, tmp_path / "ds.npz")
        load_dataset(path)  # must not raise

    def test_mismatch_is_a_value_error(self, result, tmp_path):
        # Callers catching ValueError from load_dataset keep working.
        path = save_dataset(result, tmp_path / "ds.npz")
        _rewrite_meta(path, format_version=1)
        with pytest.raises(ValueError) as excinfo:
            load_dataset(path)
        assert type(excinfo.value) is ValueError
