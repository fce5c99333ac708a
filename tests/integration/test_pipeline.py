"""End-to-end pipeline on the full dataset."""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.core.deploy import tune
from repro.core.selection.evaluate import evaluate_selector
from repro.experiments import run_all
from repro.kernels.params import config_space
from repro.perfmodel import GemmPerfModel
from repro.sycl.device import Device
from repro.sycl.queue import Queue
from repro.workloads.extract import extract_dataset_shapes


def static_score(train, test):
    """Geomean of the single config best on ``train``, scored on ``test``:
    the kernel a one-size-fits-all library would ship."""
    train_geomean = np.exp(np.mean(np.log(train.normalized()), axis=0))
    static_config = int(np.argmax(train_geomean))
    return np.exp(np.mean(np.log(test.normalized()[:, static_config])))


class TestTuneEndToEnd:
    def test_full_pipeline_beats_static_choice(self, full_dataset):
        """A tuned 8-config library with a decision-tree selector must
        beat shipping the single best-on-average kernel."""
        train, test = full_dataset.split(test_size=0.2, random_state=0)
        deployed = tune(train, n_configs=8, random_state=0)
        evaluation = evaluate_selector(deployed.selector, test)
        assert evaluation.score > static_score(train, test) + 0.02
        assert evaluation.score > 0.80

    @pytest.mark.parametrize("preset", ["desktop-gpu", "embedded-accelerator"])
    def test_retuned_for_another_device_beats_static_choice(self, preset):
        """"Deployed with little developer effort to achieve high
        performance on new hardware": the same pipeline, re-run on
        another device preset's sweep, still beats the static kernel."""
        device = Device.from_preset(preset)
        model = GemmPerfModel(device)
        # Only the configurations this device can run (smaller register
        # files reject the largest tiles).
        runner = BenchmarkRunner(
            device,
            configs=[c for c in config_space() if model.supported(c)],
            runner_config=RunnerConfig(timed_iterations=3),
        )
        dataset = PerformanceDataset.from_benchmark(
            runner.run(extract_dataset_shapes()[0])
        )
        train, test = dataset.split(test_size=0.2, random_state=0)
        deployed = tune(train, n_configs=8)
        evaluation = evaluate_selector(deployed.selector, test)
        assert evaluation.score > static_score(train, test) - 0.02
        assert evaluation.score > 0.7

    def test_deployed_matmul_correct_and_profiled(self, full_dataset, rng):
        train, _ = full_dataset.split(test_size=0.2, random_state=0)
        deployed = tune(train, n_configs=6, random_state=0)
        a = rng.standard_normal((96, 64)).astype(np.float32)
        b = rng.standard_normal((64, 40)).astype(np.float32)
        c, event, config = deployed.matmul(Queue(Device.r9_nano()), a, b)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-5)
        assert event.profiling_duration_ns > 0

    def test_library_much_smaller_than_full_space(self, full_dataset):
        from repro.kernels.registry import KernelLibrary
        from repro.kernels.params import config_space

        train, _ = full_dataset.split(test_size=0.2, random_state=0)
        deployed = tune(train, n_configs=8)
        full_lib = KernelLibrary(config_space())
        assert deployed.library.binary_bytes < full_lib.binary_bytes / 4


class TestRunAll:
    def test_report_renders(self, full_dataset):
        results = run_all(full_dataset)
        text = results.render()
        for marker in ("Fig 1", "Fig 2", "Fig 3", "Fig 4", "Table I"):
            assert marker in text

    def test_exported_selector_agrees_across_split_seeds(self, full_dataset):
        # Export must agree with the live selector on every test shape
        # regardless of which split trained it.
        for seed in (0, 1):
            train, test = full_dataset.split(test_size=0.2, random_state=seed)
            deployed = tune(train, n_configs=6, random_state=0)
            src = deployed.export_python()
            namespace = {}
            exec(src, namespace)  # noqa: S102
            select = namespace["select_kernel"]
            for shape in test.shapes[:20]:
                assert select(*shape.features()) == deployed.select(
                    shape
                ).short_name()
