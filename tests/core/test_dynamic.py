"""Dynamic trial-run selection."""

import pytest

from repro.bench.runner import BenchmarkRunner
from repro.core.deploy import tune
from repro.core.pruning import TopNPruner
from repro.core.selection.dynamic import DynamicTrialSelector
from repro.perfmodel import GemmPerfModel
from repro.sycl.device import Device
from repro.workloads.gemm import GemmShape


@pytest.fixture(scope="module")
def runner(small_dataset):
    return BenchmarkRunner(
        Device.r9_nano(), configs=small_dataset.configs
    )


@pytest.fixture(scope="module")
def pruned(small_dataset):
    return TopNPruner().select(small_dataset, 4)


class TestDynamicSelector:
    def test_picks_true_best_in_set(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        shape = GemmShape(m=512, k=256, n=512)
        chosen = selector.select(shape)
        times = {
            config: runner.bench_single(shape, config).mean
            for config in pruned.configs
        }
        assert times[chosen] == min(times.values())

    def test_first_use_sweeps_then_caches(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        shape = GemmShape(m=128, k=128, n=128)
        first = selector.select(shape)
        spent_after_first = selector.stats.trial_seconds
        second = selector.select(shape)
        assert first == second
        assert selector.stats.trial_sweeps == 1
        assert selector.stats.lookups == 2
        assert selector.stats.trial_seconds == spent_after_first

    def test_distinct_shapes_trigger_new_trials(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        selector.select(GemmShape(m=64, k=64, n=64))
        selector.select(GemmShape(m=64, k=64, n=65))
        assert selector.stats.trial_sweeps == 2

    def test_hit_rate(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        shape = GemmShape(m=96, k=96, n=96)
        for _ in range(4):
            selector.select(shape)
        assert selector.stats.hit_rate == pytest.approx(0.75)

    def test_trial_cost_positive_and_accumulates(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        selector.select(GemmShape(m=200, k=200, n=200))
        one = selector.stats.trial_seconds
        assert one > 0
        selector.select(GemmShape(m=201, k=200, n=200))
        assert selector.stats.trial_seconds > one

    def test_reset(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        selector.select(GemmShape(m=64, k=64, n=64))
        selector.reset()
        assert selector.stats.lookups == 0
        selector.select(GemmShape(m=64, k=64, n=64))
        assert selector.stats.trial_sweeps == 1

    def test_empty_stats(self, runner, pruned):
        assert DynamicTrialSelector(runner, pruned).stats.hit_rate == 0.0

    def test_invalid_trial_iterations(self, runner, pruned):
        with pytest.raises(ValueError):
            DynamicTrialSelector(runner, pruned, trial_iterations=0)

    def test_empty_pruned_set_rejected(self, runner):
        class _EmptySet:
            def __len__(self):
                return 0

        with pytest.raises(ValueError, match="empty"):
            DynamicTrialSelector(runner, _EmptySet())

    def test_trial_iterations_is_applied(self, runner, pruned):
        """The constructor argument must shrink the trial sweep cost."""
        shape = GemmShape(m=300, k=300, n=300)
        cheap = DynamicTrialSelector(runner, pruned, trial_iterations=1)
        full = DynamicTrialSelector(runner, pruned)
        cheap.select(shape)
        full.select(shape)
        # warmup + 1 run per config vs warmup + timed_iterations runs.
        assert cheap.stats.trial_seconds < full.stats.trial_seconds

    def test_trial_iterations_count_reaches_runner(self, runner, pruned):
        shape = GemmShape(m=310, k=310, n=310)
        summary = runner.bench_single(shape, pruned.configs[0], iterations=2)
        assert summary.iterations == 2

    def test_runner_config_is_public(self, runner):
        assert runner.runner_config is runner._runner_config
        assert runner.runner_config.warmup_iterations >= 0

    def test_select_batch_matches_select_and_caches(self, runner, pruned):
        selector = DynamicTrialSelector(runner, pruned)
        shapes = [
            GemmShape(m=128, k=64, n=128),
            GemmShape(m=256, k=64, n=128),
            GemmShape(m=128, k=64, n=128),  # repeat: must hit the cache
        ]
        configs = selector.select_batch(shapes)
        assert selector.stats.trial_sweeps == 2  # two unique shapes
        reference = DynamicTrialSelector(runner, pruned)
        assert configs == tuple(reference.select(s) for s in shapes)


class TestAgainstTheTrainedSelector:
    """The introduction's argument in simulated device time (kernel runs
    plus trial sweeps): benchmark-on-first-use loses on a research
    workload whose shapes keep changing, and stays competitive on a
    stable deployment that amortises its trials."""

    @pytest.fixture(scope="class")
    def setup(self, full_dataset):
        train, test = full_dataset.split(test_size=0.2, random_state=0)
        deployed = tune(train, n_configs=8, random_state=0)
        return deployed, test

    @staticmethod
    def device_seconds(deployed, shapes):
        model = GemmPerfModel(Device.r9_nano())
        dynamic = DynamicTrialSelector(
            BenchmarkRunner(Device.r9_nano()), deployed.selector.pruned
        )
        trained = sum(model.time_seconds(s, deployed.select(s)) for s in shapes)
        served = sum(model.time_seconds(s, dynamic.select(s)) for s in shapes)
        return trained, served + dynamic.stats.trial_seconds

    def test_research_workload_favours_the_trained_selector(self, setup):
        deployed, test = setup
        trained, dynamic = self.device_seconds(deployed, list(test.shapes))
        assert trained < dynamic

    def test_stable_deployment_amortises_trials(self, setup):
        deployed, test = setup
        few = list(test.shapes[:: max(1, len(test.shapes) // 6)][:6])
        trained, dynamic = self.device_seconds(deployed, few * 500)
        assert dynamic < trained * 1.2
