"""The onboarding DAG: caching, invalidation, codecs, report sanity."""

import numpy as np
import pytest

from repro.bench.runner import RunnerConfig
from repro.fleet.pipeline import FLEET_STAGES, FleetPipelineConfig, stage_name
from repro.onboard import (
    ONBOARD_STAGES,
    OnboardBudget,
    OnboardPipelineConfig,
    OnboardReport,
    onboard_fingerprints,
    run_onboard_pipeline,
)
from repro.onboard.sweep import PartialSweep
from repro.pipeline.store import ArtifactStore

TARGET = "latency-bound"
DEVICE_IDS = ("r9-nano", "compute-heavy", TARGET)


@pytest.fixture(scope="module")
def config(small_configs):
    return OnboardPipelineConfig(
        target=TARGET,
        budget=OnboardBudget(
            fraction=0.12, sampler="active", seed=0, rounds=2, n_trees=6
        ),
        fleet=FleetPipelineConfig(
            device_ids=DEVICE_IDS,
            networks=("mobilenet_v2",),
            runner=RunnerConfig(warmup_iterations=1, timed_iterations=3),
            configs=small_configs,
        ),
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("onboard-store"))


@pytest.fixture(scope="module")
def first_run(store, config):
    return run_onboard_pipeline(store, config)


class TestRun:
    def test_cold_run_executes_everything(self, first_run, config):
        stats = first_run.stats
        assert not stats.all_cached
        expected = len(FLEET_STAGES) * len(DEVICE_IDS) + len(ONBOARD_STAGES)
        assert len(first_run.run.artifacts) == expected

    def test_report_is_sane(self, first_run, config):
        report = first_run.report()
        assert isinstance(report, OnboardReport)
        assert report.device_id == TARGET
        assert report.sampler == "active"
        n_shapes = first_run.value("onboard-dataset").n_shapes
        n_configs = first_run.value("onboard-dataset").n_configs
        budgeted = config.budget.cells(n_shapes, n_configs)
        assert 0 < report.cells_attempted <= budgeted
        assert report.total_cells == n_shapes * n_configs
        assert 0.0 < report.onboard_score <= 1.0
        assert 0.0 < report.full_score <= 1.0
        assert 0.0 <= report.top1_agreement <= 1.0
        assert report.zero_shot_score is not None
        # At reduced test scale just require a loose quality floor; the
        # CI bench gate enforces the >= 0.95 bar at full scale.  Over
        # runner seeds 2020-2031 quality is 0.940 +/- 0.030 [0.873,
        # 0.988]; mean - 3 sigma (0.849) clears this floor.
        assert report.quality > 0.8

    def test_selector_accessor_predicts(self, first_run):
        dataset = first_run.value("onboard-dataset")
        deployed = first_run.selector()
        configs = deployed.select_batch(dataset.shapes)
        assert len(configs) == dataset.n_shapes

    def test_rerun_is_fully_cached(self, store, config, first_run):
        again = run_onboard_pipeline(store, config)
        assert again.stats.all_cached
        assert again.report().to_dict() == first_run.report().to_dict()

    def test_budget_change_reruns_only_the_onboard_branch(
        self, store, config, first_run
    ):
        changed = config.with_budget(fraction=0.15)
        run = run_onboard_pipeline(store, changed)
        executed = set(run.stats.executed_stages)
        assert executed  # the branch did re-run
        expected = {stage_name(kind, TARGET) for kind in ONBOARD_STAGES}
        assert executed <= expected
        # More budget must actually buy more measurements.
        assert run.report().cells_attempted > first_run.report().cells_attempted


class TestDeterminism:
    def test_independent_run_is_bit_identical(
        self, tmp_path, config, first_run
    ):
        fresh = run_onboard_pipeline(ArtifactStore(tmp_path), config)
        a = first_run.value("onboard-dataset")
        b = fresh.value("onboard-dataset")
        assert np.array_equal(a.gflops, b.gflops)
        assert first_run.report().to_dict() == fresh.report().to_dict()

    def test_budget_only_moves_onboard_fingerprints(self, config):
        base = onboard_fingerprints(config)
        changed = onboard_fingerprints(config.with_budget(seed=1))
        onboard_names = {
            stage_name(kind, TARGET) for kind in ONBOARD_STAGES
        }
        for name, fingerprint in base.items():
            if name in onboard_names:
                assert changed[name] != fingerprint, name
            else:
                assert changed[name] == fingerprint, name

    def test_fingerprints_cover_both_dags(self, config):
        fingerprints = onboard_fingerprints(config)
        for did in DEVICE_IDS:
            for kind in FLEET_STAGES:
                assert stage_name(kind, did) in fingerprints
        for kind in ONBOARD_STAGES:
            assert stage_name(kind, TARGET) in fingerprints


class TestCodecs:
    def test_partial_sweep_round_trip(self, store, config, first_run):
        fingerprint = onboard_fingerprints(config)[
            stage_name("onboard-sweep", TARGET)
        ]
        reopened = ArtifactStore(store.root)
        sweep = reopened.get(fingerprint).value
        assert isinstance(sweep, PartialSweep)
        original = first_run.value("onboard-sweep")
        assert np.array_equal(sweep.cells, original.cells)
        assert np.array_equal(
            sweep.dataset.gflops, original.dataset.gflops, equal_nan=True
        )
        assert sweep.sampler == original.sampler
        assert sweep.seed == original.seed
        assert sweep.failed == original.failed

    def test_report_round_trip(self, store, config, first_run):
        fingerprint = onboard_fingerprints(config)[
            stage_name("onboard-report", TARGET)
        ]
        reopened = ArtifactStore(store.root)
        report = reopened.get(fingerprint).value
        assert isinstance(report, OnboardReport)
        assert report.to_dict() == first_run.report().to_dict()


class TestConfigValidation:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="no fleet branch"):
            OnboardPipelineConfig(
                target="quantum-9000",
                fleet=FleetPipelineConfig(device_ids=DEVICE_IDS),
            )

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="no fleet branch"):
            OnboardPipelineConfig(
                target=TARGET,
                sources=("bandwidth-lean",),
                fleet=FleetPipelineConfig(device_ids=DEVICE_IDS),
            )

    def test_target_as_source_rejected(self):
        with pytest.raises(ValueError, match="own source"):
            OnboardPipelineConfig(
                target=TARGET,
                sources=("r9-nano", TARGET),
                fleet=FleetPipelineConfig(device_ids=DEVICE_IDS),
            )

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            OnboardPipelineConfig(
                target=TARGET,
                fleet=FleetPipelineConfig(device_ids=(TARGET,)),
            )

    def test_default_sources_exclude_target(self):
        config = OnboardPipelineConfig(
            target=TARGET, fleet=FleetPipelineConfig(device_ids=DEVICE_IDS)
        )
        assert config.source_ids() == ("r9-nano", "compute-heavy")
