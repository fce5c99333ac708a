"""Transfer: residual correction math, calibration, zero-shot LODO."""

import dataclasses

import numpy as np
import pytest

from repro.onboard import (
    TransferSelector,
    calibrated_dataset,
    fit_residual_correction,
    run_partial_sweep,
)
from repro.experiments import run_seed_spread
from repro.utils.maths import geometric_mean

from .conftest import (
    FAST_BUDGET,
    FLEET_IDS,
    branch_sources,
    build_branches,
    profile_runner,
)

#: Runner seeds (noise draws) for claims too noisy to pin on one draw.
SPREAD_SEEDS = tuple(range(2020, 2028))

#: The held-out device of the calibration tests.
TARGET = "bandwidth-lean"


def calibrated_vs_zero_shot(branches, sources, sweep):
    """Quality of the calibrated table's argmax picks on ``TARGET`` and
    the zero-shot transfer score, both against its full sweep."""
    profile, truth = branches[TARGET]
    full = calibrated_dataset(sources, profile.spec, sweep, FAST_BUDGET)
    achieved = truth.normalized()[
        np.arange(truth.n_shapes), full.best_config_indices()
    ]
    quality = geometric_mean(np.maximum(achieved, 1e-9))
    zero_shot = (
        TransferSelector(random_state=0).fit(sources).score(profile.spec, truth)
    )
    return quality, zero_shot


class TestResidualCorrection:
    def test_empty_mask_is_identity(self):
        correction = fit_residual_correction(
            np.full((3, 4), np.nan), np.zeros((3, 4))
        )
        assert correction.global_shift == 0.0
        assert np.array_equal(correction.per_config, np.zeros(4))
        pred = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(correction.apply(pred), pred)

    def test_recovers_a_global_bias(self):
        # Model predicts log-gflops 0 everywhere; truth is e^0.5.
        measured = np.full((4, 3), np.exp(0.5))
        correction = fit_residual_correction(measured, np.zeros((4, 3)))
        assert correction.global_shift == pytest.approx(0.5)
        # No per-config deviation: columns share the bias.
        assert np.allclose(correction.per_config, 0.0, atol=1e-12)

    def test_recovers_a_per_config_bias_with_shrinkage(self):
        # Column 0 runs 2x the prediction, column 1 matches it.
        measured = np.column_stack(
            [np.full(4, 2.0), np.full(4, 1.0)]
        )
        correction = fit_residual_correction(
            measured, np.zeros((4, 2)), shrinkage=1.0
        )
        half_log2 = np.log(2.0) / 2
        assert correction.global_shift == pytest.approx(half_log2)
        # Deviation +-log(2)/2 shrunk by n/(n+1) = 4/5.
        assert correction.per_config == pytest.approx(
            np.array([half_log2, -half_log2]) * 0.8
        )
        assert correction.support.tolist() == [4, 4]

    def test_unmeasured_columns_fall_back_to_global(self):
        measured = np.full((3, 2), np.nan)
        measured[:, 0] = np.exp(1.0)
        correction = fit_residual_correction(measured, np.zeros((3, 2)))
        assert correction.global_shift == pytest.approx(1.0)
        assert correction.per_config[1] == 0.0
        assert correction.support.tolist() == [3, 0]

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grids differ"):
            fit_residual_correction(np.ones((2, 3)), np.zeros((3, 2)))

    def test_apply_checks_config_count(self):
        correction = fit_residual_correction(
            np.ones((2, 3)), np.zeros((2, 3))
        )
        with pytest.raises(ValueError, match="configs"):
            correction.apply(np.zeros((2, 4)))


class TestCalibratedDataset:
    @pytest.fixture(scope="class")
    def sweep(self, branches, make_runner, onboard_shapes, sources_for):
        profile, _ = branches["bandwidth-lean"]
        return run_partial_sweep(
            make_runner(profile),
            onboard_shapes,
            FAST_BUDGET,
            sources=sources_for("bandwidth-lean"),
        )

    def test_measured_cells_survive(self, branches, sweep, sources_for):
        profile, _ = branches["bandwidth-lean"]
        full = calibrated_dataset(
            sources_for("bandwidth-lean"), profile.spec, sweep, FAST_BUDGET
        )
        mask = sweep.measured_mask()
        assert np.array_equal(
            full.gflops[mask], sweep.dataset.gflops[mask]
        )
        assert np.all(np.isfinite(full.gflops))

    def test_deterministic(self, branches, sweep, sources_for):
        profile, _ = branches["bandwidth-lean"]
        tables = [
            calibrated_dataset(
                sources_for("bandwidth-lean"),
                profile.spec,
                sweep,
                FAST_BUDGET,
                seed=5,
            ).gflops
            for _ in range(2)
        ]
        assert np.array_equal(tables[0], tables[1])

    def test_selector_quality_beats_zero_shot(
        self,
        branches,
        sweep,
        sources_for,
        onboard_shapes,
        small_configs,
        onboard_runner_config,
    ):
        # The whole point of spending budget: the calibrated table's
        # argmax picks must score at least as well as no-budget transfer.
        quality, _ = calibrated_vs_zero_shot(
            branches, sources_for(TARGET), sweep
        )
        assert quality > 0.85

        # The margin over zero-shot is -6.5 points on the default draw
        # and -1.8 +/- 5.1 [-10.2, +6.4] over SPREAD_SEEDS at this test
        # scale, so the 2-point tolerance holds on the mean, not on every
        # draw (EXPERIMENTS.md, runner-seed spread).
        def margin(dataset, protocol):
            runner_config = dataclasses.replace(
                onboard_runner_config, seed=protocol.seed
            )
            drawn = build_branches(onboard_shapes, small_configs, runner_config)
            sources = branch_sources(drawn, TARGET)
            drawn_sweep = run_partial_sweep(
                profile_runner(drawn[TARGET][0], small_configs, runner_config),
                onboard_shapes,
                FAST_BUDGET,
                sources=sources,
            )
            quality, zero_shot = calibrated_vs_zero_shot(
                drawn, sources, drawn_sweep
            )
            return {"margin": quality - zero_shot}

        # Only the runner seed matters to ``margin``, so the full sweep
        # run_seed_spread regenerates is kept to one network.
        spread = run_seed_spread(
            margin, seeds=SPREAD_SEEDS, networks=("mobilenet_v2",)
        )
        assert spread["margin"].mean >= -0.02


class TestTransferSelector:
    def test_needs_sources(self):
        with pytest.raises(ValueError, match="at least one source"):
            TransferSelector().fit(())

    def test_config_space_mismatch_rejected(self, sources_for):
        from repro.core.dataset import PerformanceDataset

        sources = list(sources_for("r9-nano"))
        ds = sources[1].dataset
        shrunk = PerformanceDataset(
            shapes=ds.shapes,
            configs=ds.configs[:-1],
            gflops=ds.gflops[:, :-1],
            device_name=ds.device_name,
        )
        sources[1] = type(sources[1])(
            device_id=sources[1].device_id,
            spec=sources[1].spec,
            dataset=shrunk,
        )
        with pytest.raises(ValueError, match="config space differs"):
            TransferSelector().fit(sources)

    def test_predictions_are_valid_indices(self, branches, sources_for):
        profile, truth = branches["latency-bound"]
        selector = TransferSelector().fit(sources_for("latency-bound"))
        indices = selector.predict_indices(profile.spec, truth.shapes)
        assert indices.shape == (truth.n_shapes,)
        assert indices.min() >= 0 and indices.max() < truth.n_configs
        configs = selector.predict_configs(profile.spec, truth.shapes)
        assert configs == tuple(
            truth.configs[int(i)] for i in indices
        )

    @pytest.mark.parametrize("target", FLEET_IDS)
    def test_leave_one_device_out_floor(
        self, target, branches, sources_for
    ):
        # Zero-shot transfer onto each held-out builtin should land
        # well above random picking (~ mean normalized score).
        profile, truth = branches[target]
        selector = TransferSelector().fit(sources_for(target))
        score = selector.score(profile.spec, truth)
        assert 0.0 < score <= 1.0
        random_floor = float(np.nanmean(truth.normalized()))
        assert score > random_floor
