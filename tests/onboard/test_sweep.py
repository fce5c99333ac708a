"""Partial sweeps: determinism, value fidelity, and budget accounting."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.onboard import OnboardBudget, run_partial_sweep
from repro.onboard.sweep import _round_quotas
from repro.pipeline.artifact import Provenance
from repro.pipeline.store import ArtifactStore
from repro.testing import FaultPlan, faulty_runner

from .conftest import FAST_BUDGET

RANDOM = OnboardBudget(fraction=0.12, sampler="random", seed=0)
STRATIFIED = OnboardBudget(fraction=0.12, sampler="stratified", seed=0)


@pytest.fixture(scope="module")
def random_sweep(branches, make_runner, onboard_shapes):
    profile, _ = branches["r9-nano"]
    return run_partial_sweep(make_runner(profile), onboard_shapes, RANDOM)


@pytest.fixture(scope="module")
def stratified_sweep(branches, make_runner, onboard_shapes):
    profile, _ = branches["r9-nano"]
    return run_partial_sweep(make_runner(profile), onboard_shapes, STRATIFIED)


@pytest.fixture(scope="module")
def active_sweep(branches, make_runner, onboard_shapes, sources_for):
    profile, _ = branches["r9-nano"]
    return run_partial_sweep(
        make_runner(profile),
        onboard_shapes,
        FAST_BUDGET,
        sources=sources_for("r9-nano"),
    )


def planned_mask(sweep) -> np.ndarray:
    mask = np.zeros(sweep.dataset.gflops.shape, dtype=bool)
    mask.ravel()[sweep.cells] = True
    return mask


def store_round_trip(sweep, root) -> object:
    """Write ``sweep`` as an ``onboard-sweep`` artifact and load it back."""
    store = ArtifactStore(root)
    provenance = Provenance(
        stage="onboard-sweep@r9-nano",
        fingerprint=hashlib.sha256(sweep.sampler.encode()).hexdigest(),
        code_version="1",
        params={},
        parents={},
        codec="partial-sweep",
    )
    store.put(sweep, provenance)
    return store.get(provenance.fingerprint).value


class TestPlannedSamplers:
    def test_same_budget_same_sweep(
        self, branches, make_runner, onboard_shapes, random_sweep
    ):
        profile, _ = branches["r9-nano"]
        again = run_partial_sweep(
            make_runner(profile), onboard_shapes, RANDOM
        )
        assert np.array_equal(again.cells, random_sweep.cells)
        assert np.array_equal(
            again.dataset.gflops,
            random_sweep.dataset.gflops,
            equal_nan=True,
        )

    def test_measured_cells_match_the_full_sweep(
        self, branches, random_sweep
    ):
        # Counter-based noise is a pure function of (shape, config), so
        # a partial sweep's measured cells equal the full table's.
        _, full = branches["r9-nano"]
        mask = random_sweep.measured_mask()
        assert np.array_equal(
            random_sweep.dataset.gflops[mask], full.gflops[mask]
        )

    def test_budget_accounting(
        self,
        onboard_shapes,
        random_sweep,
        stratified_sweep,
        active_sweep,
        tmp_path,
    ):
        n_configs = random_sweep.dataset.n_configs
        total = len(onboard_shapes) * n_configs
        for sweep, budget in (
            (random_sweep, RANDOM),
            (stratified_sweep, STRATIFIED),
            (active_sweep, FAST_BUDGET),
        ):
            expected = budget.cells(len(onboard_shapes), n_configs)
            if budget.sampler == "active":
                assert sweep.n_attempted <= expected
            else:
                assert sweep.n_attempted == expected
            assert sweep.total_cells == total
            assert sweep.fraction == pytest.approx(sweep.n_attempted / total)
            assert sweep.n_measured + sweep.failed == sweep.n_attempted
            # The runner sweeps the whole window; only planned cells
            # may leave it, in memory and through the store alike.
            unplanned = ~planned_mask(sweep)
            reloaded = store_round_trip(sweep, tmp_path / budget.sampler)
            assert np.array_equal(reloaded.cells, sweep.cells)
            for table in (sweep.dataset.gflops, reloaded.dataset.gflops):
                assert not np.isfinite(table[unplanned]).any()

    def test_every_row_has_a_measurement(self, random_sweep):
        assert np.isfinite(random_sweep.dataset.gflops).any(axis=1).all()

    def test_stratified_differs_from_random(
        self, random_sweep, stratified_sweep
    ):
        assert stratified_sweep.sampler == "stratified"
        assert not np.array_equal(stratified_sweep.cells, random_sweep.cells)


class TestActiveSampler:
    def test_needs_sources(self, branches, make_runner, onboard_shapes):
        profile, _ = branches["r9-nano"]
        with pytest.raises(ValueError, match="needs sources"):
            run_partial_sweep(
                make_runner(profile), onboard_shapes, FAST_BUDGET
            )

    def test_deterministic_and_within_budget(
        self, branches, make_runner, onboard_shapes, sources_for, active_sweep
    ):
        profile, _ = branches["r9-nano"]
        a = active_sweep
        b = run_partial_sweep(
            make_runner(profile),
            onboard_shapes,
            FAST_BUDGET,
            sources=sources_for("r9-nano"),
        )
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(
            a.dataset.gflops, b.dataset.gflops, equal_nan=True
        )
        budgeted = FAST_BUDGET.cells(
            len(onboard_shapes), a.dataset.n_configs
        )
        assert a.n_attempted <= budgeted
        # The refit rounds actually spent beyond the warm start.
        assert a.n_attempted > len(onboard_shapes)
        assert np.isfinite(a.dataset.gflops).any(axis=1).all()

    def test_measured_cells_match_the_full_sweep(
        self, branches, make_runner, onboard_shapes, sources_for
    ):
        profile, full = branches["compute-heavy"]
        sweep = run_partial_sweep(
            make_runner(profile),
            onboard_shapes,
            FAST_BUDGET,
            sources=sources_for("compute-heavy"),
        )
        mask = sweep.measured_mask()
        assert np.array_equal(sweep.dataset.gflops[mask], full.gflops[mask])


class TestRunnerFaults:
    """Partial sweeps inherit the runner's retries and skip-and-record."""

    BUDGETS = {"random": RANDOM, "active": FAST_BUDGET}

    @pytest.fixture
    def faulty_sweep(
        self, branches, small_configs, onboard_runner_config, onboard_shapes,
        sources_for,
    ):
        """Factory: an r9-nano partial sweep under ``plan``, one retry."""
        profile, _ = branches["r9-nano"]

        def sweep(plan, sampler):
            runner = faulty_runner(
                profile.device(),
                plan,
                configs=small_configs,
                runner_config=dataclasses.replace(
                    onboard_runner_config, max_retries=1
                ),
                model_params=profile.model_params,
            )
            sources = sources_for("r9-nano") if sampler == "active" else None
            return run_partial_sweep(
                runner, onboard_shapes, self.BUDGETS[sampler], sources=sources
            )

        return sweep

    @pytest.mark.parametrize("sampler", BUDGETS)
    def test_transient_faults_recover_under_retries(
        self, faulty_sweep, sampler, request
    ):
        clean = request.getfixturevalue(f"{sampler}_sweep")
        plan = FaultPlan(seed=3, rate=0.2, fail_attempts=1)
        sweep = faulty_sweep(plan, sampler)
        assert sweep.failed == 0
        assert np.array_equal(sweep.cells, clean.cells)
        assert np.array_equal(
            sweep.dataset.gflops, clean.dataset.gflops, equal_nan=True
        )

    @pytest.mark.parametrize("sampler", BUDGETS)
    def test_hard_faults_stay_nan_despite_retries(
        self, faulty_sweep, sampler, branches, onboard_shapes, small_configs
    ):
        plan = FaultPlan(seed=3, rate=0.2)
        sweep = faulty_sweep(plan, sampler)
        # Exactly the planned cells whose first attempt faults are NaN.
        n_configs = len(small_configs)
        faulted = [
            cell
            for cell in sweep.cells.tolist()
            if plan.fault_for(
                onboard_shapes[cell // n_configs],
                small_configs[cell % n_configs],
            )
            is not None
        ]
        table = sweep.dataset.gflops.ravel()
        assert faulted and sweep.failed == len(faulted)
        assert np.array_equal(
            sweep.cells[np.isnan(table[sweep.cells])], faulted
        )
        _, full = branches["r9-nano"]
        revealed = sweep.measured_mask()
        assert np.array_equal(
            sweep.dataset.gflops[revealed], full.gflops[revealed]
        )


class TestRoundQuotas:
    def test_sums_to_budget(self):
        quotas = _round_quotas(100, 4, minimum_first=11)
        assert sum(quotas) == 100
        assert quotas[0] >= 11
        assert all(q > 0 for q in quotas)

    def test_warm_start_absorbs_small_budgets(self):
        quotas = _round_quotas(12, 4, minimum_first=11)
        assert sum(quotas) == 12
        assert quotas[0] == 11

    def test_budget_equal_to_rows_is_one_round(self):
        assert _round_quotas(11, 4, minimum_first=11) == (11,)

    def test_near_equal_split(self):
        assert _round_quotas(10, 3, minimum_first=1) == (4, 3, 3)


class TestPartialSweepValidation:
    def test_cells_must_be_one_dimensional(self, random_sweep):
        with pytest.raises(ValueError, match="1-D"):
            type(random_sweep)(
                dataset=random_sweep.dataset,
                cells=random_sweep.cells.reshape(-1, 1),
                sampler="random",
                seed=0,
            )
