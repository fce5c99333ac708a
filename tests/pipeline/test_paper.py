"""Acceptance tests for the paper's staged pipeline.

These use the mobilenet_v2-only sweep (21 shapes x 640 configs) so a
full pipeline run stays in the seconds range while exercising the real
stage functions end to end.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.runner import RunnerConfig
from repro.core.dataset import generate_dataset
from repro.experiments.run_all import run_all, run_all_pipeline
from repro.perfmodel.params import PerfModelParams
from repro.pipeline import ArtifactStore, PaperPipelineConfig
from repro.pipeline.paper import paper_params, paper_pipeline, run_paper_pipeline
from repro.serving import SelectionService

STAGES = {
    "sweep", "dataset", "fig1", "fig2", "fig3", "fig4", "table1",
    "split", "prune", "train", "eval",
}
SPLIT_DEPENDENT = {"split", "prune", "train", "eval", "fig4", "table1"}


@pytest.fixture(scope="module")
def config():
    return PaperPipelineConfig(
        networks=("mobilenet_v2",),
        fig4_budgets=(4, 8),
        table1_budgets=(5, 8),
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("pipeline") / "store")


@pytest.fixture(scope="module")
def first_run(store, config):
    return run_paper_pipeline(store, config)


class TestIncrementalRecomputation:
    def test_first_run_executes_every_stage(self, first_run):
        assert set(first_run.stats.executed_stages) == STAGES
        assert first_run.stats.n_cached == 0

    def test_second_run_is_one_hundred_percent_cache_hits(
        self, store, config, first_run
    ):
        run = run_paper_pipeline(store, config)
        assert run.stats.all_cached
        assert run.stats.n_cached == len(STAGES)
        np.testing.assert_array_equal(
            run.value("dataset").gflops, first_run.value("dataset").gflops
        )
        assert run.value("table1").render() == first_run.value("table1").render()

    def test_split_seed_change_spares_the_sweep(self, store, config, first_run):
        reseeded = dataclasses.replace(config, split_seed=1)
        run = run_paper_pipeline(store, reseeded)
        assert set(run.stats.executed_stages) == SPLIT_DEPENDENT
        assert set(run.stats.cached_stages) == STAGES - SPLIT_DEPENDENT
        # The expensive artifact is byte-identical reuse, not recompute.
        assert (
            run.stats.for_stage("sweep").fingerprint
            == first_run.stats.for_stage("sweep").fingerprint
        )

    def test_budget_change_reruns_only_prune_train_eval(
        self, store, config, first_run
    ):
        rebudgeted = dataclasses.replace(config, budget=6)
        run = run_paper_pipeline(store, rebudgeted)
        assert set(run.stats.executed_stages) == {"prune", "train", "eval"}


class TestDifferentialOracle:
    def test_pipeline_matches_direct_run_all(self, store, config, first_run):
        results, run = run_all_pipeline(store, config)
        assert run.stats.all_cached
        direct_dataset = generate_dataset(networks=config.networks)
        direct = run_all(direct_dataset, split_seed=config.split_seed)
        np.testing.assert_array_equal(
            results.dataset.gflops, direct.dataset.gflops
        )
        assert results.fig1.render() == direct.fig1.render()
        assert results.fig2.render() == direct.fig2.render()
        assert results.fig3.render() == direct.fig3.render()
        # fig4/table1 budgets differ from run_all's defaults by
        # construction; compare them against the direct functions.
        from repro.experiments.fig4 import run_fig4
        from repro.experiments.table1 import run_table1

        assert (
            results.fig4.render()
            == run_fig4(direct_dataset, budgets=config.fig4_budgets).render()
        )
        assert (
            results.table1.render()
            == run_table1(
                direct_dataset, budgets=config.table1_budgets
            ).render()
        )

    def test_generate_dataset_via_store_shares_the_sweep(
        self, store, config, first_run
    ):
        # The standalone dataset entry point fingerprints identically to
        # the full pipeline, so it reuses the sweep artifact.
        dataset = generate_dataset(networks=config.networks, store=store)
        np.testing.assert_array_equal(
            dataset.gflops, first_run.value("dataset").gflops
        )


class TestServingProvenance:
    def test_service_from_artifact_reports_lineage(self, store, first_run):
        train_artifact = first_run.artifacts["train"]
        service = SelectionService.from_artifact(
            store, train_artifact.artifact_id
        )
        stats = service.stats()
        assert stats.artifact_id == train_artifact.artifact_id
        assert set(stats.provenance["parents"]) == {"split", "prune"}
        assert "policy artifact" in stats.render()

    def test_loaded_selector_selects_identically(self, store, first_run):
        service = SelectionService.from_artifact(
            store, first_run.artifacts["train"].artifact_id
        )
        test_shapes = first_run.value("split").test.shapes
        direct = first_run.value("train").select_batch(test_shapes)
        assert service.select_batch(test_shapes) == tuple(direct)

    def test_from_artifact_rejects_unknown_and_non_policy(self, store, first_run):
        with pytest.raises(KeyError):
            SelectionService.from_artifact(store, "0" * 64)
        with pytest.raises(TypeError, match="not a selection policy"):
            SelectionService.from_artifact(
                store, first_run.artifacts["fig1"].artifact_id
            )


class TestFingerprintCoverage:
    def test_every_stage_has_a_distinct_fingerprint(self, config):
        fps = paper_pipeline().fingerprints(paper_params(config))
        assert set(fps) == STAGES
        assert len(set(fps.values())) == len(STAGES)

    def test_device_change_invalidates_the_sweep(self, config):
        fps = paper_pipeline().fingerprints(paper_params(config))
        other = dataclasses.replace(config, device_preset="desktop-gpu")
        fps2 = paper_pipeline().fingerprints(paper_params(other))
        assert fps["sweep"] != fps2["sweep"]

    # The store is the one way to reuse a sweep, so every input of the
    # measured table must move the sweep fingerprint: no stale reuse.
    @pytest.mark.parametrize(
        "change",
        [
            {"runner": RunnerConfig(seed=2021)},
            {"model_params": PerfModelParams(noise_sigma=0.05)},
        ],
        ids=["runner-seed", "model-params"],
    )
    def test_protocol_change_invalidates_the_sweep(self, config, change):
        fps = paper_pipeline().fingerprints(paper_params(config))
        other = dataclasses.replace(config, **change)
        fps2 = paper_pipeline().fingerprints(paper_params(other))
        assert fps["sweep"] != fps2["sweep"]
        assert fps["dataset"] != fps2["dataset"]
