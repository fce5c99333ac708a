"""The pipeline executor: cache reuse, invalidation, stats."""

import pytest

from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.stage import Pipeline, Stage
from repro.pipeline.store import ArtifactStore


def const_stage(inputs, params):
    return params["value"]


def double_stage(inputs, params):
    return inputs["root"] * 2


def triple_stage(inputs, params):
    return inputs["root"] * 3


def sum_stage(inputs, params):
    return inputs["double"] + inputs["triple"]


def diamond() -> Pipeline:
    p = Pipeline()
    p.add(Stage("root", const_stage))
    p.add(Stage("double", double_stage, ("root",)))
    p.add(Stage("triple", triple_stage, ("root",)))
    p.add(Stage("sum", sum_stage, ("double", "triple")))
    return p


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


PARAMS = {"root": {"value": 7}}


class TestExecution:
    def test_values_flow_through_the_dag(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert run.value("root") == 7
        assert run.value("double") == 14
        assert run.value("triple") == 21
        assert run.value("sum") == 35

    def test_first_run_executes_everything(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert run.stats.n_executed == 4
        assert run.stats.n_cached == 0
        assert not run.stats.all_cached

    def test_second_run_is_fully_cached(self, store):
        PipelineExecutor(store).run(diamond(), PARAMS)
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert run.stats.all_cached
        assert run.stats.n_cached == 4
        # Cached values are loaded from disk, not recomputed.
        assert run.value("sum") == 35

    def test_executions_reported_in_topo_order(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert [e.stage for e in run.stats.executions] == [
            "root", "double", "triple", "sum",
        ]

    def test_root_param_change_invalidates_all(self, store):
        PipelineExecutor(store).run(diamond(), PARAMS)
        run = PipelineExecutor(store).run(diamond(), {"root": {"value": 8}})
        assert run.stats.n_executed == 4
        assert run.value("sum") == 40

    def test_force_reruns_everything(self, store):
        PipelineExecutor(store).run(diamond(), PARAMS)
        run = PipelineExecutor(store).run(diamond(), PARAMS, force=True)
        assert run.stats.n_executed == 4

    def test_unknown_param_stage_rejected(self, store):
        with pytest.raises(ValueError, match="unknown stages"):
            PipelineExecutor(store).run(diamond(), {"nope": {}})


class TestProvenance:
    def test_manifest_records_lineage(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        sum_prov = run.artifacts["sum"].provenance
        assert sum_prov.stage == "sum"
        assert set(sum_prov.parents) == {"double", "triple"}
        assert sum_prov.parents["double"] == run.artifacts["double"].fingerprint
        assert sum_prov.created_at > 0

    def test_cached_artifact_keeps_original_provenance(self, store):
        first = PipelineExecutor(store).run(diamond(), PARAMS)
        second = PipelineExecutor(store).run(diamond(), PARAMS)
        assert (
            second.artifacts["sum"].provenance.created_at
            == first.artifacts["sum"].provenance.created_at
        )


class TestStats:
    def test_stage_partition(self, store):
        PipelineExecutor(store).run(diamond(), PARAMS)
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert run.stats.executed_stages == ()
        assert set(run.stats.cached_stages) == {
            "root", "double", "triple", "sum",
        }

    def test_for_stage(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        assert run.stats.for_stage("root").cache_hit is False
        with pytest.raises(KeyError):
            run.stats.for_stage("nope")

    def test_render_mentions_every_stage(self, store):
        run = PipelineExecutor(store).run(diamond(), PARAMS)
        text = run.stats.render()
        for name in ("root", "double", "triple", "sum"):
            assert name in text
        assert "4 executed, 0 cached" in text

    def test_empty_stats_not_all_cached(self, store):
        run = PipelineExecutor(store).run(Pipeline(), {})
        assert not run.stats.all_cached
