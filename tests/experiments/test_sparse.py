"""Sparse-generalization experiment at full scale (the run takes ~0.2 s)."""

import pytest

from repro.experiments.sparse import run_sparse_generalization


@pytest.fixture(scope="module")
def result():
    return run_sparse_generalization()


class TestSparseGeneralization:
    def test_scores_in_range(self, result):
        # Dense-trained selection stays usable on sparse rows: the
        # techniques at least partially generalize.
        assert 0.5 < result.score_dense_trained <= 1
        assert 0 < result.score_sparsity_aware <= 1
        assert result.score_dense_trained <= result.ceiling_dense_trained + 1e-9
        assert result.score_sparsity_aware <= result.ceiling_sparsity_aware + 1e-9

    def test_per_density_scores_cover_sparse_levels(self, result):
        assert set(result.per_density_scores) == {0.5, 0.25, 0.1}
        assert all(0 < v <= 1 for v in result.per_density_scores.values())

    def test_quality_degrades_as_density_falls(self, result):
        # Selection quality at 10% density does not beat 50% by more
        # than noise: the sparse regime is the harder one.
        scores = result.per_density_scores
        assert scores[0.1] <= scores[0.5] + 0.05

    def test_aware_not_worse(self, result):
        # The point of the experiment: density-aware training should not
        # lose to density-blind training on sparse test rows.
        assert result.generalization_gap >= -0.02

    def test_render(self, result):
        text = result.render()
        assert "dense-trained" in text
        assert "sparsity-aware" in text
        assert "generalization gap" in text

    def test_requires_dense_rows(self):
        with pytest.raises(ValueError, match="must include 1.0"):
            run_sparse_generalization(densities=(0.5, 0.1))
