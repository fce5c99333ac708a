"""Dataset-size experiment mechanics (small scale)."""

import pytest

from repro.experiments.dataset_size import run_dataset_size


@pytest.fixture(scope="module")
def result():
    return run_dataset_size(sizes=(30, 60), budget=6)


class TestDatasetSize:
    def test_scores_structure(self, result):
        assert set(result.scores) == {30, 60}
        for score, ceiling in result.scores.values():
            assert 0 < score <= ceiling <= 1.0

    def test_improvement_accessor(self, result):
        small = result.scores[30][0]
        large = result.scores[60][0]
        assert result.improvement == pytest.approx(large - small)

    def test_render(self, result):
        text = result.render()
        assert "train shapes" in text and "gap" in text

    def test_more_data_does_not_close_the_gap(self):
        # The paper's "larger datasets" conjecture at the default sizes:
        # 13x more training shapes must not make the selector worse
        # beyond noise, and the gap to the ceiling persists
        # (EXPERIMENTS.md, "Larger datasets").
        full = run_dataset_size()
        sizes = sorted(full.scores)
        assert full.scores[sizes[-1]][0] >= full.scores[sizes[0]][0] - 0.02
        final_score, final_ceiling = full.scores[sizes[-1]]
        assert final_ceiling - final_score > 0.01

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            run_dataset_size(sizes=(4,), budget=8)
        with pytest.raises(ValueError):
            run_dataset_size(sizes=())
