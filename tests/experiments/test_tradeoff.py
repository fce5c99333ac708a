"""Library-size/performance tradeoff experiment."""

import pytest

from repro.experiments.tradeoff import run_tradeoff


@pytest.fixture(scope="module")
def result(small_dataset):
    return run_tradeoff(small_dataset, budgets=(2, 4, 8))


class TestTradeoff:
    def test_points_structure(self, result):
        budgets = [p.budget for p in result.points]
        assert budgets == [2, 4, 8]
        for p in result.points:
            assert 0 < p.achievable <= 1.0
            assert 0 < p.binary_bytes < result.full_library_bytes
            assert 1 <= p.compiled_templates <= p.budget

    def test_size_nondecreasing_in_budget(self, result):
        sizes = [p.binary_bytes for p in result.points]
        assert sizes == sorted(sizes)

    def test_knee_is_a_swept_budget(self, result):
        assert result.knee_budget() in {p.budget for p in result.points}

    def test_render(self, result):
        text = result.render()
        assert "Library size vs performance" in text
        assert "knee" in text

    def test_empty_budgets_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            run_tradeoff(small_dataset, budgets=())


def test_full_scale_small_library_with_diminishing_returns(full_dataset):
    result = run_tradeoff(full_dataset)
    # The pruned libraries are far smaller than the full bundle...
    assert result.points[-1].binary_bytes < result.full_library_bytes / 3
    # ...with diminishing returns setting in within the paper's budget
    # range, and the largest budget beating the smallest.
    assert result.knee_budget() <= 32
    assert result.points[-1].achievable > result.points[0].achievable
