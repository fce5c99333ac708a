"""PerformanceDataset."""

import numpy as np
import pytest

from repro.core.dataset import PerformanceDataset


class TestViews:
    def test_normalized_rows_max_one(self, small_dataset):
        N = small_dataset.normalized()
        np.testing.assert_allclose(N.max(axis=1), 1.0)
        assert np.all(N > 0)

    def test_features_shape(self, small_dataset):
        f = small_dataset.features()
        assert f.shape == (small_dataset.n_shapes, 4)
        assert np.all(f >= 1)

    def test_best_config_indices_are_argmax(self, small_dataset):
        best = small_dataset.best_config_indices()
        np.testing.assert_array_equal(best, small_dataset.gflops.argmax(axis=1))

    def test_win_counts_sum_to_shapes(self, small_dataset):
        assert small_dataset.win_counts().sum() == small_dataset.n_shapes

    def test_best_gflops(self, small_dataset):
        np.testing.assert_allclose(
            small_dataset.best_gflops(), small_dataset.gflops.max(axis=1)
        )

    def test_config_index_lookup(self, small_dataset):
        cfg = small_dataset.configs[5]
        assert small_dataset.config_index(cfg) == 5
        from repro.kernels.params import KernelConfig

        foreign = KernelConfig(acc=8, rows=8, cols=8, wg_rows=8, wg_cols=16)
        with pytest.raises(KeyError):
            small_dataset.config_index(foreign)


class TestRestructuring:
    def test_subset(self, small_dataset):
        sub = small_dataset.subset([0, 2, 4])
        assert sub.n_shapes == 3
        assert sub.shapes[1] == small_dataset.shapes[2]
        np.testing.assert_array_equal(sub.gflops[1], small_dataset.gflops[2])

    def test_subset_empty_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.subset([])

    def test_split_partition(self, small_dataset):
        train, test = small_dataset.split(test_size=0.25, random_state=0)
        assert train.n_shapes + test.n_shapes == small_dataset.n_shapes
        assert set(train.shapes).isdisjoint(test.shapes)

    def test_split_reproducible(self, small_dataset):
        a_train, _ = small_dataset.split(random_state=3)
        b_train, _ = small_dataset.split(random_state=3)
        assert a_train.shapes == b_train.shapes

    def test_split_seed_matters(self, small_dataset):
        a_train, _ = small_dataset.split(random_state=0)
        b_train, _ = small_dataset.split(random_state=1)
        assert a_train.shapes != b_train.shapes

    def test_split_bad_fraction(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.split(test_size=0.0)


class TestPersistence:
    def test_save_load_round_trip(self, small_dataset, tmp_path):
        path = small_dataset.save(tmp_path / "ds.npz")
        loaded = PerformanceDataset.load(path)
        assert loaded.shapes == small_dataset.shapes
        assert loaded.configs == small_dataset.configs
        np.testing.assert_allclose(loaded.gflops, small_dataset.gflops)


class TestValidation:
    def test_rejects_mismatched_matrix(self, small_dataset):
        with pytest.raises(ValueError):
            PerformanceDataset(
                shapes=small_dataset.shapes,
                configs=small_dataset.configs,
                gflops=np.ones((2, 2)),
            )

    def test_rejects_nonpositive_gflops(self, small_dataset):
        bad = small_dataset.gflops.copy()
        bad[0, 0] = 0.0
        with pytest.raises(ValueError):
            PerformanceDataset(
                shapes=small_dataset.shapes,
                configs=small_dataset.configs,
                gflops=bad,
            )


class TestAllNanRows:
    """An all-NaN row must fail loudly, never argmax to config 0."""

    def _with_dead_row(self, dataset, row=1):
        bad = dataset.gflops.copy()
        bad[row, :] = np.nan
        return bad

    def test_constructor_names_the_dead_shape(self, small_dataset):
        bad = self._with_dead_row(small_dataset)
        with pytest.raises(ValueError) as excinfo:
            PerformanceDataset(
                shapes=small_dataset.shapes,
                configs=small_dataset.configs,
                gflops=bad,
            )
        message = str(excinfo.value)
        assert "no successful measurement" in message
        assert str(small_dataset.shapes[1]) in message

    def test_partial_rows_are_still_allowed(self, small_dataset):
        holey = small_dataset.gflops.copy()
        holey[:, 1:] = np.nan  # one finite cell per row is enough
        dataset = PerformanceDataset(
            shapes=small_dataset.shapes,
            configs=small_dataset.configs,
            gflops=holey,
        )
        assert np.array_equal(
            dataset.best_config_indices(),
            np.zeros(dataset.n_shapes, dtype=np.int64),
        )

    def _bypass_validation(self, dataset, bad):
        # Simulate a decoding path that skipped __post_init__.
        broken = object.__new__(PerformanceDataset)
        object.__setattr__(broken, "shapes", dataset.shapes)
        object.__setattr__(broken, "configs", dataset.configs)
        object.__setattr__(broken, "gflops", bad)
        object.__setattr__(broken, "device_name", dataset.device_name)
        return broken

    def test_normalized_rechecks(self, small_dataset):
        broken = self._bypass_validation(
            small_dataset, self._with_dead_row(small_dataset)
        )
        with pytest.raises(ValueError, match="normalized"):
            broken.normalized()

    def test_label_extraction_rechecks(self, small_dataset):
        broken = self._bypass_validation(
            small_dataset, self._with_dead_row(small_dataset)
        )
        with pytest.raises(ValueError, match="label extraction"):
            broken.best_config_indices()
