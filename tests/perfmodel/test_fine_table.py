"""The fine-quirk residue table inside ``ConfigTable``.

``GemmPerfModel`` hashes the fine quirk of a residue triple
``(k % 16, n % 32, m % 8)`` once, for every config at once, and reads
it back for every later shape on the same triple.  These tests pin what
gets hashed and when; ``test_block.py`` pins the values themselves.
"""

import numpy as np
import pytest

import repro.perfmodel.model as model_module
from repro.bench.runner import BenchmarkRunner
from repro.kernels.params import config_space
from repro.perfmodel.model import GemmPerfModel
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.gemm import GemmShape

CONFIGS = tuple(config_space())
DATASET = tuple(extract_dataset_shapes()[0])


def residue_rows(shapes):
    return {(s.k % 16 * 32 + s.n % 32) * 8 + s.m % 8 for s in shapes}


def sweep(model, shapes, configs=CONFIGS):
    return BenchmarkRunner(Device.r9_nano(), configs=configs, model=model).run(shapes)


@pytest.fixture()
def hash_calls(monkeypatch):
    """Counts the model's ``derive_seeds`` calls: one per hashed row."""
    calls = []

    def counting(prefixes, *keys):
        calls.append(keys)
        return real(prefixes, *keys)

    real = model_module.derive_seeds
    monkeypatch.setattr(model_module, "derive_seeds", counting)
    return calls


class TestFill:
    def test_fresh_table_has_no_filled_rows(self):
        m = GemmPerfModel(Device.r9_nano())
        m.time_seconds(DATASET[0], CONFIGS[0])
        assert m._table is None
        table = m._config_table(CONFIGS)
        assert table.fine.shape == (16 * 32 * 8, len(CONFIGS))
        assert table.fine.dtype == np.uint16
        assert not table.fine_filled.any()

    def test_dataset_sweep_fills_its_residue_triples(self):
        m = GemmPerfModel(Device.r9_nano())
        sweep(m, DATASET)
        expected = residue_rows(DATASET)
        assert set(np.flatnonzero(m._table.fine_filled)) == expected
        # Many shapes share a triple: that is what the table saves.
        assert len(expected) < len(DATASET) / 4
        untouched = ~m._table.fine_filled
        assert not m._table.fine[untouched].any()

    def test_second_sweep_hashes_nothing(self, hash_calls):
        m = GemmPerfModel(Device.r9_nano())
        sweep(m, DATASET)
        # One row per residue triple, plus the coarse buckets' rows.
        assert len(hash_calls) > len(residue_rows(DATASET))
        hash_calls.clear()
        sweep(m, DATASET)
        assert hash_calls == []

    def test_rows_hold_the_hash_residue(self):
        m = GemmPerfModel(Device.r9_nano(), seed=11)
        shape = GemmShape(100, 37, 70)
        m.times(shape, CONFIGS)
        row = m._table.fine[(37 % 16 * 32 + 70 % 32) * 8 + 100 % 8]
        expected = model_module.derive_seeds(
            m._table.fine_prefixes, 37 % 16, 70 % 32, 100 % 8
        ) % 10_000
        np.testing.assert_array_equal(row, expected)


class TestOwnership:
    def test_models_with_different_seeds_never_share_a_table(self):
        a = GemmPerfModel(Device.r9_nano(), seed=1)
        b = GemmPerfModel(Device.r9_nano(), seed=2)
        sweep(a, DATASET[:8])
        sweep(b, DATASET[:8])
        assert a._table is not b._table
        assert not np.shares_memory(a._table.fine, b._table.fine)
        rows = np.flatnonzero(a._table.fine_filled)
        np.testing.assert_array_equal(rows, np.flatnonzero(b._table.fine_filled))
        assert np.any(a._table.fine[rows] != b._table.fine[rows])

    def test_new_config_tuple_starts_an_empty_table(self, small_configs):
        m = GemmPerfModel(Device.r9_nano())
        sweep(m, DATASET[:8])
        first = m._table
        shape = GemmShape(33, 65, 17)
        m.times(shape, small_configs)
        assert m._table is not first
        assert m._table.fine.shape == (16 * 32 * 8, len(small_configs))
        assert set(np.flatnonzero(m._table.fine_filled)) == residue_rows([shape])
