"""Benchmark fixtures.

The full dataset is generated once per session: the sweep takes a
fraction of a second, so nothing is cached on disk.
"""

from __future__ import annotations

import pytest

from repro.core.dataset import PerformanceDataset, generate_dataset


@pytest.fixture(scope="session")
def full_dataset() -> PerformanceDataset:
    return generate_dataset()


@pytest.fixture(scope="session")
def split(full_dataset):
    return full_dataset.split(test_size=0.2, random_state=0)
