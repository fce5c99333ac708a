"""Payload codecs: how each artifact type is laid out on disk.

A codec maps a stage's in-memory value to files inside the artifact's
payload directory and back.  Payloads are ``.npz``/``.npy`` arrays
(numeric tables, tree arrays) and tagged JSON (everything else) — never
pickle.  The manifest records which codec wrote the payload, so the
store can load any artifact without knowing the pipeline that produced
it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.pipeline.serialize import dumps, loads

__all__ = ["Codec", "get_codec", "register_codec"]


class Codec:
    """Base payload codec; subclasses define ``save``/``load``."""

    name: str = "codec"

    def save(self, value: Any, directory: Path) -> None:
        raise NotImplementedError

    def load(self, directory: Path) -> Any:
        raise NotImplementedError


_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown payload codec {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


class JsonCodec(Codec):
    """Generic tagged-JSON payload: any dataclass/ndarray/tuple tree."""

    name = "json"

    def save(self, value: Any, directory: Path) -> None:
        (directory / "payload.json").write_text(dumps(value))

    def load(self, directory: Path) -> Any:
        return loads((directory / "payload.json").read_text())


class BenchResultCodec(Codec):
    """Raw benchmark sweep, in the ``bench.cache`` ``.npz`` format."""

    name = "bench-result"

    def save(self, value: Any, directory: Path) -> None:
        from repro.bench.cache import save_dataset

        save_dataset(value, directory / "sweep.npz")

    def load(self, directory: Path) -> Any:
        from repro.bench.cache import load_dataset

        return load_dataset(directory / "sweep.npz")


class DatasetCodec(Codec):
    """A :class:`~repro.core.dataset.PerformanceDataset` as ``.npz``."""

    name = "dataset"

    def save(self, value: Any, directory: Path) -> None:
        value.save(directory / "dataset.npz")

    def load(self, directory: Path) -> Any:
        from repro.core.dataset import PerformanceDataset

        return PerformanceDataset.load(directory / "dataset.npz")


class SplitCodec(Codec):
    """A train/test :class:`~repro.core.dataset.DatasetSplit` pair."""

    name = "split"

    def save(self, value: Any, directory: Path) -> None:
        value.train.save(directory / "train.npz")
        value.test.save(directory / "test.npz")

    def load(self, directory: Path) -> Any:
        from repro.core.dataset import DatasetSplit, PerformanceDataset

        return DatasetSplit(
            train=PerformanceDataset.load(directory / "train.npz"),
            test=PerformanceDataset.load(directory / "test.npz"),
        )


class SelectorCodec(Codec):
    """A deployed selector: its tree arrays in one ``.npz`` plus metadata.

    Supports the paper's deployable artefact — a decision-tree selector
    (or a degenerate constant selector) over a pruned set.  Other
    estimator families have no array-only representation here and are
    rejected at save time rather than silently mis-serialized.

    The payload is :mod:`repro.pipeline.mapped`'s layout: an
    uncompressed ``.npz`` of the tree arrays and tagged-JSON metadata,
    under one SHA-256 that ``load`` checks, so a corrupt payload fails
    the load instead of serving wrong selections.
    """

    name = "selector"

    def save(self, value: Any, directory: Path) -> None:
        from repro.pipeline.mapped import write_mapped_selector

        write_mapped_selector(value, directory)

    def load(self, directory: Path) -> Any:
        from repro.core.deploy import DeployedSelector

        return DeployedSelector.from_mapped(directory)


class ProfileCodec(Codec):
    """A device profile (or bare model/device parameters) as tagged JSON.

    The payload for fleet ``profile`` stages and any provenance record
    carrying :class:`~repro.perfmodel.params.PerfModelParams` or a
    :class:`~repro.sycl.device.DeviceSpec` (e.g. the paper pipeline's
    sweep parameters).  Stricter than :class:`JsonCodec`: anything that
    is not one of those device-describing types is rejected at save
    time, so a mis-wired stage cannot silently persist an arbitrary
    object under the ``profile`` codec name.
    """

    name = "profile"

    @staticmethod
    def _check(value: Any) -> None:
        from repro.fleet.profile import DeviceProfile
        from repro.perfmodel.params import PerfModelParams
        from repro.sycl.device import DeviceSpec

        if not isinstance(value, (DeviceProfile, DeviceSpec, PerfModelParams)):
            raise TypeError(
                "profile codec persists DeviceProfile, DeviceSpec or "
                f"PerfModelParams values, not {type(value).__name__}"
            )

    def save(self, value: Any, directory: Path) -> None:
        self._check(value)
        (directory / "profile.json").write_text(dumps(value))

    def load(self, directory: Path) -> Any:
        value = loads((directory / "profile.json").read_text())
        self._check(value)
        return value


class PartialSweepCodec(Codec):
    """A budgeted :class:`~repro.onboard.sweep.PartialSweep`.

    The holey table reuses the dataset ``.npz`` layout (NaN cells are
    its native masking convention), the attempted cell indices are a
    plain ``.npy``, and the sampling provenance (sampler, seed, failure
    count) is tagged JSON.
    """

    name = "partial-sweep"

    def save(self, value: Any, directory: Path) -> None:
        from repro.onboard.sweep import PartialSweep

        if not isinstance(value, PartialSweep):
            raise TypeError(
                "partial-sweep codec persists PartialSweep values, "
                f"not {type(value).__name__}"
            )
        value.dataset.save(directory / "dataset.npz")
        np.save(directory / "cells.npy", value.cells)
        meta = {
            "sampler": value.sampler,
            "seed": value.seed,
            "failed": value.failed,
        }
        (directory / "sweep.json").write_text(dumps(meta))

    def load(self, directory: Path) -> Any:
        from repro.core.dataset import PerformanceDataset
        from repro.onboard.sweep import PartialSweep

        meta = loads((directory / "sweep.json").read_text())
        return PartialSweep(
            dataset=PerformanceDataset.load(directory / "dataset.npz"),
            cells=np.load(directory / "cells.npy"),
            sampler=meta["sampler"],
            seed=meta["seed"],
            failed=meta["failed"],
        )


class OnboardReportCodec(Codec):
    """An :class:`~repro.onboard.report.OnboardReport` as tagged JSON.

    Type-gated like :class:`ProfileCodec`: only the report dataclass may
    be persisted under this codec name.
    """

    name = "onboard-report"

    @staticmethod
    def _check(value: Any) -> None:
        from repro.onboard.report import OnboardReport

        if not isinstance(value, OnboardReport):
            raise TypeError(
                "onboard-report codec persists OnboardReport values, "
                f"not {type(value).__name__}"
            )

    def save(self, value: Any, directory: Path) -> None:
        self._check(value)
        (directory / "report.json").write_text(dumps(value))

    def load(self, directory: Path) -> Any:
        value = loads((directory / "report.json").read_text())
        self._check(value)
        return value


for _codec in (
    JsonCodec(),
    BenchResultCodec(),
    DatasetCodec(),
    SplitCodec(),
    SelectorCodec(),
    ProfileCodec(),
    PartialSweepCodec(),
    OnboardReportCodec(),
):
    register_codec(_codec)
