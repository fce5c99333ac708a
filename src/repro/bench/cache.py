"""Dataset persistence: save/load benchmark results as ``.npz``.

The paper publishes its dataset alongside the code; this module plays
that role so the (seconds-scale) regeneration can be skipped by examples
and benchmarks that only consume the data.

A cached file is only as good as its provenance: :func:`load_dataset`
can validate the stored meta (runner protocol, device, performance-model
constants) against what the caller actually requested and raise
:class:`CacheMismatchError` instead of silently serving stale data.  The
:mod:`repro.pipeline` artifact store builds on this format and adds
content addressing — prefer it for anything beyond a single ad-hoc file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.bench.runner import BenchmarkResult, RunnerConfig
from repro.kernels.params import KernelConfig
from repro.perfmodel.params import PerfModelParams
from repro.workloads.gemm import GemmShape

__all__ = ["CacheMismatchError", "load_dataset", "save_dataset"]

#: Version 2: measurement noise comes from the counter-based generator
#: of :mod:`repro.perfmodel.noise`; version-1 files carry the retired
#: per-cell PCG64 draws and must not mix with new ones.
_FORMAT_VERSION = 2


class CacheMismatchError(ValueError):
    """A cached dataset's meta disagrees with what the caller requested."""


def save_dataset(
    result: BenchmarkResult,
    path: Union[str, Path],
    *,
    model_params: Optional[PerfModelParams] = None,
) -> Path:
    """Serialise a benchmark result; returns the written path.

    ``model_params`` records the performance-model constants the sweep
    ran with, so a later load can detect a model change.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": _FORMAT_VERSION,
        "device_name": result.device_name,
        "runner": {
            "warmup_iterations": result.runner.warmup_iterations,
            "timed_iterations": result.runner.timed_iterations,
            "seed": result.runner.seed,
            "max_retries": result.runner.max_retries,
            "retry_backoff_s": result.runner.retry_backoff_s,
        },
        "model_params": (
            None if model_params is None else dataclasses.asdict(model_params)
        ),
    }
    np.savez_compressed(
        path,
        meta=json.dumps(meta),
        shapes=np.array([s.as_tuple() for s in result.shapes], dtype=np.int64),
        configs=np.array(
            [
                (c.acc, c.rows, c.cols, c.wg_rows, c.wg_cols)
                for c in result.configs
            ],
            dtype=np.int64,
        ),
        gflops=result.gflops,
        seconds=result.seconds,
    )
    # np.savez appends .npz when missing; normalise the return value.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _meta_mismatches(
    meta: dict,
    expected_runner: Optional[RunnerConfig],
    expected_device_name: Optional[str],
    expected_model_params: Optional[PerfModelParams],
) -> List[str]:
    mismatches = []
    if expected_device_name is not None:
        cached = meta.get("device_name")
        if cached != expected_device_name:
            mismatches.append(
                f"device: cached {cached!r} != requested {expected_device_name!r}"
            )
    if expected_runner is not None:
        cached_runner = RunnerConfig(**meta["runner"])
        if cached_runner != expected_runner:
            mismatches.append(
                f"runner: cached {cached_runner} != requested {expected_runner}"
            )
    if expected_model_params is not None:
        cached_model = meta.get("model_params")
        requested = dataclasses.asdict(expected_model_params)
        if cached_model != requested:
            mismatches.append(
                "model_params: cached "
                f"{'<absent>' if cached_model is None else cached_model} "
                f"!= requested {requested}"
            )
    return mismatches


def load_dataset(
    path: Union[str, Path],
    *,
    expected_runner: Optional[RunnerConfig] = None,
    expected_device_name: Optional[str] = None,
    expected_model_params: Optional[PerfModelParams] = None,
) -> BenchmarkResult:
    """Load a benchmark result written by :func:`save_dataset`.

    Any ``expected_*`` argument is validated against the cached meta; a
    disagreement raises :class:`CacheMismatchError` (callers treat it as
    a cache miss) instead of silently returning a stale dataset.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            # A mismatch, not a hard error: callers regenerate the data.
            raise CacheMismatchError(
                f"unsupported dataset format {meta.get('format_version')!r} "
                f"in {Path(path)} (expected {_FORMAT_VERSION})"
            )
        mismatches = _meta_mismatches(
            meta, expected_runner, expected_device_name, expected_model_params
        )
        if mismatches:
            raise CacheMismatchError(
                f"cached dataset {Path(path)} does not match the request: "
                + "; ".join(mismatches)
            )
        shapes = tuple(
            GemmShape(m=int(m), k=int(k), n=int(n), batch=int(b))
            for m, k, n, b in data["shapes"]
        )
        configs = tuple(
            KernelConfig(
                acc=int(a), rows=int(r), cols=int(c), wg_rows=int(wr), wg_cols=int(wc)
            )
            for a, r, c, wr, wc in data["configs"]
        )
        runner = RunnerConfig(**meta["runner"])
        return BenchmarkResult(
            device_name=meta["device_name"],
            shapes=shapes,
            configs=configs,
            gflops=np.array(data["gflops"]),
            seconds=np.array(data["seconds"]),
            runner=runner,
        )
