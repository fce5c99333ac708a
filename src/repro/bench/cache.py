"""Dataset persistence: save/load benchmark results as ``.npz``.

The paper publishes its dataset alongside the code; this module plays
that role: ``repro dataset --out`` writes a file that a later
``--dataset`` loads.  A file records its device and runner protocol but
is never checked against a request.  Reusing a sweep safely is the
:mod:`repro.pipeline` artifact store's job (``generate_dataset(store=)``):
its sweep fingerprint covers the device, the runner protocol and the
performance-model constants.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.bench.runner import BenchmarkResult, RunnerConfig
from repro.kernels.params import KernelConfig
from repro.workloads.gemm import GemmShape

__all__ = ["load_dataset", "save_dataset"]

#: Version 2: measurement noise comes from the counter-based generator
#: of :mod:`repro.perfmodel.noise`; version-1 files carry the retired
#: per-cell PCG64 draws and must not mix with new ones.
_FORMAT_VERSION = 2


def save_dataset(result: BenchmarkResult, path: Union[str, Path]) -> Path:
    """Serialise a benchmark result; returns the written path."""
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


def load_dataset(path: Union[str, Path]) -> BenchmarkResult:
    """Load a benchmark result written by :func:`save_dataset`.

    Older files that also record ``model_params`` load the same way.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format {meta.get('format_version')!r} "
                f"in {Path(path)} (expected {_FORMAT_VERSION})"
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
