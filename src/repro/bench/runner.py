"""The benchmark runner: sweep configurations over shapes on a device.

Mirrors the paper's data collection: "For each of these sizes we ran a
benchmark for each of the kernel configurations, recording the runtime of
the kernel and number of flops attained over a number of iterations."

A sweep measures windows of shapes by every config through the model's
``measured_times_block``; only the cells a window leaves NaN (injected
faults) are measured one at a time, through ``measured_times_seconds``,
with retries.  A model therefore provides both methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.bench.failures import FailureLog, FailureRecord
from repro.bench.stats import TimingSummary, summarize_times
from repro.kernels.params import KernelConfig, config_space
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.sycl.exceptions import SyclError
from repro.workloads.gemm import GemmShape

__all__ = ["BenchmarkResult", "BenchmarkRunner", "RunnerConfig"]


@dataclass(frozen=True)
class RunnerConfig:
    """Benchmark protocol parameters.

    ``max_retries`` re-attempts a (shape, config) measurement that raised
    a :class:`~repro.sycl.exceptions.SyclError`; once the retries are
    exhausted the cell is recorded as NaN in the result table instead of
    aborting the sweep.  ``retry_backoff_s`` is the base of the simulated
    exponential back-off (attempt ``i`` waits ``retry_backoff_s * 2**i``
    device-seconds, charged to the failure log, never the wall clock).
    """

    warmup_iterations: int = 2
    timed_iterations: int = 5
    seed: int = 2020
    max_retries: int = 0
    retry_backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.timed_iterations < 1:
            raise ValueError("timed_iterations must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")


@dataclass(frozen=True)
class BenchmarkResult:
    """The raw dataset: one GFLOP/s entry per (shape, config).

    Cells that failed after exhausting their retries hold NaN in both
    ``gflops`` and ``seconds``; ``failures`` records why.
    """

    device_name: str
    shapes: Tuple[GemmShape, ...]
    configs: Tuple[KernelConfig, ...]
    #: (n_shapes, n_configs) achieved GFLOP/s (mean over timed iterations).
    gflops: np.ndarray
    #: (n_shapes, n_configs) mean kernel time in seconds.
    seconds: np.ndarray
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: Per-run account of skipped/retried cells (empty for clean sweeps).
    failures: FailureLog = field(default_factory=FailureLog)

    def __post_init__(self) -> None:
        expected = (len(self.shapes), len(self.configs))
        if self.gflops.shape != expected or self.seconds.shape != expected:
            raise ValueError(
                f"matrix shapes {self.gflops.shape}/{self.seconds.shape} do "
                f"not match ({expected})"
            )

    @property
    def n_failed_cells(self) -> int:
        """Cells abandoned as NaN after exhausting their retries."""
        return int(np.isnan(self.gflops).sum())


#: Shapes per ``measured_times_block`` call.  A call's transient arrays
#: grow with its shapes (the noise grid alone is ~26 KiB per shape at
#: 640 configs x 5 iterations), so a sweep of any length holds at most
#: one chunk's worth.
CHUNK_SHAPES = 16


def _bench_shapes(
    shapes: Sequence[GemmShape],
    *,
    configs: Sequence[KernelConfig],
    model: GemmPerfModel,
    runner: RunnerConfig,
) -> Tuple[np.ndarray, np.ndarray, Tuple[FailureRecord, ...]]:
    """All configs for a chunk of shapes.

    The model measures the whole (shape x config) window in one
    ``measured_times_block`` call.  A cell it returns as NaN is deferred
    to the per-cell path, which visits such cells shape by shape, in
    config order, and retries a cell that raised a
    :class:`~repro.sycl.exceptions.SyclError`.
    """
    # Warm-up iterations are discarded: they model JIT/cache warming.
    times = model.measured_times_block(
        shapes,
        configs,
        iterations=runner.timed_iterations,
        start_iteration=runner.warmup_iterations,
    )
    # Only the mean enters the dataset; the full summary is reserved
    # for bench_single's detailed view.
    seconds = times.mean(axis=2)
    failures: list = []
    for si, ci in zip(*np.nonzero(np.isnan(seconds))):
        shape, config = shapes[si], configs[ci]
        times = None
        for attempt in range(runner.max_retries + 1):
            try:
                times = model.measured_times_seconds(
                    shape,
                    config,
                    iterations=runner.timed_iterations,
                    start_iteration=runner.warmup_iterations,
                )
                break
            except SyclError as exc:
                fatal = attempt == runner.max_retries
                failures.append(
                    FailureRecord(
                        kind=type(exc).__name__,
                        message=str(exc),
                        shape=shape,
                        config=config,
                        attempt=attempt,
                        fatal=fatal,
                        backoff_s=(
                            0.0
                            if fatal
                            else runner.retry_backoff_s * 2**attempt
                        ),
                    )
                )
        if times is not None:
            seconds[si, ci] = times.mean()
        # Otherwise retries are exhausted: skip-and-record, the cell
        # stays NaN.
    flops = np.array([shape.flops for shape in shapes], dtype=np.float64)
    gflops = flops[:, None] / seconds / 1e9
    return gflops, seconds, tuple(failures)


class BenchmarkRunner:
    """Sweeps the configuration space over a shape list on one device."""

    def __init__(
        self,
        device: Device,
        *,
        configs: Optional[Sequence[KernelConfig]] = None,
        runner_config: Optional[RunnerConfig] = None,
        model_params: Optional[PerfModelParams] = None,
        model=None,
    ):
        """``model`` overrides the default dense GEMM model (e.g. the
        sparse model).  It needs ``measured_times_block(shapes, configs,
        iterations=..., start_iteration=...)``, which sweeps a (shape x
        config) window of ``CHUNK_SHAPES`` shapes per call, and
        ``measured_times_seconds(shape, config, ...)``, which re-measures
        the cells a window returns as NaN."""
        self._device = device
        self._configs = tuple(configs) if configs is not None else tuple(config_space())
        self._runner_config = runner_config or RunnerConfig()
        if model is not None and model_params is not None:
            raise ValueError("pass either model or model_params, not both")
        self._model = model or GemmPerfModel(
            device, params=model_params, seed=self._runner_config.seed
        )

    @property
    def device(self) -> Device:
        return self._device

    @property
    def configs(self) -> Tuple[KernelConfig, ...]:
        return self._configs

    @property
    def model(self) -> GemmPerfModel:
        return self._model

    @property
    def runner_config(self) -> RunnerConfig:
        """The benchmark protocol parameters in force."""
        return self._runner_config

    def run(
        self,
        shapes: Sequence[GemmShape],
        *,
        max_workers: int = 1,
    ) -> BenchmarkResult:
        """Benchmark every configuration on every shape, serially.

        Shapes are measured in chunks of ``CHUNK_SHAPES``.
        ``max_workers`` accepts only 1: the sweep has no process pool,
        and the keyword stays only because the performance ledger's
        ``offline-build`` workload still passes ``max_workers=1``.  It
        goes together with that line (ROADMAP item 1).

        A cell whose measurement raises a
        :class:`~repro.sycl.exceptions.SyclError` is retried up to
        ``max_retries`` times and then recorded as NaN; the sweep always
        completes, and every failure is listed in ``result.failures``.
        """
        if max_workers != 1:
            raise ValueError(f"max_workers must be 1, got {max_workers!r}")
        shapes = tuple(shapes)
        if not shapes:
            raise ValueError("shapes must be non-empty")
        rows = [
            _bench_shapes(
                shapes[lo : lo + CHUNK_SHAPES],
                configs=self._configs,
                model=self._model,
                runner=self._runner_config,
            )
            for lo in range(0, len(shapes), CHUNK_SHAPES)
        ]
        gflops = np.vstack([r[0] for r in rows])
        seconds = np.vstack([r[1] for r in rows])
        failures = FailureLog()
        for row in rows:
            failures.extend(row[2])
        return BenchmarkResult(
            device_name=self._device.name,
            shapes=shapes,
            configs=self._configs,
            gflops=gflops,
            seconds=seconds,
            runner=self._runner_config,
            failures=failures,
        )

    def bench_single(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: Optional[int] = None,
    ) -> TimingSummary:
        """Benchmark one (shape, config) pair and return timing detail.

        ``iterations`` overrides the protocol's timed iteration count for
        this measurement (e.g. a dynamic selector's cheaper trial sweeps);
        warm-up stays as configured.
        """
        rc = self._runner_config
        if iterations is None:
            iterations = rc.timed_iterations
        elif iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        times = self._model.measured_times_seconds(
            shape,
            config,
            iterations=iterations,
            start_iteration=rc.warmup_iterations,
        )
        return summarize_times(times)
