"""Fault-injecting wrappers over the runtime and the benchmark model.

Three injection points, all driven by one :class:`~repro.testing.plan.FaultPlan`:

* :class:`FaultyModel` wraps a performance model's
  ``measured_times_seconds`` and ``measured_times_block`` — the
  interface :class:`~repro.bench.runner.BenchmarkRunner` measures
  through — and raises on planned (shape, config, attempt) coordinates.
  Attempts are counted per cell inside the wrapper, so retry semantics
  are exercised exactly (the same counter-based idiom as the noise:
  each shape is swept wholly inside one worker, so decisions are
  unaffected by parallelism).
* :class:`FaultyQueue` wraps a :class:`~repro.sycl.queue.Queue` and
  raises on planned (kernel name, submission index) coordinates before
  the kernel executes.
* :class:`FaultyDevice` is a :class:`~repro.sycl.device.Device` carrying
  a plan, whose :meth:`~FaultyDevice.queue` factory yields pre-wired
  faulty queues.

:func:`faulty_runner` assembles the common case: a
:class:`BenchmarkRunner` whose sweep hits injected faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.failures import FailureLog, FailureRecord
from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.kernels.params import KernelConfig, config_index
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.sycl.queue import Queue
from repro.testing.plan import FaultPlan, raise_fault
from repro.workloads.gemm import GemmShape

__all__ = [
    "FaultyDevice",
    "FaultyModel",
    "FaultyPolicy",
    "FaultyQueue",
    "faulty_runner",
]


class FaultyModel:
    """Performance-model wrapper raising planned measurement faults.

    Anything accepted as a :class:`BenchmarkRunner` ``model`` can be
    wrapped.  Each ``measured_times_seconds`` call for a (shape, config)
    cell, and each healthy cell of a ``measured_times_block`` window, is one
    *attempt*; the plan decides per attempt, so transient
    plans (``fail_attempts=k``) recover under the runner's retries while
    hard plans fail the cell outright.  One wrapper instance covers one
    sweep; call :meth:`reset` before reusing it.
    """

    def __init__(self, model, plan: FaultPlan):
        self._model = model
        self._plan = plan
        self._attempts: Dict[Tuple[Tuple[int, ...], int], int] = {}

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def wrapped(self):
        return self._model

    def attempts_for(self, shape: GemmShape, config: KernelConfig) -> int:
        """How many measurement attempts the cell has seen."""
        return self._attempts.get((shape.as_tuple(), config_index(config)), 0)

    def reset(self) -> None:
        """Zero the attempt counters (start a fresh sweep)."""
        self._attempts.clear()

    def measured_times_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        key = (shape.as_tuple(), config_index(config))
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        kind = self._plan.fault_for(shape, config, attempt)
        if kind is not None:
            raise_fault(
                kind, f"shape {shape}, config {config}, attempt {attempt}"
            )
        return self._model.measured_times_seconds(
            shape,
            config,
            iterations=iterations,
            start_iteration=start_iteration,
        )

    def measured_times_block(
        self,
        shapes: Sequence[GemmShape],
        configs: Sequence[KernelConfig],
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """A window of sweep rows, with planned faults deferred to the
        runner.

        A cell whose next attempt the plan faults comes back NaN without
        consuming that attempt; the runner then measures it through
        :meth:`measured_times_seconds`, whose attempts raise and retry
        exactly as in a per-cell sweep.  Every other cell consumes one
        attempt here and is measured by the wrapped model's block.  A
        wrapped model without a block method defers every cell.
        """
        block = getattr(self._model, "measured_times_block", None)
        if block is None:
            return np.full((len(shapes), len(configs), iterations), np.nan)
        deferred: List[Tuple[int, int]] = []
        for si, shape in enumerate(shapes):
            coords = shape.as_tuple()
            for ci, config in enumerate(configs):
                key = (coords, config_index(config))
                attempt = self._attempts.get(key, 0)
                if self._plan.fault_for(shape, config, attempt) is None:
                    self._attempts[key] = attempt + 1
                else:
                    deferred.append((si, ci))
        # The wrapped model caches its config table per config tuple, so
        # the whole window is cheaper than a per-shape subset of it.
        times = block(
            shapes, configs, iterations=iterations, start_iteration=start_iteration
        )
        if deferred:
            times[tuple(zip(*deferred))] = np.nan
        return times

    def __getattr__(self, name):
        # Everything else (time_seconds, breakdown, params, ...) passes
        # through to the wrapped model untouched.  Underscored lookups
        # are refused: dunder probes (copy, pickle) see this wrapper's
        # own defaults, and a lookup of ``_model`` before ``__init__``
        # has set it raises instead of recursing.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._model, name)

    def __repr__(self) -> str:
        return f"FaultyModel({self._model!r}, {self._plan!r})"


class FaultyPolicy:
    """Selection-policy wrapper raising planned per-device lookup faults.

    Wraps anything with ``select(shape)`` (and optionally
    ``select_batch``) behind a :class:`~repro.serving.service.SelectionService`
    or a fleet router.  Every shape queried consumes one *query index*
    on the wrapper's ``device_id``; the plan decides per index, so
    :meth:`FaultPlan.kill_device` turns the device off mid-traffic and
    :meth:`FaultPlan.poison_selection` hits one exact lookup.  Batch
    queries consume one index per shape and raise on the first faulted
    coordinate — matching a vectorized policy pass dying wholesale.
    """

    def __init__(self, policy, plan: FaultPlan, *, device_id: str):
        self._policy = policy
        self._plan = plan
        self._device_id = device_id
        self._count = 0

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def device_id(self) -> str:
        return self._device_id

    @property
    def wrapped(self):
        return self._policy

    @property
    def selections(self) -> int:
        """Query indices consumed so far (including faulted ones)."""
        return self._count

    def _next_index(self) -> None:
        index = self._count
        self._count = index + 1
        kind = self._plan.fault_for_selection(self._device_id, index)
        if kind is not None:
            raise_fault(
                kind, f"selection #{index} on device {self._device_id}"
            )

    def select(self, shape: GemmShape):
        self._next_index()
        return self._policy.select(shape)

    def select_batch(self, shapes: Sequence[GemmShape]):
        batch_fn = getattr(self._policy, "select_batch", None)
        if batch_fn is None:
            raise AttributeError("wrapped policy has no select_batch")
        for _ in shapes:
            self._next_index()
        return batch_fn(shapes)

    def __getattr__(self, name):
        # Everything else (library, selector, ...) passes through; see
        # FaultyModel for why underscored lookups are refused.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._policy, name)

    def __repr__(self) -> str:
        return (
            f"FaultyPolicy({self._policy!r}, {self._plan!r}, "
            f"device_id={self._device_id!r})"
        )


class FaultyQueue:
    """Queue wrapper raising planned faults at submit time.

    Implements the :class:`~repro.sycl.queue.Queue` surface; successful
    submissions delegate to the wrapped queue, planned ones raise before
    the kernel executes and are recorded in :attr:`failure_log`.  With a
    zero-rate, nothing-poisoned plan the wrapper is observationally
    identical to the queue it wraps (the differential oracle pins this).
    """

    def __init__(
        self,
        queue: Queue,
        plan: FaultPlan,
        *,
        failure_log: Optional[FailureLog] = None,
    ):
        if not isinstance(queue, Queue):
            raise TypeError(f"queue must be a Queue, got {type(queue).__name__}")
        self._queue = queue
        self._plan = plan
        self._counts: Dict[str, int] = {}
        self._failures = failure_log if failure_log is not None else FailureLog()

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def failure_log(self) -> FailureLog:
        return self._failures

    @property
    def submission_counts(self) -> Dict[str, int]:
        """Submissions attempted per kernel name (including faulted)."""
        return dict(self._counts)

    # -- Queue surface -----------------------------------------------------

    @property
    def device(self) -> Device:
        return self._queue.device

    @property
    def profiling_enabled(self) -> bool:
        return self._queue.profiling_enabled

    @property
    def device_time_ns(self) -> int:
        return self._queue.device_time_ns

    @property
    def submission_log(self):
        return self._queue.submission_log

    @property
    def failed_submissions(self):
        return self._queue.failed_submissions

    def submit(self, kernel, ndrange, args, *, depends_on=None):
        index = self._counts.get(kernel.name, 0)
        self._counts[kernel.name] = index + 1
        kind = self._plan.fault_for_submission(kernel.name, index)
        if kind is not None:
            context = f"submission #{index} of {kernel.name}"
            self._failures.append(
                FailureRecord(
                    kind=kind.value,
                    message=f"injected fault at {context}",
                    attempt=index,
                    where=kernel.name,
                )
            )
            raise_fault(kind, context)
        return self._queue.submit(kernel, ndrange, args, depends_on=depends_on)

    def wait(self) -> None:
        self._queue.wait()

    def __repr__(self) -> str:
        return f"FaultyQueue({self._queue!r}, {self._plan!r})"


class FaultyDevice(Device):
    """A device handle whose queues inject the attached plan's faults."""

    def __init__(self, device: Device, plan: FaultPlan):
        super().__init__(device.spec)
        self._plan = plan

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def queue(self, *, enable_profiling: bool = True) -> FaultyQueue:
        """A fault-injecting queue bound to this device."""
        return FaultyQueue(
            Queue(self, enable_profiling=enable_profiling), self._plan
        )


def faulty_runner(
    device: Device,
    plan: FaultPlan,
    *,
    configs: Optional[Sequence[KernelConfig]] = None,
    runner_config: Optional[RunnerConfig] = None,
    model_params: Optional[PerfModelParams] = None,
) -> BenchmarkRunner:
    """A :class:`BenchmarkRunner` whose measurements hit ``plan``'s faults.

    Identical to ``BenchmarkRunner(device, ...)`` except the performance
    model is wrapped in a :class:`FaultyModel`; on the fault-free
    coordinates the produced numbers are bit-identical to an unwrapped
    runner with the same protocol.
    """
    rc = runner_config or RunnerConfig()
    model = GemmPerfModel(device, params=model_params, seed=rc.seed)
    return BenchmarkRunner(
        device,
        configs=configs,
        runner_config=rc,
        model=FaultyModel(model, plan),
    )
