"""Dynamic (trial-run) selection: the ML-framework baseline.

The paper's introduction: "autotuning techniques in machine learning
frameworks tend to be dynamic, doing trial runs the first time an input
size is used and choosing the best for subsequent runs."  This module
implements that policy so the trade-off the paper argues about is
measurable: a dynamic selector finds the *true* best bundled kernel per
size, but pays a full benchmark sweep on every first encounter — which a
research workload with ever-changing topologies hits constantly, while a
trained model selector answers instantly (at some accuracy cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.runner import BenchmarkRunner
from repro.core.pruning.base import PrunedSet
from repro.kernels.params import KernelConfig
from repro.workloads.gemm import GemmShape

__all__ = ["DynamicTrialSelector", "TrialStats"]


@dataclass(frozen=True)
class TrialStats:
    """Accounting of what the dynamic policy has spent and saved."""

    lookups: int
    trial_sweeps: int
    #: Simulated device seconds burned on trial benchmarks.
    trial_seconds: float

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return 1.0 - self.trial_sweeps / self.lookups


class DynamicTrialSelector:
    """Benchmark-on-first-use selection over a bundled kernel set.

    ``trial_iterations`` caps the timed iterations of each trial
    benchmark (instead of the runner's configured protocol), trading
    choice confidence for cheaper first encounters; the per-sweep
    ``trial_seconds`` accounting reflects the reduced run count.

    Not thread-safe: the trial cache and the counters are plain
    attributes.  Behind a :class:`~repro.serving.SelectionService` it
    needs no lock of its own, since the service never calls a memoised
    policy from two threads at a time.
    """

    def __init__(
        self,
        runner: BenchmarkRunner,
        pruned: PrunedSet,
        *,
        trial_iterations: Optional[int] = None,
    ):
        if trial_iterations is not None and trial_iterations < 1:
            raise ValueError("trial_iterations must be >= 1 when given")
        if len(pruned) == 0:
            raise ValueError(
                "pruned set is empty: a dynamic selector needs at least "
                "one bundled configuration to trial"
            )
        self._runner = runner
        self._pruned = pruned
        self._trial_iterations = trial_iterations
        self._cache: Dict[Tuple[int, int, int, int], KernelConfig] = {}
        self._lookups = 0
        self._sweeps = 0
        self._trial_seconds = 0.0

    @property
    def pruned(self) -> PrunedSet:
        return self._pruned

    @property
    def stats(self) -> TrialStats:
        return TrialStats(
            lookups=self._lookups,
            trial_sweeps=self._sweeps,
            trial_seconds=self._trial_seconds,
        )

    def select(self, shape: GemmShape) -> KernelConfig:
        """Cached best kernel, running the trial sweep on a first use."""
        self._lookups += 1
        key = shape.as_tuple()
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        self._sweeps += 1
        warmup = self._runner.runner_config.warmup_iterations
        best_config = self._pruned.configs[0]
        best_time = float("inf")
        for config in self._pruned.configs:
            summary = self._runner.bench_single(
                shape, config, iterations=self._trial_iterations
            )
            # Every trial iteration runs on the device; the protocol's
            # warm-up launches execute too.
            self._trial_seconds += summary.mean * (warmup + summary.iterations)
            if summary.mean < best_time:
                best_time = summary.mean
                best_config = config
        self._cache[key] = best_config
        return best_config

    def select_batch(self, shapes: Sequence[GemmShape]) -> Tuple[KernelConfig, ...]:
        """Best bundled kernel per shape; each distinct new shape is
        trial-swept once, repeats within the batch hit the cache."""
        return tuple(self.select(shape) for shape in shapes)

    def reset(self) -> None:
        """Forget all trials (e.g., after a device or driver change)."""
        self._cache.clear()
        self._lookups = 0
        self._sweeps = 0
        self._trial_seconds = 0.0
