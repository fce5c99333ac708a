"""Benchmark harness: regenerates the paper's performance dataset.

For every (GEMM shape, kernel configuration) pair the runner performs a
benchmark on the simulated device — warm-up plus timed iterations through
the performance model's noisy measurement interface — and records runtime
and achieved FLOP rate, exactly the procedure described in Section II.A.
"""

from repro.bench.failures import FailureLog, FailureRecord
from repro.bench.runner import BenchmarkResult, BenchmarkRunner, RunnerConfig
from repro.bench.stats import summarize_times, TimingSummary
from repro.bench.cache import load_dataset, save_dataset

__all__ = [
    "BenchmarkResult",
    "BenchmarkRunner",
    "FailureLog",
    "FailureRecord",
    "RunnerConfig",
    "TimingSummary",
    "load_dataset",
    "save_dataset",
    "summarize_times",
]
