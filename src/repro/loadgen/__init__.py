"""Closed-loop load generation for the selection serving stack.

The paper's deployment argument — selector dispatch must be negligible
at traffic scale — is only testable under traffic.  This package
simulates it: Poisson arrivals shaped by a diurnal ramp
(:mod:`~repro.loadgen.arrivals`), a Zipf-skewed stream of real
VGG/ResNet/MobileNet GEMM shapes (:mod:`~repro.loadgen.workload`),
worker threads driving a :class:`~repro.serving.router.FleetRouter`
(:mod:`~repro.loadgen.harness`), and tail-latency reporting straight
from the :mod:`repro.obs` histograms (:mod:`~repro.loadgen.report`).

``repro loadgen run`` is the CLI front-end; CI's bench-smoke job runs a
pinned-throughput smoke scenario through it.
"""

from repro.loadgen.arrivals import RateProfile, poisson_arrivals
from repro.loadgen.drift import (
    DriftReplayReport,
    DriftSpec,
    DriftedLatencyModel,
    drift_adaptive_config,
    replay_drift,
    run_drift_load,
)
from repro.loadgen.harness import (
    LoadgenConfig,
    SyntheticFleet,
    run_load,
    synthetic_deployed,
    synthetic_fleet,
)
from repro.loadgen.report import (
    DriftSummary,
    LoadReport,
    QuantileSummary,
    WorkerLoad,
    git_revision,
    merged_quantiles,
    report_document,
)
from repro.loadgen.workload import (
    DEFAULT_NETWORKS,
    ShapeStream,
    network_shape_pool,
)

__all__ = [
    "DEFAULT_NETWORKS",
    "DriftReplayReport",
    "DriftSpec",
    "DriftSummary",
    "DriftedLatencyModel",
    "LoadReport",
    "LoadgenConfig",
    "QuantileSummary",
    "RateProfile",
    "ShapeStream",
    "SyntheticFleet",
    "WorkerLoad",
    "drift_adaptive_config",
    "git_revision",
    "merged_quantiles",
    "network_shape_pool",
    "poisson_arrivals",
    "replay_drift",
    "report_document",
    "run_drift_load",
    "run_load",
    "synthetic_deployed",
    "synthetic_fleet",
]
