"""The closed-loop load harness: scheduled arrivals driving a fleet.

:func:`run_load` replays a precomputed Poisson/diurnal arrival schedule
(:mod:`repro.loadgen.arrivals`) with a Zipf-skewed network shape stream
(:mod:`repro.loadgen.workload`) against a
:class:`~repro.serving.router.FleetRouter` from a pool of worker
threads.  Each worker owns a strided slice of the schedule, sleeps
until each arrival is due (recording lateness when the generator cannot
keep up), issues ``router.select`` and retires the request with
``router.complete`` — so the ``least-outstanding`` policy sees real
in-flight load.  Latency goes straight into ``loadgen.request_seconds``
in the shared obs registry; the report reads p50/p99/p999 back out of
the histograms rather than keeping per-request samples.

Two hooks support the drift/adaptive scenarios
(:mod:`repro.loadgen.drift`): ``on_request`` observes every completed
request with its global schedule index and due time, and
``LoadgenConfig.pace=False`` replays the schedule as fast as possible
(due times become virtual time — deterministic drift phases without
wall-clock sleeps).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.loadgen.arrivals import RateProfile, poisson_arrivals
from repro.loadgen.report import (
    LoadReport,
    QuantileSummary,
    WorkerLoad,
    merged_quantiles,
)
from repro.loadgen.workload import DEFAULT_NETWORKS, ShapeStream, network_shape_pool
from repro.obs.registry import MetricsRegistry
from repro.serving.router import FleetRouter, RoutedDecision
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.adaptive.bandit import AdaptiveConfig
    from repro.core.deploy import DeployedSelector

__all__ = [
    "LoadgenConfig",
    "SyntheticFleet",
    "run_load",
    "synthetic_deployed",
    "synthetic_fleet",
]

#: A worker this far behind schedule counts the arrival as late.
_LATE_TOLERANCE_S = 1e-3

#: Observes (schedule index, due seconds, shape, routed decision) after
#: each completed request — the feedback tap for adaptive scenarios.
RequestHook = Callable[[int, float, GemmShape, RoutedDecision], None]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: how much traffic, shaped how, served by whom."""

    profile: RateProfile = field(
        default_factory=lambda: RateProfile(base_qps=1000.0)
    )
    duration_s: float = 5.0
    workers: int = 4
    networks: Tuple[str, ...] = DEFAULT_NETWORKS
    zipf_skew: float = 1.1
    seed: int = 0
    #: Routing policy per request; None uses the router's default.
    routing_policy: Optional[str] = None
    #: False replays the schedule flat-out: no sleeping, no lateness —
    #: due times act as virtual time (deterministic drift phases).
    pace: bool = True

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class _Worker(threading.Thread):
    """One generator thread: a strided slice of the arrival schedule."""

    def __init__(
        self,
        router: FleetRouter,
        work: List[Tuple[int, float, GemmShape]],
        policy: Optional[str],
        barrier: threading.Barrier,
        h_request,
        pace: bool,
        on_request: Optional[RequestHook],
    ):
        super().__init__(daemon=True)
        self._router = router
        self._work = work
        self._policy = policy
        self._barrier = barrier
        self._h_request = h_request
        self._pace = pace
        self._on_request = on_request
        self.completed = 0
        self.late = 0
        self.rerouted = 0
        self.dispatched: Dict[str, int] = {}
        self.start_s = 0.0
        self.end_s = 0.0
        self.error: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - exercised via run_load
        try:
            self._run()
        except BaseException as exc:
            self.error = exc

    def _run(self) -> None:
        router = self._router
        observe = self._h_request.observe
        policy = self._policy
        pace = self._pace
        on_request = self._on_request
        self._barrier.wait()
        t0 = time.perf_counter()
        self.start_s = t0
        for index, due, shape in self._work:
            if pace:
                now = time.perf_counter() - t0
                wait = due - now
                if wait > 0:
                    time.sleep(wait)
                elif -wait > _LATE_TOLERANCE_S:
                    self.late += 1
            begin = time.perf_counter()
            decision = router.select(shape, policy=policy)
            observe(time.perf_counter() - begin)
            device = decision.device_id
            self.dispatched[device] = self.dispatched.get(device, 0) + 1
            if decision.rerouted:
                self.rerouted += 1
            router.complete(device)
            if on_request is not None:
                on_request(index, due, shape, decision)
            self.completed += 1
        self.end_s = time.perf_counter()


def run_load(
    router: FleetRouter,
    config: LoadgenConfig,
    *,
    registry: Optional[MetricsRegistry] = None,
    on_request: Optional[RequestHook] = None,
) -> LoadReport:
    """Run one load scenario against a routed fleet; returns the report.

    ``registry`` is where the generator's own metrics go and where the
    service-side ``serving.lookup_seconds`` histograms are read back
    from — pass the registry the fleet's services share (defaults to
    the router's).  ``on_request`` is called after every completed
    request with ``(schedule index, due seconds, shape, decision)``;
    exceptions it raises abort the run.
    """
    registry = registry if registry is not None else router.registry
    h_request = registry.histogram("loadgen.request_seconds")
    c_requests = registry.counter("loadgen.requests")
    c_late = registry.counter("loadgen.late_arrivals")

    arrivals = poisson_arrivals(
        config.profile, config.duration_s, seed=config.seed
    )
    stream = ShapeStream(
        network_shape_pool(config.networks),
        skew=config.zipf_skew,
        seed=config.seed + 1,
    )
    shapes = stream.take(len(arrivals))
    schedule = [
        (index, due, shape)
        for index, (due, shape) in enumerate(zip(arrivals, shapes))
    ]

    n_workers = min(config.workers, max(1, len(schedule)))
    barrier = threading.Barrier(n_workers)
    workers = [
        _Worker(router, schedule[i::n_workers], config.routing_policy,
                barrier, h_request, config.pace, on_request)
        for i in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for worker in workers:
        if worker.error is not None:
            raise worker.error

    completed = sum(w.completed for w in workers)
    late = sum(w.late for w in workers)
    rerouted = sum(w.rerouted for w in workers)
    dispatched: Dict[str, int] = {}
    for worker in workers:
        for device, count in worker.dispatched.items():
            dispatched[device] = dispatched.get(device, 0) + count
    c_requests.inc(completed)
    c_late.inc(late)

    if schedule:
        wall = max(w.end_s for w in workers) - min(w.start_s for w in workers)
    else:
        wall = 0.0
    per_worker = tuple(
        WorkerLoad(
            worker=i,
            offered=len(w._work),
            completed=w.completed,
            late=w.late,
            offered_qps=len(w._work) / config.duration_s,
            achieved_qps=(
                w.completed / (w.end_s - w.start_s)
                if w.end_s > w.start_s
                else 0.0
            ),
        )
        for i, w in enumerate(workers)
    )
    return LoadReport(
        duration_s=config.duration_s,
        wall_s=wall,
        offered=len(schedule),
        completed=completed,
        late=late,
        achieved_qps=completed / wall if wall > 0 else 0.0,
        request_latency=QuantileSummary.from_histogram(h_request),
        lookup_latency=merged_quantiles(registry, "serving.lookup_seconds"),
        dispatched=dispatched,
        rerouted=rerouted,
        paced=config.pace,
        workers=per_worker,
    )


@dataclass(frozen=True)
class SyntheticFleet:
    """A synthetic replica fleet plus the pieces drift scenarios need.

    ``services`` maps device ids to the objects registered with the
    router — plain :class:`~repro.serving.SelectionService` instances,
    or :class:`~repro.serving.adaptive.AdaptiveSelectionService`
    wrappers when built with ``adaptive=``.
    """

    router: FleetRouter
    deployed: "DeployedSelector"
    services: Dict[str, object]
    registry: MetricsRegistry


def synthetic_deployed(
    *, budget: int = 4, seed: int = 0
) -> "DeployedSelector":
    """A tuned selector over synthetic measurements — sub-second setup.

    Generates a reduced performance dataset (small configuration space
    over every 7th network shape) and tunes a decision-tree
    :class:`~repro.core.deploy.DeployedSelector` on it.  The common
    fixture behind :func:`synthetic_fleet`.
    """
    from repro.bench.runner import BenchmarkRunner, RunnerConfig
    from repro.core.dataset import PerformanceDataset
    from repro.core.deploy import tune
    from repro.kernels.params import config_space
    from repro.sycl.device import Device
    from repro.workloads.extract import extract_dataset_shapes

    configs = config_space(
        tile_sizes=(1, 2, 4),
        work_groups=((8, 8), (1, 64), (16, 16), (64, 1)),
    )
    all_shapes, _ = extract_dataset_shapes()
    runner = BenchmarkRunner(
        Device.r9_nano(),
        configs=configs,
        runner_config=RunnerConfig(
            warmup_iterations=1, timed_iterations=3, seed=seed
        ),
    )
    dataset = PerformanceDataset.from_benchmark(runner.run(all_shapes[::7]))
    return tune(dataset, n_configs=budget, random_state=seed)


def synthetic_fleet(
    *,
    replicas: int = 2,
    registry: Optional[MetricsRegistry] = None,
    routing_policy: str = "round-robin",
    cache_capacity: int = 4096,
    budget: int = 4,
    seed: int = 0,
    compiled: bool = False,
    adaptive: Optional["AdaptiveConfig"] = None,
) -> SyntheticFleet:
    """A self-contained fleet for load runs: N replicas of one selector.

    Builds a :func:`synthetic_deployed` selector and fronts it with
    ``replicas`` identical :class:`~repro.serving.SelectionService`
    instances named ``dev0..devN-1`` behind one router.  With
    ``compiled=True`` each service fronts the selector's
    :meth:`~repro.core.deploy.DeployedSelector.compiled` hot path
    instead of the NumPy tree walk.  With ``adaptive=`` each service is
    wrapped in an
    :class:`~repro.serving.adaptive.AdaptiveSelectionService` carrying
    that config (each replica adapts independently).
    """
    from repro.serving.service import SelectionService

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    registry = registry if registry is not None else MetricsRegistry()
    deployed = synthetic_deployed(budget=budget, seed=seed)
    policy = deployed.compiled() if compiled else deployed
    fallback = deployed.library.configs[0]
    router = FleetRouter(default_policy=routing_policy, registry=registry)
    services: Dict[str, object] = {}
    candidates = tuple(deployed.library.configs)
    for i in range(replicas):
        name = f"dev{i}"
        service: object = SelectionService(
            policy,
            capacity=cache_capacity,
            fallback=fallback,
            registry=registry,
            name=name,
        )
        if adaptive is not None:
            from repro.serving.adaptive import AdaptiveSelectionService

            service = AdaptiveSelectionService(
                service,  # type: ignore[arg-type]
                config=adaptive,
                candidates=candidates,
                registry=registry,
                name=name,
            )
        services[name] = service
        router.add_device(name, service, library=candidates)
    return SyntheticFleet(
        router=router,
        deployed=deployed,
        services=services,
        registry=registry,
    )

