"""The ledger's four workloads.

* ``offline-build`` times the paper's dataset build: sweep 640 configs
  over every network GEMM shape, then prune, train, evaluate, compile.
* ``serve-hot``, ``serve-cold`` and ``serve-batch`` ship the selector
  of ``repro.loadgen.synthetic_deployed`` (untimed input) as a mapped
  artifact, and time traffic through a two-replica ``FleetRouter``.

All inputs derive from the seed.  Every served decision and every
swept table is checked; checks that fail count into ``failed``.

Every timing is taken per short window, and each window is followed by
a measurement of the reference loop (``measure.ref_rate``).  A declared
timing is the median over windows of the window's value at reference
speed; the plain median prints as ``raw.<name>``.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from measure import (
    BATCH,
    Spans,
    at_ref_speed,
    ladder,
    make_fleet,
    median,
    perfmodel_probe,
    quantile,
    ref_rate,
)
from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.core.deploy import DeployedSelector
from repro.core.pruning.decision_tree import DecisionTreePruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.evaluate import evaluate_selector
from repro.kernels.registry import KernelLibrary
from repro.loadgen import synthetic_deployed
from repro.loadgen.arrivals import RateProfile, poisson_arrivals
from repro.loadgen.workload import ShapeStream, network_shape_pool
from repro.obs.registry import MetricsRegistry
from repro.pipeline.mapped import write_mapped_selector
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.synthetic import random_gemm_shapes

HERE = Path(__file__).resolve().parent

WORKLOADS = ("offline-build", "serve-hot", "serve-cold", "serve-batch")

T = TypeVar("T")

#: Set-up repeats at least this many times, and for ``Sizes.setup_s``.
SETUP_REPS = 7
#: Shapes per sweep window: one ``BenchmarkRunner.run`` call.
WINDOW_SHAPES = 4
#: The paper's budget, and the split protocol of the offline build.
BUDGET = 8
SPLITS = 4
TEST_SIZE = 0.2
#: Zipf skew of the hot and batch shape streams.
ZIPF = 1.1
#: Open-loop offered rates.  Higher rates made the p50 itself unsteady
#: on a 2-vCPU VM (16 us on one run, 46 us on the next at 50k req/s).
HOT_QPS = 20_000.0
COLD_QPS = 10_000.0
#: Requests between clock checks in a closed-loop window.
CLOSED_BLOCK = 256
#: Hot and cold alternate open-loop windows (of schedule time) with
#: closed-loop windows, two thirds open, one third closed, so both
#: loops sample the whole run.  Windows are short because the host's
#: speed can flip within a second: a reference sample right after a
#: 0.1 s window describes it far better than one after a 1 s window
#: (2% against 5% spread of the scaled p50 between 20 s stretches of
#: a contended spell, where the raw p50 spread 20-34%).
OPEN_WINDOW_S = 0.1
CLOSED_WINDOW_S = 0.05
#: Timing window of serve-batch.
BATCH_WINDOW_S = 0.1
#: An open-loop request sent this late counts as late.
LATE_S = 1e-3
#: DESIGN.md section 5: a dataset with a long tail of winning configs.
MIN_WINNERS = 30
#: Swept seconds must sit within this many noise sigmas (scaled to the
#: mean of the timed iterations) of the deterministic model time.
BAND_SIGMAS = 6.0
BAND_CELLS = 256
#: The paper's networks; the batch stream adds the transformer family.
NETWORKS = ("vgg16", "resnet50", "mobilenet_v2")
BATCH_NETWORKS = NETWORKS + ("transformer",)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``TINY`` keeps the smoke test fast."""

    #: Every k-th dataset shape enters the offline sweep.
    shape_stride: int
    #: Distinct shapes in the cold stream.  Each of the two replicas
    #: sees more of them than its 4,096-entry memo holds, so a cyclic
    #: walk over them misses every time.
    cold_pool: int
    #: Pre-drawn Zipf shapes in the hot and batch streams.
    stream: int
    probe_cells: int
    ladder_rounds: int
    #: Sweep windows after the dataset pass, at the least.
    min_extra_windows: int
    #: Seconds spent repeating the set-up.  Set-up takes 2-4 ms, so
    #: one second gives a median over hundreds of repetitions.
    setup_s: float


FULL = Sizes(1, 32_768, 65_536, 4096, 64, 8, 1.0)
TINY = Sizes(16, 10_000, 4096, 512, 4, 2, 0.0)


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    workload: str
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    breakdown: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            of = f" of {attempted}" if attempted else ""
            self.problems.append(f"{what}: {failed}{of} failed")


def put_timed(
    out: Outcome, name: str, unit: str, windows: Sequence[Tuple[float, float]], *, rate: bool = False
) -> None:
    """``name`` as the median over ``(value, ref)`` windows at reference
    speed, and ``raw.<name>`` as the plain median.

    The VMs this runs on change speed by up to 2x, in spells of
    seconds to minutes, so no run length makes a raw median steady.  A
    change of machine speed moves the reference loop with the workload
    and cancels; a change to the code does not touch the reference
    loop.
    """
    out.put(name, median([at_ref_speed(v, ref, rate=rate) for v, ref in windows]), unit)
    out.put(f"raw.{name}", median([v for v, _ in windows]), unit)


def repeat_setup(out: Outcome, set_up: Callable[[], T], seconds: float) -> T:
    """Run ``set_up`` for ``seconds`` (and at least ``SETUP_REPS``
    times), each repetition a window; ``setup_s`` is their median.
    Returns the last repetition's result."""
    windows = []
    deadline = time.perf_counter() + seconds
    while len(windows) < SETUP_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        made = set_up()
        windows.append((time.perf_counter() - start, ref_rate()))
    put_timed(out, "setup_s", "s", windows)
    out.put("setup.reps", len(windows), "count")
    return made


def put_tail(out: Outcome, seconds: Sequence[float]) -> None:
    """The pooled tail of raw latencies, with its sample count."""
    ordered = sorted(seconds)
    out.put("latency.p99_us", quantile(ordered, 0.99) * 1e6, "us")
    out.put("latency.p999_us", quantile(ordered, 0.999) * 1e6, "us")
    out.put("latency.samples", len(ordered), "count")


def put_tree(out: Outcome, selector) -> None:
    # A selector whose training labels were all one config fits no tree.
    tree = getattr(selector.estimator, "tree_", None)
    out.put("core.selection.tree_depth", 0 if tree is None else tree.max_depth, "count")
    out.put("core.selection.leaves", 1 if tree is None else tree.n_leaves, "count")


def put_probe(out: Outcome, runner: BenchmarkRunner, shapes, seed: int, sizes: Sizes) -> float:
    """The perf-model probe; returns the per-cell cost in us."""
    cell_us, time_us = perfmodel_probe(runner, shapes, seed, cells=sizes.probe_cells)
    out.put("perfmodel.cell_us", cell_us, "us")
    out.put("perfmodel.time_us", time_us, "us")
    return cell_us


def put_ladder(out: Outcome, rows: Dict[str, float], span: Optional[Tuple[str, float]] = None) -> None:
    """The ladder's rows, and its breakdown of one routed lookup.

    ``span`` is ``(name, ns)``: the median traced request span of the
    workload's own loop per query, at reference speed like the ladder's
    rows.  The ladder's router time over it says whether the ladder
    reproduces a real request.
    """
    out.put("compiled.select_ns", rows["compiled"], "ns")
    out.put("compiled.share_ns", rows["compiled_share"], "ns")
    out.put("serving.service.select_ns", rows["service"], "ns")
    out.put("serving.service.self_ns", rows["service_self"], "ns")
    out.put("obs.metrics_ns", rows["metrics"], "ns")
    out.put("serving.router.select_ns", rows["router"], "ns")
    out.put("serving.router.self_ns", rows["router_self"], "ns")
    out.put("serving.service.batch_ns", rows["batch"], "ns")
    out.put("serving.router.batch_ns", rows["router_batch"], "ns")
    out.put("serving.router.batch_self_ns", rows["router_batch_self"], "ns")
    router = rows["router"]
    out.breakdown += [
        "one routed lookup, from the ladder (ns per query):",
        f"  router.select+complete {router:10.1f} ns  100.0%",
        f"  ├─ router self         {rows['router_self']:10.1f} ns  {100 * rows['router_self'] / router:5.1f}%",
        f"  ├─ service self        {rows['service_self']:10.1f} ns  {100 * rows['service_self'] / router:5.1f}%",
        f"  │  └─ obs metrics      {rows['metrics']:10.1f} ns  {100 * rows['metrics'] / router:5.1f}%",
        f"  └─ compiled tree       {rows['compiled_share']:10.1f} ns  {100 * rows['compiled_share'] / router:5.1f}%"
        f"  (one call {rows['compiled']:.1f} ns, made on misses only)",
        f"  batch: router {rows['router_batch']:.1f} ns/query = service "
        f"{rows['batch']:.1f} + router self {rows['router_batch_self']:.1f}",
    ]
    if span is not None:
        name, span_ns = span
        ladder_ns = rows["router_batch" if name == "router.select_batch" else "router"]
        out.put("ladder.over_span", ladder_ns / span_ns, "ratio")
        out.breakdown.append(
            f"  ladder vs the traced {name} spans (per query, at reference speed): "
            f"{ladder_ns:.1f} / {span_ns:.1f} ns = {ladder_ns / span_ns:.3f}"
        )


# -- the offline path ----------------------------------------------------------


class SweepWindow(NamedTuple):
    seconds: float
    cells: int
    shapes: int
    #: The reference rate measured right after the window.
    ref: float
    traced: bool


class Sweep:
    """Sweep windows, each one ``BenchmarkRunner.run`` over a few shapes."""

    def __init__(self, runner: BenchmarkRunner, spans: Spans) -> None:
        self.runner = runner
        self.spans = spans
        self.windows: List[SweepWindow] = []

    def window(self, shapes, *, traced: bool = True):
        cells = len(shapes) * len(self.runner.configs)
        start = time.perf_counter()
        result = self.runner.run(shapes, max_workers=1)
        end = time.perf_counter()
        ref = ref_rate()
        self.windows.append(SweepWindow(end - start, cells, len(shapes), ref, traced))
        if traced and self.spans.enabled:
            self.spans.add("bench.window", start, end)
            self.spans.add("env.ref", end, time.perf_counter())
        return result

    def table(self, shapes) -> Tuple[PerformanceDataset, np.ndarray]:
        """Sweep ``shapes`` window by window; the dataset and its seconds."""
        results = [
            self.window(shapes[lo : lo + WINDOW_SHAPES])
            for lo in range(0, len(shapes), WINDOW_SHAPES)
        ]
        dataset = PerformanceDataset(
            shapes=tuple(shapes),
            configs=self.runner.configs,
            gflops=np.vstack([r.gflops for r in results]),
            device_name=self.runner.device.name,
        )
        return dataset, np.vstack([r.seconds for r in results])


def build_breakdown(spans: Spans) -> List[str]:
    """Phase shares of the ``build`` span, in the style of a model
    breakdown: each child group with its share of the root."""
    total, groups = spans.children_by_name("build")
    covered = sum(sum(v) for v in groups.values())
    lines = [f"build {total:.3f} s (child spans cover {100 * covered / total:.1f}%)"]
    for name, values in sorted(groups.items(), key=lambda kv: -sum(kv[1])):
        label = f"{name} x{len(values)}"
        lines.append(f"  ├─ {label:28s} {sum(values):9.4f} s  {100 * sum(values) / total:5.1f}%")
    lines.append(f"  └─ {'(self)':28s} {total - covered:9.4f} s  {100 * (total - covered) / total:5.1f}%")
    return lines


def offline_build(seed: int, seconds: float, spans: Spans, sizes: Sizes, artifact: Path) -> Outcome:
    out = Outcome("offline-build")
    device = Device.r9_nano()
    runner_config = RunnerConfig(seed=2020 + seed)

    def set_up() -> BenchmarkRunner:
        extract_dataset_shapes()
        return BenchmarkRunner(device, runner_config=runner_config)

    runner = repeat_setup(out, set_up, sizes.setup_s)

    sweep = Sweep(runner, spans)
    deadline = time.perf_counter() + seconds
    evaluations, deployed = [], []
    prune_s, fit_s, compile_s = [], [], []
    with spans.span("build"):
        with spans.span("workloads.extract") as extract:
            shapes = extract_dataset_shapes()[0][:: sizes.shape_stride]
        dataset, swept_seconds = sweep.table(shapes)
        for j in range(SPLITS):
            split_seed = SPLITS * seed + j
            with spans.span("core.dataset.split"):
                train_set, test_set = dataset.split(test_size=TEST_SIZE, random_state=split_seed)
            with spans.span("core.pruning.select") as prune:
                pruned = DecisionTreePruner().select(train_set, BUDGET)
            with spans.span("core.selection.fit") as fit:
                selector = make_selector("DecisionTree", pruned, random_state=split_seed)
                selector.fit(train_set)
            with spans.span("core.selection.evaluate"):
                evaluations.append(evaluate_selector(selector, test_set))
            with spans.span("codegen.compile") as timing:
                built = DeployedSelector(KernelLibrary(selector.pruned.configs), selector)
                compiled = built.compiled()
            deployed.append((built, compiled))
            prune_s.append(prune.seconds)
            fit_s.append(fit.seconds)
            compile_s.append(timing.seconds)
        with spans.span("pipeline.mapped"):
            write_mapped_selector(deployed[0][0], artifact)
            t0 = time.perf_counter()
            shipped = DeployedSelector.from_mapped(artifact)
            load_s = time.perf_counter() - t0
    dataset_windows = len(sweep.windows)

    # Sweep fresh shapes until the run's time is up, so the rate is
    # measured for the same time however fast the sweep becomes.
    extra: List = []
    chunk = 0
    while time.perf_counter() < deadline or len(sweep.windows) - dataset_windows < sizes.min_extra_windows:
        if len(extra) < WINDOW_SHAPES:
            extra += random_gemm_shapes(64, random_state=seed * 1_000_003 + chunk)
            chunk += 1
        window, extra = extra[:WINDOW_SHAPES], extra[WINDOW_SHAPES:]
        # In a traced run, every other extra window goes untraced.
        sweep.window(window, traced=len(sweep.windows) % 2 == 0)

    windows = sweep.windows
    put_timed(out, "ops_per_s", "1/s", [(w.cells / w.seconds, w.ref) for w in windows], rate=True)
    # Each sweep window is a latency window of its own: one shape's sweep.
    put_timed(out, "p50_us", "us", [(w.seconds / w.shapes * 1e6, w.ref) for w in windows])
    put_tail(out, [w.seconds / w.shapes for w in windows])
    out.put("env.ref_ops_per_s", median([w.ref for w in windows]), "1/s")
    sweep_s = sum(w.seconds for w in windows[:dataset_windows])
    out.put("workloads.extract_s", extract.seconds, "s")
    out.put("bench.sweep_s", sweep_s, "s")
    out.put("bench.failed_cells", dataset.n_failed_cells, "count")
    put_tree(out, deployed[0][0].selector)
    out.put("core.pruning.select_s", median(prune_s), "s")
    out.put("core.selection.fit_s", median(fit_s), "s")
    out.put("codegen.compile_s", median(compile_s), "s")
    out.put("pipeline.mapped.load_s", load_s, "s")
    out.put("selector_geomean", sum(e.score for e in evaluations) / SPLITS, "fraction")
    out.put("core.pruning.ceiling", sum(e.ceiling for e in evaluations) / SPLITS, "fraction")
    out.put("core.selection.top1", sum(e.accuracy for e in evaluations) / SPLITS, "fraction")
    out.put("gen.late_frac", 0.0, "fraction")

    # -- checks --------------------------------------------------------------
    cells = dataset.n_shapes * dataset.n_configs
    out.count("swept cells are finite", cells, dataset.n_failed_cells)
    wins = np.sort(dataset.win_counts())[::-1]
    winners = int(np.count_nonzero(wins))
    out.put("core.dataset.winners", winners, "count")
    out.put("core.dataset.dominant_ratio", wins[0] / max(wins[1], 1), "ratio")
    if sizes.shape_stride == 1:
        out.count(f"at least {MIN_WINNERS} distinct winning configs", 1, int(winners < MIN_WINNERS))
    out.count("swept seconds within the noise band", BAND_CELLS, band_violations(runner, dataset, swept_seconds, seed))
    mismatched = 0
    for built, compiled in deployed:
        reference = built.select_batch(dataset.shapes)
        mismatched += sum(compiled.select(s) != r for s, r in zip(dataset.shapes, reference))
    out.count("compiled decisions equal the NumPy selector's", len(deployed) * dataset.n_shapes, mismatched)
    shipped_mismatch = sum(
        a != b for a, b in zip(shipped.select_batch(dataset.shapes), deployed[0][0].select_batch(dataset.shapes))
    )
    out.count("the mapped artifact decides as the built selector", dataset.n_shapes, shipped_mismatch)

    if spans.enabled:
        cell_us = put_probe(out, runner, dataset.shapes, seed, sizes)
        out.put("perfmodel.share", cells * cell_us * 1e-6 / sweep_s, "fraction")
        # The serving layers do no work in this workload; the ladder
        # probes them on the selector it built and shipped.
        stream = ShapeStream(dataset.shapes, skew=ZIPF, seed=seed)
        rows = ladder(
            shipped.compiled(),
            shipped.library.configs[0],
            stream.take,
            warm_pool=dataset.shapes,
            rounds=sizes.ladder_rounds,
        )
        put_ladder(out, rows)
        out.put("serving.service.hit_ratio", rows["hit_ratio"], "fraction")
        out.put("serving.service.evictions", rows["evictions"], "count")
        extra_windows = windows[dataset_windows:]
        traced = [at_ref_speed(w.seconds / w.shapes, w.ref) for w in extra_windows if w.traced]
        untraced = [at_ref_speed(w.seconds / w.shapes, w.ref) for w in extra_windows if not w.traced]
        out.put("trace.overhead_ratio", median(traced) / median(untraced), "ratio")
        out.breakdown = build_breakdown(spans) + out.breakdown
    return out


def band_violations(runner: BenchmarkRunner, dataset, swept_seconds: np.ndarray, seed: int) -> int:
    """Seeded cells whose swept time leaves the noise band around the
    scalar model's deterministic time."""
    rng = np.random.default_rng(seed)
    rc = runner.runner_config
    width = BAND_SIGMAS * runner.model.params.noise_sigma / math.sqrt(rc.timed_iterations)
    bad = 0
    for _ in range(BAND_CELLS):
        i = int(rng.integers(dataset.n_shapes))
        j = int(rng.integers(dataset.n_configs))
        expected = runner.model.time_seconds(dataset.shapes[i], dataset.configs[j])
        swept = swept_seconds[i, j]
        if not (math.isfinite(swept) and abs(math.log(swept / expected)) <= width):
            bad += 1
    return bad


# -- the serving path ----------------------------------------------------------


class Fleet:
    """What set-up produces: the shipped selector, compiled, behind a
    two-replica router sharing one metrics registry."""

    def __init__(self, artifact: Path) -> None:
        t0 = time.perf_counter()
        self.deployed = DeployedSelector.from_mapped(artifact, verify=True)
        t1 = time.perf_counter()
        self.compiled = self.deployed.compiled()
        t2 = time.perf_counter()
        self.fallback = self.deployed.library.configs[0]
        self.router, self.services = make_fleet(self.compiled, self.fallback, MetricsRegistry())
        self.load_s, self.compile_s = t1 - t0, t2 - t1

    def counters(self) -> Dict[str, int]:
        stats = [service.stats() for service in self.services]
        return {
            "lookups": sum(s.lookups for s in stats),
            "hits": sum(s.cache_hits for s in stats),
            "evictions": sum(s.evictions for s in stats),
            "fallback_serves": sum(s.fallback_serves for s in stats),
            "rerouted": self.router.stats().rerouted,
        }


def wrong(decision, expected) -> bool:
    """A served decision is wrong if it failed, was rerouted or differs
    from the NumPy reference."""
    if decision is None or decision.rerouted:
        return True
    config = decision.config
    return config is not expected and config != expected


class ClosedLoop:
    """One caller sending the next request as soon as the last returns.

    It runs in windows between the open loop's windows; each window is
    one throughput measurement.
    """

    def __init__(self, fleet: Fleet, shapes, expected) -> None:
        self.fleet, self.shapes, self.expected = fleet, shapes, expected
        #: (requests per second, reference rate) per window.
        self.windows: List[Tuple[float, float]] = []
        self.failed = self.attempted = 0

    def window(self, k: int, seconds: float) -> int:
        """Requests from stream position ``k`` for ``seconds``; returns
        the next position."""
        select, complete = self.fleet.router.select, self.fleet.router.complete
        shapes, expected, size = self.shapes, self.expected, len(self.shapes)
        decisions: List = [None] * CLOSED_BLOCK
        clock = time.perf_counter
        start = clock()
        sent = 0
        while clock() < start + seconds:
            for j in range(CLOSED_BLOCK):
                try:
                    decision = select(shapes[(k + j) % size])
                    complete(decision.device_id)
                except Exception:
                    decision = None
                decisions[j] = decision
            sent += CLOSED_BLOCK
            # Checked outside the clock: not part of the rate.
            paused = clock()
            self.failed += sum(wrong(d, expected[(k + j) % size]) for j, d in enumerate(decisions))
            start += clock() - paused
            k += CLOSED_BLOCK
        self.windows.append((sent / (clock() - start), ref_rate()))
        self.attempted += sent
        return k


class OpenWindow(NamedTuple):
    first: int
    end: int
    ref: float
    traced: bool


def replayed_p50(dues: Sequence[float], service: Sequence[float], ref: float) -> float:
    """The p50 latency from due time of one open-loop window, replayed
    at reference speed.

    The generator serves requests one at a time, in order, so request
    i completes at ``max(due_i, done_{i-1}) + service_i``.  Replaying
    that recursion with the window's measured service times scaled to
    reference speed gives the latency the same schedule would see on a
    machine at ``REF_NOMINAL``: queueing behind slow requests counts,
    the host's speed and its descheduling of the generator do not.  A
    host at half speed doubles the utilisation of the live loop, so
    its queueing grows faster than any scaling of the measured p50
    could undo (11% spread of the scaled p50 over 20 s stretches of a
    contended spell, against 5% replayed).
    """
    done = 0.0
    latency = []
    for due, seconds in zip(dues, service):
        done = max(due, done) + at_ref_speed(seconds, ref)
        latency.append(done - due)
    return median(latency)


def request_loops(fleet: Fleet, shapes, expected, arrivals, spans: Spans, out: Outcome) -> Optional[float]:
    """The open loop, with a closed-loop window after every
    ``OPEN_WINDOW_S`` of schedule.

    Open loop: each request is sent when due, busy-waiting in
    between, and its latency counts from the due time.  The reference
    loop and the closed window pause the schedule (due times shift by
    their length).  Both loops walk one cyclic request stream, so on
    serve-cold every request, open or closed, is a shape the memo has
    not seen lately.  ``p50_us`` is the median over windows of
    :func:`replayed_p50`.  In a traced run every other open window is
    traced; returns the median traced ``router.select`` span in ns at
    reference speed (None untraced).
    """
    select, complete = fleet.router.select, fleet.router.complete
    closed = ClosedLoop(fleet, shapes, expected)
    n, size = len(arrivals), len(shapes)
    latency = [0.0] * n
    lateness = [0.0] * n
    windows: List[OpenWindow] = []
    failed = k = first = window = 0
    traced = False
    clock = time.perf_counter
    origin = clock() + 0.01
    for i, due in enumerate(arrivals):
        if due >= (window + 1) * OPEN_WINDOW_S:
            paused = clock()
            windows.append(OpenWindow(first, i, ref_rate(), traced))
            k = closed.window(k, CLOSED_WINDOW_S)
            origin += clock() - paused
            first, window = i, max(window + 1, int(due / OPEN_WINDOW_S))
            traced = spans.enabled and window % 2 == 1
        due_at = origin + due
        while clock() < due_at:
            pass
        begin = clock()
        try:
            decision = select(shapes[k % size])
            complete(decision.device_id)
        except Exception:
            decision = None
        end = clock()
        latency[i] = end - due_at
        lateness[i] = begin - due_at
        failed += wrong(decision, expected[k % size])
        k += 1
        if traced:
            request = spans.add("request", due_at, end, rid=i)
            spans.add("router.select", begin, end, parent=request, rid=i)
    windows.append(OpenWindow(first, n, ref_rate(), traced))
    closed.window(k, CLOSED_WINDOW_S)

    out.count("open-loop decisions", n, failed)
    out.count("closed-loop decisions", closed.attempted, closed.failed)
    windows = [w for w in windows if w.end > w.first]
    service = [done - wait for done, wait in zip(latency, lateness)]

    def p50(group: List[OpenWindow]) -> float:
        return median([
            replayed_p50(arrivals[w.first : w.end], service[w.first : w.end], w.ref) for w in group
        ])

    out.put("p50_us", p50(windows) * 1e6, "us")
    out.put("raw.p50_us", median([median(latency[w.first : w.end]) for w in windows]) * 1e6, "us")
    put_timed(out, "ops_per_s", "1/s", closed.windows, rate=True)
    put_tail(out, latency)
    out.put("env.ref_ops_per_s", median([w.ref for w in windows] + [r for _, r in closed.windows]), "1/s")
    late = sorted(lateness)
    out.put("gen.late_frac", sum(x > LATE_S for x in late) / n, "fraction")
    out.put("gen.late_p99_us", quantile(late, 0.99) * 1e6, "us")
    if not spans.enabled:
        return None
    traced_windows = [w for w in windows if w.traced]
    untraced_windows = [w for w in windows if not w.traced]
    out.put("trace.overhead_ratio", p50(traced_windows) / p50(untraced_windows), "ratio")
    service_ns = [at_ref_speed(service[i] * 1e9, w.ref) for w in traced_windows for i in range(w.first, w.end)]
    waits = [lateness[i] for w in traced_windows for i in range(w.first, w.end)]
    out.breakdown.append(
        f"open-loop request (median of traced requests): {median(service_ns) / 1e3:.2f} us sent to done "
        f"at reference speed, after {median(waits) * 1e6:.2f} us waiting to be sent"
    )
    return median(service_ns)


def batch_loop(fleet: Fleet, chunks, expected, seconds: float, spans: Spans, out: Outcome) -> Optional[float]:
    """One caller, ``select_batch`` back to back, in windows of
    ``BATCH_WINDOW_S``: p50 per call, and shapes per second of calls.
    In a traced run every other window is traced; returns the median
    traced call per query in ns at reference speed (None untraced)."""
    select_batch = fleet.router.select_batch
    latency: List[float] = []
    p50s: List[Tuple[float, float]] = []
    rates: List[Tuple[float, float]] = []
    traced_p50: Dict[bool, List[float]] = {False: [], True: []}
    failed = attempted = c = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline or len(p50s) < 2:
        traced = spans.enabled and len(p50s) % 2 == 1
        calls: List[float] = []
        window_end = clock() + BATCH_WINDOW_S
        while clock() < window_end:
            k = c % len(chunks)
            t0 = clock()
            try:
                decisions = select_batch(chunks[k])
            except Exception:
                decisions = (None,) * len(chunks[k])
            t1 = clock()
            if traced:
                spans.add("router.select_batch", t0, t1, rid=c)
            calls.append(t1 - t0)
            failed += sum(wrong(d, e) for d, e in zip(decisions, expected[k]))
            attempted += len(chunks[k])
            c += 1
        ref = ref_rate()
        p50s.append((median(calls) * 1e6, ref))
        rates.append((len(calls) * BATCH / sum(calls), ref))
        traced_p50[traced].append(at_ref_speed(median(calls), ref))
        latency += calls
    out.count("batch decisions", attempted, failed)
    put_timed(out, "p50_us", "us", p50s)
    put_timed(out, "ops_per_s", "1/s", rates, rate=True)
    put_tail(out, latency)
    out.put("env.ref_ops_per_s", median([r for _, r in p50s]), "1/s")
    out.put("gen.late_frac", 0.0, "fraction")
    if not spans.enabled:
        return None
    out.put("trace.overhead_ratio", median(traced_p50[True]) / median(traced_p50[False]), "ratio")
    return median(traced_p50[True]) * 1e9 / BATCH


@dataclass(frozen=True)
class Traffic:
    """A serving workload's inputs, all drawn from the seed."""

    #: The request stream, walked cyclically.
    shapes: List
    #: Open-loop due times in seconds (none for serve-batch).
    arrivals: List[float]
    #: Shapes pre-loaded into every memo; None for the cold workload.
    warm_pool: Optional[Tuple]


def traffic(workload: str, seed: int, seconds: float, sizes: Sizes = FULL) -> Traffic:
    """The stream and, except for serve-batch (a closed loop only), an
    open-loop schedule two thirds of ``seconds`` long (two windows at
    the least, one traced and one not); closed-loop windows fill the
    rest of the run."""
    if workload == "serve-cold":
        shapes = random_gemm_shapes(sizes.cold_pool, random_state=seed)
        warm_pool = None
    else:
        networks = BATCH_NETWORKS if workload == "serve-batch" else NETWORKS
        warm_pool = network_shape_pool(networks)
        shapes = ShapeStream(warm_pool, skew=ZIPF, seed=seed).take(sizes.stream)
    arrivals: List[float] = []
    if workload != "serve-batch":
        rate = COLD_QPS if workload == "serve-cold" else HOT_QPS
        duration = max(2 * seconds / 3, 2 * OPEN_WINDOW_S)
        arrivals = poisson_arrivals(RateProfile(base_qps=rate), duration, seed=seed)
    return Traffic(shapes, arrivals, warm_pool)


def serve(workload: str, seed: int, seconds: float, spans: Spans, sizes: Sizes, artifact: Path) -> Outcome:
    out = Outcome(workload)
    write_mapped_selector(synthetic_deployed(budget=BUDGET, seed=seed), artifact)
    loads, compiles = [], []

    def set_up() -> Fleet:
        fleet = Fleet(artifact)
        loads.append(fleet.load_s)
        compiles.append(fleet.compile_s)
        return fleet

    fleet = repeat_setup(out, set_up, sizes.setup_s)
    out.put("pipeline.mapped.load_s", median(loads), "s")
    out.put("codegen.compile_s", median(compiles), "s")
    put_tree(out, fleet.deployed.selector)

    # Inputs and their NumPy-path references, before any timing.
    inputs = traffic(workload, seed, seconds, sizes)
    shapes, warm_pool = inputs.shapes, inputs.warm_pool
    distinct = warm_pool if warm_pool is not None else shapes
    reference = dict(zip(distinct, fleet.deployed.select_batch(distinct)))
    expected = [reference[s] for s in shapes]
    if warm_pool is not None:
        for service in fleet.services:
            service.select_batch(warm_pool)
    before = fleet.counters()

    if workload == "serve-batch":
        chunks = [tuple(shapes[i : i + BATCH]) for i in range(0, len(shapes), BATCH)]
        chunk_expected = [expected[i : i + BATCH] for i in range(0, len(shapes), BATCH)]
        span_ns = batch_loop(fleet, chunks, chunk_expected, seconds, spans, out)
        span_name = "router.select_batch"
    else:
        span_ns = request_loops(fleet, shapes, expected, inputs.arrivals, spans, out)
        span_name = "router.select"

    after = fleet.counters()
    delta = {name: after[name] - before[name] for name in after}
    out.put("serving.service.hit_ratio", delta["hits"] / delta["lookups"], "fraction")
    out.put("serving.service.evictions", delta["evictions"], "count")
    out.put("serving.service.fallback_serves", delta["fallback_serves"], "count")
    # A fallback answer can match the reference by chance; it still fails.
    out.count("answers served by a fallback", 0, delta["fallback_serves"])
    out.put("serving.router.rerouted", delta["rerouted"], "count")

    if spans.enabled:
        if warm_pool is None:
            walk = itertools.cycle(shapes)

            def next_block(n: int) -> List:
                return list(itertools.islice(walk, n))

        else:
            next_block = ShapeStream(warm_pool, skew=ZIPF, seed=seed + 1).take
        rows = ladder(
            fleet.compiled, fleet.fallback, next_block, warm_pool=warm_pool, rounds=sizes.ladder_rounds
        )
        put_ladder(out, rows, (span_name, span_ns))
        # The perf model does no work in this workload; probe it as the
        # offline build's runner would call it.
        runner = BenchmarkRunner(Device.r9_nano(), runner_config=RunnerConfig(seed=2020 + seed))
        put_probe(out, runner, extract_dataset_shapes()[0], seed, sizes)
    return out


def run_workload(workload: str, seed: int, seconds: float, spans: Spans, sizes: Sizes = FULL) -> Outcome:
    """One run; the selector artifact it ships lives in a directory of
    the benchmark's own, removed when the run ends."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".artifact-", dir=HERE) as directory:
        if workload == "offline-build":
            return offline_build(seed, seconds, spans, sizes, Path(directory))
        return serve(workload, seed, seconds, spans, sizes, Path(directory))
