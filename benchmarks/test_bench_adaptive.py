"""Adaptive-layer gates: warm-path overhead and drift gap closure.

Two claims back the adaptive layer's deployment story:

* the warm admitted path (no trial pending, no override) costs < 5%
  on the serving request path — measured end to end through the fleet
  router, the path live traffic actually takes — with absolute
  added-latency guards on the raw service ``select``/``select_batch``
  wrappers (all interleaved best-of-N so machine noise hits both
  sides equally, the ``test_bench_obs.py`` idiom) and on the wrapper
  alone, timed against the inner service call it ends in;
* on the drifted synthetic workload the adaptive loop closes >= 50% of
  the static-to-oracle geomean gap (the figure the CLI smoke gate also
  enforces via ``repro loadgen run --adaptive --min-gap-closure``).
"""

import operator
import statistics
import time

import pytest

from repro.adaptive import AdaptiveConfig
from repro.core.deploy import tune
from repro.loadgen import replay_drift, synthetic_fleet
from repro.loadgen.workload import network_shape_pool
from repro.obs import MetricsRegistry
from repro.serving import AdaptiveSelectionService, SelectionService

N_QUERIES = 10_000
ROUNDS = 22
#: Paired rounds of the serving-path gate, each ``SERVE_REPEATS``
#: passes over its 12-shape pool (~40 ms a side on a 2-vCPU host).
SERVE_ROUNDS = 61
SERVE_REPEATS = 400
MAX_WARM_PATH_OVERHEAD = 0.05
MAX_SINGLE_ADDED_US = 2.0
MAX_BATCH_ADDED_US_PER_ITEM = 1.5
#: Paired rounds of the wrapper-alone gate, each ``WRAPPER_REPEATS``
#: passes over its 12-shape pool (~35-60 ms a side on a 2-vCPU host).
WRAPPER_ROUNDS = 51
WRAPPER_REPEATS = 2000
#: Twelve runs on a 2-vCPU host read +0.31 to +0.60 us (median 0.45).
MAX_WRAPPER_ADDED_US = 1.0
MIN_GAP_CLOSURE = 0.5

#: The adaptive knobs that pin every request to the warm admitted,
#: non-trial path: threshold 1 admits on first sight, trial_fraction 0
#: never arms a challenger, and with no feedback nothing ever promotes.
WARM_ONLY = AdaptiveConfig(trial_fraction=0.0, admission_threshold=1)


@pytest.fixture(scope="module")
def deployed(split):
    train, _ = split
    return tune(train, n_configs=8, random_state=0)


@pytest.fixture(scope="module")
def query_shapes(split):
    _, test = split
    shapes = list(test.shapes)
    reps = -(-N_QUERIES // len(shapes))
    return tuple((shapes * reps)[:N_QUERIES])


def _best_of_interleaved(fn_a, fn_b, rounds):
    """Best-of-``rounds`` wall time for each callable, interleaved."""
    best_a = best_b = float("inf")
    for round_index in range(rounds):
        pair = ((fn_a, "a"), (fn_b, "b"))
        if round_index % 2:
            pair = tuple(reversed(pair))
        for fn, side in pair:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if side == "a":
                best_a = min(best_a, elapsed)
            else:
                best_b = min(best_b, elapsed)
    return best_a, best_b


def _paired_times(fn_test, fn_base, rounds):
    """Per-round wall times of two callables, paired, alternating order.

    One untimed round of each side comes first, so neither side's first
    timed round pays for cold caches.  Each round then times the two
    callables back to back, so slow machine drift (thermal throttling,
    background load) hits both sides of a pair equally.  Returns the
    two lists of times, index-aligned by round.
    """
    fn_test()
    fn_base()
    test_times = []
    base_times = []
    for round_index in range(rounds):
        pair = [(test_times, fn_test), (base_times, fn_base)]
        if round_index % 2:
            pair.reverse()
        for times, fn in pair:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return test_times, base_times


def _paired_overhead(fn_test, fn_base, rounds):
    """Median of per-round paired time ratios.

    The median over rounds keeps any single noisy round from moving
    the estimate.  Returns ``median(test / base) - 1`` plus the two
    median wall times for reporting.
    """
    test_times, base_times = _paired_times(fn_test, fn_base, rounds)
    ratios = map(operator.truediv, test_times, base_times)
    return (
        statistics.median(ratios) - 1.0,
        statistics.median(test_times),
        statistics.median(base_times),
    )


def _warm_adaptive(deployed, registry):
    """An adaptive service pinned to the admitted, non-trial path."""
    inner = SelectionService(
        deployed, capacity=16384, registry=registry, name="bench"
    )
    return AdaptiveSelectionService(inner, config=WARM_ONLY, registry=registry)


def test_bench_adaptive_warm_serving_path_overhead(benchmark):
    """The ISSUE gate: < 5% on the end-to-end warm serving path.

    Two identical synthetic fleets — one static, one wrapped in the
    adaptive layer with every shape admitted and exploration off — serve
    the same warm shape pool through their routers.  The adaptive fleet
    must stay within 5% of the static fleet per request.
    """
    pool = network_shape_pool()[:12]
    static = synthetic_fleet(replicas=2, budget=4, seed=0)
    adaptive = synthetic_fleet(
        replicas=2, budget=4, seed=0, adaptive=WARM_ONLY
    )

    def warm(fleet):
        for shape in pool:
            for _ in range(3):  # admit on every replica and fill memos
                decision = fleet.router.select(shape)
                fleet.router.complete(decision.device_id)

    warm(static)
    warm(adaptive)

    def serve_loop(fleet):
        router = fleet.router

        def run():
            for _ in range(SERVE_REPEATS):
                for shape in pool:
                    decision = router.select(shape)
                    router.complete(decision.device_id)

        return run

    overhead, adaptive_s, static_s = _paired_overhead(
        serve_loop(adaptive), serve_loop(static), SERVE_ROUNDS
    )
    benchmark.pedantic(serve_loop(adaptive), rounds=3, iterations=1)

    per_request = SERVE_REPEATS * len(pool)
    print(
        f"\nwarm serving path: adaptive "
        f"{adaptive_s / per_request * 1e6:.2f} us/req, static "
        f"{static_s / per_request * 1e6:.2f} us/req -> "
        f"{overhead * 100:+.2f}% overhead"
    )
    assert overhead < MAX_WARM_PATH_OVERHEAD

    # The whole run stayed on the admitted non-trial path.
    for service in adaptive.services.values():
        stats = service.adaptive_stats()
        assert stats.trials == 0
        assert stats.active_overrides == 0


def test_bench_adaptive_wrapper_added_latency(benchmark, deployed, split):
    """Per-call cost of the warm admitted adaptive wrapper alone.

    The inner service serves the compiled tree directly, so a warm
    admitted ``select`` ends in ``inner.select(shape, key, base)``.  The
    baseline makes exactly that call, so the difference is the
    wrapper's own work: the key tuple, the state lookup, the hit tick,
    the slot reads and one frame.  Both sides walk the same item list,
    so loop overhead cancels.
    """
    registry = MetricsRegistry()
    inner = SelectionService(deployed.compiled(), registry=registry)
    adaptive = AdaptiveSelectionService(
        inner,
        config=WARM_ONLY,
        registry=registry,
        candidates=deployed.library.configs,
    )
    _, test = split
    items = [
        (shape, shape.as_tuple(), inner.select(shape))
        for shape in test.shapes[:12]
    ]
    for shape, _, base in items:
        assert adaptive.select(shape) == base  # admits on first sight

    def adaptive_loop():
        select = adaptive.select
        for _ in range(WRAPPER_REPEATS):
            for shape, key, base in items:
                select(shape)

    def bare_loop():
        select = inner.select
        for _ in range(WRAPPER_REPEATS):
            for shape, key, base in items:
                select(shape, key, base)

    # The absolute difference, not a ratio: the bare call may itself
    # get faster, and that must not fail the wrapper's gate.
    adaptive_times, bare_times = _paired_times(
        adaptive_loop, bare_loop, WRAPPER_ROUNDS
    )
    added_s = statistics.median(
        map(operator.sub, adaptive_times, bare_times)
    )
    adaptive_s = statistics.median(adaptive_times)
    bare_s = statistics.median(bare_times)
    benchmark.pedantic(adaptive_loop, rounds=3, iterations=1)

    calls = WRAPPER_REPEATS * len(items)
    added_us = added_s / calls * 1e6
    benchmark.extra_info["added_us"] = added_us
    print(
        f"\nwarm admitted wrapper: adaptive "
        f"{adaptive_s / calls * 1e6:.3f} us/call, bare inner "
        f"{bare_s / calls * 1e6:.3f} us/call -> +{added_us:.3f} us"
    )
    assert added_us < MAX_WRAPPER_ADDED_US

    # Every call stayed on the admitted non-trial path.
    stats = adaptive.adaptive_stats()
    assert stats.trials == 0
    assert stats.active_overrides == 0
    assert stats.tracked_shapes == len(items)


def test_bench_adaptive_single_select_added_latency(
    benchmark, deployed, query_shapes
):
    """Per-call added latency of the bare warm select wrapper."""
    adaptive = _warm_adaptive(deployed, MetricsRegistry())
    bare = SelectionService(deployed, registry=MetricsRegistry())
    shape = query_shapes[0]
    adaptive.select(shape)
    bare.select(shape)

    def hot_loop(service):
        def run():
            for _ in range(1000):
                service.select(shape)

        return run

    adaptive_s, bare_s = _best_of_interleaved(
        hot_loop(adaptive), hot_loop(bare), ROUNDS
    )
    benchmark.pedantic(hot_loop(adaptive), rounds=3, iterations=1)

    added_us = (adaptive_s - bare_s) / 1000 * 1e6
    print(
        f"\n1000 single warm selects: adaptive {adaptive_s * 1e3:7.2f} ms, "
        f"bare {bare_s * 1e3:7.2f} ms -> +{added_us:.3f} us per call"
    )
    # Relative overhead on a sub-microsecond memo hit is the wrong
    # yardstick for the raw wrapper (the 5% gate is the serving-path
    # test above); what matters here is the absolute added work staying
    # far below a kernel launch (~5 us and up).
    assert added_us < MAX_SINGLE_ADDED_US


def test_bench_adaptive_warm_batch_added_latency(
    benchmark, deployed, query_shapes
):
    """Per-item added latency of the warm select_batch wrapper."""
    adaptive = _warm_adaptive(deployed, MetricsRegistry())
    bare = SelectionService(
        deployed, capacity=16384, registry=MetricsRegistry(), name="bench"
    )
    # Warm both memo caches AND admit every shape (threshold 1).
    expected = adaptive.select_batch(query_shapes)
    assert bare.select_batch(query_shapes) == expected
    stats = adaptive.adaptive_stats()
    assert stats.tracked_shapes == len(set(query_shapes))

    adaptive_s, bare_s = _best_of_interleaved(
        lambda: adaptive.select_batch(query_shapes),
        lambda: bare.select_batch(query_shapes),
        ROUNDS,
    )
    benchmark.pedantic(
        adaptive.select_batch, args=(query_shapes,), rounds=3, iterations=1
    )

    added_us = (adaptive_s - bare_s) / N_QUERIES * 1e6
    print(
        f"\n{N_QUERIES} warm batch queries: adaptive "
        f"{adaptive_s * 1e3:7.2f} ms, bare {bare_s * 1e3:7.2f} ms -> "
        f"+{added_us:.3f} us per item"
    )
    assert added_us < MAX_BATCH_ADDED_US_PER_ITEM

    # The whole run stayed on the non-trial path.
    stats = adaptive.adaptive_stats()
    assert stats.trials == 0
    assert stats.active_overrides == 0


def test_bench_adaptive_drift_gap_closure(benchmark):
    """The adaptive loop closes >= 50% of the static-to-oracle gap."""
    report = benchmark.pedantic(
        lambda: replay_drift(steps=3000, seed=0),
        rounds=1,
        iterations=1,
    )
    summary = report.summary
    print(
        f"\ndrift replay: closure {summary.gap_closure:.1%} "
        f"(adaptive {summary.adaptive_geomean_s * 1e3:.3f} ms, "
        f"static {summary.static_geomean_s * 1e3:.3f} ms, "
        f"oracle {summary.oracle_geomean_s * 1e3:.3f} ms), "
        f"{summary.promotions} promotions, {summary.demotions} demotions"
    )
    assert summary.gap_closure >= MIN_GAP_CLOSURE
    assert summary.promotions > 0
    # Bit-identical determinism: the same seed reproduces the digest.
    assert (
        replay_drift(steps=3000, seed=0).result.digest()
        == report.result.digest()
    )
