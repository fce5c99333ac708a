"""Fleet routing throughput: batched dispatch vs per-query dispatch.

A 10k-query mixed workload (half targeted at a specific device, half
device-agnostic) over a four-device fleet, served three ways:

* ``loops``  — the pre-router architecture: one independent
  :class:`SelectionService` per device, a hand-rolled dispatch loop
  calling ``select()`` per query.  No placement policy, no health
  tracking, no cross-device fallback — the cheapest possible reference;
* ``select`` — the router's per-query path: full policy placement and
  breaker checks on every call;
* ``batch``  — the router's ``select_batch``: one planning pass under
  one lock records each shape's first-choice device, then each device
  answers its share in one service call; once per routing policy.

The batch path must beat per-query routing >= 1.5x with identical
targeted answers; the independent-loops number is printed for
reference, as per-query serving without any routing features.

A serving loop also reports each finished request with
``FleetRouter.complete``; on a warm synthetic fleet one such call must
cost at most a fifth of the routed ``select`` it follows.
"""

import statistics
import time

import pytest

from repro.bench.runner import RunnerConfig
from repro.fleet import FleetPipelineConfig, router_from_store, run_fleet_pipeline
from repro.kernels.params import config_space
from repro.loadgen import synthetic_fleet
from repro.loadgen.workload import network_shape_pool
from repro.pipeline import ArtifactStore
from repro.serving import ROUTING_POLICIES

N_QUERIES = 10_000
FLEET = ("r9-nano", "compute-heavy", "bandwidth-lean", "latency-bound")
#: Interleaved rounds of the complete-cost gate, each ``COMPLETE_REPEATS``
#: passes over its 12-shape pool.
COMPLETE_ROUNDS = 31
COMPLETE_REPEATS = 200
MAX_COMPLETE_TO_SELECT = 0.2


@pytest.fixture(scope="module")
def fleet_config():
    return FleetPipelineConfig(
        device_ids=FLEET,
        networks=("mobilenet_v2",),
        runner=RunnerConfig(warmup_iterations=1, timed_iterations=3),
        configs=config_space(
            tile_sizes=(1, 2, 4),
            work_groups=((8, 8), (1, 64), (16, 16), (64, 1)),
        ),
    )


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory, fleet_config):
    store = ArtifactStore(tmp_path_factory.mktemp("fleet-bench") / "store")
    run_fleet_pipeline(store, fleet_config)
    return store


@pytest.fixture(scope="module")
def workload(fleet_config):
    """10k mixed queries: (device_id or None, shape), deterministic."""
    from repro.workloads.extract import extract_network_shapes

    shapes = list(extract_network_shapes("mobilenet_v2").shapes)
    queries = []
    for i in range(N_QUERIES):
        shape = shapes[i % len(shapes)]
        target = FLEET[i % len(FLEET)] if i % 2 else None
        queries.append((target, shape))
    return tuple(queries)


def _loop_baseline(router, workload):
    """Independent per-device service loops with hand-rolled dispatch."""
    services = {did: router.service(did) for did in FLEET}
    cursor = 0
    out = []
    for target, shape in workload:
        if target is None:
            target = FLEET[cursor % len(FLEET)]
            cursor += 1
        out.append((target, services[target].select(shape)))
    return out


def _route_per_query(router, workload, policy):
    return [
        router.select(shape, device_id=target, policy=policy)
        for target, shape in workload
    ]


def _route_batched(router, workload, policy):
    """One batched call for the agnostic half, one per targeted device."""
    agnostic = [shape for target, shape in workload if target is None]
    out = list(router.select_batch(agnostic, policy=policy))
    for did in FLEET:
        targeted = [shape for target, shape in workload if target == did]
        out.extend(router.select_batch(targeted, device_id=did))
    return out


def test_bench_batched_routing_vs_per_query(
    benchmark, fleet_store, fleet_config, workload
):
    router = router_from_store(fleet_store, fleet_config)
    # Warm every memo (service caches + perf estimates) so all three
    # paths serve from identical state.
    _route_batched(router, workload, "perf-aware")

    start = time.perf_counter()
    loop_result = _loop_baseline(router, workload)
    loop_seconds = time.perf_counter() - start

    per_query = {}
    batched = {}
    for policy in ROUTING_POLICIES:
        start = time.perf_counter()
        _route_per_query(router, workload, policy)
        per_query[policy] = time.perf_counter() - start
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            decisions = _route_batched(router, workload, policy)
            best = min(best, time.perf_counter() - start)
        batched[policy] = best
        assert len(decisions) == N_QUERIES

    benchmark.pedantic(
        _route_batched,
        args=(router, workload, "round-robin"),
        rounds=3,
        iterations=1,
    )

    # Targeted queries answer identically in every architecture.
    loop_targeted = {
        (target, shape.as_tuple()): config
        for (target, shape), (_, config) in zip(workload, loop_result)
        if target is not None
    }
    routed = _route_batched(router, workload, "round-robin")
    n_agnostic = sum(1 for target, _ in workload if target is None)
    i = n_agnostic
    for did in FLEET:
        for target, shape in workload:
            if target != did:
                continue
            decision = routed[i]
            assert decision.device_id == did
            assert decision.config == loop_targeted[(did, shape.as_tuple())]
            i += 1

    lines = [
        f"{N_QUERIES} mixed queries over {len(FLEET)} devices:",
        f"  independent service loops (no routing) {loop_seconds * 1e3:8.1f} ms",
    ]
    for policy in ROUTING_POLICIES:
        speedup = per_query[policy] / batched[policy]
        lines.append(
            f"  router[{policy:17s}]  per-query {per_query[policy] * 1e3:7.1f} ms"
            f"  batched {batched[policy] * 1e3:7.1f} ms  ({speedup:4.1f}x)"
        )
    print("\n" + "\n".join(lines))

    for policy in ROUTING_POLICIES:
        assert per_query[policy] / batched[policy] >= 1.5, policy


def test_bench_perf_aware_estimate_memo(fleet_store, fleet_config, workload):
    """Perf-aware placement amortises: estimates are memoised per shape."""
    router = router_from_store(fleet_store, fleet_config)
    shapes = [shape for _, shape in workload]

    start = time.perf_counter()
    router.select_batch(shapes[:1000], policy="perf-aware")
    cold = time.perf_counter() - start

    start = time.perf_counter()
    router.select_batch(shapes[:1000], policy="perf-aware")
    warm = time.perf_counter() - start

    print(
        f"\nperf-aware 1000 queries: cold {cold * 1e3:.1f} ms, "
        f"warm {warm * 1e3:.1f} ms"
    )
    assert warm <= cold * 1.5


def test_bench_complete_cost(benchmark):
    """``complete`` costs at most a fifth of a routed ``select``.

    Each round times one pass of routed lookups over the warm pool and
    one pass of completions, alternating which goes first.  The
    completions report the lookups of the round before, so nothing is
    ever over-completed.  The gate is the median per-round ratio of
    per-call times, after one untimed round.
    """
    fleet = synthetic_fleet(replicas=2, budget=4, seed=0)
    router = fleet.router
    select = router.select
    complete = router.complete
    calls = network_shape_pool()[:12] * COMPLETE_REPEATS

    def route():
        return [select(shape) for shape in calls]

    def finish(decisions):
        for decision in decisions:
            complete(decision.device_id)

    finish(route())  # the untimed round: warms every memo
    pending = route()
    ratios = []
    for round_index in range(COMPLETE_ROUNDS):
        order = ["select", "complete"]
        if round_index % 2:
            order.reverse()
        times = {}
        for side in order:
            start = time.perf_counter()
            if side == "select":
                routed = route()
            else:
                finish(pending)
            times[side] = time.perf_counter() - start
        pending = routed
        ratios.append(times["complete"] / times["select"])
    ratio = statistics.median(ratios)

    def serve():
        finish(route())

    benchmark.pedantic(serve, rounds=3, iterations=1)
    benchmark.extra_info["complete_to_select"] = ratio
    stats = router.stats()
    assert sum(stats.outstanding.values()) == len(calls)
    print(f"\ncomplete / routed select, per call: {ratio:.3f}")
    assert ratio <= MAX_COMPLETE_TO_SELECT
