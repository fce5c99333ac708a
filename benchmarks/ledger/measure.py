"""Measurement helpers for the ledger: reference speed, spans, quantiles
and layer probes.

Everything here times calls into public functions from the outside;
nothing reaches into the program.  The probes answer per-layer
questions the end-to-end loops cannot: what one perf-model cell costs,
and what each layer of the serving stack adds on top of the layer
below it (the "ladder").
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.serving.router import FleetRouter
from repro.serving.service import SelectionService

#: Iterations of the reference loop; one measurement takes ~3 ms.
REF_ITERATIONS = 500

#: The reference speed timings are scaled to, in reference-loop
#: iterations per second.  Any constant would do: both sides of a
#: comparison use it.
REF_NOMINAL = 150_000.0

#: Calls per ladder block: long enough that the two clock reads around
#: a block cost well under 1% of it, even for the ~0.3 us compiled tree.
LADDER_BLOCK = 256

#: Perf-model probe cells per timed block.
PROBE_BLOCK = 256

#: Queries per batch call on the ladder and in serve-batch.
BATCH = 64

#: Replicas behind the router in every fleet the ledger builds.
REPLICAS = 2


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of already-sorted values."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def ref_rate() -> float:
    """Reference-loop iterations per second, measured now.

    The loop is small NumPy calls from Python, the mix the perf model
    and the serving stack are made of.  The VMs this runs on change
    speed by 20% or more for minutes at a time; over seven minutes of
    alternating blocks, serving, sweep and this loop slowed together,
    so a time multiplied by this rate varied by about 1% where the raw
    time varied by 10% (``workloads.put_timed``).
    """
    values = np.arange(8.0)
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        float(np.mean(np.clip(values, 1.0, 5.0)))
    return REF_ITERATIONS / (time.perf_counter() - start)


class Timing:
    """Handle yielded by :meth:`Spans.span`; holds the block's duration."""

    __slots__ = ("start", "seconds")

    def __init__(self, start: float) -> None:
        self.start = start
        self.seconds = 0.0


class Spans:
    """Spans recorded by the benchmark around its calls into each layer.

    A span is ``(id, parent, name, start, end, request id)``.  Spans are
    kept in memory and written out once, at exit.  ``span()`` always
    times its block (the workloads need the durations either way) but
    records it only when tracing is on.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Tuple[int, Optional[int], str, float, float, Optional[int]]] = []
        self._stack: List[int] = []
        self._next_id = 1

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    @contextmanager
    def span(self, name: str) -> Iterator[Timing]:
        timing = Timing(time.perf_counter())
        if not self.enabled:
            yield timing
            timing.seconds = time.perf_counter() - timing.start
            return
        parent = self._stack[-1] if self._stack else None
        sid = self._new_id()
        self._stack.append(sid)
        try:
            yield timing
        finally:
            end = time.perf_counter()
            self._stack.pop()
            timing.seconds = end - timing.start
            self.records.append((sid, parent, name, timing.start, end, None))

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
    ) -> int:
        """Record a span timed by the caller; returns its id."""
        sid = self._new_id()
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.records.append((sid, parent, name, start, end, rid))
        return sid

    def write(self, path: str) -> None:
        fields = ("id", "parent", "name", "start", "end", "request")
        with open(path, "w") as fh:
            json.dump(
                [dict(zip(fields, rec)) for rec in sorted(self.records)], fh
            )

    def children_by_name(self, root_name: str) -> Tuple[float, Dict[str, List[float]]]:
        """The first ``root_name`` span's duration and its children's
        durations grouped by name."""
        root = min(r for r in self.records if r[2] == root_name)
        groups: Dict[str, List[float]] = {}
        for _, parent, name, start, end, _ in self.records:
            if parent == root[0]:
                groups.setdefault(name, []).append(end - start)
        return root[4] - root[3], groups


def make_fleet(policy, fallback, registry: MetricsRegistry) -> Tuple[FleetRouter, List[SelectionService]]:
    """``REPLICAS`` memoising services over one policy behind a
    round-robin router, all writing into ``registry``."""
    router = FleetRouter(default_policy="round-robin", registry=registry)
    services = []
    for i in range(REPLICAS):
        service = SelectionService(
            policy, capacity=4096, fallback=fallback, registry=registry, name=f"dev{i}"
        )
        router.add_device(f"dev{i}", service)
        services.append(service)
    return router, services


def at_ref_speed(value: float, ref: float, *, rate: bool = False) -> float:
    """A time (or, with ``rate``, a rate) measured while the reference
    loop ran at ``ref``, as it would read at ``REF_NOMINAL``."""
    return value * REF_NOMINAL / ref if rate else value * ref / REF_NOMINAL


def perfmodel_probe(runner, shapes, seed: int, *, cells: int) -> Tuple[float, float]:
    """Per-cell cost of the perf model, in microseconds at reference
    speed.

    Returns ``(cell_us, time_us)``: a noisy measured cell as the sweep
    takes it (``measured_times_seconds`` with the runner's iteration
    counts) and the deterministic ``time_seconds`` alone, each the
    median over interleaved blocks of seeded (shape, config) cells,
    each block scaled by a reference sample taken right after it.
    """
    rng = random.Random(seed)
    configs = runner.configs
    model = runner.model
    rc = runner.runner_config
    pairs = [(rng.choice(shapes), rng.choice(configs)) for _ in range(cells)]
    measured, deterministic = [], []
    for lo in range(0, cells, PROBE_BLOCK):
        chunk = pairs[lo : lo + PROBE_BLOCK]
        start = time.perf_counter()
        for shape, config in chunk:
            model.measured_times_seconds(
                shape, config, iterations=rc.timed_iterations, start_iteration=rc.warmup_iterations
            )
        mid = time.perf_counter()
        for shape, config in chunk:
            model.time_seconds(shape, config)
        end = time.perf_counter()
        ref = ref_rate()
        measured.append(at_ref_speed((mid - start) / len(chunk) * 1e6, ref))
        deterministic.append(at_ref_speed((end - mid) / len(chunk) * 1e6, ref))
    return median(measured), median(deterministic)


def ladder(
    compiled,
    fallback,
    next_block: Callable[[int], List],
    *,
    warm_pool: Optional[Sequence] = None,
    rounds: int = 64,
) -> Dict[str, float]:
    """Time each serving layer on the same shapes, in blocks.

    Each round draws ``LADDER_BLOCK`` shapes from ``next_block`` and
    runs them through: the compiled tree, a ``SelectionService`` over
    it, the same service on ``NULL_REGISTRY`` (no metrics), and a
    two-replica ``FleetRouter`` (``select`` + ``complete``, as a
    request does); then the batch path, ``BATCH`` shapes per call,
    through a service and a router.  Every layer gets its own fresh
    instances, so with ``warm_pool`` (pre-loaded into every memo) each
    lookup hits, and without it each fresh shape misses.

    A service consults the compiled tree only on a miss, so the tree's
    share of a lookup is its block time times the service's miss ratio
    (0 on warm hits), and the service's self time is its block minus
    that share.  The router's self time is its block minus the
    service's.  Self times are taken per round, scaled to reference
    speed by a reference sample right after the round, and then the
    median over rounds; all values are nanoseconds per query.  By
    construction the self times add up to the router's block; whether
    the ladder reproduces a real request is checked against the traced
    request spans (``workloads.put_ladder``).
    """
    registry = MetricsRegistry()
    service = SelectionService(compiled, capacity=4096, fallback=fallback, registry=registry, name="ladder")
    null_service = SelectionService(compiled, capacity=4096, fallback=fallback, registry=NULL_REGISTRY)
    router, router_services = make_fleet(compiled, fallback, MetricsRegistry())
    batch_service = SelectionService(compiled, capacity=4096, fallback=fallback, registry=MetricsRegistry())
    batch_router, batch_router_services = make_fleet(compiled, fallback, MetricsRegistry())
    if warm_pool is not None:
        for memo in (service, null_service, batch_service, *router_services, *batch_router_services):
            memo.select_batch(warm_pool)

    c_select = compiled.select
    s_select = service.select
    n_select = null_service.select
    r_select = router.select
    r_complete = router.complete
    b_select = batch_service.select_batch
    br_select = batch_router.select_batch
    rows: Dict[str, List[float]] = {
        name: []
        for name in (
            "compiled", "service", "null", "router", "batch", "router_batch",
            "compiled_share", "service_self", "router_self", "metrics", "router_batch_self", "ref",
        )
    }
    warm = service.stats()
    for _ in range(rounds):
        shapes = next_block(LADDER_BLOCK)
        chunks = [tuple(shapes[i : i + BATCH]) for i in range(0, LADDER_BLOCK, BATCH)]
        before = service.stats()
        t0 = time.perf_counter()
        for shape in shapes:
            c_select(shape)
        t1 = time.perf_counter()
        for shape in shapes:
            s_select(shape)
        t2 = time.perf_counter()
        for shape in shapes:
            n_select(shape)
        t3 = time.perf_counter()
        for shape in shapes:
            r_complete(r_select(shape).device_id)
        t4 = time.perf_counter()
        for chunk in chunks:
            b_select(chunk)
        t5 = time.perf_counter()
        for chunk in chunks:
            br_select(chunk)
        t6 = time.perf_counter()
        after = service.stats()
        lookups = after.lookups - before.lookups
        miss_ratio = 1.0 - (after.cache_hits - before.cache_hits) / lookups
        ref = ref_rate()
        scale = at_ref_speed(1e9 / LADDER_BLOCK, ref)
        compiled_ns, service_ns = (t1 - t0) * scale, (t2 - t1) * scale
        null_ns, router_ns = (t3 - t2) * scale, (t4 - t3) * scale
        batch_ns, router_batch_ns = (t5 - t4) * scale, (t6 - t5) * scale
        rows["compiled"].append(compiled_ns)
        rows["service"].append(service_ns)
        rows["null"].append(null_ns)
        rows["router"].append(router_ns)
        rows["batch"].append(batch_ns)
        rows["router_batch"].append(router_batch_ns)
        rows["compiled_share"].append(compiled_ns * miss_ratio)
        rows["service_self"].append(service_ns - compiled_ns * miss_ratio)
        rows["router_self"].append(router_ns - service_ns)
        rows["metrics"].append(service_ns - null_ns)
        rows["router_batch_self"].append(router_batch_ns - batch_ns)
        rows["ref"].append(ref)
    result = {name: median(values) for name, values in rows.items()}
    done = service.stats()
    result["hit_ratio"] = (done.cache_hits - warm.cache_hits) / (done.lookups - warm.lookups)
    result["evictions"] = float(done.evictions - warm.evictions)
    return result
