"""The ring paths of FleetRouter and the plan every other lookup takes.

While every breaker is closed, a device-agnostic round-robin lookup
reads a cached ring of devices and counts itself with lock-free ticks,
and a batch plans from that ring instead of scanning breakers.  Every
other lookup is planned by ``FleetRouter._plan``.  These tests pin
both against a reference router whose ring stays empty and which
orders each single lookup by the router's earlier per-lookup ordering,
kept here as ``_ReferenceOrder._candidates``.  The two must agree on
every decision, counter and later placement under all three policies,
through breaker trips, recoveries, service exceptions, long batches
and a device added mid-stream.  They also pin the batch path's
interned decisions and the router's counts under threads, and the
lock-free ``complete`` whose in-flight count is clamped where it is
read.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from typing import Optional, Tuple

import pytest

from repro.kernels.params import config_space
from repro.obs import MetricsRegistry
from repro.serving import FleetRouter, RoutedDecision, SelectionService
from repro.serving.router import _INTERN_CAP, _rotated
from repro.workloads.gemm import GemmShape

CONFIGS = tuple(config_space(tile_sizes=(1, 2), work_groups=((8, 8), (16, 16))))
SHAPES = tuple(
    GemmShape(m=16 * (i + 1), k=8 * (1 + i % 5), n=32) for i in range(24)
)


class _Switchable:
    """A policy the test kills and revives; answers depend on the shape."""

    def __init__(self):
        self.down = False

    def select(self, shape):
        if self.down:
            raise RuntimeError("device down")
        return CONFIGS[(shape.m + shape.k) % len(CONFIGS)]


class _Broken:
    """A policy that always raises: with no fallback and no answer to
    fall back on, its service raises too."""

    def select(self, shape):
        raise RuntimeError("broken policy")


class _ReferenceOrder(FleetRouter):
    """Reference router: its ring never fills, and every single lookup
    is ordered by ``_candidates`` under the lock, then served by the
    router's own ``_serve``.  Its batches take ``_plan``'s breaker scan."""

    def _refresh_ring(self):
        pass

    def select(self, shape, *, device_id=None, policy=None):
        start = time.perf_counter()
        candidates, targeted = self._candidates(shape, device_id, policy)
        entries = [self._devices[did] for did in candidates]
        return self._serve(shape, entries, targeted, start, None)

    def _candidates(
        self,
        shape: GemmShape,
        device_id: Optional[str],
        policy: Optional[str],
    ) -> Tuple[Tuple[str, ...], Optional[str]]:
        """Ordered devices to try for one lookup, plus the targeted id.

        The first candidate is the dispatch choice; the rest are the
        cross-device fallback order.  Open-breaker devices sort last so
        they are only consulted when every healthy device has failed.
        """
        with self._lock:
            if not self._devices:
                raise RuntimeError("no devices routed; call add_device first")
            ids = list(self._devices)
            if device_id is not None:
                self._entry(device_id)  # KeyError for an unknown device
                self._c_targeted.tick()
            else:
                self._tick_agnostic()
            healthy = [d for d in ids if not self._devices[d].service.breaker_open]
            open_ids = [d for d in ids if d not in healthy]
            if device_id in healthy:
                order = [device_id] + [d for d in healthy if d != device_id]
                return tuple(order + open_ids), device_id
            # Breaker open or no target: the policy order, keeping a dead
            # target as the candidate of last resort.
            chosen_policy = policy or self._default_policy
            self._check_policy(chosen_policy)
            self._c_placements[chosen_policy].tick()
            pool = healthy if healthy else ids

            if chosen_policy == "round-robin":
                ordered = _rotated(pool, self._next_turn())
            elif chosen_policy == "least-outstanding":
                ordered = sorted(pool, key=lambda d: self._devices[d].outstanding)
            else:  # perf-aware
                ordered = sorted(pool, key=lambda d: self._estimate_locked(d, shape))
            if healthy:
                ordered = ordered + open_ids
            if device_id is not None:
                # The dead target goes last; everything healthy first.
                ordered = [d for d in ordered if d != device_id] + [device_id]
                return tuple(ordered), device_id
            return tuple(ordered), None


class _ToyModel:
    """A performance model whose fastest device depends on the shape."""

    def __init__(self, m_weight, k_weight):
        self.m_weight = m_weight
        self.k_weight = k_weight

    def time_seconds(self, shape, config):
        return (
            self.m_weight * shape.m + self.k_weight * shape.k
        ) * 1e-6 + CONFIGS.index(config) * 1e-9


#: Each device's toy model: the weights make every device the fastest
#: for some of SHAPES.
_MODELS = {
    "a": _ToyModel(1.0, 4.0),
    "b": _ToyModel(0.5, 8.0),
    "c": _ToyModel(2.0, 1.0),
    "d": _ToyModel(0.25, 12.0),
    "p": _ToyModel(0.75, 5.0),
}


#: Policies the random walks draw; None is the default, round-robin.
_POLICY_DRAWS = (None, None, "round-robin", "least-outstanding", "perf-aware")


def _add(router, did, service):
    router.add_device(did, service, model=_MODELS[did], library=CONFIGS)


def _service(policy, *, fallback):
    # A small memo keeps lookups missing, so failing policies trip
    # breakers and recovered ones close them on the next probe.
    return SelectionService(
        policy,
        capacity=3,
        fallback=CONFIGS[0] if fallback else None,
        breaker_threshold=2,
        breaker_probe_interval=2,
        registry=MetricsRegistry(),
    )


def _counters(router):
    stats = router.stats()
    return (
        stats.dispatched,
        stats.outstanding,
        stats.targeted,
        stats.agnostic,
        stats.rerouted,
        stats.policy_counts,
        {
            did: (s.lookups, s.cache_hits, s.breaker_trips)
            for did, s in stats.devices.items()
        },
    )


class TestMatchesCandidates:
    def _fleet(self, router_cls):
        router = router_cls(registry=MetricsRegistry())
        policies = {}
        # "c" has no fallback and starts down: until it first answers,
        # its service raises and the router fails over.
        for did, fallback in (("a", True), ("b", True), ("c", False)):
            policies[did] = _Switchable()
            _add(router, did, _service(policies[did], fallback=fallback))
        policies["c"].down = True
        return router, policies

    def test_decisions_counters_and_placements_agree(self):
        fast, fast_policies = self._fleet(FleetRouter)
        slow, slow_policies = self._fleet(_ReferenceOrder)
        rng = random.Random(16)
        lock_free = degraded = 0
        for step in range(600):
            if step == 300:
                for router, policies in ((fast, fast_policies), (slow, slow_policies)):
                    policies["d"] = _Switchable()
                    _add(router, "d", _service(policies["d"], fallback=True))
            roll = rng.random()
            did = rng.choice(sorted(fast_policies))
            if roll < 0.02:
                fast_policies[did].down = slow_policies[did].down = True
                continue
            if roll < 0.1:
                # An open breaker gets no routed traffic, so nothing
                # probes it: a revived device rejoins by a reset.
                fast_policies[did].down = slow_policies[did].down = False
                fast.reset_breaker(did)
                slow.reset_breaker(did)
                continue
            if fast._ring:
                lock_free += 1
            else:
                degraded += 1
            policy = rng.choice(_POLICY_DRAWS)
            if roll < 0.15:
                shape = rng.choice(SHAPES)
                got = fast.select(shape, device_id=did, policy=policy)
                assert got == slow.select(shape, device_id=did, policy=policy)
                decisions = (got,)
            elif roll < 0.25:
                shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 7))]
                got = fast.select_batch(shapes, policy=policy)
                assert got == slow.select_batch(shapes, policy=policy)
                decisions = got
            else:
                shape = rng.choice(SHAPES)
                got = fast.select(shape, policy=policy)
                assert got == slow.select(shape, policy=policy)
                decisions = (got,)
            for decision in decisions:
                if rng.random() < 0.7:
                    n = rng.choice((1, 1, 2))
                    fast.complete(decision.device_id, n)
                    slow.complete(decision.device_id, n)
            assert _counters(fast) == _counters(slow), step
        # The walk covered both regimes and real failovers.
        assert lock_free > 100 and degraded > 100
        assert fast.stats().rerouted > 0
        for shape in SHAPES:
            assert fast.select(shape) == slow.select(shape)
        assert _counters(fast) == _counters(slow)

    def test_long_batches_and_a_raising_device_agree(self):
        # Batches of up to 70 shapes, longer than the fleet and full of
        # repeats.  "p" raises on every lookup without ever tripping its
        # breaker, so its share of a batch fails over while the ring is
        # still full.
        fleets = []
        for router_cls in (FleetRouter, _ReferenceOrder):
            router, policies = self._fleet(router_cls)
            _add(
                router,
                "p",
                SelectionService(
                    _Broken(),
                    capacity=3,
                    breaker_threshold=10**9,
                    registry=MetricsRegistry(),
                ),
            )
            policies["c"].down = False
            fleets.append((router, policies))
        (fast, fast_policies), (slow, slow_policies) = fleets
        rng = random.Random(20)
        ring_reroutes = 0
        for step in range(600):
            roll = rng.random()
            did = rng.choice(sorted(fast_policies))
            if roll < 0.02:
                fast_policies[did].down = slow_policies[did].down = True
                continue
            if roll < 0.1:
                fast_policies[did].down = slow_policies[did].down = False
                fast.reset_breaker(did)
                slow.reset_breaker(did)
                continue
            shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 70))]
            policy = rng.choice(_POLICY_DRAWS)
            kwargs = {"policy": policy}
            if roll < 0.2:
                kwargs["device_id"] = rng.choice((did, "p"))
            ring_full = bool(fast._ring)
            rerouted = fast.stats().rerouted
            got = fast.select_batch(shapes, **kwargs)
            assert got == slow.select_batch(shapes, **kwargs), step
            # Only round-robin agnostic batches take the ring.
            if ring_full and roll >= 0.2 and policy in (None, "round-robin"):
                ring_reroutes += fast.stats().rerouted > rerouted
            # One lone lookup of the batch's first shape: "p" fails it
            # over along the single-lookup order.
            single = fast.select(shapes[0], **kwargs)
            assert single == slow.select(shapes[0], **kwargs), step
            got += (single,)
            for decision in got:
                if rng.random() < 0.5:
                    fast.complete(decision.device_id)
                    slow.complete(decision.device_id)
            assert _counters(fast) == _counters(slow), step
        assert ring_reroutes > 100
        for policy in _POLICY_DRAWS:
            for shape in SHAPES:
                assert fast.select(shape, policy=policy) == slow.select(
                    shape, policy=policy
                )
            assert fast.select_batch(SHAPES, policy=policy) == slow.select_batch(
                SHAPES, policy=policy
            )
        assert _counters(fast) == _counters(slow)

    def test_failing_share_lands_like_sequential_selects(self):
        # With the ring full, "p" raises on every lookup: each shape of
        # its share must fail over to where a lone select at the same
        # turn goes.
        routers = []
        for _ in range(2):
            router = FleetRouter(registry=MetricsRegistry())
            for did in ("a", "b", "c"):
                router.add_device(did, _service(_Switchable(), fallback=True))
            router.add_device(
                "p",
                SelectionService(
                    _Broken(), breaker_threshold=10**9, registry=MetricsRegistry()
                ),
            )
            routers.append(router)
        batched, sequential = routers
        rng = random.Random(7)
        for _ in range(20):
            shapes = [rng.choice(SHAPES) for _ in range(rng.randint(1, 70))]
            got = batched.select_batch(shapes)
            assert got == tuple(sequential.select(s) for s in shapes)
            # Router counters only: a batch's repeats are memo hits.
            assert _counters(batched)[:6] == _counters(sequential)[:6]
        assert batched._ring and batched.stats().rerouted > 0


class _Fresh:
    """A policy answering with a new, equal ``KernelConfig`` every call."""

    def select(self, shape):
        return dataclasses.replace(_Switchable().select(shape))


class _Constant:
    """A policy answering every shape with one config object."""

    def select(self, shape):
        return CONFIGS[1]


def _interned(router):
    """The ids of every decision the router's devices keep interned."""
    return {
        id(decision)
        for entry in router._devices.values()
        for decision in entry._decided.values()
    }


class TestInternedDecisions:
    """Batch decisions are shared per (device, config object)."""

    def test_fresh_configs_answer_equal_and_stay_under_the_cap(self):
        router = FleetRouter(registry=MetricsRegistry())
        router.add_device(
            "solo", SelectionService(_Fresh(), capacity=1, registry=MetricsRegistry())
        )
        shapes = [GemmShape(m=8 * (i + 1), k=8, n=8) for i in range(_INTERN_CAP + 44)]
        table = router._devices["solo"]._decided
        for _ in range(3):
            got = router.select_batch(shapes)
            assert got == tuple(
                RoutedDecision("solo", _Switchable().select(s), False) for s in shapes
            )
            assert 0 < len(table) <= _INTERN_CAP

    def test_devices_sharing_a_config_object_keep_their_ids(self):
        router = FleetRouter(registry=MetricsRegistry())
        policy = _Constant()
        for did in ("a", "b"):
            router.add_device(did, SelectionService(policy, registry=MetricsRegistry()))
        got = router.select_batch(SHAPES[:10])
        assert [d.device_id for d in got] == ["a", "b"] * 5
        assert all(d.config is CONFIGS[1] and not d.rerouted for d in got)
        assert got[0] is not got[1]

    def test_repeats_share_one_decision_across_batches(self):
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b"):
            router.add_device(did, _service(_Switchable(), fallback=True))
        got = router.select_batch([SHAPES[0]] * 6)
        assert got[0] is got[2] is got[4]
        assert got[1] is got[3] is got[5]
        assert got[0] == ("a", _Switchable().select(SHAPES[0]), False)
        assert got[1] == ("b", _Switchable().select(SHAPES[0]), False)
        again = router.select_batch([SHAPES[0]] * 2)
        assert again[0] is got[0] and again[1] is got[1]
        assert {id(d) for d in got} <= _interned(router)

    def test_rerouted_decisions_are_never_interned(self):
        router = FleetRouter(registry=MetricsRegistry())
        router.add_device(
            "a",
            SelectionService(
                _Broken(), breaker_threshold=1, registry=MetricsRegistry()
            ),
        )
        router.add_device("b", _service(_Switchable(), fallback=True))
        # "a" raises inside the batch with the ring full; its share
        # fails over to "b" and trips its breaker.
        first = router.select_batch(SHAPES[:8])
        assert router.service("a").breaker_open
        # Targeted at the open breaker: every shape is a reroute.
        targeted = router.select_batch(SHAPES[:8], device_id="a")
        interned = _interned(router)
        rerouted = [d for d in first + targeted if d.rerouted]
        assert len(rerouted) == 4 + 8
        assert all(d.device_id == "b" for d in rerouted)
        assert not {id(d) for d in rerouted} & interned
        assert {id(d) for d in first if not d.rerouted} <= interned


class TestThreadedAccounting:
    N_THREADS = 8
    N_REQUESTS = 2_000

    def test_select_and_complete_counts_are_exact(self):
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b", "c"):
            router.add_device(did, _service(_Switchable(), fallback=True))
        completed = [dict.fromkeys(("a", "b", "c"), 0) for _ in range(self.N_THREADS)]
        barrier = threading.Barrier(self.N_THREADS)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(self.N_REQUESTS):
                    decision = router.select(SHAPES[(tid + i) % len(SHAPES)])
                    if i % 3:
                        router.complete(decision.device_id)
                        completed[tid][decision.device_id] += 1
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        # Switch threads as often as the interpreter allows, so a
        # select or complete is interrupted mid-way as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        total = self.N_THREADS * self.N_REQUESTS
        stats = router.stats()
        assert stats.agnostic == total
        assert stats.policy_counts == {"round-robin": total}
        assert sum(stats.dispatched.values()) == total
        for did, dispatched in stats.dispatched.items():
            done = sum(per_thread[did] for per_thread in completed)
            assert stats.outstanding[did] == dispatched - done

    def test_ring_batches_race_breaker_trips_and_clear(self):
        # Workers mix ring-path batches and singles while a controller
        # trips and resets a failing device's breaker.  In phase 0 it
        # also clears the router; after one last clear, every shape
        # answered in phase 1 must be dispatched exactly once.
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b"):
            router.add_device(did, _service(_Switchable(), fallback=False))
        victim = SelectionService(
            _Broken(), capacity=3, breaker_threshold=2, registry=MetricsRegistry()
        )
        router.add_device("victim", victim)
        n_workers = 6
        agnostic = [[0, 0] for _ in range(n_workers)]
        targeted = [0, 0]
        wrong = []
        errors = []
        finished = []  # one entry per worker and finished phase
        between = threading.Barrier(n_workers + 1, timeout=60)

        answer = _Switchable().select

        def check(shapes, decisions):
            wrong.extend(s for s, d in zip(shapes, decisions) if d.config != answer(s))

        def worker(tid):
            rng = random.Random(tid)
            try:
                for phase in (0, 1):
                    for i in range(150):
                        if i % 2:
                            size = rng.randint(1, 40)
                            batch = [rng.choice(SHAPES) for _ in range(size)]
                            check(batch, router.select_batch(batch))
                        else:
                            batch = [rng.choice(SHAPES)]
                            check(batch, (router.select(batch[0]),))
                        agnostic[tid][phase] += len(batch)
                    finished.append(tid)
                    if phase == 0:
                        between.wait()
                        between.wait()  # the controller clears in between
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        def trip_and_reset(phase):
            for shape in SHAPES[:2]:
                decision = router.select(shape, device_id="victim")
                check([shape], [decision])
                targeted[phase] += 1
            assert victim.breaker_open
            router.reset_breaker("victim")

        def controller():
            try:
                for phase in (0, 1):
                    rounds = 0
                    while len(finished) < n_workers * (phase + 1) and not errors:
                        trip_and_reset(phase)
                        rounds += 1
                        if phase == 0 and rounds % 3 == 0:
                            router.clear()
                    if phase == 0:
                        between.wait()
                        router.clear()
                        between.wait()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        threads = [threading.Thread(target=controller)] + [
            threading.Thread(target=worker, args=(tid,)) for tid in range(n_workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert wrong == []
        stats = router.stats()
        answered = sum(per_worker[1] for per_worker in agnostic) + targeted[1]
        assert sum(stats.dispatched.values()) == answered
        assert stats.agnostic == answered - targeted[1]
        assert stats.targeted == targeted[1]
        assert stats.dispatched["victim"] == 0
        assert stats.rerouted >= targeted[1]


def test_over_completion_clamps_at_zero():
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    router.select(SHAPES[0])
    router.complete("solo", n=5)
    assert router.stats().outstanding["solo"] == 0
    router.select(SHAPES[1])
    assert router.stats().outstanding["solo"] == 1


def test_over_completion_cancels_dispatches_until_the_next_read():
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    router.select(SHAPES[0])
    router.complete("solo", n=5)
    # Two ring lookups with no load read in between: the four excess
    # completions absorb both.
    router.select(SHAPES[1])
    router.select(SHAPES[2])
    stats = router.stats()
    assert stats.dispatched["solo"] == 3
    assert stats.outstanding["solo"] == 0
    # The exported counter counts every completion reported.
    assert router._devices["solo"].c_completed.value == 5
    # The read dropped the excess, so later dispatches count again.
    router.select(SHAPES[3])
    assert router.stats().outstanding["solo"] == 1


def test_complete_on_an_unknown_device_names_the_routed_ones():
    router = FleetRouter(registry=MetricsRegistry())
    for did in ("a", "b"):
        router.add_device(did, _service(_Switchable(), fallback=True))
    routed = r"no device 'nope' in fleet; routed: \['a', 'b'\]"
    with pytest.raises(KeyError, match=routed):
        router.complete("nope")


class _NoLock:
    """Stands in for the router lock and fails whoever takes it."""

    def __enter__(self):
        raise AssertionError("took the router lock")

    def __exit__(self, *exc):
        return False


def test_complete_on_a_known_device_takes_no_lock():
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    router.select(SHAPES[0])
    router.select(SHAPES[1])
    router._lock = _NoLock()
    router.complete("solo")
    router.complete("solo", n=1)
    router._lock = threading.Lock()
    assert router.stats().outstanding["solo"] == 0


class _RacingRead:
    """A completion counter whose first read sees one more request
    dispatched and completed while it is being read."""

    def __init__(self, entry):
        self._inner = entry.c_completed
        self._dispatched = entry.c_dispatched
        self._armed = True

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def value(self):
        if self._armed:
            self._armed = False
            self._dispatched.tick()
            self._inner.tick()
        return self._inner.value


def test_load_reads_completions_before_dispatches():
    # Completions are read first: a request dispatched and completed
    # between the two reads then lands in both, never only in the
    # completions, so it cannot pass for an over-completion.
    router = FleetRouter(registry=MetricsRegistry())
    router.add_device("solo", _service(_Switchable(), fallback=True))
    decision = router.select(SHAPES[0])
    router.complete(decision.device_id)
    router.select(SHAPES[1])  # still in flight
    entry = router._devices["solo"]
    entry.c_completed = _RacingRead(entry)
    for _ in range(2):
        stats = router.stats()
        assert stats.dispatched["solo"] == 3
        assert stats.outstanding["solo"] == 1
        assert entry.dropped == 0


class TestLoadReadsUnderThreads:
    N_WORKERS = 6
    N_REQUESTS = 600
    #: Requests a worker holds in flight before completing the oldest.
    WINDOW = 4

    def test_snapshots_stay_bounded_and_the_final_count_is_exact(self):
        # Phase 0: workers select and complete while a controller takes
        # snapshots and clears the router.  Each worker drains what it
        # holds, and the controller clears once more with nothing in
        # flight.  Phase 1: the same traffic under snapshots only; each
        # worker leaves its last requests in flight.
        router = FleetRouter(registry=MetricsRegistry())
        for did in ("a", "b", "c"):
            router.add_device(did, _service(_Switchable(), fallback=True))
        dispatched = [dict.fromkeys(("a", "b", "c"), 0) for _ in range(self.N_WORKERS)]
        completed = [dict.fromkeys(("a", "b", "c"), 0) for _ in range(self.N_WORKERS)]
        bad = []
        errors = []
        done = []  # one entry per worker and finished phase
        between = threading.Barrier(self.N_WORKERS + 1, timeout=60)

        def worker(tid):
            rng = random.Random(tid)
            try:
                for phase in (0, 1):
                    held = []
                    for i in range(self.N_REQUESTS):
                        policy = ("round-robin", "least-outstanding")[i % 2]
                        shape = SHAPES[(tid + i) % len(SHAPES)]
                        did = router.select(shape, policy=policy).device_id
                        held.append(did)
                        if phase:
                            dispatched[tid][did] += 1
                        keep = rng.randint(0, self.WINDOW)
                        while len(held) > keep:
                            did = held.pop(0)
                            n = 1
                            if held and held[0] == did:
                                held.pop(0)
                                n = 2
                            router.complete(did, n)
                            if phase:
                                completed[tid][did] += n
                    if phase == 0:
                        for did in held:
                            router.complete(did)
                    done.append(tid)
                    if phase == 0:
                        between.wait()
                        between.wait()  # the controller clears in between
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        def check(stats):
            for did, sent in stats.dispatched.items():
                if not 0 <= stats.outstanding[did] <= sent:
                    bad.append((did, sent, stats.outstanding[did]))

        def controller():
            try:
                for phase in (0, 1):
                    rounds = 0
                    while len(done) < self.N_WORKERS * (phase + 1) and not errors:
                        check(router.stats())
                        rounds += 1
                        if phase == 0 and rounds % 2 == 0:
                            router.clear()
                    if phase == 0:
                        between.wait()
                        router.clear()
                        between.wait()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                between.abort()

        threads = [threading.Thread(target=controller)] + [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_WORKERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert bad == []
        stats = router.stats()
        for did in ("a", "b", "c"):
            sent = sum(per_worker[did] for per_worker in dispatched)
            finished = sum(per_worker[did] for per_worker in completed)
            assert stats.dispatched[did] == sent
            assert stats.outstanding[did] == sent - finished
            assert router._devices[did].dropped == 0
        assert sum(stats.outstanding.values()) > 0
