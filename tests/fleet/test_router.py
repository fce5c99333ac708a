"""FleetRouter dispatch: policies, breaker-driven fallback, degradation.

The degradation tests build their routers by hand from the session
build's trained selectors so a :class:`FaultyPolicy` can sit between one
device's service and its selector — the router never sees the fault
plan, only the failing service.
"""

from __future__ import annotations

import pytest

from repro.fleet import get_profile
from repro.serving import FleetRouter, ROUTING_POLICIES, SelectionService
from repro.testing import FaultPlan, FaultyPolicy
from tests.fleet.conftest import SMALL_FLEET

VICTIM = "compute-heavy"


def _faulty_router(
    fleet_run, plan, *, fallback=True, victims=(VICTIM,), **service_kwargs
):
    """A four-device router whose ``victims`` hit ``plan``'s faults."""
    service_kwargs.setdefault("breaker_threshold", 2)
    router = FleetRouter()
    for did in SMALL_FLEET:
        deployed = fleet_run.value("train", did)
        policy = (
            FaultyPolicy(deployed, plan, device_id=did)
            if did in victims
            else deployed
        )
        kwargs = dict(service_kwargs)
        if fallback:
            kwargs.setdefault("fallback", deployed.library.configs[0])
        router.add_device(
            did,
            SelectionService(policy, **kwargs),
            model=get_profile(did).perf_model(),
            library=tuple(deployed.library.configs),
        )
    return router


class TestDispatch:
    def test_targeted_requests_stay_on_their_device(
        self, fleet_router, all_shapes
    ):
        for i, shape in enumerate(all_shapes[:12]):
            did = SMALL_FLEET[i % len(SMALL_FLEET)]
            decision = fleet_router.select(shape, device_id=did)
            assert decision.device_id == did
            assert not decision.rerouted

    def test_unknown_device_raises(self, fleet_router, all_shapes):
        with pytest.raises(KeyError, match="no device"):
            fleet_router.select(all_shapes[0], device_id="mystery-gpu")
        # An empty batch is validated like any other.
        with pytest.raises(KeyError, match="no device"):
            fleet_router.select_batch([], device_id="mystery-gpu")

    def test_unknown_policy_raises(self, fleet_router, all_shapes):
        with pytest.raises(ValueError, match="unknown routing policy"):
            fleet_router.select(all_shapes[0], policy="fastest-first")
        with pytest.raises(ValueError, match="unknown routing policy"):
            fleet_router.select_batch([], policy="fastest-first")

    def test_round_robin_cycles_the_fleet(self, fleet_router, all_shapes):
        placed = [
            fleet_router.select(shape, policy="round-robin").device_id
            for shape in all_shapes[: 2 * len(SMALL_FLEET)]
        ]
        assert placed == list(SMALL_FLEET) * 2

    def test_least_outstanding_tracks_completion(
        self, fleet_router, all_shapes
    ):
        # Load every device once; the ordering then follows insertion.
        for shape in all_shapes[: len(SMALL_FLEET)]:
            fleet_router.select(shape, policy="least-outstanding")
        # Retire r9-nano's request: it becomes the unique least-loaded.
        fleet_router.complete("r9-nano")
        decision = fleet_router.select(
            all_shapes[len(SMALL_FLEET)], policy="least-outstanding"
        )
        assert decision.device_id == "r9-nano"

    def test_perf_aware_picks_the_predicted_fastest_device(
        self, fleet_router, all_shapes
    ):
        for shape in all_shapes[::5]:
            expected = min(
                fleet_router.device_ids,
                key=lambda did: fleet_router.estimate(did, shape),
            )
            decision = fleet_router.select(shape, policy="perf-aware")
            assert decision.device_id == expected

    def test_perf_aware_is_shape_sensitive(self, fleet_router, all_shapes):
        # Across the workload the predicted-fastest device is not a
        # constant: heterogeneity must show up in placement.
        winners = {
            fleet_router.select(shape, policy="perf-aware").device_id
            for shape in all_shapes
        }
        assert len(winners) > 1

    def test_estimate_requires_a_model(self, all_shapes):
        class _Stub:
            def select(self, shape):
                return None

        router = FleetRouter().add_device("bare", SelectionService(_Stub()))
        with pytest.raises(RuntimeError, match="perf-aware"):
            router.estimate("bare", all_shapes[0])

    def test_batch_routing_matches_single_routing(
        self, fleet_router, all_shapes
    ):
        shapes = list(all_shapes[:10])
        batched = fleet_router.select_batch(shapes, policy="perf-aware")
        for shape, decision in zip(shapes, batched):
            single = fleet_router.select(shape, policy="perf-aware")
            assert single.device_id == decision.device_id
            assert single.config == decision.config


class TestBatchPlacement:
    """A batch is placed like the same number of sequential selects.

    Two identical routers, one fed a batch and one the same shapes one
    ``select`` at a time: every decision, the router counters, and the
    placements that follow (round-robin cursor, outstanding load) must
    agree.  Loads start uneven and the cursor mid-cycle.
    """

    @staticmethod
    def _router(fleet_run, all_shapes, dead):
        plan = FaultPlan()
        for did in dead:
            plan.kill_device(did, after=0)
        router = _faulty_router(fleet_run, plan, victims=dead)
        for did in dead:
            for shape in all_shapes[:2]:
                router.service(did).select(shape)
            assert router.service(did).breaker_open
        for shape in all_shapes[2:5]:
            router.select(shape, device_id="latency-bound")
        router.select(all_shapes[5], policy="round-robin")
        return router

    @staticmethod
    def _counters(router):
        stats = router.stats()
        return (
            stats.dispatched,
            stats.outstanding,
            stats.targeted,
            stats.agnostic,
            stats.rerouted,
            stats.policy_counts,
        )

    @pytest.mark.parametrize(
        "dead", [(), (VICTIM,), SMALL_FLEET], ids=["closed", "open", "all-open"]
    )
    @pytest.mark.parametrize("target", [None, VICTIM], ids=["agnostic", "targeted"])
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_batch_places_like_sequential_selects(
        self, fleet_run, all_shapes, policy, target, dead
    ):
        batched = self._router(fleet_run, all_shapes, dead)
        sequential = self._router(fleet_run, all_shapes, dead)
        shapes = list(all_shapes[6:19]) + list(all_shapes[6:10])
        decisions = batched.select_batch(shapes, device_id=target, policy=policy)
        singles = tuple(
            sequential.select(shape, device_id=target, policy=policy)
            for shape in shapes
        )
        assert decisions == singles
        assert self._counters(batched) == self._counters(sequential)
        for router in (batched, sequential):
            router.complete(decisions[0].device_id, n=2)
        after = all_shapes[20:26]
        assert [batched.select(s, policy=policy) for s in after] == [
            sequential.select(s, policy=policy) for s in after
        ]


class TestPolicyRegistry:
    def test_known_policies(self):
        assert set(ROUTING_POLICIES) == {
            "round-robin",
            "least-outstanding",
            "perf-aware",
        }

    def test_default_policy_validated(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            FleetRouter(default_policy="warp-speed")


class TestDegradation:
    def test_killed_device_trips_breaker_and_reroutes(
        self, fleet_run, all_shapes
    ):
        # The issue's acceptance scenario: kill one device mid-traffic,
        # keep targeting it, and demand zero failed lookups end to end.
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan)
        decisions = [
            router.select(shape, device_id=VICTIM) for shape in all_shapes
        ]
        assert all(d.config is not None for d in decisions)
        assert router.service(VICTIM).breaker_open
        assert VICTIM not in router.healthy_ids()
        # Once the breaker opened, traffic flows to healthy devices.
        rerouted = [d for d in decisions if d.rerouted]
        assert rerouted
        assert {d.device_id for d in rerouted} <= set(SMALL_FLEET) - {VICTIM}
        assert router.stats().rerouted == len(rerouted)

    def test_reroute_without_fallback_never_raises(
        self, fleet_run, all_shapes
    ):
        # Without a configured fallback the victim's service re-raises;
        # the router must catch it and try the next candidate.
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan, fallback=False)
        for shape in all_shapes[:8]:
            decision = router.select(shape, device_id=VICTIM)
            assert decision.rerouted
            assert decision.device_id != VICTIM

    def test_batch_partition_reroutes_wholesale(self, fleet_run, all_shapes):
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan, fallback=False)
        decisions = router.select_batch(
            list(all_shapes[:12]), device_id=VICTIM
        )
        assert len(decisions) == 12
        assert all(d.rerouted for d in decisions)
        assert all(d.device_id != VICTIM for d in decisions)

    def test_batch_survives_two_dead_devices(self, fleet_run, all_shapes):
        # Two devices die at once, mid breaker warm-up, no fallback: the
        # reroute must walk each shape's candidate list once (no
        # ping-pong between the two dead devices, no RecursionError) and
        # land every shape on one of the two healthy devices.
        victims = ("compute-heavy", "bandwidth-lean")
        plan = FaultPlan()
        for did in victims:
            plan.kill_device(did, after=0)
        router = _faulty_router(
            fleet_run, plan, fallback=False, victims=victims
        )
        shapes = list(all_shapes[:8])
        decisions = router.select_batch(shapes, policy="round-robin")
        assert len(decisions) == len(shapes)
        assert all(d.device_id not in victims for d in decisions)
        assert all(d.config is not None for d in decisions)
        # Bounded reroutes: at most one count per (shape, dead device).
        assert router.stats().rerouted <= len(shapes) * len(victims)

    def test_targeted_batch_fallback_prefers_healthy_devices(
        self, fleet_run, all_shapes
    ):
        # Trip the breaker of the fleet's first device, then kill the
        # batch's (still healthy-looking) target: the wholesale reroute
        # must try the remaining healthy devices before the open-breaker
        # one, so exactly one reroute hop happens per shape.
        victims = ("r9-nano", "bandwidth-lean")
        plan = FaultPlan().kill_device("r9-nano", after=0)
        router = _faulty_router(
            fleet_run, plan, fallback=False, victims=victims
        )
        for shape in all_shapes[:2]:
            router.select(shape, device_id="r9-nano")
        assert router.service("r9-nano").breaker_open
        router.clear()
        plan.kill_device("bandwidth-lean", after=0)
        shapes = list(all_shapes[:6])
        decisions = router.select_batch(shapes, device_id="bandwidth-lean")
        assert all(d.rerouted for d in decisions)
        assert all(
            d.device_id in ("compute-heavy", "latency-bound")
            for d in decisions
        )
        # One failed device per shape — the open breaker was never tried.
        assert router.stats().rerouted == len(shapes)

    def test_targeted_single_and_batch_reroute_to_the_same_device(
        self, fleet_run, all_shapes
    ):
        # The target raises with no fallback; the next device in
        # insertion order has an open breaker and a fallback.  A single
        # lookup must skip the open breaker's degraded answer just as a
        # batch does, and land on the first healthy device.
        target, tripped, healthy = SMALL_FLEET[:3]
        plan = FaultPlan().kill_device(target).kill_device(tripped)
        router = FleetRouter()
        for did in SMALL_FLEET:
            deployed = fleet_run.value("train", did)
            faulty = did in (target, tripped)
            policy = FaultyPolicy(deployed, plan, device_id=did)
            fallback = deployed.library.configs[0] if did == tripped else None
            router.add_device(
                did,
                SelectionService(
                    policy if faulty else deployed,
                    breaker_threshold=2,
                    fallback=fallback,
                ),
            )
        for shape in all_shapes[:2]:
            router.select(shape, device_id=tripped)
        assert router.service(tripped).breaker_open
        shape = all_shapes[2]
        single = router.select(shape, device_id=target)
        (batch,) = router.select_batch([shape], device_id=target)
        assert single.device_id == batch.device_id == healthy
        assert single.rerouted and batch.rerouted
        assert single.config == batch.config

    def test_agnostic_traffic_avoids_the_open_breaker(
        self, fleet_run, all_shapes
    ):
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan, fallback=False)
        # Trip the breaker with two targeted lookups...
        for shape in all_shapes[:2]:
            router.select(shape, device_id=VICTIM)
        assert router.service(VICTIM).breaker_open
        # ...then device-agnostic round-robin must skip it entirely.
        placed = {
            router.select(shape).device_id for shape in all_shapes[2:14]
        }
        assert VICTIM not in placed
        assert placed == set(SMALL_FLEET) - {VICTIM}

    def test_revived_device_rejoins_after_breaker_reset(
        self, fleet_run, all_shapes
    ):
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan)
        for shape in all_shapes[:4]:
            router.select(shape, device_id=VICTIM)
        assert router.service(VICTIM).breaker_open
        plan.revive_device(VICTIM)
        router.reset_breaker(VICTIM)
        decision = router.select(all_shapes[20], device_id=VICTIM)
        assert decision.device_id == VICTIM
        assert not decision.rerouted

    def test_poisoned_single_lookup_degrades_only_that_query(
        self, fleet_run, all_shapes
    ):
        plan = FaultPlan().poison_selection(VICTIM, index=0)
        router = _faulty_router(fleet_run, plan)
        first = router.select(all_shapes[0], device_id=VICTIM)
        # Fallback answer, served by the victim itself (breaker needs
        # two consecutive errors to trip).
        assert first.device_id == VICTIM
        second = router.select(all_shapes[1], device_id=VICTIM)
        assert second.device_id == VICTIM
        assert not router.service(VICTIM).breaker_open

    def test_fleet_stats_aggregate_the_outage(self, fleet_run, all_shapes):
        plan = FaultPlan().kill_device(VICTIM, after=0)
        router = _faulty_router(fleet_run, plan)
        for shape in all_shapes[:10]:
            router.select(shape, device_id=VICTIM)
        stats = router.stats()
        assert stats.n_devices == len(SMALL_FLEET)
        assert stats.targeted == 10
        assert stats.open_breakers == (VICTIM,)
        assert stats.devices[VICTIM].policy_errors >= 2
        assert stats.total_policy_errors >= 2
        rendered = stats.render()
        assert "breaker OPEN" in rendered
        assert VICTIM in rendered
