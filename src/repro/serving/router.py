"""Fleet routing: dispatch selection traffic across many devices.

A :class:`FleetRouter` owns one :class:`SelectionService` per fleet
device and answers ``(device_id, shape)`` lookups:

* **targeted** requests name a device and are served by its service —
  unless that device's circuit breaker is open, in which case the
  request falls over to a healthy device (cross-device fallback);
* **device-agnostic** requests (``device_id=None``) are placed by a
  dispatch policy: ``round-robin`` (cycle the healthy devices),
  ``least-outstanding`` (fewest in-flight requests, see
  :meth:`FleetRouter.complete`), or ``perf-aware`` (the device whose
  performance model predicts the lowest runtime for the shape across
  its shipped kernel library).

Batches (:meth:`FleetRouter.select_batch`) land where as many lookups
would, planned in one pass that keeps only each shape's first choice;
each device answers its share in one call, and fallback orders are
derived only on failure (``benchmarks/test_bench_fleet.py``: ~5-20x
faster than per-query routing, depending on the policy).

Service exceptions never escape a routed lookup while any device is
healthy: the router catches, counts a reroute, and retries the next
candidate.  Dispatch accounting lives in a :mod:`repro.obs` registry
(per-device ``fleet.dispatched``/``fleet.outstanding``, per-policy
``fleet.placements``) and cross-device fallbacks emit ``fleet.reroute``
spans on the router's tracer; :meth:`FleetRouter.stats` stays a thin
view assembling the legacy :class:`~repro.serving.stats.FleetStats`
shape from those metrics and the per-device service snapshots.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.kernels.params import KernelConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serving.service import SelectionService
from repro.serving.stats import FleetStats
from repro.workloads.gemm import GemmShape

__all__ = ["FleetRouter", "ROUTING_POLICIES", "RoutedDecision"]

#: Dispatch policies for device-agnostic requests.
ROUTING_POLICIES: Tuple[str, ...] = (
    "round-robin",
    "least-outstanding",
    "perf-aware",
)

#: Positions of a batch's shapes: a stride or an explicit list.
_Picks = Union[slice, List[int]]


class RoutedDecision(NamedTuple):
    """One routed lookup: which device answered, with what.

    ``rerouted`` is True when the answering device is not the one the
    request targeted (or the policy's first choice) — i.e. cross-device
    fallback happened.
    """

    device_id: str
    config: KernelConfig
    rerouted: bool = False


class _DeviceEntry:
    """Router-side bookkeeping for one fleet device.

    Load accounting lives in registry metrics so a fleet-wide obs
    snapshot carries per-device dispatch counts without a separate
    stats pass; the router mutates them under its own lock.
    """

    def __init__(
        self,
        service: SelectionService,
        model,
        library,
        registry: MetricsRegistry,
        device_id: str,
    ):
        self.service = service
        self.model = model
        self.library = library
        labels = {"device": device_id}
        self.c_dispatched = registry.counter("fleet.dispatched", labels)
        self.g_outstanding = registry.gauge("fleet.outstanding", labels)

    @property
    def outstanding(self) -> int:
        return int(self.g_outstanding.value)

    @property
    def dispatched(self) -> int:
        return self.c_dispatched.value


class FleetRouter:
    """Routes selection traffic over a heterogeneous device fleet.

    Devices are added with :meth:`add_device`; each brings its
    :class:`SelectionService` and optionally the device's performance
    model (anything with ``time_seconds(shape, config)``) plus the
    kernel-config library the perf-aware policy estimates over.  When
    the service fronts a :class:`~repro.core.deploy.DeployedSelector`,
    the library defaults to the selector's bundled configurations.

    ``registry`` is where the router's dispatch metrics live (a private
    :class:`~repro.obs.MetricsRegistry` when omitted); share one with
    the devices' services to export the whole fleet as one snapshot.
    ``tracer`` receives ``fleet.reroute`` spans on cross-device
    fallback (dropped by default).
    """

    def __init__(
        self,
        *,
        default_policy: str = "round-robin",
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._check_policy(default_policy)
        self._default_policy = default_policy
        self._devices: "OrderedDict[str, _DeviceEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        reg = self._registry
        self._c_targeted = reg.counter("fleet.requests", {"kind": "targeted"})
        self._c_agnostic = reg.counter("fleet.requests", {"kind": "agnostic"})
        self._c_rerouted = reg.counter("fleet.rerouted")
        self._c_placements = {
            policy: reg.counter("fleet.placements", {"policy": policy})
            for policy in ROUTING_POLICIES
        }
        self._rr_cursor = 0
        # (device_id, shape tuple) -> predicted best seconds on device.
        self._estimates: Dict[Tuple[str, Tuple[int, ...]], float] = {}

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry the router's dispatch counters live in."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The tracer receiving ``fleet.reroute`` spans."""
        return self._tracer

    @staticmethod
    def _check_policy(policy: str) -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"known: {list(ROUTING_POLICIES)}"
            )

    # -- fleet membership ----------------------------------------------------

    def add_device(
        self,
        device_id: str,
        service: SelectionService,
        *,
        model=None,
        library: Optional[Sequence[KernelConfig]] = None,
    ) -> "FleetRouter":
        """Register one device; returns self for chaining."""
        if not device_id:
            raise ValueError("device_id must be non-empty")
        with self._lock:
            if device_id in self._devices:
                raise ValueError(f"device {device_id!r} is already routed")
            if library is None:
                bundled = getattr(service.policy, "library", None)
                if bundled is not None:
                    library = tuple(bundled.configs)
            self._devices[device_id] = _DeviceEntry(
                service,
                model,
                tuple(library) if library else None,
                self._registry,
                device_id,
            )
        return self

    @property
    def device_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._devices)

    @property
    def default_policy(self) -> str:
        return self._default_policy

    def service(self, device_id: str) -> SelectionService:
        with self._lock:
            return self._entry(device_id).service

    def healthy_ids(self) -> Tuple[str, ...]:
        """Devices whose circuit breaker is currently closed."""
        with self._lock:
            ids = tuple(self._devices)
        return tuple(did for did in ids if not self._devices[did].service.breaker_open)

    def _entry(self, device_id: str) -> _DeviceEntry:
        try:
            return self._devices[device_id]
        except KeyError:
            raise KeyError(
                f"no device {device_id!r} in fleet; "
                f"routed: {list(self._devices)}"
            ) from None

    # -- dispatch ------------------------------------------------------------

    def select(
        self,
        shape: GemmShape,
        *,
        device_id: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> RoutedDecision:
        """Route one lookup; never raises while a healthy device answers."""
        start = time.perf_counter()
        candidates, targeted = self._candidates(shape, device_id, policy)
        last_exc: Optional[BaseException] = None
        for position, did in enumerate(candidates):
            entry = self._devices[did]
            try:
                config = entry.service.select(shape)
            except Exception as exc:
                last_exc = exc
                self._c_rerouted.inc()
                continue
            rerouted = position > 0 or (targeted is not None and did != targeted)
            with self._lock:
                entry.c_dispatched.inc()
                entry.g_outstanding.inc()
                if rerouted and position == 0:
                    # Targeted at an open breaker: the fallback device
                    # answered first try, but it is still a reroute.
                    self._c_rerouted.inc()
            if rerouted:
                requested = targeted if targeted is not None else candidates[0]
                self._tracer.record(
                    "fleet.reroute",
                    time.perf_counter() - start,
                    tags={
                        "from": requested,
                        "to": did,
                        "reason": (
                            "exception" if position > 0 else "breaker-open"
                        ),
                    },
                )
            return RoutedDecision(did, config, rerouted)
        assert last_exc is not None
        raise last_exc

    def select_batch(
        self,
        shapes: Sequence[GemmShape],
        *,
        device_id: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> Tuple[RoutedDecision, ...]:
        """Route many lookups, one ``select_batch`` per chosen device.

        Shapes land where as many :meth:`select` calls would put them
        (``device_id`` pins them all); a device whose call fails has its
        share rerouted to each shape's next candidate.
        """
        shapes = tuple(shapes)
        parts, order_of = self._plan_batch(shapes, device_id, policy)
        out: List[RoutedDecision] = [None] * len(shapes)  # type: ignore[list-item]

        def serve(did: str, picks: _Picks, tried: FrozenSet[str]) -> None:
            """Answer one device's share, rerouting it on failure.

            ``tried`` holds the devices that already failed for these
            shapes, so a multi-device outage walks each candidate order
            at most once: the recursion depth is bounded by the fleet
            size and never revisits a device that failed earlier.
            """
            entry = self._devices[did]
            if isinstance(picks, slice):
                batch, positions = shapes[picks], range(len(shapes))[picks]
            else:
                batch, positions = [shapes[i] for i in picks], picks
            try:
                configs = entry.service.select_batch(batch)
            except Exception:
                self._c_rerouted.inc(len(positions))
                tried = tried | {did}
                # Redistribute to each shape's next untried candidate
                # inside one fleet.reroute span; a multi-device outage
                # nests its cascading reroutes as child spans.
                regrouped: Dict[str, List[int]] = {}
                for i in positions:
                    remaining = [c for c in order_of(i) if c not in tried]
                    if not remaining:
                        raise
                    regrouped.setdefault(remaining[0], []).append(i)
                with self._tracer.trace(
                    "fleet.reroute",
                    **{"from": did, "shapes": len(positions), "reason": "exception"},
                ):
                    for next_did, next_picks in regrouped.items():
                        serve(next_did, next_picks, tried)
                return
            rerouted = bool(tried) or (device_id is not None and did != device_id)
            with self._lock:
                entry.c_dispatched.inc(len(configs))
                entry.g_outstanding.inc(len(configs))
            if rerouted and not tried:
                # Targeted at an open breaker: the policy's first choice
                # answered, but every shape is still a reroute.
                self._c_rerouted.inc(len(configs))
            # tuple.__new__ is RoutedDecision._make minus a Python frame.
            fields = zip(repeat(did), configs, repeat(rerouted))
            decisions = map(tuple.__new__, repeat(RoutedDecision), fields)
            if isinstance(picks, slice):
                out[picks] = decisions  # type: ignore
            else:
                for i, decision in zip(picks, decisions):
                    out[i] = decision

        try:
            for did, picks in parts:
                serve(did, picks, frozenset())
        finally:
            del serve  # the recursive closure refers to itself: free it now
        return tuple(out)

    def complete(
        self,
        device_id: str,
        n: int = 1,
        *,
        shape: Optional[GemmShape] = None,
        config: Optional[KernelConfig] = None,
        seconds: Optional[float] = None,
    ) -> None:
        """Mark ``n`` routed requests on a device as finished.

        Feeds the ``least-outstanding`` policy: callers report
        completion when the launched kernel retires, so the policy
        tracks true in-flight load rather than total dispatch counts.

        When ``shape``/``config``/``seconds`` describe the retired
        kernel and the device's service opted into ``auto_record``
        (:class:`~repro.serving.adaptive.AdaptiveSelectionService`),
        the observed latency is forwarded to the service's ``record``
        — serving loops then need no explicit feedback calls.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            entry = self._entry(device_id)
            entry.g_outstanding.set(max(0.0, entry.g_outstanding.value - n))
            service = entry.service
        if (
            shape is not None
            and config is not None
            and seconds is not None
            and getattr(service, "auto_record", False)
        ):
            service.record(shape, config, seconds)

    # -- policy internals ----------------------------------------------------

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
                target = self._entry(device_id)
                self._c_targeted.inc()
                if not target.service.breaker_open:
                    order = [device_id]
                    order += [d for d in ids if d != device_id]
                    return tuple(order), device_id
                # Breaker open: fall over to the policy order, keeping
                # the dead device as the candidate of last resort.
                chosen_policy = policy or self._default_policy
            else:
                self._c_agnostic.inc()
                chosen_policy = policy or self._default_policy
            self._check_policy(chosen_policy)
            self._c_placements[chosen_policy].inc()
            healthy = [d for d in ids if not self._devices[d].service.breaker_open]
            open_ids = [d for d in ids if d not in healthy]
            pool = healthy if healthy else ids

            if chosen_policy == "round-robin":
                start = self._rr_cursor % len(pool)
                self._rr_cursor += 1
                ordered = pool[start:] + pool[:start]
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

    def _plan_batch(
        self,
        shapes: Tuple[GemmShape, ...],
        device_id: Optional[str],
        policy: Optional[str],
    ) -> Tuple[List[Tuple[str, _Picks]], Callable[[int], Tuple[str, ...]]]:
        """Each shape's first choice, from one snapshot of membership,
        breaker health and load taken under one lock.

        Returns ``(parts, order_of)``: each chosen device with the
        positions it answers, and ``order_of(i)``, shape ``i``'s full
        candidate order by the rules of :meth:`_candidates`, which only
        a failing device asks for.
        """
        chosen = policy or self._default_policy
        self._check_policy(chosen)
        n = len(shapes)
        with self._lock:
            if device_id is not None:
                self._entry(device_id)
            if not n:
                return [], lambda i: ()
            if not self._devices:
                raise RuntimeError("no devices routed; call add_device first")
            ids = list(self._devices)
            open_ids = [d for d in ids if self._devices[d].service.breaker_open]
            healthy = [d for d in ids if d not in open_ids]
            if device_id in healthy:
                self._c_targeted.inc(n)
                order = (device_id, *[d for d in healthy if d != device_id], *open_ids)
                return [(device_id, slice(None))], lambda i: order
            (self._c_agnostic if device_id is None else self._c_targeted).inc(n)
            self._c_placements[chosen].inc(n)
            pool = healthy or ids
            # Fallback sort keys: the rows each argmin ran over (none for RR).
            rows: List[List[float]] = []
            if chosen == "round-robin":
                k = len(pool)
                start = self._rr_cursor
                self._rr_cursor += n
                # All breakers open: skip the dead target, as _candidates does.
                skip = device_id if k > 1 else None
                heads = [pool[(start + j) % k] for j in range(k + 1)]
                parts: List[Tuple[str, _Picks]] = [
                    (heads[j + 1] if heads[j] == skip else heads[j], slice(j, None, k))
                    for j in range(min(k, n))
                ]
            else:
                # All breakers open: the dead target is only tried last.
                pool = [d for d in pool if d != device_id] or pool
                k = len(pool)
                if chosen == "least-outstanding":
                    load: List[float] = [self._devices[d].outstanding for d in pool]
                    for _ in range(n):
                        rows.append(list(load))
                        load[load.index(min(load))] += 1
                else:  # perf-aware
                    rows = [[self._estimate_locked(d, s) for d in pool] for s in shapes]
                groups: Dict[str, List[int]] = {}
                for i, row in enumerate(rows):
                    groups.setdefault(pool[row.index(min(row))], []).append(i)
                parts = list(groups.items())
        tail = open_ids if healthy else []

        def order_of(i: int) -> Tuple[str, ...]:
            key = rows[i] if rows else [(j - start - i) % k for j in range(k)]
            order = [pool[j] for j in sorted(range(k), key=key.__getitem__)] + tail
            if device_id is not None:
                # The dead target goes last; everything healthy first.
                order = [d for d in order if d != device_id] + [device_id]
            return tuple(order)

        return parts, order_of

    def estimate(self, device_id: str, shape: GemmShape) -> float:
        """Predicted best-case seconds for ``shape`` on one device.

        The minimum of the device's performance model over its shipped
        kernel library — the quantity the ``perf-aware`` policy ranks
        devices by.  Memoised per (device, shape).
        """
        with self._lock:
            self._entry(device_id)
            return self._estimate_locked(device_id, shape)

    def _estimate_locked(self, device_id: str, shape: GemmShape) -> float:
        key = (device_id, shape.as_tuple())
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        entry = self._devices[device_id]
        if entry.model is None or not entry.library:
            raise RuntimeError(
                f"device {device_id!r} has no performance model/library; "
                "perf-aware routing needs both (pass model= and library= "
                "to add_device)"
            )
        best = float("inf")
        for config in entry.library:
            try:
                seconds = entry.model.time_seconds(shape, config)
            except ValueError:
                continue  # config cannot launch on this device
            if seconds < best:
                best = seconds
        self._estimates[key] = best
        return best

    # -- observability -------------------------------------------------------

    def stats(self) -> FleetStats:
        """Aggregated fleet snapshot: a thin view over the obs metrics."""
        with self._lock:
            ids = tuple(self._devices)
            dispatched = {d: self._devices[d].dispatched for d in ids}
            outstanding = {d: self._devices[d].outstanding for d in ids}
            targeted = self._c_targeted.value
            agnostic = self._c_agnostic.value
            rerouted = self._c_rerouted.value
            policy_counts = {
                policy: counter.value
                for policy, counter in self._c_placements.items()
                if counter.value
            }
        # Per-device snapshots are taken outside the router lock: each
        # service has its own lock and stats() never calls back in.
        devices = {d: self._devices[d].service.stats() for d in ids}
        return FleetStats(
            devices=devices,
            dispatched=dispatched,
            outstanding=outstanding,
            targeted=targeted,
            agnostic=agnostic,
            rerouted=rerouted,
            policy_counts=policy_counts,
            default_policy=self._default_policy,
        )

    def reset_breaker(self, device_id: str) -> None:
        """Force one device's circuit closed (e.g. after redeploy)."""
        self.service(device_id).reset_breaker()

    def clear(self) -> None:
        """Zero router counters and estimate memo; services are kept.

        Only router-owned metrics reset; service metrics sharing the
        registry are untouched.
        """
        with self._lock:
            self._rr_cursor = 0
            self._c_targeted.reset()
            self._c_agnostic.reset()
            self._c_rerouted.reset()
            for counter in self._c_placements.values():
                counter.reset()
            self._estimates.clear()
            for entry in self._devices.values():
                entry.g_outstanding.reset()
                entry.c_dispatched.reset()

    def __repr__(self) -> str:
        with self._lock:
            ids = list(self._devices)
        return (
            f"FleetRouter({len(ids)} devices {ids}, "
            f"default_policy={self._default_policy!r})"
        )
