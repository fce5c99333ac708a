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

A device-agnostic round-robin lookup while every breaker is closed —
the common case — takes no lock and builds no list: it reads a cached
ring, the tuple of the devices (rebuilt only by
:meth:`FleetRouter.add_device` and by breaker transitions, which each
service reports through ``watch_breaker``), draws its turn from an
:class:`itertools.count` and counts itself with lock-free
:meth:`~repro.obs.Counter.tick` calls.  Every other lookup — targeted,
another policy, any breaker open — is ordered by
:meth:`FleetRouter._candidates` under the router lock; the router never
holds that lock while calling into a service.

Batches (:meth:`FleetRouter.select_batch`) land where as many lookups
would, planned in one pass under the lock that keeps only each shape's
first choice; a device-agnostic round-robin batch reads the ring
instead of scanning breakers.  Each device answers its share in one
call and fallback orders are derived only on failure.  A share its
device answers first try maps each config, by identity, to a decision
the device keeps interned, so repeated configs allocate nothing
(``benchmarks/test_bench_fleet.py``: ~6-20x faster than per-query
routing, depending on the policy).

Service exceptions never escape a routed lookup while any device is
healthy: the router catches, counts a reroute, and retries the next
candidate.  Dispatch accounting lives in a :mod:`repro.obs` registry
(per-device ``fleet.dispatched``/``fleet.completed``, whose difference
is the in-flight load, and per-policy ``fleet.placements``) and
cross-device fallbacks emit ``fleet.reroute`` spans on the router's
tracer; :meth:`FleetRouter.stats` stays a thin view assembling the
legacy :class:`~repro.serving.stats.FleetStats` shape from those
metrics and the per-device service snapshots.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from itertools import count
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
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

#: Decisions one device keeps interned for its batch answers; an insert
#: that grows the table past this clears it.
_INTERN_CAP = 256

# tuple.__new__ is RoutedDecision._make minus a Python frame.
_new_tuple = tuple.__new__

_T = TypeVar("_T")


def _rotated(pool: Sequence[_T], turn: int) -> List[_T]:
    """``pool`` cycled to start at round-robin ``turn``."""
    start = turn % len(pool)
    return [*pool[start:], *pool[:start]]


def _ring_refresher(router: "FleetRouter") -> Callable[[], None]:
    """A breaker watcher that rebuilds ``router``'s ring.

    It holds the router weakly: a service that kept its router alive
    would close a reference cycle, and fleets would then wait for the
    cyclic garbage collector instead of being freed on last use.
    """
    ref = weakref.ref(router)

    def refresh() -> None:
        live = ref()
        if live is not None:
            live._refresh_ring()

    return refresh


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

    Load accounting lives in registry counters so a fleet-wide obs
    snapshot carries per-device dispatch counts without a separate
    stats pass: ``fleet.dispatched`` ticks once per answered lookup and
    ``fleet.completed`` grows under the router lock in
    :meth:`FleetRouter.complete`; the in-flight load is the difference.
    """

    def __init__(
        self,
        service: SelectionService,
        model,
        library,
        registry: MetricsRegistry,
        device_id: str,
    ):
        self.device_id = device_id
        self.service = service
        self.select = service.select
        self.model = model
        self.library = library
        labels = {"device": device_id}
        self.c_dispatched = registry.counter("fleet.dispatched", labels)
        self.c_completed = registry.counter("fleet.completed", labels)
        # id(config) -> RoutedDecision(device_id, config, False).  Each
        # decision holds its config, so no key's id is reused while the
        # key is in the table.
        self._decided: Dict[int, RoutedDecision] = {}

    @property
    def outstanding(self) -> int:
        return self.c_dispatched.value - self.c_completed.value

    def decisions(self, configs: Sequence[KernelConfig]) -> List[RoutedDecision]:
        """This device's first-choice decision for each config, interned:
        repeats of one config object share one decision."""
        table = self._decided
        try:
            return list(map(table.__getitem__, map(id, configs)))
        except KeyError:
            pass
        out = []
        for config in configs:
            decision = table.get(id(config))
            if decision is None:
                decision = _new_tuple(RoutedDecision, (self.device_id, config, False))
                table[id(config)] = decision
                # Checked after the insert, so once racing threads are
                # done the last check has seen every insert.
                if len(table) > _INTERN_CAP:
                    table.clear()
            out.append(decision)
        return out


#: How a batch's shapes fail over, read by :func:`_fallback_order`: the
#: pool each shape ranks, the argmin rows that ranked it (empty: a
#: round-robin rotation from the batch's first turn), that turn, the
#: open-breaker devices after the pool, and a dead target to try last.
_Fallback = Tuple[
    Sequence[_DeviceEntry],
    Sequence[Sequence[float]],
    int,
    Sequence[_DeviceEntry],
    Optional[_DeviceEntry],
]


def _fallback_order(fallback: _Fallback, i: int) -> List[_DeviceEntry]:
    """Shape ``i``'s candidate order by the rules of
    :meth:`FleetRouter._candidates`; only a failing device asks."""
    pool, rows, start, tail, last = fallback
    if rows:
        key = rows[i].__getitem__
        order = [pool[j] for j in sorted(range(len(pool)), key=key)]
    else:
        order = _rotated(pool, start + i)
    order += tail
    if last is not None:
        # The dead target goes last; everything healthy first.
        order = [e for e in order if e is not last] + [last]
    return order


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
        self._tick_agnostic = self._c_agnostic.tick
        self._tick_round_robin = self._c_placements["round-robin"].tick
        self._restart_turns(0)
        # Every device, in order, while all breakers are closed; empty
        # otherwise.  Replaced whole, never mutated: select reads it
        # without the lock.
        self._ring: Tuple[_DeviceEntry, ...] = ()
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
        # Outside the router lock: the watcher runs under the service
        # lock and takes the router lock, never the other way round.
        service.watch_breaker(_ring_refresher(self))
        self._refresh_ring()
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

    def _refresh_ring(self) -> None:
        """Rebuild the lock-free round-robin ring from breaker health.

        Called after membership changes and by every service's breaker
        watcher.  Each rebuild reads all flags under the router lock, so
        the last one to run saw every transition that preceded it.
        """
        with self._lock:
            entries = tuple(self._devices.values())
            healthy = not any(e.service.breaker_open for e in entries)
            self._ring = entries if healthy else ()

    def _restart_turns(self, turn: int) -> None:
        """Make ``turn`` the next round-robin turn drawn."""
        self._next_turn = count(turn).__next__

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
        ring = self._ring
        if (
            ring
            and device_id is None
            and (policy or self._default_policy) == "round-robin"
        ):
            # Healthy round-robin: ticks only, no lock, no list.
            self._tick_agnostic()
            self._tick_round_robin()
            turn = self._next_turn()
            entry = ring[turn % len(ring)]
            try:
                config = entry.select(shape)
            except Exception as exc:
                start = time.perf_counter()
                self._c_rerouted.tick()
                # Fail over in the order _candidates gives this turn.
                order = _rotated([e.device_id for e in ring], turn)
                return self._serve(shape, order, None, start, exc)
            entry.c_dispatched.tick()
            return _new_tuple(RoutedDecision, (entry.device_id, config, False))
        start = time.perf_counter()
        candidates, targeted = self._candidates(shape, device_id, policy)
        return self._serve(shape, candidates, targeted, start, None)

    def _serve(
        self,
        shape: GemmShape,
        candidates: Sequence[str],
        targeted: Optional[str],
        start: float,
        failed: Optional[BaseException],
    ) -> RoutedDecision:
        """Answer from the first candidate that does not raise.

        ``failed`` is the exception of a first candidate that was
        already tried (and counted as a reroute); serving then resumes
        at the second.  ``fleet.reroute`` spans run from ``start``: the
        request's arrival, or the first choice's failure for a lookup
        that began on the lock-free path.
        """
        last_exc = failed
        for position in range(0 if failed is None else 1, len(candidates)):
            did = candidates[position]
            entry = self._devices[did]
            try:
                config = entry.select(shape)
            except Exception as exc:
                last_exc = exc
                self._c_rerouted.tick()
                continue
            entry.c_dispatched.tick()
            rerouted = position > 0 or (targeted is not None and did != targeted)
            if rerouted and position == 0:
                # Targeted at an open breaker: the fallback device
                # answered first try, but it is still a reroute.
                self._c_rerouted.tick()
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
        parts, fallback = self._plan_batch(shapes, device_id, policy)
        out: List[RoutedDecision] = [None] * len(shapes)  # type: ignore[list-item]
        for entry, picks in parts:
            self._answer(entry, picks, shapes, out, fallback, device_id)
        return tuple(out)

    def _answer(
        self,
        entry: _DeviceEntry,
        picks: _Picks,
        shapes: Tuple[GemmShape, ...],
        out: List[RoutedDecision],
        fallback: _Fallback,
        device_id: Optional[str],
        tried: FrozenSet[_DeviceEntry] = frozenset(),
    ) -> None:
        """Answer one device's share of a batch into ``out``, rerouting
        it on failure.

        ``tried`` holds the devices that already failed for these
        shapes, so a multi-device outage walks each candidate order at
        most once: the recursion depth is bounded by the fleet size and
        never revisits a device that failed earlier.  A share its device
        answers first try gets that device's interned decisions; a
        rerouted share gets new ones.
        """
        if isinstance(picks, slice):
            batch: Sequence[GemmShape] = shapes[picks]
        else:
            batch = [shapes[i] for i in picks]
        try:
            configs = entry.service.select_batch(batch)
        except Exception:
            positions = (
                range(len(shapes))[picks] if isinstance(picks, slice) else picks
            )
            self._c_rerouted.inc(len(positions))
            tried = tried | {entry}
            # Redistribute to each shape's next untried candidate inside
            # one fleet.reroute span; a multi-device outage nests its
            # cascading reroutes as child spans.
            regrouped: Dict[_DeviceEntry, List[int]] = {}
            for i in positions:
                remaining = [e for e in _fallback_order(fallback, i) if e not in tried]
                if not remaining:
                    raise
                regrouped.setdefault(remaining[0], []).append(i)
            with self._tracer.trace(
                "fleet.reroute",
                **{
                    "from": entry.device_id,
                    "shapes": len(positions),
                    "reason": "exception",
                },
            ):
                for next_entry, next_picks in regrouped.items():
                    self._answer(
                        next_entry, next_picks, shapes, out, fallback, device_id, tried
                    )
            return
        did = entry.device_id
        entry.c_dispatched.inc(len(configs))
        if tried or (device_id is not None and did != device_id):
            if not tried:
                # Targeted at an open breaker: the policy's first choice
                # answered, but every shape is still a reroute.
                self._c_rerouted.inc(len(configs))
            decisions = [RoutedDecision(did, config, True) for config in configs]
        else:
            decisions = entry.decisions(configs)
        if isinstance(picks, slice):
            out[picks] = decisions
        else:
            for i, decision in zip(picks, decisions):
                out[i] = decision

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
            entry = self._devices.get(device_id) or self._entry(device_id)
            # Clamp at zero: never complete more than is in flight.
            done = min(n, entry.c_dispatched.value - entry.c_completed.value)
            if done == 1:
                entry.c_completed.tick()
            elif done > 0:
                entry.c_completed.inc(done)
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

    def _plan_batch(
        self,
        shapes: Tuple[GemmShape, ...],
        device_id: Optional[str],
        policy: Optional[str],
    ) -> Tuple[List[Tuple[_DeviceEntry, _Picks]], _Fallback]:
        """Each shape's first choice, from one snapshot of membership,
        breaker health and load taken under one lock.

        Returns ``(parts, fallback)``: each chosen device with the
        positions it answers, and the rule :func:`_fallback_order` turns
        into a shape's full candidate order, which only a failing device
        asks for.  A device-agnostic round-robin batch while every
        breaker is closed reads the lock-free path's ring instead of
        scanning breakers.
        """
        chosen = policy or self._default_policy
        self._check_policy(chosen)
        n = len(shapes)
        with self._lock:
            target = None if device_id is None else self._entry(device_id)
            if not n:
                return [], ((), (), 0, (), None)
            ring = self._ring
            if ring and target is None and chosen == "round-robin":
                entries: Sequence[_DeviceEntry] = ring
                healthy: Sequence[_DeviceEntry] = ring
                open_entries: Sequence[_DeviceEntry] = ()
            else:
                if not self._devices:
                    raise RuntimeError("no devices routed; call add_device first")
                entries = list(self._devices.values())
                open_entries = [e for e in entries if e.service.breaker_open]
                healthy = [e for e in entries if e not in open_entries]
            if target is not None and target in healthy:
                self._c_targeted.inc(n)
                rest = [e for e in healthy if e is not target] + list(open_entries)
                return [(target, slice(None))], ((target,), (), 0, rest, None)
            (self._c_agnostic if target is None else self._c_targeted).inc(n)
            self._c_placements[chosen].inc(n)
            pool = healthy or entries
            tail = open_entries if healthy else ()
            # Fallback sort keys: the rows each argmin ran over (none for RR).
            rows: List[List[float]] = []
            start = 0
            parts: List[Tuple[_DeviceEntry, _Picks]] = []
            if chosen == "round-robin":
                k = len(pool)
                start = self._next_turn()
                self._restart_turns(start + n)
                # All breakers open: skip the dead target, as _candidates does.
                skip = target if k > 1 else None
                for j in range(min(k, n)):
                    head = pool[(start + j) % k]
                    if head is skip:
                        head = pool[(start + j + 1) % k]
                    parts.append((head, slice(j, None, k)))
            else:
                # All breakers open: the dead target is only tried last.
                pool = [e for e in pool if e is not target] or pool
                if chosen == "least-outstanding":
                    load: List[float] = [e.outstanding for e in pool]
                    for _ in range(n):
                        rows.append(list(load))
                        load[load.index(min(load))] += 1
                else:  # perf-aware
                    rows = [
                        [self._estimate_locked(e.device_id, s) for e in pool]
                        for s in shapes
                    ]
                groups: Dict[_DeviceEntry, List[int]] = {}
                for i, row in enumerate(rows):
                    groups.setdefault(pool[row.index(min(row))], []).append(i)
                parts = list(groups.items())
        return parts, (pool, rows, start, tail, target)

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
            dispatched = {d: self._devices[d].c_dispatched.value for d in ids}
            # From the same dispatch counts, so the two views agree.
            outstanding = {
                d: dispatched[d] - self._devices[d].c_completed.value for d in ids
            }
            targeted = self._c_targeted.value
            agnostic = self._c_agnostic.value
            rerouted = self._c_rerouted.value
            # One read per counter: the filter and the count agree.
            policy_counts = {
                policy: placed
                for policy, counter in self._c_placements.items()
                if (placed := counter.value)
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
            self._restart_turns(0)
            self._c_targeted.reset()
            self._c_agnostic.reset()
            self._c_rerouted.reset()
            for counter in self._c_placements.values():
                counter.reset()
            self._estimates.clear()
            for entry in self._devices.values():
                entry.c_completed.reset()
                entry.c_dispatched.reset()

    def __repr__(self) -> str:
        with self._lock:
            ids = list(self._devices)
        return (
            f"FleetRouter({len(ids)} devices {ids}, "
            f"default_policy={self._default_policy!r})"
        )
