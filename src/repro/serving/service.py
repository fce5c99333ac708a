"""The selection serving layer.

A :class:`SelectionService` fronts any fitted selection policy — a
trained :class:`~repro.core.selection.selector.Selector`, a
:class:`~repro.core.deploy.DeployedSelector`, or a
:class:`~repro.core.selection.dynamic.DynamicTrialSelector` — with the
machinery a production dispatch path needs:

* a thread-safe LRU memo cache keyed on ``shape.as_tuple()``, fronted
  by a read-mostly snapshot dict so a *warm* hit costs one lock-free
  dict lookup rather than a model evaluation or even a lock acquisition
  (the paper's "negligible overhead" requirement at traffic scale);
  a ``memoise = False`` policy (the compiled tree) is called directly
  on single lookups;
* misses resolved *outside* the service lock: concurrent misses for the
  same shape coordinate through an in-flight table so the policy runs
  at most once per unique shape, and one slow policy call never
  serializes unrelated hits.  Each in-flight entry is a latch, a plain
  :class:`threading.Lock` its owner holds until the answer is cached
  (or degraded); waiters block by acquiring and at once releasing it,
  so an uncontended miss allocates one lock and nothing else;
* batch and single-query APIs, routing misses through the policy's
  vectorized ``select_batch`` when it has one;
* observability through :mod:`repro.obs`: hit/miss/fallback/breaker
  counters and per-lookup latency histograms live in a
  :class:`~repro.obs.MetricsRegistry` (pass a shared one plus ``name``
  to aggregate a fleet into one exported snapshot), with the legacy
  :meth:`stats` snapshot kept as a thin view over those metrics;
* graceful degradation: policy exceptions are counted, answered with the
  last-known-good (or configured fallback) configuration, and a circuit
  breaker stops hammering a persistently failing policy, probing it
  periodically until it recovers.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.kernels.params import KernelConfig
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.registry import MetricsRegistry
from repro.serving.stats import LatencySummary, ServiceStats
from repro.workloads.gemm import GemmShape

__all__ = ["SelectionService"]

_Key = Tuple[int, ...]


class SelectionService:
    """Thread-safe memoising front-end over a selection policy.

    ``policy`` is anything with ``select(shape) -> KernelConfig``; a
    vectorized ``select_batch(shapes)`` is used for batch misses when
    present.  ``capacity`` bounds the LRU memo.

    Lock discipline: the service lock guards the LRU, the in-flight
    table and breaker state.  Direct single lookups take it only to
    count an error or end an error streak.  Warm single hits, and
    batches whose every key is warm, read a plain snapshot dict
    without the lock (CPython dict reads are atomic; the single writer
    mutates it under the lock), so they do not refresh LRU recency —
    eviction order is approximate-LRU under the lock-free fast path.
    Policy evaluation always happens *outside* the lock with a
    double-checked insert, except the circuit breaker's half-open
    probes, which stay serialized to keep the probe schedule exact.
    Each in-flight key maps to a latch: a :class:`threading.Lock` the
    owning thread acquires when it registers the key and releases
    exactly once, after it has dropped the registration, on every
    exit (answer, degraded answer, exception).  Waiters pass through
    it (``with latch: pass``) and then re-check the cache.  The miss
    path bumps its counters with lock-free :meth:`Counter.tick
    <repro.obs.Counter.tick>` while it holds the service lock anyway,
    so :meth:`clear`, which resets them under the same lock, never
    splits a count.

    ``registry`` is the :class:`~repro.obs.MetricsRegistry` the service
    writes its metrics into (a private one when omitted; pass
    :data:`~repro.obs.NULL_REGISTRY` to disable instrumentation, which
    also empties :meth:`stats`).  ``name`` labels every metric with
    ``service=<name>`` so many services — e.g. one per fleet device —
    can share a registry without colliding.

    ``fallback`` is the configuration served when the policy raises and
    no last-known-good answer exists yet (a production deployment passes
    one of its bundled kernels — "never worse than pick any shipped
    kernel").  After ``breaker_threshold`` *consecutive* policy errors
    the circuit breaker opens: cache misses are answered degraded
    without touching the policy, except every
    ``breaker_probe_interval``-th miss, which probes it (half-open); one
    probe success closes the breaker.  With neither a fallback nor a
    last-known-good config available, the policy's exception propagates.

    ``provenance`` ties the served policy back to the pipeline artifact
    it was loaded from (a :class:`~repro.pipeline.artifact.Provenance`);
    :meth:`from_artifact` sets it automatically and :meth:`stats`
    reports the artifact id and lineage.
    """

    def __init__(
        self,
        policy,
        *,
        capacity: int = 4096,
        fallback: Optional[KernelConfig] = None,
        breaker_threshold: int = 5,
        breaker_probe_interval: int = 8,
        provenance=None,
        registry: Optional[MetricsRegistry] = None,
        name: Optional[str] = None,
    ):
        if not hasattr(policy, "select"):
            raise TypeError(f"policy {policy!r} has no select(shape) method")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        if breaker_probe_interval < 1:
            raise ValueError(
                f"breaker_probe_interval must be >= 1, got {breaker_probe_interval}"
            )
        self._policy = policy
        self._direct = not getattr(type(policy), "memoise", True)
        self._provenance = provenance
        self._capacity = capacity
        self._fallback = fallback
        self._breaker_threshold = breaker_threshold
        self._probe_interval = breaker_probe_interval
        self._cache: "OrderedDict[_Key, KernelConfig]" = OrderedDict()
        # Read-mostly mirror of the LRU's contents for the lock-free
        # fast path; mutated only under the lock, replaced on clear().
        self._snapshot: Dict[_Key, KernelConfig] = {}
        # Misses being resolved right now: key -> latch the resolving
        # thread holds until the answer is cached (or degraded).
        self._inflight: Dict[_Key, Lock] = {}
        self._lock = Lock()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._name = name
        labels = {} if name is None else {"service": name}
        reg = self._registry
        self._c_lookups = reg.counter("serving.lookups", labels)
        self._c_hits = reg.counter("serving.cache_hits", labels)
        self._c_single = reg.counter("serving.calls", {**labels, "kind": "single"})
        self._c_batch = reg.counter("serving.calls", {**labels, "kind": "batch"})
        self._c_batch_queries = reg.counter("serving.batch_queries", labels)
        self._g_max_batch = reg.gauge("serving.max_batch_size", labels)
        self._g_cache_size = reg.gauge("serving.cache_size", labels)
        self._c_evictions = reg.counter("serving.evictions", labels)
        self._c_policy_errors = reg.counter("serving.policy_errors", labels)
        self._c_fallback_serves = reg.counter("serving.fallback_serves", labels)
        self._c_breaker_trips = reg.counter("serving.breaker_trips", labels)
        self._g_breaker_open = reg.gauge("serving.breaker_open", labels)
        self._h_call = reg.histogram("serving.call_seconds", labels)
        self._h_lookup = reg.histogram("serving.lookup_seconds", labels)
        # Breaker *state* (as opposed to its counters) stays plain: the
        # half-open probe logic reads it on the hot path.
        self._breaker_open = False
        self._breaker_watchers: Tuple[Callable[[], None], ...] = ()
        self._consecutive_errors = 0
        self._open_misses = 0
        self._last_good: Optional[KernelConfig] = None
        self._degraded_serves = 0

    @classmethod
    def from_artifact(cls, store, artifact_id: str, **kwargs) -> "SelectionService":
        """Serve a deployed selector loaded from a pipeline artifact.

        ``store`` is a :class:`~repro.pipeline.store.ArtifactStore`;
        ``artifact_id`` a fingerprint, unambiguous prefix, or
        ``stage:prefix`` display id.  The artifact's provenance is
        attached so :meth:`stats` can report where the policy came from.
        """
        try:
            artifact = store.resolve(artifact_id)
        except KeyError as exc:
            # resolve() raises on ambiguous prefixes; keep the artifact
            # id front and center instead of a bare store internal.
            raise KeyError(
                f"cannot resolve artifact {artifact_id!r}: {exc.args[0]}"
            ) from exc
        if artifact is None:
            raise KeyError(f"no artifact {artifact_id!r} in {store!r}")
        if not hasattr(artifact.value, "select"):
            raise TypeError(
                f"artifact {artifact.artifact_id} holds "
                f"{type(artifact.value).__name__} (stage "
                f"{artifact.provenance.stage!r}), not a selection policy"
            )
        return cls(artifact.value, provenance=artifact.provenance, **kwargs)

    @property
    def policy(self):
        return self._policy

    @property
    def provenance(self):
        return self._provenance

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def fallback(self) -> Optional[KernelConfig]:
        return self._fallback

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this service writes into."""
        return self._registry

    @property
    def name(self) -> Optional[str]:
        """The ``service=...`` label on this service's metrics, if any."""
        return self._name

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit breaker is currently open.

        A cheap health probe for routing layers: a plain read of a flag
        only ever written under the lock (a lone bool read is atomic,
        and the flag may flip the instant after any probe anyway).
        """
        return self._breaker_open

    @property
    def degraded_serves(self) -> int:
        """Degraded answers served; unlike stats, :meth:`clear` keeps it."""
        return self._degraded_serves

    def watch_breaker(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` after every breaker transition.

        It runs under the service lock right after the flag flips, so it
        must not call back into this service.  The fleet router uses it
        to rebuild its cached healthy rotation.
        """
        with self._lock:
            self._breaker_watchers += (callback,)

    # -- serving APIs --------------------------------------------------------

    def select(
        self,
        shape: GemmShape,
        key: Optional[_Key] = None,
        known: Optional[KernelConfig] = None,
    ) -> KernelConfig:
        """The configuration for one shape.

        A ``memoise = False`` policy is called directly while the
        breaker is closed, or, given ``known`` (an undegraded answer the
        adaptive wrapper holds), serves that, counted and timed the
        same.  Otherwise warm hits are answered from the snapshot dict
        without the service lock; misses coordinate through the
        in-flight table (:meth:`_resolve_one`) so each unique shape
        consults the policy exactly once even under contention.
        ``key`` is ``shape.as_tuple()``, passed by a caller that built it.
        """
        start = time.perf_counter()
        if self._direct and not self._breaker_open:
            self._c_lookups.tick()
            self._c_single.tick()
            if known is not None:
                config = known
            else:
                try:
                    config = self._policy.select(shape)
                except Exception as exc:
                    with self._lock:
                        self._note_policy_error()
                        config = self._serve_degraded(exc)
                else:
                    self._last_good = config
                    if self._consecutive_errors:
                        with self._lock:
                            self._note_policy_success(None, config)
        else:
            if key is None:
                key = shape.as_tuple()
            config = self._snapshot.get(key)
            if config is None:
                config = self._resolve_one(shape, key)
            else:
                # Lock-free fast path.  The hit is counted before its
                # lookup so a concurrent clear() can only ever leave
                # hits <= lookups, never the reverse.
                self._c_hits.inc()
                self._c_single.inc()
                self._c_lookups.inc()
        duration = time.perf_counter() - start
        self._h_call.observe(duration)
        self._h_lookup.observe(duration)
        return config

    def select_batch(self, shapes: Sequence[GemmShape]) -> Tuple[KernelConfig, ...]:
        """Configurations for many shapes in one call.

        A non-empty batch whose every key is memoised is answered from
        the snapshot dict without the service lock, and, like a single
        warm hit, does not refresh LRU recency.  Otherwise the batch
        takes the lock: cache misses are deduplicated and resolved
        through the policy's ``select_batch`` (one classifier pass) when
        available, falling back to per-shape ``select``; hits and
        repeats never re-evaluate.
        The policy runs outside the service lock; misses another thread
        is already resolving are awaited rather than recomputed.  The
        per-lookup latency histogram is weighted by the query count, so
        a 10k-query batch carries 10k observations, not one.
        """
        start = time.perf_counter()
        shapes = tuple(shapes)
        keys = [shape.as_tuple() for shape in shapes]
        n = len(keys)
        if n:
            try:
                out = tuple(map(self._snapshot.__getitem__, keys))
            except KeyError:
                pass
            else:
                # All warm: answered lock-free, like a single warm hit.
                # Hits are counted before lookups so a concurrent
                # clear() can only ever leave hits <= lookups.
                self._c_hits.inc(n)
                self._c_lookups.inc(n)
                self._c_batch.tick()
                self._c_batch_queries.inc(n)
                self._g_max_batch.set_max(n)
                duration = time.perf_counter() - start
                self._h_call.observe(duration)
                self._h_lookup.observe_n(duration / n, n)
                return out
        owned: List[Tuple[GemmShape, _Key, Lock]] = []
        waiting: List[Tuple[GemmShape, _Key, Lock]] = []
        with self._lock:
            self._c_batch.inc()
            self._c_lookups.inc(len(shapes))
            self._c_batch_queries.inc(len(shapes))
            self._g_max_batch.set_max(len(shapes))
            if not shapes:
                self._h_call.observe(time.perf_counter() - start)
                return ()

            resolved: Dict[_Key, KernelConfig] = {}
            seen: Set[_Key] = set()
            hits = 0
            for shape, key in zip(shapes, keys):
                if key in seen:
                    continue
                seen.add(key)
                cached = self._cache.get(key)
                if cached is not None:
                    hits += 1
                    self._cache.move_to_end(key)
                    resolved[key] = cached
                elif self._breaker_open:
                    # Degraded regime: serve under the lock so only the
                    # breaker's own probe schedule touches the policy.
                    resolved[key] = self._resolve_miss(shape)
                else:
                    latch = self._inflight.get(key)
                    if latch is None:
                        latch = self._register(key)
                        owned.append((shape, key, latch))
                    else:
                        waiting.append((shape, key, latch))
            # Repeats of a key within the batch count as hits: only the
            # first occurrence of a missing shape pays the policy.
            hits += len(shapes) - len(seen)
            self._c_hits.inc(hits)

        if owned:
            resolved.update(self._resolve_owned_batch(owned))
        for shape, key, latch in waiting:
            resolved[key] = self._resolve_one(shape, key, latch, count_call=False)

        out = tuple(map(resolved.__getitem__, keys))
        duration = time.perf_counter() - start
        self._h_call.observe(duration)
        self._h_lookup.observe_n(duration / len(shapes), len(shapes))
        return out

    # -- observability -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Immutable snapshot of the service counters.

        A thin view assembled from the service's :mod:`repro.obs`
        metrics — the return shape predates the unified registry and is
        pinned by the compat tests.
        """
        with self._lock:
            self._g_cache_size.set(len(self._cache))
            batch_calls = self._c_batch.value
            batch_queries = self._c_batch_queries.value
            mean_batch = batch_queries / batch_calls if batch_calls else 0.0
            return ServiceStats(
                lookups=self._c_lookups.value,
                cache_hits=self._c_hits.value,
                single_calls=self._c_single.value,
                batch_calls=batch_calls,
                max_batch_size=int(self._g_max_batch.value),
                mean_batch_size=mean_batch,
                evictions=self._c_evictions.value,
                cache_size=len(self._cache),
                capacity=self._capacity,
                latency=LatencySummary.from_histogram(self._h_call),
                policy_errors=self._c_policy_errors.value,
                fallback_serves=self._c_fallback_serves.value,
                breaker_trips=self._c_breaker_trips.value,
                breaker_open=self._breaker_open,
                artifact_id=(
                    None if self._provenance is None else self._provenance.artifact_id
                ),
                provenance=(
                    None if self._provenance is None else self._provenance.summary()
                ),
            )

    def clear(self) -> None:
        """Drop the memo cache and zero this service's metrics.

        Only metrics owned by this service reset; other components
        sharing the registry are untouched.
        """
        with self._lock:
            self._cache.clear()
            # Swap, don't mutate: lock-free readers keep a coherent
            # (possibly stale) view of the old dict.  In-flight misses
            # stay registered; their owners will release them.
            self._snapshot = {}
            owned: Tuple[Union[Counter, Gauge, Histogram], ...] = (
                self._c_lookups,
                self._c_hits,
                self._c_single,
                self._c_batch,
                self._c_batch_queries,
                self._g_max_batch,
                self._g_cache_size,
                self._c_evictions,
                self._c_policy_errors,
                self._c_fallback_serves,
                self._c_breaker_trips,
                self._g_breaker_open,
                self._h_call,
                self._h_lookup,
            )
            for metric in owned:
                metric.reset()
            self._set_breaker(False)
            self._consecutive_errors = 0
            self._last_good = None

    def reset_breaker(self) -> None:
        """Force the circuit closed (e.g. after redeploying the policy).

        Error and trip counters are kept; only the breaker state and the
        consecutive-error streak reset.
        """
        with self._lock:
            self._set_breaker(False)
            self._consecutive_errors = 0

    # -- internals -----------------------------------------------------------

    def _resolve_one(
        self,
        shape: GemmShape,
        key: _Key,
        latch: Optional[Lock] = None,
        *,
        count_call: bool = True,
    ) -> KernelConfig:
        """Answer a miss for one key, coordinating concurrent resolvers.

        At most one thread per key consults the policy: the first to
        register the key in the in-flight table resolves it outside the
        lock while later arrivals pass through its latch and re-check
        the cache (a degraded answer is not memoised, so the next waiter
        becomes the new resolver).  ``latch`` is a known in-flight
        latch to wait on before the first check; ``count_call`` is
        False when a surrounding batch call already counted this
        query's lookup.
        """
        while True:
            if latch is not None:
                with latch:
                    pass
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    # Hit and lookup are counted in one critical section
                    # so a concurrent clear() cannot split them.
                    self._c_hits.tick()
                    if count_call:
                        self._c_single.tick()
                        self._c_lookups.tick()
                    self._cache.move_to_end(key)
                    return cached
                if self._breaker_open:
                    if count_call:
                        self._c_single.tick()
                        self._c_lookups.tick()
                    return self._resolve_miss(shape)
                latch = self._inflight.get(key)
                if latch is None:
                    latch = self._register(key)
                    break
        return self._resolve_owned(shape, key, latch, count_call=count_call)

    def _resolve_owned(
        self,
        shape: GemmShape,
        key: _Key,
        latch: Lock,
        *,
        count_call: bool = True,
    ) -> KernelConfig:
        """Consult the policy for a key this thread owns in-flight.

        The policy call runs outside the lock; result accounting and
        the double-checked cache insert happen under it.  The latch is
        released exactly once — whatever the policy raises — so waiters
        can never deadlock.
        """
        done = False
        try:
            config = self._policy.select(shape)
            done = True
        except Exception as exc:
            with self._lock:
                if count_call:
                    self._c_single.tick()
                    self._c_lookups.tick()
                self._note_policy_error()
                return self._serve_degraded(exc)
        finally:
            with self._lock:
                if self._inflight.get(key) is latch:
                    del self._inflight[key]
                if done:
                    if count_call:
                        self._c_single.tick()
                        self._c_lookups.tick()
                    self._note_policy_success(key, config)
            latch.release()
        return config

    def _resolve_owned_batch(
        self, owned: List[Tuple[GemmShape, _Key, Lock]]
    ) -> Dict[_Key, KernelConfig]:
        """Resolve the batch misses this thread registered in-flight.

        The policy's vectorized ``select_batch`` is preferred (one
        classifier pass outside the lock); on error the per-shape path
        applies fallback/breaker logic per query.  A policy returning
        the wrong number of configurations is a contract violation and
        raises rather than silently mis-zipping answers onto shapes.
        """
        miss_shapes = [shape for shape, _, _ in owned]
        batch_fn = getattr(self._policy, "select_batch", None)
        if batch_fn is not None:
            try:
                configs = tuple(batch_fn(miss_shapes))
            except Exception:
                with self._lock:
                    self._note_policy_error()
            except BaseException:
                self._release(owned)
                raise
            else:
                if len(configs) != len(miss_shapes):
                    self._release(owned)
                    raise ValueError(
                        f"policy {type(self._policy).__name__}.select_batch "
                        f"returned {len(configs)} configs for "
                        f"{len(miss_shapes)} miss shapes"
                    )
                with self._lock:
                    for (shape, key, latch), config in zip(owned, configs):
                        if self._inflight.get(key) is latch:
                            del self._inflight[key]
                        self._note_policy_success(key, config)
                        latch.release()
                return {
                    key: config
                    for (_, key, _), config in zip(owned, configs)
                }
        resolved: Dict[_Key, KernelConfig] = {}
        for index, (shape, key, latch) in enumerate(owned):
            try:
                resolved[key] = self._resolve_owned(
                    shape, key, latch, count_call=False
                )
            except BaseException:
                self._release(owned[index + 1 :])
                raise
        return resolved

    def _register(self, key: _Key) -> Lock:
        """Register ``key`` in-flight, owned by this thread.

        Caller holds the service lock.  The returned latch is held; its
        owner releases it exactly once.
        """
        latch = Lock()
        latch.acquire()
        self._inflight[key] = latch
        return latch

    def _release(self, entries: List[Tuple[GemmShape, _Key, Lock]]) -> None:
        """Drop in-flight registrations owned by this thread and wake waiters.

        Identity-checked so a stale entry can never pop a registration
        some other thread has since taken over.
        """
        if not entries:
            return
        with self._lock:
            for _, key, latch in entries:
                if self._inflight.get(key) is latch:
                    del self._inflight[key]
                latch.release()

    def _resolve_miss(self, shape: GemmShape) -> KernelConfig:
        """Answer one cache miss, applying breaker/fallback semantics.

        Caller holds the lock.  Degraded answers are *not* memoised: once
        the policy recovers, the next miss for the shape consults it.
        """
        if self._breaker_open:
            self._open_misses += 1
            if self._open_misses % self._probe_interval != 0:
                return self._serve_degraded(None)
            # Fall through: this miss probes the policy (half-open).
        try:
            config = self._policy.select(shape)
        except Exception as exc:
            self._note_policy_error()
            return self._serve_degraded(exc)
        self._note_policy_success(shape.as_tuple(), config)
        return config

    def _note_policy_success(self, key: Optional[_Key], config: KernelConfig) -> None:
        """Reset the error streak and memoise ``key`` unless it is None."""
        self._consecutive_errors = 0
        if self._breaker_open:
            self._set_breaker(False)
        self._last_good = config
        if key is not None:
            self._insert(key, config)

    def _note_policy_error(self) -> None:
        self._c_policy_errors.inc()
        self._consecutive_errors += 1
        if (
            not self._breaker_open
            and self._consecutive_errors >= self._breaker_threshold
        ):
            self._set_breaker(True)
            self._c_breaker_trips.inc()

    def _set_breaker(self, is_open: bool) -> None:
        """Move the breaker to ``is_open``; the caller holds the lock.

        Watchers hear only real transitions.
        """
        self._g_breaker_open.set(1.0 if is_open else 0.0)
        self._open_misses = 0
        if is_open != self._breaker_open:
            self._breaker_open = is_open
            for watcher in self._breaker_watchers:
                watcher()

    def _serve_degraded(self, exc: Optional[BaseException]) -> KernelConfig:
        config = self._last_good if self._last_good is not None else self._fallback
        if config is None:
            if exc is not None:
                raise exc
            raise RuntimeError(
                "selection circuit breaker is open and no fallback or "
                "last-known-good configuration is available"
            )
        self._c_fallback_serves.inc()
        self._degraded_serves += 1
        return config

    def _insert(self, key: _Key, config: KernelConfig) -> None:
        """Memoise ``key`` as most recent; the caller holds the lock."""
        cache = self._cache
        # A fresh key lands at the end already; only a key a breaker
        # probe inserted meanwhile needs moving.
        if key in cache:
            cache.move_to_end(key)
        cache[key] = config
        self._snapshot[key] = config
        # One insert adds at most one key, so at most one falls out.
        if len(cache) > self._capacity:
            old_key, _ = cache.popitem(last=False)
            self._snapshot.pop(old_key, None)
            self._c_evictions.tick()

    def __repr__(self) -> str:
        return (
            f"SelectionService({self._policy!r}, "
            f"cache {len(self._cache)}/{self._capacity})"
        )
