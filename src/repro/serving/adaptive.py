"""Online adaptive selection: a feedback wrapper over SelectionService.

:class:`AdaptiveSelectionService` keeps the static tree as the safe
prior and refines it online, modelled on Stream-K++'s Bloom-admitted
adaptive GEMM selection (PAPERS.md, arXiv:2408.11417):

* **Admission** — shape fingerprints pass through a
  :class:`~repro.ml.online.BloomAdmission` stack; only shapes seen at
  least ``admission_threshold`` times earn per-shape bandit state, so
  one-off shapes cost a few hash probes and nothing else.
* **Warm path** — an admitted shape's select builds the shape key
  once, reads its state with one dict get and counts the hit with one
  lock-free :meth:`~repro.obs.Counter.tick` of
  ``adaptive.admission_hits`` (exact in every read, snapshot and
  reset; :mod:`repro.obs` folds the ticks in): serve the armed trial
  if one is pending, else the promoted override if one exists, else
  hand shape, key and ``base`` (the undegraded static answer recorded
  at admission) to the wrapped
  :class:`~repro.serving.service.SelectionService`, which serves
  ``base`` as a counted direct lookup of a compiled tree, or reads
  its memo snapshot.  All bandit mutation happens on the feedback path.
* **Feedback** — callers report observed latencies via :meth:`record`;
  the per-shape :class:`~repro.adaptive.bandit.ShapeBandit` updates its
  decayed estimators, arms trials, and promotes/demotes configs.

The wrapper exposes the full ``SelectionService`` surface used by
:class:`~repro.serving.router.FleetRouter` (``select``,
``select_batch``, ``breaker_open``, ``stats`` …), so adaptive services
drop into a fleet unchanged.  New ``adaptive.*`` metrics land in the
same obs registry the wrapped service uses.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.adaptive.bandit import (
    AdaptiveConfig,
    BanditEvent,
    ShapeBandit,
)
from repro.kernels.params import KernelConfig
from repro.ml.online import BloomAdmission
from repro.obs.registry import MetricsRegistry
from repro.serving.service import SelectionService
from repro.serving.stats import ServiceStats
from repro.workloads.gemm import GemmShape

__all__ = ["AdaptiveSelectionService", "AdaptiveStats"]

_Key = Tuple[int, ...]


def _infer_candidates(service: SelectionService) -> Tuple[KernelConfig, ...]:
    """The pruned candidate set of the wrapped policy, if discoverable."""
    policy = service.policy
    for attr in ("library", "pruned"):
        holder = getattr(policy, attr, None)
        configs = getattr(holder, "configs", None)
        if configs:
            return tuple(configs)
    raise ValueError(
        "cannot infer a candidate config set from the wrapped policy "
        f"({type(policy).__name__}); pass candidates= explicitly"
    )


@dataclass(frozen=True)
class AdaptiveStats:
    """Counter totals for one adaptive service (exact, not sampled)."""

    admission_hits: int
    admission_misses: int
    tracked_shapes: int
    active_overrides: int
    trials: int
    promotions: int
    demotions: int
    feedback: int

    @property
    def requests(self) -> int:
        return self.admission_hits + self.admission_misses

    @property
    def admission_hit_rate(self) -> float:
        total = self.requests
        return self.admission_hits / total if total else 0.0

    def render(self) -> str:
        return (
            f"adaptive: {self.requests} requests "
            f"({self.admission_hit_rate:.1%} admitted), "
            f"{self.tracked_shapes} shapes tracked, "
            f"{self.active_overrides} overrides active\n"
            f"adaptive: {self.trials} trials, {self.promotions} promotions, "
            f"{self.demotions} demotions, {self.feedback} feedbacks"
        )


class AdaptiveSelectionService:
    """Bloom-admitted bandit layer around a :class:`SelectionService`.

    ``select(shape)`` serves one lookup: the armed trial, else the
    promoted override, else the wrapped service's answer.  It is built
    per instance by :meth:`_warm_select`.
    """

    def __init__(
        self,
        service: SelectionService,
        *,
        config: Optional[AdaptiveConfig] = None,
        candidates: Optional[Sequence[KernelConfig]] = None,
        registry: Optional[MetricsRegistry] = None,
        name: Optional[str] = None,
        event_log: int = 512,
        auto_record: bool = False,
    ) -> None:
        self._service = service
        # Opt-in: FleetRouter.complete() forwards observed latencies to
        # record() so serving loops need no explicit feedback calls.
        self._auto_record = bool(auto_record)
        self._config = config if config is not None else AdaptiveConfig()
        self._candidates = (
            tuple(candidates)
            if candidates is not None
            else _infer_candidates(service)
        )
        if not self._candidates:
            raise ValueError("candidates must be non-empty")
        self._registry = registry if registry is not None else service.registry
        self._name = name if name is not None else service.name
        labels = {"service": self._name} if self._name is not None else None
        reg = self._registry
        self._c_hits = reg.counter("adaptive.admission_hits", labels)
        self._c_misses = reg.counter("adaptive.admission_misses", labels)
        self._c_trials = reg.counter("adaptive.trials", labels)
        self._c_promotions = reg.counter("adaptive.promotions", labels)
        self._c_demotions = reg.counter("adaptive.demotions", labels)
        self._c_feedback = reg.counter("adaptive.feedback", labels)
        self._g_tracked = reg.gauge("adaptive.tracked_shapes", labels)
        self._g_overrides = reg.gauge("adaptive.active_overrides", labels)
        self._h_observed = reg.histogram("adaptive.observed_seconds", labels)
        self._states: Dict[_Key, ShapeBandit] = {}
        self._lock = threading.Lock()
        self.select = self._warm_select()
        self._admission = BloomAdmission(
            threshold=self._config.admission_threshold,
            capacity=self._config.admission_capacity,
            error_rate=self._config.admission_error_rate,
            seed=self._config.seed,
        )
        self._events: Deque[BanditEvent] = deque(maxlen=event_log)

    # -- delegated SelectionService surface --------------------------------

    @property
    def service(self) -> SelectionService:
        return self._service

    @property
    def policy(self) -> object:
        return self._service.policy

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def provenance(self) -> Optional[object]:
        return self._service.provenance

    @property
    def fallback(self) -> Optional[KernelConfig]:
        return self._service.fallback

    @property
    def breaker_open(self) -> bool:
        return self._service.breaker_open

    def watch_breaker(self, callback: Callable[[], None]) -> None:
        self._service.watch_breaker(callback)

    def stats(self) -> ServiceStats:
        return self._service.stats()

    def clear(self) -> None:
        self._service.clear()

    def reset_breaker(self) -> None:
        self._service.reset_breaker()

    # -- adaptive surface ---------------------------------------------------

    @property
    def config(self) -> AdaptiveConfig:
        return self._config

    @property
    def candidates(self) -> Tuple[KernelConfig, ...]:
        return self._candidates

    @property
    def auto_record(self) -> bool:
        """Whether router completions feed :meth:`record` implicitly."""
        return self._auto_record

    def _warm_select(self) -> Callable[[GemmShape], KernelConfig]:
        """Build ``select(shape)``, the request-hot single lookup.

        It is a closure because its collaborators then come from closure
        cells rather than attributes of ``self``; that keeps the warm
        admitted path within the 5% serving-path budget gated by
        ``benchmarks/test_bench_adaptive.py``.  The cold and trial paths
        go through a weak proxy, so the service does not own itself.
        """
        states_get = self._states.get
        tick_hit = self._c_hits.tick
        inner_select = self._service.select
        me = weakref.proxy(self)

        def select(shape: GemmShape) -> KernelConfig:
            # shape.as_tuple() without its call frame.
            key = (shape.m, shape.k, shape.n, shape.batch)
            state = states_get(key)
            if state is None:
                return me._select_cold(shape, key)
            # Warm admitted path: lock-free reads plus one tick; the
            # (rare) armed-trial branch is outlined.
            tick_hit()
            if state.next_trial is not None:
                return me._select_trial(shape, state)
            current = state.current
            if current is not None:
                return current
            return inner_select(shape, key, state.base)

        return select

    def _select_trial(
        self, shape: GemmShape, state: ShapeBandit
    ) -> KernelConfig:
        challenger = state.take_trial()
        if challenger is not None:
            self._c_trials.inc()
            self._events.append(
                BanditEvent(
                    "trial", state.key, challenger, None, state.feedbacks
                )
            )
            return challenger
        current = state.current
        if current is not None:
            return current
        return self._service.select(shape)

    def select_batch(
        self, shapes: Sequence[GemmShape]
    ) -> Tuple[KernelConfig, ...]:
        items = tuple(shapes)
        if not items:
            return ()
        out: List[Optional[KernelConfig]] = [None] * len(items)
        pending: List[int] = []
        hits = 0
        misses = 0
        trials = 0
        states_get = self._states.get
        for i, shape in enumerate(items):
            key = shape.as_tuple()
            state = states_get(key)
            if state is None:
                misses += 1
                pending.append(i)
                continue
            hits += 1
            if state.next_trial is not None:
                # A trial serves exactly one request: taking the slot
                # clears ``next_trial``, so the first occurrence of the
                # shape in this batch consumes it and later occurrences
                # fall through to the normal warm path.
                challenger = state.take_trial()
                if challenger is not None:
                    trials += 1
                    self._events.append(
                        BanditEvent(
                            "trial", key, challenger, None, state.feedbacks
                        )
                    )
                    out[i] = challenger
                    continue
            current = state.current
            if current is not None:
                out[i] = current
            else:
                pending.append(i)
        if pending:
            service = self._service
            degraded = service.degraded_serves
            resolved = service.select_batch([items[i] for i in pending])
            fresh = service.degraded_serves == degraded
            for i, config in zip(pending, resolved):
                out[i] = config
                key = items[i].as_tuple()
                if fresh and self._states.get(key) is None:
                    self._maybe_admit(key, config)
        if hits:
            self._c_hits.inc(hits)
        if misses:
            self._c_misses.inc(misses)
        if trials:
            self._c_trials.inc(trials)
        return tuple(out)  # type: ignore[arg-type]

    def record(
        self, shape: GemmShape, config: KernelConfig, seconds: float
    ) -> Tuple[BanditEvent, ...]:
        """Feed one observed latency for (shape, config) back in.

        Returns the promotion/demotion events the feedback triggered
        (empty for unadmitted shapes, which keep no bandit state).
        """
        self._c_feedback.inc()
        self._h_observed.observe(seconds)
        state = self._states.get(shape.as_tuple())
        if state is None:
            return ()
        events = state.record(config, seconds)
        for event in events:
            if event.kind == "promotion":
                self._c_promotions.inc()
            elif event.kind == "demotion":
                self._c_demotions.inc()
            self._events.append(event)
        if events:
            self._g_overrides.set(float(self._count_overrides()))
        return events

    def events(self) -> Tuple[BanditEvent, ...]:
        """The most recent bandit events (trials, promotions, demotions)."""
        return tuple(self._events)

    def tracked(self) -> Dict[_Key, ShapeBandit]:
        """A snapshot of the per-shape bandit states (shared objects)."""
        return dict(self._states)

    def adaptive_stats(self) -> AdaptiveStats:
        return AdaptiveStats(
            admission_hits=self._c_hits.value,
            admission_misses=self._c_misses.value,
            tracked_shapes=len(self._states),
            active_overrides=self._count_overrides(),
            trials=self._c_trials.value,
            promotions=self._c_promotions.value,
            demotions=self._c_demotions.value,
            feedback=self._c_feedback.value,
        )

    # -- internals ----------------------------------------------------------

    def _select_cold(self, shape: GemmShape, key: _Key) -> KernelConfig:
        self._c_misses.inc()
        service = self._service
        degraded = service.degraded_serves
        config = service.select(shape)
        # Only an undegraded answer may become the shape's ``base``.
        if service.degraded_serves == degraded:
            self._maybe_admit(key, config)
        return config

    def _maybe_admit(self, key: _Key, base: KernelConfig) -> None:
        with self._lock:
            if key in self._states:
                return
            if self._admission.observe(*key):
                self._states[key] = ShapeBandit(
                    key, base, self._candidates, self._config
                )
                self._g_tracked.set(float(len(self._states)))

    def _count_overrides(self) -> int:
        return sum(
            1 for state in self._states.values() if state.current is not None
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveSelectionService(name={self._name!r}, "
            f"shapes={len(self._states)}, "
            f"candidates={len(self._candidates)})"
        )
