"""Deterministic, counter-based fault plans.

A :class:`FaultPlan` decides — as a pure function of its seed and the
fault coordinates — whether a given operation fails, and how.  The same
idiom as :mod:`repro.perfmodel.noise`: decisions are keyed on identity
tuples hashed through :func:`repro.utils.rng.derive_seed`, so fault
injection is reproducible and order-independent (a cell faults or not
regardless of execution order).

Two coordinate systems are served:

* **benchmark cells** — ``(shape, config, attempt)``, consumed by
  :class:`~repro.testing.faulty.FaultyModel` inside a
  :class:`~repro.bench.runner.BenchmarkRunner` sweep;
* **queue submissions** — ``(kernel name, submission index)``, consumed
  by :class:`~repro.testing.faulty.FaultyQueue`;
* **selection lookups** — ``(device id, query index)``, consumed by
  :class:`~repro.testing.faulty.FaultyPolicy` behind a
  :class:`~repro.serving.service.SelectionService` (fleet degradation
  tests kill a whole device with :meth:`FaultPlan.kill_device`).

``fail_attempts`` distinguishes hard failures from transient ones: with
``fail_attempts=None`` a faulty coordinate fails every attempt (retries
cannot save it, the cell becomes NaN); with ``fail_attempts=k`` only the
first ``k`` attempts fail, so a runner configured with ``max_retries >=
k`` recovers the measurement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.kernels.params import KernelConfig, config_index
from repro.sycl.exceptions import DeviceError, DeviceTimeoutError
from repro.utils.rng import derive_seed
from repro.workloads.gemm import GemmShape

__all__ = ["FaultKind", "FaultPlan", "InjectedFault", "raise_fault"]

#: Resolution of the hash-to-uniform conversion.
_HASH_BUCKETS = 2**32


class FaultKind(enum.Enum):
    """What kind of failure an injected fault simulates."""

    DEVICE_ERROR = "device-error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class InjectedFault:
    """One planned fault: its kind and how many attempts it survives."""

    kind: FaultKind
    #: None = every attempt fails; k = attempts 0..k-1 fail, then recover.
    fail_attempts: Optional[int] = None

    def fires_on(self, attempt: int) -> bool:
        return self.fail_attempts is None or attempt < self.fail_attempts


def raise_fault(kind: FaultKind, context: str) -> None:
    """Raise the runtime exception matching a fault kind."""
    if kind is FaultKind.TIMEOUT:
        raise DeviceTimeoutError(f"injected timeout: {context}")
    raise DeviceError(f"injected device error: {context}")


class FaultPlan:
    """Deterministic schedule of injected faults.

    ``rate`` picks a fraction of benchmark cells / queue submissions to
    fault, chosen by hashing the coordinates with ``seed`` (so two plans
    with the same seed and rate agree exactly).  Explicitly poisoned
    coordinates, added with :meth:`poison` / :meth:`poison_submission`,
    override the rate-based draw.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        rate: float = 0.0,
        kind: Optional[FaultKind] = None,
        fail_attempts: Optional[int] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if fail_attempts is not None and fail_attempts < 1:
            raise ValueError(
                f"fail_attempts must be >= 1 when given, got {fail_attempts}"
            )
        self._seed = int(seed)
        self._rate = float(rate)
        self._kind = kind
        self._fail_attempts = fail_attempts
        self._cells: Dict[Tuple[Tuple[int, ...], int], InjectedFault] = {}
        self._submissions: Dict[Tuple[str, int], InjectedFault] = {}
        self._selections: Dict[Tuple[str, int], InjectedFault] = {}
        #: device id -> (first failing query index, fault) for devices
        #: killed outright.
        self._killed: Dict[str, Tuple[int, InjectedFault]] = {}

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def rate(self) -> float:
        return self._rate

    # -- plan construction -------------------------------------------------

    def poison(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        kind: FaultKind = FaultKind.DEVICE_ERROR,
        fail_attempts: Optional[int] = None,
    ) -> "FaultPlan":
        """Explicitly fault one benchmark cell; returns self for chaining."""
        key = (shape.as_tuple(), config_index(config))
        self._cells[key] = InjectedFault(kind=kind, fail_attempts=fail_attempts)
        return self

    def poison_submission(
        self,
        kernel_name: str,
        index: int = 0,
        *,
        kind: FaultKind = FaultKind.DEVICE_ERROR,
    ) -> "FaultPlan":
        """Fault the ``index``-th submission of the named kernel."""
        if index < 0:
            raise ValueError(f"submission index must be >= 0, got {index}")
        self._submissions[(kernel_name, index)] = InjectedFault(kind=kind)
        return self

    def poison_selection(
        self,
        device_id: str,
        index: int = 0,
        *,
        kind: FaultKind = FaultKind.DEVICE_ERROR,
    ) -> "FaultPlan":
        """Fault the ``index``-th selection lookup on one device."""
        if index < 0:
            raise ValueError(f"selection index must be >= 0, got {index}")
        self._selections[(device_id, index)] = InjectedFault(kind=kind)
        return self

    def kill_device(
        self,
        device_id: str,
        *,
        after: int = 0,
        kind: FaultKind = FaultKind.DEVICE_ERROR,
    ) -> "FaultPlan":
        """Fail every selection on a device from query ``after`` onward.

        Models a device dropping out of the fleet mid-traffic: the
        degradation tests assert the router trips the device's breaker
        and reroutes without a single failed lookup.  Reversible with
        :meth:`revive_device`.
        """
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        self._killed[device_id] = (after, InjectedFault(kind=kind))
        return self

    def revive_device(self, device_id: str) -> "FaultPlan":
        """Undo :meth:`kill_device` (the device starts answering again)."""
        self._killed.pop(device_id, None)
        return self

    # -- decisions ---------------------------------------------------------

    def fault_for(
        self, shape: GemmShape, config: KernelConfig, attempt: int = 0
    ) -> Optional[FaultKind]:
        """The fault (if any) for one benchmark-cell attempt."""
        key = (shape.as_tuple(), config_index(config))
        planned = self._cells.get(key)
        if planned is None:
            planned = self._drawn_fault("fault-cell", *key[0], key[1])
        if planned is not None and planned.fires_on(attempt):
            return planned.kind
        return None

    def fault_for_submission(
        self, kernel_name: str, index: int
    ) -> Optional[FaultKind]:
        """The fault (if any) for one queue submission."""
        planned = self._submissions.get((kernel_name, index))
        if planned is None:
            planned = self._drawn_fault("fault-submit", kernel_name, index)
        if planned is not None and planned.fires_on(0):
            return planned.kind
        return None

    def fault_for_selection(
        self, device_id: str, index: int
    ) -> Optional[FaultKind]:
        """The fault (if any) for one selection lookup on a device."""
        killed = self._killed.get(device_id)
        if killed is not None and index >= killed[0]:
            return killed[1].kind
        planned = self._selections.get((device_id, index))
        if planned is None:
            planned = self._drawn_fault("fault-select", device_id, index)
        if planned is not None and planned.fires_on(0):
            return planned.kind
        return None

    # -- internals ---------------------------------------------------------

    def _drawn_fault(self, channel: str, *coords) -> Optional[InjectedFault]:
        if self._rate == 0.0:
            return None
        digest = derive_seed(self._seed, channel, *coords)
        if (digest % _HASH_BUCKETS) / _HASH_BUCKETS >= self._rate:
            return None
        kind = self._kind
        if kind is None:
            # Mix kinds deterministically from an independent hash bit.
            kind = (
                FaultKind.TIMEOUT
                if derive_seed(self._seed, channel + "-kind", *coords) % 2
                else FaultKind.DEVICE_ERROR
            )
        return InjectedFault(kind=kind, fail_attempts=self._fail_attempts)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self._seed}, rate={self._rate}, "
            f"{len(self._cells)} poisoned cells, "
            f"{len(self._submissions)} poisoned submissions, "
            f"{len(self._selections)} poisoned selections, "
            f"{len(self._killed)} killed devices)"
        )
