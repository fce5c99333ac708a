"""Structure-of-arrays view of a configuration tuple.

:meth:`GemmPerfModel.measured_times_block` evaluates a window of shapes
against every config of a sweep in a single NumPy pass.  It reads each
config's shape-independent terms — tile geometry, occupancy, compute
efficiency, coalescing and the pre-encoded quirk hash prefixes — from one
:class:`ConfigTable`, built lazily from the same scalar helpers
:meth:`GemmPerfModel.breakdown` uses, so both paths start from identical
numbers.  The table also keeps the quirk rows the model has hashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.kernels.params import KernelConfig, config_index
from repro.perfmodel.compute import ComputeEfficiency
from repro.perfmodel.memory import coalescing_factors
from repro.perfmodel.occupancy import OccupancyResult
from repro.sycl.device import DeviceSpec
from repro.utils.rng import key_prefix

__all__ = ["ConfigTable"]

#: Fine-quirk residue triples ``(k % 16, n % 32, m % 8)``; triple
#: ``(a, b, c)`` is row ``(a * 32 + b) * 8 + c`` of ``ConfigTable.fine``.
_FINE_RESIDUES = 16 * 32 * 8


@dataclass(frozen=True, eq=False)
class ConfigTable:
    """Per-config model terms, one array element per config."""

    configs: Tuple[KernelConfig, ...]
    #: Canonical config indices (quirk hash key and noise counter).
    index: np.ndarray
    acc: np.ndarray
    wg_cols: np.ndarray
    macro_m: np.ndarray
    macro_n: np.ndarray
    waves_per_group: np.ndarray
    waves_per_simd: np.ndarray
    ilp: np.ndarray
    static_total: np.ndarray
    #: Coalescing factors of the A stream and the B/C streams.
    eff_a: np.ndarray
    eff_bc: np.ndarray
    #: ``derive_seed`` prefixes of each config's quirk keys.
    coarse_prefixes: Tuple[bytes, ...]
    fine_prefixes: Tuple[bytes, ...]
    #: Fine quirk hashes mod 10,000, one row per residue triple, filled
    #: as triples are first seen (``fine_filled``).  ``np.zeros`` leaves
    #: untouched rows unbacked, so a sweep that sees few residues holds
    #: few of the table's ``4096 x n_configs x 2`` bytes (5.0 MiB for
    #: 640 configs).  ``uint16`` is exact: every value is below 10,000.
    fine: np.ndarray
    fine_filled: np.ndarray
    #: Coarse quirk rows already computed, by log-magnitude bucket.
    coarse_rows: Dict[Tuple[int, int, int], np.ndarray] = field(
        default_factory=dict
    )

    @classmethod
    def build(
        cls,
        configs: Tuple[KernelConfig, ...],
        spec: DeviceSpec,
        static: Callable[[KernelConfig], Tuple[OccupancyResult, ComputeEfficiency]],
        seed: int,
    ) -> "ConfigTable":
        """Tabulate ``configs``; ``static`` is the model's memoised
        occupancy/efficiency lookup (raises for unsupported configs)."""
        statics = [static(c) for c in configs]
        index = [config_index(c) for c in configs]
        coalescing = [coalescing_factors(c, spec) for c in configs]

        def ints(values: Sequence[int]) -> np.ndarray:
            return np.array(values, dtype=np.int64)

        def floats(values: Sequence[float]) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        return cls(
            configs=configs,
            index=ints(index),
            acc=ints([c.acc for c in configs]),
            wg_cols=ints([c.wg_cols for c in configs]),
            macro_m=ints([c.macro_tile[0] for c in configs]),
            macro_n=ints([c.macro_tile[1] for c in configs]),
            waves_per_group=ints([occ.waves_per_group for occ, _ in statics]),
            waves_per_simd=ints([occ.waves_per_simd for occ, _ in statics]),
            ilp=floats([ceff.ilp for _, ceff in statics]),
            static_total=floats([ceff.static_total for _, ceff in statics]),
            eff_a=floats([a for a, _ in coalescing]),
            eff_bc=floats([bc for _, bc in coalescing]),
            coarse_prefixes=tuple(key_prefix(seed, "quirk-coarse", i) for i in index),
            fine_prefixes=tuple(key_prefix(seed, "quirk-fine", i) for i in index),
            fine=np.zeros((_FINE_RESIDUES, len(configs)), np.uint16),
            fine_filled=np.zeros(_FINE_RESIDUES, bool),
        )
