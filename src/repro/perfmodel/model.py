"""End-to-end kernel time model: :class:`GemmPerfModel`.

Combines occupancy, compute-pipeline and memory models into a
roofline-style time estimate with launch overheads, tile-edge waste, wave
quantisation and deterministic microarchitectural quirk terms.  Provides
both the deterministic expected time and noisy "measured" times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.kernels.params import KernelConfig, config_index
from repro.perfmodel.compute import (
    ComputeEfficiency,
    compute_efficiency,
    latency_hiding,
)
from repro.perfmodel.memory import MemoryTraffic, memory_traffic
from repro.perfmodel.noise import measurement_noise_factor, noise_factors, noise_grid
from repro.perfmodel.occupancy import OccupancyResult, occupancy_for
from repro.perfmodel.params import PerfModelParams
from repro.perfmodel.table import ConfigTable
from repro.perfmodel.transfer import (
    DataPlacement,
    resolve_placement,
    transfer_phases,
)
from repro.sycl.device import Device, DeviceSpec
from repro.utils.maths import ceil_div
from repro.utils.rng import derive_seed, derive_seeds
from repro.workloads.gemm import GemmShape

__all__ = ["GemmPerfModel", "ModelBreakdown"]

_FP32 = 4  # bytes


@dataclass(frozen=True)
class ModelBreakdown:
    """Every intermediate quantity behind one time estimate."""

    occupancy: OccupancyResult
    compute: ComputeEfficiency
    memory: MemoryTraffic
    #: Useful output elements over launched output elements (edge waste).
    tile_utilization: float
    #: Extra factor from the k-loop processing whole `acc` steps.
    k_tail_factor: float
    #: Waves actually resident per SIMD given the launch size.
    resident_waves: float
    #: Fraction of the device's SIMDs with any work.
    simd_utilization: float
    #: Launch-dependent latency-hiding efficiency.
    latency_hiding: float
    #: Tail-round stretch factor from whole-round wave scheduling (>= 1).
    quantization: float
    #: Deterministic quirk multiplier on time (around 1).
    quirk: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    total_seconds: float
    #: Operand placement the estimate assumes (a DataPlacement value).
    placement: str = DataPlacement.DEVICE.value
    #: Device-side execution time alone (equals ``total_seconds`` for
    #: device-resident operands).
    kernel_seconds: float = 0.0
    #: Full per-direction transfer times (zero when device-resident).
    h2d_seconds: float = 0.0
    d2h_seconds: float = 0.0
    #: Transfer time hidden behind compute by the overlap model.
    hidden_transfer_seconds: float = 0.0

    @property
    def visible_transfer_seconds(self) -> float:
        """Transfer time extending the launch past the kernel."""
        return self.h2d_seconds + self.d2h_seconds - self.hidden_transfer_seconds

    @property
    def bound(self) -> str:
        """The dominating phase: "compute", "memory" or "transfer"."""
        if self.visible_transfer_seconds > max(
            self.compute_seconds, self.memory_seconds
        ):
            return "transfer"
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


class GemmPerfModel:
    """Analytical timing model for the tiled GEMM kernel on one device.

    Parameters
    ----------
    device:
        The simulated target (a :class:`~repro.sycl.device.Device` or its
        spec).
    params:
        Model constants; defaults are the GCN3 calibration.
    seed:
        Root seed for the measurement-noise streams.
    """

    def __init__(
        self,
        device: Device | DeviceSpec,
        *,
        params: Optional[PerfModelParams] = None,
        seed: int = 2020,
    ):
        self._spec = device.spec if isinstance(device, Device) else device
        self._params = params or PerfModelParams()
        self._seed = int(seed)
        # Occupancy and compute efficiency depend only on the config, so
        # memoise them: dataset generation evaluates 640 configs x many
        # shapes and this removes the dominant repeated work.
        self._static_cache: dict = {}
        # Whole-window evaluation reads the sweep's configs as one table,
        # built on first use: constructing it costs more than a model
        # that is only ever asked about single cells needs to pay.
        self._table: Optional[ConfigTable] = None

    @property
    def device_spec(self) -> DeviceSpec:
        return self._spec

    @property
    def params(self) -> PerfModelParams:
        return self._params

    @property
    def seed(self) -> int:
        return self._seed

    # -- static (shape-independent) components --------------------------

    def _static(self, config: KernelConfig):
        key = config
        hit = self._static_cache.get(key)
        if hit is not None:
            return hit
        occ = occupancy_for(config, self._spec)
        ceff = compute_efficiency(config, self._params)
        self._static_cache[key] = (occ, ceff)
        return occ, ceff

    # -- public API -------------------------------------------------------

    def supported(self, config: KernelConfig) -> bool:
        """Whether the configuration can launch on this device at all."""
        try:
            self._static(config)
            return True
        except ValueError:
            return False

    def breakdown(self, shape: GemmShape, config: KernelConfig) -> ModelBreakdown:
        """Full model evaluation with all intermediate terms."""
        spec, params = self._spec, self._params
        occ, ceff = self._static(config)
        mem = memory_traffic(shape, config, spec, params)

        macro_m, macro_n = config.macro_tile
        groups_m = ceil_div(shape.m, macro_m)
        groups_n = ceil_div(shape.n, macro_n)
        total_groups = groups_m * groups_n * shape.batch

        covered = (groups_m * macro_m) * (groups_n * macro_n)
        tile_utilization = (shape.m * shape.n) / covered

        k_steps = ceil_div(shape.k, config.acc)
        k_tail = (k_steps * config.acc) / shape.k

        # FLOPs actually issued (edge tiles and the k tail still execute).
        launched_flops = 2.0 * covered * k_steps * config.acc * shape.batch

        # Launch geometry: how the waves land on the device's SIMDs.
        total_waves = total_groups * occ.waves_per_group
        simds = spec.compute_units * spec.simds_per_cu
        capacity = simds * occ.waves_per_simd
        # Underfilled launch: idle SIMDs contribute no throughput, and each
        # busy SIMD holds fewer waves than the occupancy limit allows.
        simd_utilization = min(1.0, total_waves / simds)
        resident_waves = float(
            np.clip(total_waves / simds, 1.0, occ.waves_per_simd)
        )
        hiding = latency_hiding(
            resident_waves, ceff.ilp, params, max_waves=spec.max_waves_per_simd
        )
        # Tail rounds: once the device is saturated, work drains in whole
        # residency rounds; a 1.1-round launch takes 2 rounds' time.
        rounds = ceil_div(total_waves, capacity)
        quantization = (
            rounds * capacity / total_waves if total_waves > capacity else 1.0
        )

        # Deterministic quirk: bank conflicts / alignment interactions not
        # captured structurally.  Keyed on shape residues and the config so
        # it is a stable, learnable property of the (shape, config) pair.
        quirk = self._quirk(shape, config)

        peak = spec.peak_gflops * 1e9 * spec.sustained_compute_efficiency
        effective_rate = (
            peak * simd_utilization * ceff.static_total * hiding
        )
        compute_seconds = launched_flops / effective_rate * quantization * quirk

        bandwidth = (
            spec.dram_bandwidth_gbps
            * 1e9
            * spec.sustained_bandwidth_efficiency
            * mem.access_efficiency
        )
        memory_seconds = mem.dram_bytes / bandwidth * quirk
        compute_seconds, memory_seconds = self._scale_phases(
            shape, config.acc, compute_seconds, memory_seconds
        )

        overhead_seconds = (
            spec.kernel_launch_overhead_us * 1e-6 + params.host_overhead_s
        )

        # Imperfect overlap between the compute and memory pipelines.
        kernel_total = (
            overhead_seconds
            + max(compute_seconds, memory_seconds)
            + 0.15 * min(compute_seconds, memory_seconds)
        )

        # Host-resident operands add the H2D / D2H phases (partially
        # hidden behind the kernel); device-resident shapes keep the
        # transfer-free estimate bit-for-bit.
        placement = resolve_placement(shape)
        h2d_seconds = d2h_seconds = hidden_seconds = 0.0
        total = kernel_total
        if placement == DataPlacement.HOST.value:
            transfers = transfer_phases(
                shape, config, params, kernel_seconds=kernel_total
            )
            h2d_seconds = transfers.h2d_seconds
            d2h_seconds = transfers.d2h_seconds
            hidden_seconds = transfers.hidden_seconds
            total = kernel_total + transfers.visible_seconds

        return ModelBreakdown(
            occupancy=occ,
            compute=ceff,
            memory=mem,
            tile_utilization=tile_utilization,
            k_tail_factor=k_tail,
            resident_waves=resident_waves,
            simd_utilization=simd_utilization,
            latency_hiding=hiding,
            quantization=quantization,
            quirk=quirk,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            overhead_seconds=overhead_seconds,
            total_seconds=total,
            placement=placement,
            kernel_seconds=kernel_total,
            h2d_seconds=h2d_seconds,
            d2h_seconds=d2h_seconds,
            hidden_transfer_seconds=hidden_seconds,
        )

    def time_seconds(self, shape: GemmShape, config: KernelConfig) -> float:
        """Deterministic expected kernel time."""
        return self.breakdown(shape, config).total_seconds

    def gflops(self, shape: GemmShape, config: KernelConfig) -> float:
        """Deterministic achieved GFLOP/s (useful flops over model time)."""
        return shape.flops / self.time_seconds(shape, config) / 1e9

    def measured_time_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iteration: int = 0,
    ) -> float:
        """One noisy timing measurement (reproducible per iteration)."""
        factor = measurement_noise_factor(
            self._seed, shape, config, iteration, sigma=self._params.noise_sigma
        )
        return self.time_seconds(shape, config) * factor

    def measured_times_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """A block of consecutive noisy measurements (one stream draw)."""
        factors = noise_factors(
            self._seed,
            shape,
            config,
            iterations,
            sigma=self._params.noise_sigma,
            start_iteration=start_iteration,
        )
        return self.time_seconds(shape, config) * factors

    def measured_gflops(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int = 1,
    ) -> float:
        """Benchmark-style measurement: mean of ``iterations`` noisy runs."""
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        times = self.measured_times_seconds(shape, config, iterations=iterations)
        return shape.flops / float(np.mean(times)) / 1e9

    # -- whole-window evaluation ---------------------------------------------

    def times(
        self, shape: GemmShape, configs: Sequence[KernelConfig]
    ) -> np.ndarray:
        """Deterministic expected time of every config on ``shape``.

        One NumPy pass over the config axis; element ``i`` equals
        ``time_seconds(shape, configs[i])`` bit for bit.
        """
        return self._grid_times((shape,), self._config_table(configs))[0]

    def measured_times_block(
        self,
        shapes: Sequence[GemmShape],
        configs: Sequence[KernelConfig],
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """Noisy measurements of every config on every shape.

        Returns a ``(len(shapes), len(configs), iterations)`` array whose
        entry ``[s, i]`` equals ``measured_times_seconds(shapes[s],
        configs[i], ...)`` bit for bit — a window of sweep rows in one
        (shape x config) pass.
        """
        table = self._config_table(configs)
        factors = noise_grid(
            self._seed,
            shapes,
            table.index,
            iterations,
            sigma=self._params.noise_sigma,
            start_iteration=start_iteration,
        )
        return self._grid_times(shapes, table)[:, :, None] * factors

    def _config_table(self, configs: Sequence[KernelConfig]) -> ConfigTable:
        table = self._table
        # A sweep passes the same tuple for every window: identity first.
        if table is None or (
            table.configs is not configs and table.configs != tuple(configs)
        ):
            table = self._table = ConfigTable.build(
                tuple(configs), self._spec, self._static, self._seed
            )
        return table

    def _grid_times(self, shapes: Sequence[GemmShape], t: ConfigTable) -> np.ndarray:
        """:meth:`breakdown`'s arithmetic over (shape x config).

        Shape terms are ``(S, 1)`` columns and config terms ``(C,)`` rows,
        so every ``(S, C)`` element repeats the scalar expression with the
        same operand order: IEEE rounding — and hence every element —
        matches the scalar model exactly.  Keep the two in step; the
        differential tests in ``tests/perfmodel`` pin them together.
        """
        spec, params = self._spec, self._params
        dims = np.array([(s.m, s.k, s.n, s.batch) for s in shapes], dtype=np.int64)
        m, k, n, batch = (dims[:, j : j + 1] for j in range(4))
        macro_m, macro_n = t.macro_m, t.macro_n
        groups_m = -(-m // macro_m)
        groups_n = -(-n // macro_n)
        total_groups = groups_m * groups_n * batch
        covered = (groups_m * macro_m) * (groups_n * macro_n)
        k_steps = -(-k // t.acc)
        launched_flops = 2.0 * covered * k_steps * t.acc * batch

        # Launch geometry, residency, latency hiding, wave quantisation.
        total_waves = total_groups * t.waves_per_group
        simds = spec.compute_units * spec.simds_per_cu
        capacity = simds * t.waves_per_simd
        simd_utilization = np.minimum(1.0, total_waves / simds)
        resident_waves = np.clip(total_waves / simds, 1.0, t.waves_per_simd)
        effective = resident_waves * (0.5 + 0.5 * t.ilp)
        hiding = effective / (effective + params.latency_hiding_half_waves)
        full = float(spec.max_waves_per_simd)
        hiding /= full / (full + params.latency_hiding_half_waves)
        hiding = np.minimum(1.0, hiding)
        rounds = -(-total_waves // capacity)
        quantization = np.where(
            total_waves > capacity, rounds * capacity / total_waves, 1.0
        )

        quirk = self._grid_quirk(shapes, t)

        peak = spec.peak_gflops * 1e9 * spec.sustained_compute_efficiency
        effective_rate = peak * simd_utilization * t.static_total * hiding
        compute_seconds = launched_flops / effective_rate * quantization * quirk

        # Memory traffic: L2 reuse, coalescing, channel camping.
        a_slab = macro_m * k * _FP32
        b_slab = k * macro_n * _FP32
        c_tile = macro_m * macro_n * _FP32
        l2_bytes = batch * (groups_m * groups_n * (a_slab + b_slab + c_tile))
        compulsory = batch * (m * k + k * n + m * n) * _FP32
        usable_l2 = params.l2_usable_fraction * spec.l2_bytes
        resident_fraction = np.minimum(1.0, usable_l2 / ((m * k + k * n) * _FP32))
        dram_bytes = compulsory + (l2_bytes - compulsory) * (1.0 - resident_fraction)
        a_share = a_slab / (a_slab + b_slab + c_tile)
        access = a_share * t.eff_a + (1.0 - a_share) * t.eff_bc
        access = np.maximum(params.min_coalescing_efficiency, access)
        camping = ((n * _FP32) % 1024 == 0) & (t.wg_cols <= 2)
        access = np.where(
            camping, access * (1.0 - params.channel_camping_penalty), access
        )
        bandwidth = (
            spec.dram_bandwidth_gbps
            * 1e9
            * spec.sustained_bandwidth_efficiency
            * access
        )
        memory_seconds = dram_bytes / bandwidth * quirk
        compute_seconds, memory_seconds = self._scale_phases(
            shapes, t.acc, compute_seconds, memory_seconds
        )

        overhead_seconds = (
            spec.kernel_launch_overhead_us * 1e-6 + params.host_overhead_s
        )
        kernel_total = (
            overhead_seconds
            + np.maximum(compute_seconds, memory_seconds)
            + 0.15 * np.minimum(compute_seconds, memory_seconds)
        )
        host = np.array(
            [resolve_placement(s) == DataPlacement.HOST.value for s in shapes]
        )
        if not host.any():
            return kernel_total

        # transfer_phases over the host-placed rows: padded panels,
        # per-copy setup, uploads claiming the overlap budget before
        # readback.
        k, batch = k[host], batch[host]
        groups_m, groups_n = groups_m[host], groups_n[host]
        padded_m = groups_m * macro_m
        padded_n = groups_n * macro_n
        h2d_bytes = _FP32 * batch * (padded_m * k + k * padded_n)
        d2h_bytes = _FP32 * batch * padded_m * padded_n
        h2d_stream = h2d_bytes / (params.h2d_bandwidth_gbps * 1e9)
        d2h_stream = d2h_bytes / (params.d2h_bandwidth_gbps * 1e9)
        budget = params.transfer_overlap * kernel_total[host]
        h2d_hidden = np.minimum(h2d_stream, budget)
        budget = budget - h2d_hidden
        d2h_hidden = np.minimum(d2h_stream * (1.0 - 1.0 / batch), budget)
        h2d_seconds = batch * (groups_m + groups_n) * params.h2d_overhead_s + h2d_stream
        d2h_seconds = batch * groups_m * params.d2h_overhead_s + d2h_stream
        visible = h2d_seconds + d2h_seconds - (h2d_hidden + d2h_hidden)
        kernel_total[host] += visible
        return kernel_total

    # -- internals ----------------------------------------------------------

    def _scale_phases(self, shapes, acc, compute_seconds, memory_seconds):
        """Hook between the phase times and their overlap; dense: identity.

        :meth:`breakdown` passes one shape, its config's ``acc`` and
        scalar phases; :meth:`_grid_times` passes the window, the
        table's ``(C,)`` ``acc`` row and ``(S, C)`` phases.  A subclass
        that rescales the phases (the sparse model's density terms)
        writes arithmetic valid for both, so the two paths stay equal
        bit for bit.
        """
        return compute_seconds, memory_seconds

    def _quirk(self, shape: GemmShape, config: KernelConfig) -> float:
        """Stable, structured perturbation around 1.

        Two components model the idiosyncrasies an analytical model cannot
        capture but real hardware exhibits (the reason the paper's dataset
        has a long tail of shape-specific winners):

        * a *coarse* term keyed on log-magnitude buckets of the problem
          dimensions — smooth in feature space, hence learnable by the
          selection models;
        * a *fine* term keyed on address-alignment residues — effectively
          unlearnable from raw sizes, bounding what any selector can
          achieve (Table I's gap between ceiling and scores).
        """
        amplitude = self._params.alignment_penalty
        if amplitude == 0:
            return 1.0
        ci = config_index(config)
        step = self._params.quirk_coarse_log_step

        coarse_h = derive_seed(
            self._seed,
            "quirk-coarse",
            ci,
            int(np.log2(shape.m) / step),
            int(np.log2(shape.k) / step),
            int(np.log2(shape.n) / step),
        )
        fine_h = derive_seed(
            self._seed,
            "quirk-fine",
            ci,
            shape.k % 16,
            shape.n % 32,
            shape.m % 8,
        )
        coarse = (coarse_h % 10_000) / 10_000.0 * 2.0 - 1.0
        fine = (fine_h % 10_000) / 10_000.0 * 2.0 - 1.0
        w = self._params.quirk_coarse_weight
        return 1.0 + amplitude * (w * coarse + (1.0 - w) * fine)

    def _grid_quirk(
        self, shapes: Sequence[GemmShape], t: ConfigTable
    ) -> Union[float, np.ndarray]:
        """:meth:`_quirk` over (shape x config): the same SHA-256 keys,
        hashed from the table's pre-encoded per-config prefixes."""
        amplitude = self._params.alignment_penalty
        if amplitude == 0:
            return 1.0
        step = self._params.quirk_coarse_log_step
        # Coarse buckets are few (one per 2**step in each dimension), so
        # their rows are memoised by bucket.
        coarse_rows: List[np.ndarray] = []
        residues: List[int] = []
        for shape in shapes:
            buckets = (
                int(np.log2(shape.m) / step),
                int(np.log2(shape.k) / step),
                int(np.log2(shape.n) / step),
            )
            coarse = t.coarse_rows.get(buckets)
            if coarse is None:
                coarse_h = derive_seeds(t.coarse_prefixes, *buckets)
                coarse = t.coarse_rows[buckets] = (
                    (coarse_h % 10_000) / 10_000.0 * 2.0 - 1.0
                )
            coarse_rows.append(coarse)
            residues.append((shape.k % 16 * 32 + shape.n % 32) * 8 + shape.m % 8)
        # Fine residue triples are 4096: each is hashed on first sight
        # into its row of the table and read back afterwards.
        rows = np.array(residues)
        for r in np.unique(rows[~t.fine_filled[rows]]).tolist():
            fine_h = derive_seeds(t.fine_prefixes, r >> 8, (r >> 3) & 31, r & 7)
            t.fine[r] = fine_h % 10_000
            t.fine_filled[r] = True
        fine = t.fine[rows] / 10_000.0 * 2.0 - 1.0
        w = self._params.quirk_coarse_weight
        return 1.0 + amplitude * (w * np.array(coarse_rows) + (1.0 - w) * fine)
