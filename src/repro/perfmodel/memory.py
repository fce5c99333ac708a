"""Memory-system model: traffic volumes and access efficiency.

Work-group tiling determines how often each operand is re-read: a group
computing a ``macro_m x macro_n`` output tile reads a ``macro_m x K`` slab
of A and a ``K x macro_n`` slab of B.  Summed over all groups this is the
well-known ``M*K*(N/macro_n) + K*N*(M/macro_m)`` re-read volume, which the
L2 partially absorbs depending on whether operand slabs stay resident.

Coalescing: work-items are linearised with the column dimension fastest
(SYCL's dim-1), so consecutive lanes of a wavefront hold consecutive
column indices.  Wide ``wg_cols`` makes B loads and C stores contiguous
across the wave; tall, thin groups ((64,1), (128,1)) serialise them into
per-lane cacheline transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.kernels.params import KernelConfig
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import DeviceSpec
from repro.utils.maths import ceil_div
from repro.workloads.gemm import GemmShape

__all__ = ["MemoryTraffic", "coalescing_factors", "memory_traffic"]

_FP32 = 4  # bytes


@dataclass(frozen=True)
class MemoryTraffic:
    """Traffic volumes (bytes) and access efficiency for one launch."""

    #: Loads/stores issued to the cache hierarchy by all groups.
    l2_bytes: int
    #: Estimated bytes that miss L2 and reach DRAM.
    dram_bytes: float
    #: Lower bound: every operand element moved exactly once.
    compulsory_bytes: int
    #: Effective fraction of DRAM bandwidth usable given the access
    #: pattern (coalescing x channel balance), in (0, 1].
    access_efficiency: float

    @property
    def l2_hit_rate(self) -> float:
        if self.l2_bytes == 0:
            return 1.0
        return 1.0 - self.dram_bytes / self.l2_bytes


def coalescing_factors(
    config: KernelConfig, device: DeviceSpec
) -> Tuple[float, float]:
    """Useful fraction of each cacheline transaction: (A loads, B/C)."""
    # Lanes adjacent in a wavefront differ in the column coordinate first.
    # For B loads / C stores, one row of work-items covers
    # wg_cols * cols consecutive floats; the fraction of each cacheline
    # transaction that is useful is that span over the cacheline.
    row_span_bytes = config.wg_cols * config.cols * _FP32
    eff_bc = min(1.0, row_span_bytes / device.cacheline_bytes)
    # A loads move down rows: each lane reads `acc` consecutive floats of
    # its own row, a strided pattern whose per-transaction utility is the
    # per-lane vector width over the cacheline -- but consecutive k-steps
    # consume the rest of the line from L1, so charge square-root decay
    # rather than the full penalty.
    eff_a = min(1.0, (config.acc * _FP32 / device.cacheline_bytes) ** 0.5)
    return eff_a, eff_bc


def memory_traffic(
    shape: GemmShape,
    config: KernelConfig,
    device: DeviceSpec,
    params: PerfModelParams,
) -> MemoryTraffic:
    """Model operand traffic for one GEMM launch."""
    m, k, n, batch = shape.m, shape.k, shape.n, shape.batch
    macro_m, macro_n = config.macro_tile
    groups_m = ceil_div(m, macro_m)
    groups_n = ceil_div(n, macro_n)

    # -- volumes ----------------------------------------------------------
    # Within a group, work-items sharing a tile row read the same A values
    # (broadcast) and likewise for B down a column, so per-group traffic is
    # the slab, not slab * items.
    a_slab = macro_m * k * _FP32
    b_slab = k * macro_n * _FP32
    c_tile = macro_m * macro_n * _FP32
    per_batch_l2 = groups_m * groups_n * (a_slab + b_slab + c_tile)
    l2_bytes = batch * per_batch_l2

    compulsory = batch * (m * k + k * n + m * n) * _FP32

    # -- L2 reuse ---------------------------------------------------------
    # Groups executing concurrently sweep B stripes; if an entire operand
    # fits in the usable L2 it is fetched from DRAM once, otherwise the
    # re-read volume leaks through.  Interpolate by the resident fraction.
    usable_l2 = params.l2_usable_fraction * device.l2_bytes
    operand_bytes = (m * k + k * n) * _FP32  # per batch; batches evict
    resident_fraction = min(1.0, usable_l2 / operand_bytes)
    dram_bytes = compulsory + (l2_bytes - compulsory) * (1.0 - resident_fraction)

    # -- coalescing -------------------------------------------------------
    eff_a, eff_bc = coalescing_factors(config, device)
    a_share = a_slab / (a_slab + b_slab + c_tile)
    bc_share = 1.0 - a_share
    access_efficiency = a_share * eff_a + bc_share * eff_bc
    access_efficiency = max(params.min_coalescing_efficiency, access_efficiency)

    # -- channel camping ---------------------------------------------------
    # Power-of-two leading dimensions map consecutive B rows onto the same
    # DRAM channel; tall-thin groups then hammer one channel.  This is the
    # kind of idiosyncratic effect that gives real datasets their "niche
    # winner" structure.
    ld_bytes = n * _FP32
    if ld_bytes % 1024 == 0 and config.wg_cols <= 2:
        access_efficiency *= 1.0 - params.channel_camping_penalty

    return MemoryTraffic(
        l2_bytes=int(l2_bytes),
        dram_bytes=float(dram_bytes),
        compulsory_bytes=int(compulsory),
        access_efficiency=float(access_efficiency),
    )
