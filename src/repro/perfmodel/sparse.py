"""Performance model for GEMM with a sparse (CSR) weight operand.

Extends the dense model with the three first-order effects of running a
register-tiled kernel over compressed weights:

* **compute** — only ``density`` of the multiply-accumulates remain, but
  index decoding and gather addressing add work per nonzero, and the
  wider the accumulator step (``acc``) the worse the gather penalty (a
  dense vector load becomes ``acc`` dependent gathers);
* **memory** — the B operand shrinks to ``density`` of its values but
  each nonzero carries an index (8 B/nz vs 4 B dense), and gathered
  access wastes cacheline transfer;
* **load imbalance** — rows of a pruned matrix have uneven populations,
  so wavefronts finish at the slowest lane; the imbalance term grows as
  density falls.

The upshot — matching what sparse-kernel practice shows — is that the
*optimal configuration shifts* with density (toward smaller ``acc`` and
smaller tiles), which is precisely why the paper flags sparse
generalisation as an open question for a selector trained on dense data.

The model is a :class:`~repro.perfmodel.model.GemmPerfModel` whose
phase-scaling hook applies these terms, so per-cell times, noise and
whole-window sweeps are the dense model's own; density-1 rows (and plain
dense shapes) are left exactly as the dense model times them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device, DeviceSpec
from repro.workloads.gemm import GemmShape

__all__ = ["SparseGemmPerfModel"]

_FP32 = 4
#: Extra bytes per nonzero for the column index (CSR).
_INDEX_BYTES = 4


def _operands(shapes):
    """(density, m, k, n) of one shape as scalars, or of a window of
    shapes as ``(S, 1)`` columns.  Dense shapes have density 1."""
    if isinstance(shapes, GemmShape):
        return getattr(shapes, "density", 1.0), shapes.m, shapes.k, shapes.n
    cols = np.array([(getattr(s, "density", 1.0), s.m, s.k, s.n) for s in shapes])
    return tuple(cols[:, j : j + 1] for j in range(4))


class SparseGemmPerfModel(GemmPerfModel):
    """Timing model accepting dense and sparse shapes uniformly."""

    def __init__(
        self,
        device: Device | DeviceSpec,
        *,
        params: Optional[PerfModelParams] = None,
        seed: int = 2020,
        #: Index-decode instructions charged per nonzero, as a fraction
        #: of an FMA.
        decode_cost: float = 0.5,
        #: Gather penalty coefficient (scales with acc and sparsity).
        gather_cost: float = 0.35,
        #: Load-imbalance coefficient (wave divergence at low density).
        imbalance_cost: float = 0.6,
    ):
        for name, value in (
            ("decode_cost", decode_cost),
            ("gather_cost", gather_cost),
            ("imbalance_cost", imbalance_cost),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        super().__init__(device, params=params, seed=seed)
        self._decode = decode_cost
        self._gather = gather_cost
        self._imbalance = imbalance_cost

    def _scale_phases(self, shapes, acc, compute_seconds, memory_seconds):
        density, m, k, n = _operands(shapes)

        # Compute: density of the FMAs survive, each carrying decode
        # work; gathers hurt wide accumulator steps; stragglers stretch
        # the wave by the imbalance term.
        sparsity = 1.0 - density
        work_scale = density * (1.0 + self._decode)
        gather_scale = 1.0 + self._gather * sparsity * (acc / 8.0)
        imbalance_scale = 1.0 + self._imbalance * sparsity
        compute = compute_seconds * work_scale * gather_scale * imbalance_scale

        # Memory: the B share of traffic shrinks to density but carries
        # indices; gathered lines are partially wasted (folded into the
        # index overhead constant).
        b_share = (k * n) / (m * k + k * n + m * n)
        sparse_bytes_ratio = density * (_FP32 + _INDEX_BYTES) / _FP32
        memory_scale = (1.0 - b_share) + b_share * sparse_bytes_ratio
        memory = memory_seconds * memory_scale

        # Dense rows keep the dense phases; ``[()]`` turns the one-shape
        # case's 0-d result back into a scalar.
        pruned = density < 1.0
        return (
            np.where(pruned, compute, compute_seconds)[()],
            np.where(pruned, memory, memory_seconds)[()],
        )
