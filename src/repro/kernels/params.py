"""The kernel configuration space of the case study.

A configuration is (``acc``, ``rows``, ``cols``, ``wg_rows``, ``wg_cols``):

* ``rows`` x ``cols`` — the output tile computed by one work-item (values
  held in registers);
* ``acc`` — how many elements of the inner (K) dimension are accumulated
  per loop step (inner-loop unrolling / ILP);
* ``wg_rows`` x ``wg_cols`` — the work-group shape, a *runtime* parameter
  (it does not require a separate compiled kernel).

The paper sweeps each tile parameter over {1, 2, 4, 8} (64 compiled
kernels) and ten work-group shapes, for 640 total configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "KernelConfig",
    "TILE_SIZES",
    "WORK_GROUP_SHAPES",
    "config_from_index",
    "config_index",
    "config_space",
]

#: Tile-parameter values swept by the paper.
TILE_SIZES: Tuple[int, ...] = (1, 2, 4, 8)

#: Work-group shapes compared by the paper (rows, cols).
WORK_GROUP_SHAPES: Tuple[Tuple[int, int], ...] = (
    (1, 64),
    (1, 128),
    (8, 8),
    (8, 16),
    (8, 32),
    (16, 8),
    (16, 16),
    (32, 8),
    (64, 1),
    (128, 1),
)


@dataclass(frozen=True, order=True)
class KernelConfig:
    """One point of the 640-configuration space."""

    acc: int
    rows: int
    cols: int
    wg_rows: int
    wg_cols: int

    def __post_init__(self) -> None:
        for name in ("acc", "rows", "cols", "wg_rows", "wg_cols"):
            if getattr(self, name) <= 0:
                raise ValueError(f"KernelConfig.{name} must be positive")

    # -- derived quantities used throughout the performance model ---------

    @property
    def tile_elems(self) -> int:
        """Output elements computed per work-item."""
        return self.rows * self.cols

    @property
    def work_group_size(self) -> int:
        return self.wg_rows * self.wg_cols

    @property
    def macro_tile(self) -> Tuple[int, int]:
        """Output elements covered by one work-group (rows, cols)."""
        return (self.rows * self.wg_rows, self.cols * self.wg_cols)

    @property
    def registers_per_item(self) -> int:
        """Estimated fp32 registers one work-item needs: the accumulator
        tile, one A sliver (rows x acc), one B sliver (acc x cols), plus a
        fixed overhead for indices and address arithmetic."""
        overhead = 16
        return self.rows * self.cols + self.acc * (self.rows + self.cols) + overhead

    @property
    def flops_per_item_step(self) -> int:
        """FLOPs (FMA = 2) one work-item performs per accumulator step."""
        return 2 * self.rows * self.cols * self.acc

    def is_compiled_distinct_from(self, other: "KernelConfig") -> bool:
        """Whether the two configs need *different compiled kernels*.

        Work-group shape is a runtime parameter; only the tile parameters
        are template arguments baked into the binary.
        """
        return self.template_key != other.template_key

    @property
    def template_key(self) -> Tuple[int, int, int]:
        """The compile-time template arguments ``(acc, rows, cols)``."""
        return (self.acc, self.rows, self.cols)

    def short_name(self) -> str:
        return (
            f"a{self.acc}r{self.rows}c{self.cols}"
            f"_wg{self.wg_rows}x{self.wg_cols}"
        )

    def __str__(self) -> str:
        return self.short_name()


def config_space(
    tile_sizes: Sequence[int] = TILE_SIZES,
    work_groups: Sequence[Tuple[int, int]] = WORK_GROUP_SHAPES,
) -> List[KernelConfig]:
    """Enumerate the full configuration space in canonical order.

    Canonical order iterates work-group shape fastest, then ``cols``,
    ``rows``, ``acc`` — so configurations sharing a compiled kernel are
    contiguous.  The default arguments yield the paper's 640 configs.
    """
    configs: List[KernelConfig] = []
    for acc in tile_sizes:
        for rows in tile_sizes:
            for cols in tile_sizes:
                for wg_rows, wg_cols in work_groups:
                    configs.append(
                        KernelConfig(
                            acc=acc,
                            rows=rows,
                            cols=cols,
                            wg_rows=wg_rows,
                            wg_cols=wg_cols,
                        )
                    )
    return configs


_TILE_INDEX = {v: i for i, v in enumerate(TILE_SIZES)}
_WG_INDEX = {w: i for i, w in enumerate(WORK_GROUP_SHAPES)}


def config_index(config: KernelConfig) -> int:
    """Index of ``config`` in the canonical :func:`config_space` order."""
    try:
        return (
            (_TILE_INDEX[config.acc] * len(TILE_SIZES) + _TILE_INDEX[config.rows])
            * len(TILE_SIZES)
            + _TILE_INDEX[config.cols]
        ) * len(WORK_GROUP_SHAPES) + _WG_INDEX[(config.wg_rows, config.wg_cols)]
    except KeyError:
        raise ValueError(
            f"{config} is not part of the canonical configuration space"
        ) from None


def config_from_index(index: int) -> KernelConfig:
    """Inverse of :func:`config_index`."""
    n_wg = len(WORK_GROUP_SHAPES)
    n_t = len(TILE_SIZES)
    total = n_t**3 * n_wg
    if not 0 <= index < total:
        raise ValueError(f"config index must be in [0, {total}), got {index}")
    wg = WORK_GROUP_SHAPES[index % n_wg]
    index //= n_wg
    cols = TILE_SIZES[index % n_t]
    index //= n_t
    rows = TILE_SIZES[index % n_t]
    index //= n_t
    acc = TILE_SIZES[index]
    return KernelConfig(acc=acc, rows=rows, cols=cols, wg_rows=wg[0], wg_cols=wg[1])
