"""Cross-device imputation: fill unmeasured cells from the fleet.

The model behind onboarding (Lawson's follow-up, arXiv:2008.13145):
one :class:`~repro.ml.forest.RandomForestRegressor` fit jointly over
every existing device's full performance table plus the new device's
budgeted measurements, regressing ``log(gflops)`` on

* **device features** — the :class:`~repro.sycl.device.DeviceSpec`
  axes that change which kernel wins (CUs, clock, peak rate, DRAM
  bandwidth, launch overhead, sustained efficiencies, cache/LDS sizes);
* **shape features** — log-scaled GEMM dimensions, flop count and
  arithmetic intensity;
* **config features** — tile/work-group parameters and their derived
  register/occupancy quantities;
* **a collaborative prior** — the geometric-mean normalized score of
  the (shape, config) cell across the *other* devices' tables (for a
  source device's own training rows the device itself is left out, so
  the prior never leaks the row's label), plus its cross-device spread.

Unmeasured cells are NaN, exactly the masking convention of
:meth:`PerformanceDataset.normalized`: NaN rows/cells never contribute
training rows, and imputation writes predictions only into NaN cells —
measured values always win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import PerformanceDataset
from repro.kernels.params import KernelConfig
from repro.ml.forest import RandomForestRegressor
from repro.onboard.budget import OnboardBudget
from repro.sycl.device import DeviceSpec
from repro.utils.rng import derive_seed
from repro.workloads.gemm import GemmShape

__all__ = [
    "CellFeaturizer",
    "ImputationModel",
    "SourceBranch",
    "impute_dataset",
]

#: Floor for normalized scores entering geometric means (masked-failure
#: cells are 0.0 after ``normalized()``).
_EPS = 1e-6


@dataclass(frozen=True)
class SourceBranch:
    """One existing fleet device the imputer can learn from."""

    device_id: str
    spec: DeviceSpec
    dataset: PerformanceDataset

    def __post_init__(self) -> None:
        if self.dataset.n_shapes == 0:
            raise ValueError(f"source {self.device_id!r} has an empty dataset")


def device_features(spec: DeviceSpec) -> np.ndarray:
    """The spec axes the transfer model conditions on (log-scaled)."""
    return np.array(
        [
            np.log2(spec.compute_units),
            spec.clock_ghz,
            np.log2(spec.peak_gflops),
            np.log2(spec.dram_bandwidth_gbps),
            np.log1p(spec.kernel_launch_overhead_us),
            spec.sustained_compute_efficiency,
            spec.sustained_bandwidth_efficiency,
            np.log2(spec.lds_bytes_per_cu),
            np.log2(spec.l2_bytes),
            np.log2(spec.max_work_group_size),
            # Machine balance: flops available per DRAM byte.
            np.log2(spec.peak_gflops / spec.dram_bandwidth_gbps),
        ]
    )


def shape_features(shape: GemmShape) -> np.ndarray:
    return np.array(
        [
            np.log2(shape.m),
            np.log2(shape.k),
            np.log2(shape.n),
            np.log2(shape.batch),
            np.log2(shape.flops),
            np.log2(max(_EPS, shape.arithmetic_intensity)),
        ]
    )


def config_features(config: KernelConfig) -> np.ndarray:
    macro_rows, macro_cols = config.macro_tile
    return np.array(
        [
            config.acc,
            config.rows,
            config.cols,
            np.log2(config.wg_rows),
            np.log2(config.wg_cols),
            np.log2(config.tile_elems),
            np.log2(config.work_group_size),
            np.log2(macro_rows),
            np.log2(macro_cols),
            config.registers_per_item,
        ]
    )


class CellFeaturizer:
    """Vectorized (device, shape, config, prior) feature assembly.

    Shape and config blocks are computed once per table geometry and
    broadcast over the cell grid; only the device block and the
    collaborative prior change between devices.
    """

    def __init__(
        self,
        shapes: Sequence[GemmShape],
        configs: Sequence[KernelConfig],
    ):
        self.shapes = tuple(shapes)
        self.configs = tuple(configs)
        self.n_shapes = len(self.shapes)
        self.n_configs = len(self.configs)
        shape_block = np.vstack([shape_features(s) for s in self.shapes])
        config_block = np.vstack([config_features(c) for c in self.configs])
        # Cell grid in row-major order: shape index varies slowest.
        self._shape_grid = np.repeat(shape_block, self.n_configs, axis=0)
        self._config_grid = np.tile(config_block, (self.n_shapes, 1))

    def cell_matrix(
        self,
        spec: DeviceSpec,
        prior_mean: np.ndarray,
        prior_std: np.ndarray,
    ) -> np.ndarray:
        """(n_shapes * n_configs, n_features) for one device."""
        n_cells = self.n_shapes * self.n_configs
        dev_vec = device_features(spec)
        dev = np.broadcast_to(dev_vec, (n_cells, dev_vec.size))
        return np.hstack(
            [
                dev,
                self._shape_grid,
                self._config_grid,
                prior_mean.reshape(n_cells, 1),
                prior_std.reshape(n_cells, 1),
            ]
        )


def _log_normalized(dataset: PerformanceDataset) -> np.ndarray:
    """log of the per-shape normalized table, NaN-masked cells floored."""
    return np.log(np.maximum(dataset.normalized(), _EPS))


def _leave_one_out_prior(
    log_norms: List[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray, np.ndarray]:
    """Collaborative priors: per-source leave-one-out and all-source.

    Returns ``(loo_means, loo_stds, all_mean, all_std)`` where means are
    geometric means of the normalized scores (computed in log space)
    and stds are the cross-device spread of the log scores.
    """
    stack = np.stack(log_norms)  # (n_sources, n_shapes, n_configs)
    n = stack.shape[0]
    total = stack.sum(axis=0)
    all_mean = total / n
    all_std = stack.std(axis=0) if n > 1 else np.zeros_like(total)
    loo_means: List[np.ndarray] = []
    loo_stds: List[np.ndarray] = []
    for i in range(n):
        if n == 1:
            loo_means.append(np.zeros_like(total))
            loo_stds.append(np.zeros_like(total))
            continue
        others = total - stack[i]
        loo_means.append(others / (n - 1))
        if n == 2:
            loo_stds.append(np.zeros_like(total))
        else:
            mask = np.ones(n, dtype=bool)
            mask[i] = False
            loo_stds.append(stack[mask].std(axis=0))
    return loo_means, loo_stds, all_mean, all_std


class ImputationModel:
    """The joint forest over all devices, ready to score the target.

    Fit with :meth:`fit`; the target's full prediction grid (and the
    ensemble's disagreement, the active sampler's acquisition signal)
    comes from :meth:`predict_target`.
    """

    def __init__(self, budget: Optional[OnboardBudget] = None):
        self.budget = budget if budget is not None else OnboardBudget()

    def fit(
        self,
        sources: Sequence[SourceBranch],
        target_spec: DeviceSpec,
        target_partial: Optional[PerformanceDataset] = None,
        *,
        seed: int = 0,
    ) -> "ImputationModel":
        if not sources:
            raise ValueError("imputation needs at least one source branch")
        ref = sources[0].dataset
        for src in sources[1:]:
            if (
                src.dataset.shapes != ref.shapes
                or src.dataset.configs != ref.configs
            ):
                raise ValueError(
                    f"source {src.device_id!r} table geometry differs from "
                    f"{sources[0].device_id!r}; fleet branches must share "
                    "shapes and configs"
                )
        if target_partial is not None and (
            target_partial.shapes != ref.shapes
            or target_partial.configs != ref.configs
        ):
            raise ValueError(
                "target partial sweep geometry differs from the sources"
            )
        self._featurizer = CellFeaturizer(ref.shapes, ref.configs)
        feat = self._featurizer
        log_norms = [_log_normalized(s.dataset) for s in sources]
        loo_means, loo_stds, all_mean, all_std = _leave_one_out_prior(
            log_norms
        )
        self._target_prior = (all_mean, all_std)

        rows: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for src, loo_mean, loo_std in zip(sources, loo_means, loo_stds):
            X = feat.cell_matrix(src.spec, loo_mean, loo_std)
            y = np.log(src.dataset.gflops).ravel()
            keep = np.isfinite(y)
            rows.append(X[keep])
            targets.append(y[keep])
        if target_partial is not None:
            X = feat.cell_matrix(target_spec, all_mean, all_std)
            y = np.log(target_partial.gflops).ravel()
            keep = np.isfinite(y)
            rows.append(X[keep])
            targets.append(y[keep])
        self._target_spec = target_spec

        budget = self.budget
        self._forest = RandomForestRegressor(
            n_estimators=budget.n_trees,
            max_depth=budget.max_depth,
            max_samples=budget.max_samples,
            max_features="sqrt",
            random_state=derive_seed(seed, "onboard", "impute"),
        )
        self._forest.fit(np.vstack(rows), np.concatenate(targets))
        return self

    def predict_target(self) -> Tuple[np.ndarray, np.ndarray]:
        """(log-gflops prediction, ensemble std), both (n_shapes, n_configs)."""
        feat = self._featurizer
        mean_prior, std_prior = self._target_prior
        X = feat.cell_matrix(self._target_spec, mean_prior, std_prior)
        mean, std = self._forest.predict_with_std(X)
        grid = (feat.n_shapes, feat.n_configs)
        return mean.reshape(grid), std.reshape(grid)


def impute_dataset(
    partial: PerformanceDataset, predicted_log_gflops: np.ndarray
) -> PerformanceDataset:
    """Fill the partial table's NaN cells from the model's predictions.

    Measured cells are kept verbatim — imputation only ever writes where
    the sweep did not measure (or the measurement failed), matching the
    NaN semantics of :meth:`PerformanceDataset.normalized`.
    """
    expected = (partial.n_shapes, partial.n_configs)
    if predicted_log_gflops.shape != expected:
        raise ValueError(
            f"prediction grid {predicted_log_gflops.shape} does not match "
            f"the dataset {expected}"
        )
    gflops = partial.gflops.copy()
    missing = ~np.isfinite(gflops)
    gflops[missing] = np.exp(predicted_log_gflops[missing])
    return PerformanceDataset(
        shapes=partial.shapes,
        configs=partial.configs,
        gflops=gflops,
        device_name=partial.device_name,
    )
