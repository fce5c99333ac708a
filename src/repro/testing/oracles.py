"""Differential oracles: fast paths checked against reference paths.

Each oracle generates a pinned-seed stream of randomized cases and
asserts that an optimised implementation agrees exactly with its
reference:

* :func:`tree_apply_oracle` — the vectorized
  :meth:`~repro.ml.tree.structure.Tree.apply` against
  :func:`reference_leaves`, the scalar walk every tree descent (NumPy
  and compiled) is tested against, over random trees (including
  degenerate single-leaf ones) and inputs engineered to hit threshold
  ties;
* :func:`batch_select_oracle` — a policy's ``select_batch`` against the
  per-item ``select`` loop, over random GEMM shapes with repeats;
* :func:`queue_equivalence_oracle` — a fault-free
  :class:`~repro.testing.faulty.FaultyQueue` against a bare
  :class:`~repro.sycl.queue.Queue`, comparing numerical results, event
  profiles, device clocks and submission logs.

Oracles return an :class:`OracleReport`; tests call
:meth:`OracleReport.raise_on_failure` so a mismatch fails with the
offending case in the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.kernels.params import config_space
from repro.ml.tree.structure import Tree, TreeBuilderState
from repro.sycl.device import Device
from repro.sycl.queue import Queue
from repro.testing.faulty import FaultyQueue
from repro.testing.plan import FaultPlan
from repro.utils.rng import stream
from repro.workloads.gemm import GemmShape

__all__ = [
    "OracleReport",
    "adaptive_select_oracle",
    "batch_select_oracle",
    "queue_equivalence_oracle",
    "random_shapes",
    "random_tree",
    "reference_leaves",
    "tree_apply_oracle",
]


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle run."""

    name: str
    cases: int
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def raise_on_failure(self) -> "OracleReport":
        """Raise AssertionError listing the first mismatches; else self."""
        if self.mismatches:
            shown = "\n  ".join(self.mismatches[:5])
            raise AssertionError(
                f"{self.name}: {len(self.mismatches)}/{self.cases} "
                f"randomized cases disagree with the reference:\n  {shown}"
            )
        return self

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"OracleReport({self.name!r}, {self.cases} cases, {state})"


# -- generators -------------------------------------------------------------


def random_tree(
    rng: np.random.Generator,
    *,
    n_features: int = 4,
    max_depth: int = 8,
    leaf_probability: float = 0.3,
) -> Tree:
    """A random but structurally valid decision tree.

    Thresholds are drawn from a small discrete grid so samples regularly
    land exactly on a threshold, exercising the ``<=`` tie-break both
    descents must share.  ``leaf_probability=1`` yields the degenerate
    single-leaf tree.
    """
    state = TreeBuilderState(n_outputs=1)

    def grow(depth: int) -> int:
        node = state.add_node(
            value=np.array([rng.standard_normal()]),
            impurity=0.0,
            n_samples=1,
        )
        if depth >= max_depth or rng.random() < leaf_probability:
            return node
        left = grow(depth + 1)
        right = grow(depth + 1)
        threshold = float(rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]))
        state.make_split(
            node, int(rng.integers(n_features)), threshold, left, right
        )
        return node

    grow(0)
    return state.freeze()


def random_shapes(
    rng: np.random.Generator, count: int, *, max_exp: float = 11.0
) -> List[GemmShape]:
    """Random GEMM shapes with log-uniform dimensions and some repeats."""
    shapes: List[GemmShape] = []
    for _ in range(count):
        if shapes and rng.random() < 0.2:
            # Repeats exercise caches and in-batch dedup paths.
            shapes.append(shapes[int(rng.integers(len(shapes)))])
            continue
        m, k, n = (
            int(2 ** rng.uniform(0.0, max_exp)) for _ in range(3)
        )
        batch = int(rng.choice([1, 1, 1, 2, 16]))
        shapes.append(GemmShape(m=max(m, 1), k=max(k, 1), n=max(n, 1), batch=batch))
    return shapes


# -- oracles ----------------------------------------------------------------


def reference_leaves(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf index per row by the scalar reference walk.

    Each row descends one node at a time through
    :meth:`~repro.ml.tree.structure.Tree.decision_path_nodes` (float64,
    ``x <= threshold`` goes left, NaN goes right); the leaf is the
    path's last node.  The ground truth for every fast descent.
    """
    X = np.asarray(X, dtype=np.float64)
    return np.fromiter(
        (tree.decision_path_nodes(x)[-1] for x in X), dtype=np.int64, count=len(X)
    )


def tree_apply_oracle(*, cases: int = 200, seed: int = 0) -> OracleReport:
    """``Tree.apply`` == :func:`reference_leaves` on random trees and inputs."""
    rng = stream(seed, "oracle", "tree-apply")
    mismatches: List[str] = []
    for case in range(cases):
        # Every 10th case is the degenerate single-leaf tree; batch sizes
        # include the empty batch.
        leaf_p = 1.0 if case % 10 == 0 else 0.3
        tree = random_tree(rng, leaf_probability=leaf_p)
        n = int(rng.integers(0, 64))
        # Half the samples sit on grid points shared with the thresholds.
        X = rng.standard_normal((n, 4))
        grid = rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], size=(n, 4))
        on_grid = rng.random((n, 4)) < 0.5
        X = np.where(on_grid, grid, X)
        fast = tree.apply(X)
        slow = reference_leaves(tree, X)
        if not np.array_equal(fast, slow):
            mismatches.append(
                f"case {case}: tree with {tree.node_count} nodes, "
                f"{n} samples: apply != reference_leaves"
            )
    return OracleReport("tree-apply", cases, tuple(mismatches))


def batch_select_oracle(
    policy, *, cases: int = 200, seed: int = 0, batch: int = 8
) -> OracleReport:
    """``policy.select_batch`` == per-item ``policy.select``.

    ``cases`` counts individual shapes; they are queried in batches of
    ``batch`` and compared element-wise against the scalar path.
    """
    rng = stream(seed, "oracle", "batch-select")
    mismatches: List[str] = []
    shapes = random_shapes(rng, cases)
    for lo in range(0, len(shapes), batch):
        chunk = shapes[lo : lo + batch]
        got = tuple(policy.select_batch(chunk))
        want = tuple(policy.select(s) for s in chunk)
        for shape, g, w in zip(chunk, got, want):
            if g != w:
                mismatches.append(
                    f"shape {shape}: select_batch chose {g}, select chose {w}"
                )
    return OracleReport("batch-select", len(shapes), tuple(mismatches))


def adaptive_select_oracle(
    policy, *, cases: int = 200, seed: int = 0, batch: int = 8
) -> OracleReport:
    """Exploration-free adaptive serving == the bare service, decision-wise.

    With ``trial_fraction=0`` and no feedback ever recorded, an
    :class:`~repro.serving.adaptive.AdaptiveSelectionService` must be a
    pure pass-through: every single and batch select agrees with a bare
    :class:`~repro.serving.service.SelectionService` over the same
    policy.  ``admission_threshold=1`` admits every shape immediately,
    so the comparison exercises the admitted warm path, not just the
    cold fall-through.  Chunks alternate between ``select_batch`` and
    per-item ``select`` on the adaptive side.
    """
    from repro.adaptive.bandit import AdaptiveConfig
    from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
    from repro.serving.adaptive import AdaptiveSelectionService
    from repro.serving.service import SelectionService

    reference = SelectionService(policy, registry=NULL_REGISTRY)
    config = AdaptiveConfig(
        trial_fraction=0.0, admission_threshold=1, seed=seed
    )
    try:
        adaptive = AdaptiveSelectionService(
            SelectionService(policy, registry=NULL_REGISTRY),
            config=config,
            registry=MetricsRegistry(),
        )
    except ValueError:
        # Policies without a discoverable candidate set still must be
        # decision-identical; the (unused) candidate set is a dummy.
        adaptive = AdaptiveSelectionService(
            SelectionService(policy, registry=NULL_REGISTRY),
            config=config,
            candidates=config_space(tile_sizes=(1,), work_groups=((8, 8),)),
            registry=MetricsRegistry(),
        )
    rng = stream(seed, "oracle", "adaptive-select")
    shapes = random_shapes(rng, cases)
    mismatches: List[str] = []
    for chunk_index, lo in enumerate(range(0, len(shapes), batch)):
        chunk = shapes[lo : lo + batch]
        if chunk_index % 2:
            got = tuple(adaptive.select(s) for s in chunk)
        else:
            got = tuple(adaptive.select_batch(chunk))
        want = tuple(reference.select(s) for s in chunk)
        for shape, g, w in zip(chunk, got, want):
            if g != w:
                mismatches.append(
                    f"shape {shape}: adaptive chose {g}, reference chose {w}"
                )
    stats = adaptive.adaptive_stats()
    if stats.trials:
        mismatches.append(
            f"{stats.trials} trials served with exploration disabled"
        )
    if stats.active_overrides:
        mismatches.append(
            f"{stats.active_overrides} overrides active with no feedback"
        )
    return OracleReport("adaptive-select", len(shapes), tuple(mismatches))


def queue_equivalence_oracle(
    *,
    cases: int = 200,
    seed: int = 0,
    device: Optional[Device] = None,
) -> OracleReport:
    """A fault-free :class:`FaultyQueue` behaves exactly like a ``Queue``.

    Each case runs one random small GEMM through both queues and
    compares the numerical result, the event profile, the simulated
    device clock and the submission log.
    """
    from repro.kernels.matmul import matmul

    device = device or Device.r9_nano()
    rng = stream(seed, "oracle", "queue-equivalence")
    configs = config_space(tile_sizes=(1, 2, 4), work_groups=((8, 8), (16, 16)))
    plain = Queue(device)
    faulty = FaultyQueue(Queue(device), FaultPlan(rate=0.0))
    mismatches: List[str] = []
    for case in range(cases):
        m, k, n = (int(rng.integers(1, 48)) for _ in range(3))
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        config = configs[int(rng.integers(len(configs)))]
        c_plain, ev_plain = matmul(plain, a, b, config)
        c_faulty, ev_faulty = matmul(faulty, a, b, config)
        if not np.array_equal(c_plain, c_faulty):
            mismatches.append(f"case {case}: results differ for {config}")
        if (
            ev_plain.profiling_duration_ns != ev_faulty.profiling_duration_ns
            or plain.device_time_ns != faulty.device_time_ns
        ):
            mismatches.append(f"case {case}: timelines diverge for {config}")
    if plain.submission_log != faulty.submission_log:
        mismatches.append("submission logs differ after the run")
    if faulty.failure_log:
        mismatches.append("fault-free plan recorded failures")
    return OracleReport("queue-equivalence", cases, tuple(mismatches))
