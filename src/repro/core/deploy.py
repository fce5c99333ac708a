"""Deployment: the tuned library artefact.

:func:`tune` runs the whole pipeline — prune the configuration space on a
training dataset, fit a runtime selector — and returns a
:class:`DeployedSelector`: a kernel library bundling only the chosen
configurations plus the decision process choosing among them, exactly the
artefact the paper proposes shipping.  For decision-tree selectors the
nested-``if`` implementation can be exported as Python or C++ source.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import PerformanceDataset
from repro.core.pruning.base import PrunedSet, Pruner
from repro.core.pruning.decision_tree import DecisionTreePruner
from repro.core.pruning.evaluate import make_pruner
from repro.core.selection.classifiers import make_selector
from repro.core.selection.evaluate import evaluate_selector
from repro.core.selection.selector import Selector
from repro.kernels.matmul import matmul
from repro.kernels.params import KernelConfig
from repro.kernels.registry import KernelLibrary
from repro.ml.tree.codegen import _CPP, _PYTHON, _function_source, compile_tree
from repro.ml.tree.structure import LEAF, Tree
from repro.sycl.kernel import Kernel
from repro.sycl.queue import Queue
from repro.workloads.gemm import GemmShape
from repro.workloads.sparse import SparseGemmShape

__all__ = [
    "CompiledSelector",
    "DeployedSelector",
    "eval_stage",
    "prune_stage",
    "train_stage",
    "tune",
]


class CompiledSelector:
    """The selection process compiled to a sub-microsecond hot path.

    Built by :meth:`DeployedSelector.compiled`: the fitted decision
    tree is compiled into generated nested-``if`` Python (see
    :mod:`repro.ml.tree.codegen`) and each leaf is pre-resolved to the
    :class:`~repro.kernels.params.KernelConfig` it selects, so one
    lookup is a function call plus a list index — no NumPy, no
    allocation, no locks.  Decisions are identical to the selector the
    tree was compiled from.

    ``memoise = False`` tells :class:`~repro.serving.SelectionService`
    that a lookup is a pure function of the shape and costs no more
    than a memo hit, so the service calls it directly on single lookups
    instead of memoising it.
    """

    __slots__ = ("select", "_leaf_configs", "_dense", "compiled_tree")
    memoise = False

    def __init__(self, compiled_tree, leaf_configs: Sequence[object]):
        self.compiled_tree = compiled_tree
        self._leaf_configs = tuple(leaf_configs)
        # Dense GEMM selectors take exactly (m, k, n, batch): read the
        # shape fields directly instead of materialising a feature
        # vector per lookup.
        self._dense = tuple(compiled_tree.feature_names) == GemmShape.FEATURE_NAMES
        # ``select`` is a slot holding a plain closure rather than a
        # method: callers skip bound-method creation and the descent
        # function and leaf table ride in the default args, which keeps
        # the per-lookup cost to one call, four loads and one index.
        if self._dense:

            def select(
                shape: GemmShape,
                _apply=compiled_tree.apply_one,
                _leaves=self._leaf_configs,
            ) -> KernelConfig:
                """The configuration for one shape, via the compiled descent."""
                return _leaves[_apply(shape.m, shape.k, shape.n, shape.batch)]

        else:

            def select(
                shape: GemmShape,
                _apply=compiled_tree.apply_one,
                _leaves=self._leaf_configs,
            ) -> KernelConfig:
                """The configuration for one shape, via the compiled descent."""
                return _leaves[_apply(*shape.features())]

        self.select = select

    @property
    def source(self) -> str:
        """The generated Python source of the descent."""
        return self.compiled_tree.source

    def select_batch(
        self, shapes: Sequence[GemmShape]
    ) -> Tuple[KernelConfig, ...]:
        """Configurations for many shapes (a loop of compiled lookups).

        Faster per shape than the vectorized NumPy
        :meth:`DeployedSelector.select_batch` at every batch size.
        """
        return tuple(map(self.select, shapes))

    def __repr__(self) -> str:
        return f"CompiledSelector({len(self._leaf_configs)} leaf slots)"


class DeployedSelector:
    """A kernel library plus its runtime selection process."""

    def __init__(self, library: KernelLibrary, selector: Selector):
        if tuple(library.configs) != tuple(selector.pruned.configs):
            raise ValueError(
                "library and selector must bundle the same configurations"
            )
        self.library = library
        self.selector = selector

    @classmethod
    def from_mapped(cls, directory, *, verify: bool = True) -> "DeployedSelector":
        """Load a selector artifact (no pickle, digest-checked).

        The inverse of :func:`repro.pipeline.mapped.write_mapped_selector`:
        the tree arrays come from one uncompressed ``.npz`` and the rest
        from tagged JSON.  With ``verify=True`` (the default) the one
        SHA-256 over the metadata and the arrays is checked first;
        corruption raises :class:`repro.pipeline.mapped.MappedIntegrityError`
        instead of serving wrong selections.
        """
        from repro.pipeline.mapped import _load_selector

        deployed = _load_selector(directory, verify=verify)
        assert isinstance(deployed, cls)
        return deployed

    def select(self, shape: GemmShape) -> KernelConfig:
        """The configuration the library will launch for ``shape``."""
        return self.selector.select(shape)

    def select_batch(
        self, shapes: Sequence[GemmShape]
    ) -> Tuple[KernelConfig, ...]:
        """Configurations for many shapes in one selector pass."""
        return self.selector.select_batch(shapes)

    def kernel_for(self, shape: GemmShape) -> Kernel:
        """A launchable kernel instance for ``shape``.

        The selected configuration is instantiated through the library's
        family dispatch, so vector-shaped problems get the GEMV kernel
        and ``batch > 1`` stacks the batched kernel.
        """
        return self.library.kernel(self.select(shape), shape=shape)

    def matmul(self, queue: Queue, a: np.ndarray, b: np.ndarray):
        """Run a GEMM end to end through the selection process.

        Returns ``(C, event, config)`` — result, profiling event, and the
        configuration that was chosen.
        """
        shape = GemmShape(m=a.shape[0], k=a.shape[1], n=b.shape[1])
        config = self.select(shape)
        result, event = matmul(queue, a, b, config)
        return result, event, config

    # -- code generation -----------------------------------------------------

    def _tree(self):
        """The selection tree every emitter and :meth:`compiled` walk.

        A degenerate constant selector (one in-set config dominated
        training) is a single leaf answering that config for every shape.
        """
        if getattr(self.selector, "_constant", None) is not None:
            return Tree(
                feature=np.array([LEAF], dtype=np.int64),
                threshold=np.zeros(1),
                left=np.array([LEAF], dtype=np.int64),
                right=np.array([LEAF], dtype=np.int64),
                value=np.ones((1, 1)),
                impurity=np.zeros(1),
                n_samples=np.ones(1, dtype=np.int64),
            )
        tree = getattr(self.selector.estimator, "tree_", None)
        # Note: KNeighborsClassifier also has a ``tree_`` (its KD-tree);
        # only a CART structure is exportable as nested ifs.
        if not isinstance(tree, Tree):
            raise TypeError(
                "source export requires a fitted decision-tree selector"
            )
        return tree

    def _feature_names(self) -> Tuple[str, ...]:
        """Argument names for the generated dispatch function.

        The selector records its feature vocabulary at fit time; that is
        authoritative (sparse and placed shapes share a five-wide
        feature space, so width alone is ambiguous).  Selectors rebuilt
        from artifacts written before the vocabulary was recorded fall
        back to the historical width heuristic.
        """
        recorded = getattr(self.selector, "feature_names", None)
        if recorded:
            return tuple(recorded)
        width = getattr(self.selector.estimator, "n_features_in_", None)
        if width == SparseGemmShape.N_FEATURES:
            return SparseGemmShape.FEATURE_NAMES
        return GemmShape.FEATURE_NAMES

    def _leaf_configs(self) -> Tuple[Tree, List[KernelConfig]]:
        """:meth:`_tree` and the configuration each of its nodes answers.

        Argmax over the node's class distribution, through the training
        classes to a position in the pruned set — exactly the
        classifier's predict.  Both source exporters and
        :meth:`compiled` read this one table.
        """
        tree = self._tree()
        constant = getattr(self.selector, "_constant", None)
        classes = (
            [constant] if constant is not None else self.selector.estimator.classes_
        )
        configs = self.selector.pruned.configs
        return tree, [configs[int(classes[w])] for w in tree.value.argmax(axis=1)]

    def export_python(self, *, function_name: str = "select_kernel") -> str:
        """The selection process as a standalone Python function."""
        tree, configs = self._leaf_configs()
        leaves = [repr(config.short_name()) for config in configs]
        names = self._feature_names()
        return _function_source(tree, _PYTHON, function_name, names, leaves)

    def export_cpp(self, *, function_name: str = "select_kernel") -> str:
        """The selection process as nested C++ ifs (library dispatch)."""
        tree, configs = self._leaf_configs()
        leaves = [f'"{config.short_name()}"' for config in configs]
        names = self._feature_names()
        return _function_source(
            tree, _CPP, function_name, names, leaves, "const char*"
        )

    def compiled(self) -> CompiledSelector:
        """This selector compiled for the sub-microsecond hot path.

        The fitted tree is compiled into nested-``if`` Python via
        :func:`repro.ml.tree.codegen.compile_tree` and every leaf is
        pre-resolved to its :class:`~repro.kernels.params.KernelConfig`.
        The returned :class:`CompiledSelector` makes decisions identical
        to :meth:`select`, roughly two orders of magnitude faster.

        Requires a fitted decision-tree selector (like the source
        exporters, it walks :meth:`_tree`, so a degenerate constant
        selector compiles to a single leaf).  A tree deeper than
        ``MAX_SOURCE_DEPTH`` raises ``ValueError``; :meth:`select` still
        serves it.
        """
        tree, configs = self._leaf_configs()
        compiled_tree = compile_tree(tree, feature_names=self._feature_names())
        return CompiledSelector(compiled_tree, configs)

    def __repr__(self) -> str:
        return (
            f"DeployedSelector({self.library!r}, "
            f"selector={self.selector.name!r})"
        )


def tune(
    train: PerformanceDataset,
    *,
    n_configs: int = 8,
    pruner: Optional[Pruner] = None,
    classifier: str = "DecisionTree",
    random_state: int = 0,
) -> DeployedSelector:
    """One-call pipeline: prune, fit a selector, build the library.

    Defaults follow the paper's conclusions: decision-tree pruning and a
    decision-tree runtime selector at a budget of 8 configurations.
    """
    pruner = pruner or DecisionTreePruner()
    pruned = pruner.select(train, n_configs)
    selector = make_selector(classifier, pruned, random_state=random_state)
    selector.fit(train)
    library = KernelLibrary(pruned.configs)
    return DeployedSelector(library, selector)


# -- pipeline stages ----------------------------------------------------------


def prune_stage(inputs, params) -> PrunedSet:
    """Pipeline stage: prune the configuration space on the train split.

    Parameters: ``pruner`` (technique name, see
    :func:`~repro.core.pruning.evaluate.make_pruner`), ``budget``, and
    ``random_state``.
    """
    pruner = make_pruner(
        params["pruner"], random_state=params.get("random_state", 0)
    )
    return pruner.select(inputs["split"].train, params["budget"])


def train_stage(inputs, params) -> DeployedSelector:
    """Pipeline stage: fit the runtime selector, bundle the library."""
    selector = make_selector(
        params["classifier"],
        inputs["prune"],
        random_state=params.get("random_state", 0),
    )
    selector.fit(inputs["split"].train)
    return DeployedSelector(KernelLibrary(inputs["prune"].configs), selector)


def eval_stage(inputs, params):
    """Pipeline stage: score the deployed selector on the test split."""
    return evaluate_selector(inputs["train"].selector, inputs["split"].test)
