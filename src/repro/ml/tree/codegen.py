"""Compilation of a fitted tree into sub-microsecond scalar dispatch.

The paper's deployment argument is that a decision tree "compiles to
nested if statements" with negligible dispatch overhead.  This module
takes that literally for the in-process hot path: a fitted
:class:`~repro.ml.tree.structure.Tree` is emitted as nested-``if``
Python source (every leaf a ``return <node_id>``), then
``compile()``/``exec``'d into a plain function that descends the tree
for *one* sample: one call, a handful of float comparisons, one return.

Comparisons are the same ``x <= threshold`` as the reference walk
:meth:`Tree.decision_path_nodes`, so a NaN feature descends right in
both.  :func:`repro.ml.tree.export.export_python` shares the emitter,
with class labels instead of node ids at the leaves.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tree.structure import LEAF, Tree

__all__ = [
    "CompiledTree",
    "MAX_SOURCE_DEPTH",
    "compile_tree",
    "tree_apply_source",
]

#: Deepest tree the nested-``if`` emitter will write.  CPython's
#: tokenizer rejects more than 100 indentation levels; deeper trees are
#: served by the NumPy descent of ``DeployedSelector.select`` and
#: ``select_batch`` instead.
MAX_SOURCE_DEPTH = 90


def _feature_arg_names(
    tree: Tree, feature_names: Optional[Sequence[str]]
) -> Tuple[str, ...]:
    """Validated argument names for the generated descent function.

    When ``feature_names`` is omitted the width is inferred from the
    highest feature the tree actually splits on; selectors should pass
    the full trained feature width so unused trailing features stay in
    the signature.
    """
    if feature_names is None:
        width = int(tree.feature.max(initial=-1)) + 1
        feature_names = tuple(f"x{i}" for i in range(width))
    else:
        feature_names = tuple(str(name) for name in feature_names)
        needed = int(tree.feature.max(initial=-1)) + 1
        if len(feature_names) < needed:
            raise ValueError(
                f"tree splits on feature {needed - 1} but only "
                f"{len(feature_names)} feature names were given"
            )
    for name in feature_names:
        if not name.isidentifier():
            raise ValueError(f"feature name {name!r} is not an identifier")
    return feature_names


def _nested_if_source(
    tree: Tree,
    function_name: str,
    feature_names: Optional[Sequence[str]],
    leaf: Callable[[int], str],
) -> str:
    """Python source of one function descending ``tree`` as nested ifs.

    ``leaf(node)`` is the expression a leaf returns.  Thresholds are
    emitted with ``repr`` and round-trip exactly.  Non-identifier names
    and trees too deep for CPython's parser are rejected, so the
    emitted text always compiles.
    """
    if not function_name.isidentifier():
        raise ValueError(f"function name {function_name!r} is not an identifier")
    names = _feature_arg_names(tree, feature_names)
    depth_cap = tree.max_depth
    if depth_cap > MAX_SOURCE_DEPTH:
        raise ValueError(
            f"tree depth {depth_cap} exceeds the nested-if source limit "
            f"(MAX_SOURCE_DEPTH = {MAX_SOURCE_DEPTH}); serve it through "
            "the NumPy DeployedSelector.select/select_batch instead"
        )
    lines: List[str] = [f"def {function_name}({', '.join(names)}):"]

    def walk(node: int, depth: int) -> None:
        indent = "    " * depth
        if tree.feature[node] == LEAF:
            lines.append(f"{indent}return {leaf(node)}")
            return
        f, t = int(tree.feature[node]), float(tree.threshold[node])
        lines.append(f"{indent}if {names[f]} <= {t!r}:")
        walk(int(tree.left[node]), depth + 1)
        lines.append(f"{indent}else:")
        walk(int(tree.right[node]), depth + 1)

    walk(0, 1)
    return "\n".join(lines) + "\n"


def tree_apply_source(
    tree: Tree,
    *,
    function_name: str = "tree_apply",
    feature_names: Optional[Sequence[str]] = None,
) -> str:
    """Nested-``if`` Python source descending ``tree`` for one sample.

    The generated function takes one scalar argument per feature and
    returns the *leaf node index* the sample lands in — the last node of
    :meth:`Tree.decision_path_nodes` — so callers can layer any
    per-leaf payload (class, config, pointer) on top with one list
    index.
    """
    return _nested_if_source(tree, function_name, feature_names, str)


class CompiledTree:
    """A fitted tree compiled for scalar sub-microsecond descent.

    ``apply_one`` is a plain function attribute (grab it once on the
    hot path): called with one scalar per feature, it returns the leaf
    node index the reference walk reaches on the same (float64) inputs.
    :meth:`apply` is the array convenience used by the differential
    tests.
    """

    __slots__ = ("source", "feature_names", "apply_one", "node_count")

    def __init__(
        self,
        apply_one: Callable[..., int],
        feature_names: Tuple[str, ...],
        node_count: int,
        source: str,
    ):
        self.apply_one = apply_one
        self.feature_names = feature_names
        self.node_count = node_count
        self.source = source

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index per row, via the compiled scalar descent.

        Rows are converted to float64 first (exactly like the reference
        walk), so results match it bit for bit.
        """
        X = np.asarray(X, dtype=np.float64)
        X = np.atleast_2d(X)
        fn = self.apply_one
        # Trailing features the tree never splits on are dropped to the
        # compiled function's arity (a no-split tree takes no arguments).
        arity = len(self.feature_names)
        return np.fromiter(
            (fn(*row[:arity]) for row in X.tolist()),
            dtype=np.int64,
            count=len(X),
        )

    def __repr__(self) -> str:
        return (
            f"CompiledTree({self.node_count} nodes, "
            f"features {list(self.feature_names)})"
        )


def compile_tree(
    tree: Tree,
    *,
    feature_names: Optional[Sequence[str]] = None,
    function_name: str = "tree_apply",
) -> CompiledTree:
    """Compile :func:`tree_apply_source` into a :class:`CompiledTree`.

    Trees deeper than :data:`MAX_SOURCE_DEPTH` raise ``ValueError``.
    """
    names = _feature_arg_names(tree, feature_names)
    source = tree_apply_source(
        tree, function_name=function_name, feature_names=names
    )
    namespace: dict = {}
    exec(compile(source, "<repro.ml.tree.codegen>", "exec"), namespace)  # noqa: S102
    return CompiledTree(namespace[function_name], names, tree.node_count, source)
