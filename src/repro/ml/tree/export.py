"""Tree export: human-readable text and nested-``if`` source code.

Section IV's deployment argument is that "decision trees can be
implemented as a series of nested if statements".  These exporters emit
exactly that — Python for in-process use and C++ for dropping into a
SYCL library's dispatch layer — from any fitted tree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ml.tree.codegen import _nested_if_source
from repro.ml.tree.structure import LEAF, Tree

__all__ = ["export_cpp", "export_python", "export_text"]


def _leaf_label(tree: Tree, node: int, class_names: Optional[Sequence[str]]) -> str:
    value = tree.value[node]
    winner = int(np.argmax(value))
    if class_names is not None:
        return str(class_names[winner])
    return str(winner)


def export_text(
    tree: Tree,
    *,
    feature_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
    precision: int = 2,
) -> str:
    """An indented textual rendering of the decision structure."""

    def fname(f: int) -> str:
        return feature_names[f] if feature_names is not None else f"x[{f}]"

    lines: List[str] = []

    def walk(node: int, depth: int) -> None:
        indent = "|   " * depth
        if tree.feature[node] == LEAF:
            lines.append(
                f"{indent}|--- value: {_leaf_label(tree, node, class_names)} "
                f"(n={tree.n_samples[node]})"
            )
            return
        f, t = int(tree.feature[node]), tree.threshold[node]
        lines.append(f"{indent}|--- {fname(f)} <= {t:.{precision}f}")
        walk(int(tree.left[node]), depth + 1)
        lines.append(f"{indent}|--- {fname(f)} >  {t:.{precision}f}")
        walk(int(tree.right[node]), depth + 1)

    walk(0, 0)
    return "\n".join(lines)


def export_python(
    tree: Tree,
    *,
    function_name: str = "select",
    feature_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
) -> str:
    """Standalone Python function implementing the tree as nested ifs.

    Leaf results are the argmax class (by index or ``class_names`` entry);
    the generated function takes the feature values as arguments.  The
    emitter is the one :func:`repro.ml.tree.codegen.tree_apply_source`
    uses, so invalid names and over-deep trees raise ``ValueError``.
    """
    return _nested_if_source(
        tree,
        function_name,
        feature_names,
        lambda node: repr(_leaf_label(tree, node, class_names)),
    )


def export_cpp(
    tree: Tree,
    *,
    function_name: str = "select_kernel",
    feature_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
    return_type: str = "int",
) -> str:
    """A C++ function implementing the tree, suitable for a SYCL library.

    With ``class_names`` given, leaves return those tokens verbatim (e.g.
    enum values or template-instantiation tags); otherwise the class index.
    """
    n_features = int(tree.feature.max(initial=0)) + 1
    if feature_names is None:
        feature_names = [f"x{i}" for i in range(n_features)]
    params = ", ".join(f"double {name}" for name in feature_names)
    lines = [f"{return_type} {function_name}({params}) {{"]

    def walk(node: int, depth: int) -> None:
        indent = "  " * depth
        if tree.feature[node] == LEAF:
            lines.append(f"{indent}return {_leaf_label(tree, node, class_names)};")
            return
        f, t = int(tree.feature[node]), float(tree.threshold[node])
        lines.append(f"{indent}if ({feature_names[f]} <= {t!r}) {{")
        walk(int(tree.left[node]), depth + 1)
        lines.append(f"{indent}}} else {{")
        walk(int(tree.right[node]), depth + 1)
        lines.append(f"{indent}}}")

    walk(0, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"
