"""Tree export: human-readable text and nested-``if`` source code.

Section IV's deployment argument is that "decision trees can be
implemented as a series of nested if statements".  These exporters emit
exactly that — Python for in-process use and C++ for dropping into a
SYCL library's dispatch layer — from any fitted tree.  All three are
rows of the one walker in :mod:`repro.ml.tree.codegen`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.ml.tree.codegen import _CPP, _PYTHON, _TEXT, _function_source, _nested_ifs
from repro.ml.tree.structure import LEAF, Tree

__all__ = ["export_cpp", "export_python", "export_text"]


def _class_labels(
    tree: Tree, class_names: Optional[Sequence[str]]
) -> Dict[int, str]:
    """Each leaf's argmax class, by index or ``class_names`` entry."""
    winners = tree.value.argmax(axis=1)
    labels = range(tree.value.shape[1]) if class_names is None else class_names
    leaves = np.flatnonzero(tree.feature == LEAF).tolist()
    return {node: str(labels[winners[node]]) for node in leaves}


def export_text(
    tree: Tree,
    *,
    feature_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
    precision: int = 2,
) -> str:
    """An indented textual rendering of the decision structure."""
    if feature_names is None:
        width = int(tree.feature.max(initial=-1)) + 1
        feature_names = [f"x[{f}]" for f in range(width)]
    labels = _class_labels(tree, class_names)
    return "\n".join(
        _nested_ifs(tree, _TEXT, feature_names, labels, 0, precision)
    )


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
    labels = _class_labels(tree, class_names)
    leaves = {node: repr(label) for node, label in labels.items()}
    return _function_source(tree, _PYTHON, function_name, feature_names, leaves)


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
    Names go through the Python emitter's checks, so invalid names raise
    ``ValueError``; there is no depth cap.
    """
    labels = _class_labels(tree, class_names)
    return _function_source(
        tree, _CPP, function_name, feature_names, labels, return_type
    )
