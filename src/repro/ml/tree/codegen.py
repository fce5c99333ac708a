"""One nested-``if`` walker for every form a fitted tree is rendered in.

The paper's deployment argument is that a decision tree "compiles to
nested if statements" with negligible dispatch overhead.
:func:`_nested_ifs` walks a fitted :class:`~repro.ml.tree.structure.Tree`
once, spelling it from a per-language :class:`_Syntax` row: Python
(:func:`tree_apply_source`, :func:`~repro.ml.tree.export.export_python`),
C++ (:func:`~repro.ml.tree.export.export_cpp`) or indented text
(:func:`~repro.ml.tree.export.export_text`).

:func:`compile_tree` ``exec``s the Python form, every leaf a ``return
<node_id>``, into a plain function that descends the tree for *one*
sample: one call, a handful of float comparisons, one return.
Comparisons are the same ``x <= threshold`` as the reference walk
:meth:`Tree.decision_path_nodes`, so a NaN feature descends right in
both.
"""

from __future__ import annotations

import keyword
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ml.tree.structure import LEAF, Tree

__all__ = [
    "CompiledTree",
    "MAX_SOURCE_DEPTH",
    "compile_tree",
    "tree_apply_source",
]

#: Deepest tree the nested-``if`` Python emitter will write.  CPython's
#: tokenizer rejects more than 100 indentation levels; deeper trees are
#: served by the NumPy descent of ``DeployedSelector.select`` and
#: ``select_batch`` instead.
MAX_SOURCE_DEPTH = 90


class _Syntax(NamedTuple):
    """``str.format`` templates of one form: ``split`` and ``orelse``
    get ``name``, threshold ``t`` and precision ``p``; ``leaf`` gets the
    label and sample count ``n``; ``close`` is a literal line."""

    split: str
    orelse: str
    close: str
    leaf: str
    indent: str


_PYTHON = _Syntax("if {name} <= {t!r}:", "else:", "", "return {}", "    ")
_CPP = _Syntax("if ({name} <= {t!r}) {{", "}} else {{", "}", "return {};", "  ")
_TEXT = _Syntax(
    "|--- {name} <= {t:.{p}f}",
    "|--- {name} >  {t:.{p}f}",
    "",
    "|--- value: {} (n={n})",
    "|   ",
)


def _nested_ifs(
    tree: Tree,
    syntax: _Syntax,
    names: Sequence[str],
    leaves,
    depth: int = 1,
    precision: int = 0,
) -> List[str]:
    """``tree``'s lines in ``syntax`` from ``depth``; ``names[f]`` spells
    feature ``f`` and ``leaves[node]`` labels a leaf."""
    lines: List[str] = []

    def walk(node: int, depth: int) -> None:
        pad = syntax.indent * depth
        if tree.feature[node] == LEAF:
            label = syntax.leaf.format(leaves[node], n=tree.n_samples[node])
            lines.append(pad + label)
            return
        # ``float`` first, so ``{t!r}`` round-trips the threshold exactly.
        fields = {
            "name": names[tree.feature[node]],
            "t": float(tree.threshold[node]),
            "p": precision,
        }
        lines.append(pad + syntax.split.format(**fields))
        walk(int(tree.left[node]), depth + 1)
        lines.append(pad + syntax.orelse.format(**fields))
        walk(int(tree.right[node]), depth + 1)
        if syntax.close:
            lines.append(pad + syntax.close)

    walk(0, depth)
    return lines


def _feature_arg_names(
    tree: Tree, feature_names: Optional[Sequence[str]], function_name: str
) -> Tuple[str, ...]:
    """Validated argument names for a generated descent function.

    When ``feature_names`` is omitted the width is inferred from the
    highest feature the tree actually splits on; selectors should pass
    the full trained feature width so unused trailing features stay in
    the signature.  Non-identifiers and Python keywords are rejected,
    for ``function_name`` too, so the emitted Python always compiles.
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
    kinds = ["function name"] + ["feature name"] * len(feature_names)
    for kind, name in zip(kinds, (function_name, *feature_names)):
        if not name.isidentifier() or keyword.iskeyword(name):
            raise ValueError(f"{kind} {name!r} is a keyword or not an identifier")
    return feature_names


def _function_source(
    tree: Tree,
    syntax: _Syntax,
    function_name: str,
    feature_names: Optional[Sequence[str]],
    leaves,
    return_type: str = "",
) -> str:
    """Python (or, for ``_CPP``, C++) source of one function descending
    ``tree`` as nested ifs, ``leaves[node]`` the expression a leaf
    returns.  Only Python has a depth cap."""
    names = _feature_arg_names(tree, feature_names, function_name)
    if syntax is _CPP:
        params = ", ".join(f"double {name}" for name in names)
        head, tail = f"{return_type} {function_name}({params}) {{", "}\n"
    else:
        depth_cap = tree.max_depth
        if depth_cap > MAX_SOURCE_DEPTH:
            raise ValueError(
                f"tree depth {depth_cap} exceeds the nested-if source limit "
                f"(MAX_SOURCE_DEPTH = {MAX_SOURCE_DEPTH}); serve it through "
                "the NumPy DeployedSelector.select/select_batch instead"
            )
        head, tail = f"def {function_name}({', '.join(names)}):", ""
    lines = [head, *_nested_ifs(tree, syntax, names, leaves)]
    return "\n".join(lines) + "\n" + tail


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
    leaves = range(tree.node_count)
    return _function_source(tree, _PYTHON, function_name, feature_names, leaves)


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
    names = _feature_arg_names(tree, feature_names, function_name)
    source = tree_apply_source(
        tree, function_name=function_name, feature_names=names
    )
    namespace: dict = {}
    exec(compile(source, "<repro.ml.tree.codegen>", "exec"), namespace)  # noqa: S102
    return CompiledTree(namespace[function_name], names, tree.node_count, source)
