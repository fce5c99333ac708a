"""CART decision trees: classifier and multi-output regressor.

Growth strategies:

* depth-first (default) — standard recursive CART;
* best-first with ``max_leaf_nodes`` — splits are expanded in order of
  impurity improvement, so capping the leaf count keeps the *most
  informative* splits.  This is the mechanism behind the paper's decision
  tree pruner: "limiting the number of leaf nodes in the decision tree
  ensures the tree only produces a restricted number of vectors".

Both estimators share one base.  The fitted tree is a flat array
structure (:class:`~repro.ml.tree.structure.Tree`) that predicts without
recursion; one walker (:mod:`repro.ml.tree.codegen`) renders it as
nested ``if`` Python or C++ — the paper's deployment target — or text.
"""

from repro.ml.tree.structure import Tree
from repro.ml.tree.classifier import DecisionTreeClassifier
from repro.ml.tree.regressor import DecisionTreeRegressor
from repro.ml.tree.export import export_cpp, export_python, export_text
from repro.ml.tree.codegen import CompiledTree, compile_tree, tree_apply_source

__all__ = [
    "CompiledTree",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "Tree",
    "compile_tree",
    "export_cpp",
    "export_python",
    "export_text",
    "tree_apply_source",
]
