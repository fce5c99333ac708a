"""Selector artifacts: the selector codec's on-disk layout.

A deployed selector is two files: ``selector_arrays.npz``, one
uncompressed archive of the tree arrays, and :data:`MAPPED_META_FILE`,
the canonical tagged-JSON metadata.  One SHA-256 covers both: the
metadata, each array's dtype and shape, and the arrays' raw bytes in
:data:`ARRAY_FIELDS` order.  It never hashes the archive's own bytes,
which carry zip member timestamps.

:meth:`~repro.core.deploy.DeployedSelector.from_mapped` checks the
digest by default and raises :class:`MappedIntegrityError` — never a
crash deep inside the tree — on a missing directory, unreadable or
tampered metadata, or a missing, truncated or altered array.
``np.load`` checks each zip member's CRC-32 as well, so a flipped data
byte fails the load even unverified.  Like every pipeline codec this
is pure data: tagged JSON and ``.npy`` arrays, no pickle.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ARRAY_FIELDS",
    "MAPPED_META_FILE",
    "MAPPED_SCHEMA",
    "MappedIntegrityError",
    "rebuild_deployed",
    "selector_meta",
    "write_mapped_selector",
]

#: Tree arrays persisted by the layout, in canonical order.
ARRAY_FIELDS: Tuple[str, ...] = (
    "feature",
    "threshold",
    "left",
    "right",
    "value",
    "impurity",
    "n_samples",
)

MAPPED_META_FILE = "selector_meta.json"
MAPPED_SCHEMA = "repro/mapped-selector/v2"
_ARRAYS_FILE = "selector_arrays.npz"


class MappedIntegrityError(RuntimeError):
    """A mapped selector failed its digest / layout integrity check."""


def _digest(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the metadata (bar its digest), each array's dtype and
    shape, and the arrays' raw bytes in :data:`ARRAY_FIELDS` order."""
    from repro.pipeline.serialize import dumps

    body = {key: meta[key] for key in meta if key != "digest"}
    body["arrays"] = {
        field: [array.dtype.str, list(array.shape)]
        for field, array in arrays.items()
    }
    sha = hashlib.sha256(dumps(body, canonical=True).encode())
    for field in ARRAY_FIELDS:
        if field in arrays:
            sha.update(np.ascontiguousarray(arrays[field]).tobytes())
    return sha.hexdigest()


def selector_meta(deployed: Any) -> Dict[str, Any]:
    """The persistable metadata of a deployed selector (validated).

    Rejects estimator families without an array-only representation, so
    the selector codec fails at save time rather than silently
    mis-serializing.
    """
    selector = deployed.selector
    constant = getattr(selector, "_constant", None)
    tree = getattr(selector.estimator, "tree_", None)
    feature_names = getattr(selector, "feature_names", None)
    meta: Dict[str, Any] = {
        "classifier": selector.name,
        "pruned": selector.pruned,
        "constant": constant,
        "n_features_in": getattr(selector.estimator, "n_features_in_", None),
        "classes": getattr(selector.estimator, "classes_", None),
        "feature_names": (
            None if feature_names is None else list(feature_names)
        ),
        "has_tree": tree is not None and constant is None,
    }
    if meta["has_tree"]:
        from repro.ml.tree.structure import Tree

        if not isinstance(tree, Tree) or selector.name != "DecisionTree":
            raise TypeError(
                "selector codec can only persist decision-tree or "
                f"constant selectors, not {selector.name!r}"
            )
    elif constant is None:
        raise TypeError(
            "selector codec requires a fitted decision-tree or "
            "constant selector"
        )
    return meta


def rebuild_deployed(meta: Dict[str, Any], tree: Optional[Any] = None) -> Any:
    """A :class:`~repro.core.deploy.DeployedSelector` from saved metadata.

    ``tree`` is the already-deserialized
    :class:`~repro.ml.tree.structure.Tree`.
    """
    from repro.core.deploy import DeployedSelector
    from repro.core.selection.classifiers import make_selector
    from repro.kernels.registry import KernelLibrary

    pruned = meta["pruned"]
    selector = make_selector(meta["classifier"], pruned)
    selector._constant = (
        None if meta["constant"] is None else int(meta["constant"])
    )
    if meta["has_tree"] and tree is not None:
        selector.estimator.tree_ = tree
    if meta["classes"] is not None:
        selector.estimator.classes_ = np.asarray(meta["classes"])
    if meta["n_features_in"] is not None:
        selector.estimator.n_features_in_ = int(meta["n_features_in"])
    # Artifacts written before the feature vocabulary was recorded have
    # no such key; the selector then falls back to width inference.
    names = meta.get("feature_names")
    if names is not None:
        selector.feature_names = tuple(str(n) for n in names)
    selector._fitted = True
    return DeployedSelector(KernelLibrary(pruned.configs), selector)


def write_mapped_selector(deployed: Any, directory: Path) -> str:
    """Write the selector under ``directory``; returns its digest.

    The tree arrays go to one uncompressed ``.npz`` and the metadata,
    digest included, to :data:`MAPPED_META_FILE`.
    """
    from repro.pipeline.serialize import dumps

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = selector_meta(deployed)
    meta["schema"] = MAPPED_SCHEMA
    arrays: Dict[str, np.ndarray] = {}
    if meta["has_tree"]:
        tree = deployed.selector.estimator.tree_
        arrays = {
            field: np.ascontiguousarray(getattr(tree, field))
            for field in ARRAY_FIELDS
        }
        np.savez(directory / _ARRAYS_FILE, **arrays)
    meta["digest"] = _digest(meta, arrays)
    (directory / MAPPED_META_FILE).write_text(dumps(meta))
    return meta["digest"]


def _read_arrays(directory: Path) -> Dict[str, np.ndarray]:
    path = directory / _ARRAYS_FILE
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {
                field: archive[field]
                for field in ARRAY_FIELDS
                if field in archive.files
            }
    except FileNotFoundError:
        raise MappedIntegrityError(
            f"mapped selector array file {path} is missing"
        ) from None
    except Exception as exc:
        raise MappedIntegrityError(
            f"mapped selector array file {path} is unreadable: {exc}"
        ) from exc
    absent = [field for field in ARRAY_FIELDS if field not in arrays]
    if absent:
        raise MappedIntegrityError(
            f"mapped selector array file {path} is missing the "
            f"{absent[0]!r} array"
        )
    return arrays


def _load_selector(directory: Path, *, verify: bool) -> Any:
    """The loader behind :meth:`DeployedSelector.from_mapped`."""
    from repro.pipeline.serialize import loads

    directory = Path(directory)
    path = directory / MAPPED_META_FILE
    try:
        meta = loads(path.read_text())
    except FileNotFoundError:
        raise MappedIntegrityError(
            f"no mapped selector at {directory} (missing {MAPPED_META_FILE})"
        ) from None
    except Exception as exc:
        raise MappedIntegrityError(
            f"mapped selector metadata at {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(meta, dict) or "digest" not in meta:
        raise MappedIntegrityError(
            f"mapped selector metadata at {path} has no digest"
        )
    arrays = _read_arrays(directory) if meta.get("has_tree") else {}
    if verify and _digest(meta, arrays) != meta["digest"]:
        raise MappedIntegrityError(
            f"mapped selector at {directory} fails its SHA-256 digest "
            "check (metadata or arrays changed after write)"
        )
    tree = None
    if arrays:
        from repro.ml.tree.structure import Tree

        tree = Tree(**arrays)
    return rebuild_deployed(meta, tree)
