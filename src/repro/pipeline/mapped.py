"""Zero-copy mapped selector artifacts: the selector codec's on-disk layout.

Each tree array is written as its own uncompressed ``.npy`` file, so
:func:`load_mapped_selector` can hand the deserialized
:class:`~repro.ml.tree.structure.Tree` views straight off the page
cache via ``np.load(mmap_mode="r")`` instead of decompressing fresh
arrays on every load; concurrent loaders share one physical copy of
the tree.

The layout is digest-protected: ``selector_meta.json`` records a
SHA-256 per array (over the raw element bytes) plus a combined digest
over the canonical metadata.  Loading verifies by default and raises
:class:`MappedIntegrityError` — never a crash deep inside the tree —
when any byte disagrees.  Like every pipeline codec this is pure data:
tagged JSON and ``.npy`` arrays, no pickle.
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
    "load_mapped_selector",
    "mapped_digest",
    "read_mapped_meta",
    "rebuild_deployed",
    "selector_meta",
    "verify_mapped",
    "write_mapped_selector",
]

#: Tree arrays persisted by the mapped layout, in canonical order.
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
MAPPED_SCHEMA = "repro/mapped-selector/v1"


class MappedIntegrityError(RuntimeError):
    """A mapped selector failed its digest / layout integrity check."""


def _array_sha256(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()
    ).hexdigest()


def _meta_digest(meta: Dict[str, Any]) -> str:
    from repro.pipeline.serialize import dumps

    body = {key: meta[key] for key in meta if key != "digest"}
    return hashlib.sha256(dumps(body, canonical=True).encode()).hexdigest()


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
    :class:`~repro.ml.tree.structure.Tree` (file-mapped or plain
    in-memory arrays — the selector does not care).
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
    """Write the mapped layout under ``directory``; returns the digest.

    One uncompressed ``.npy`` per tree array plus
    :data:`MAPPED_META_FILE` carrying per-array SHA-256s and the
    combined digest.
    """
    from repro.pipeline.serialize import dumps

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = selector_meta(deployed)
    meta["schema"] = MAPPED_SCHEMA
    arrays: Dict[str, Dict[str, Any]] = {}
    if meta["has_tree"]:
        tree = deployed.selector.estimator.tree_
        for field in ARRAY_FIELDS:
            array = np.ascontiguousarray(getattr(tree, field))
            filename = f"{field}.npy"
            np.save(directory / filename, array, allow_pickle=False)
            arrays[field] = {
                "file": filename,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "sha256": _array_sha256(array),
            }
    meta["arrays"] = arrays
    digest = _meta_digest(meta)
    meta["digest"] = digest
    (directory / MAPPED_META_FILE).write_text(dumps(meta))
    return digest


def read_mapped_meta(directory: Path) -> Dict[str, Any]:
    """Parse :data:`MAPPED_META_FILE`; malformed metadata is an integrity
    error, not a crash."""
    from repro.pipeline.serialize import loads

    path = Path(directory) / MAPPED_META_FILE
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
    return meta


def mapped_digest(directory: Path) -> str:
    """The digest recorded in a mapped layout's metadata."""
    return str(read_mapped_meta(directory)["digest"])


def _check_meta_digest(directory: Path, meta: Dict[str, Any]) -> None:
    if _meta_digest(meta) != meta["digest"]:
        raise MappedIntegrityError(
            f"mapped selector metadata at {directory} fails its digest "
            "check (metadata was modified after write)"
        )


def _load_arrays(
    directory: Path, meta: Dict[str, Any], *, mmap: bool
) -> Dict[str, np.ndarray]:
    mode = "r" if mmap else None
    arrays: Dict[str, np.ndarray] = {}
    for field in ARRAY_FIELDS:
        entry = meta["arrays"].get(field)
        if entry is None:
            raise MappedIntegrityError(
                f"mapped selector at {directory} is missing the "
                f"{field!r} array entry"
            )
        path = directory / entry["file"]
        try:
            arrays[field] = np.load(path, mmap_mode=mode, allow_pickle=False)
        except FileNotFoundError:
            raise MappedIntegrityError(
                f"mapped selector array file {path} is missing"
            ) from None
        except Exception as exc:
            raise MappedIntegrityError(
                f"mapped selector array file {path} is unreadable: {exc}"
            ) from exc
    return arrays


def _verify_arrays(
    directory: Path, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> None:
    for field, array in arrays.items():
        entry = meta["arrays"][field]
        if str(array.dtype) != entry["dtype"] or list(array.shape) != list(
            entry["shape"]
        ):
            raise MappedIntegrityError(
                f"mapped array {field!r} at {directory} has layout "
                f"{array.dtype}{tuple(array.shape)}, metadata says "
                f"{entry['dtype']}{tuple(entry['shape'])}"
            )
        if _array_sha256(array) != entry["sha256"]:
            raise MappedIntegrityError(
                f"mapped array {field!r} at {directory} fails its "
                "SHA-256 check (bytes on disk differ from the digest "
                "recorded at write time)"
            )


def verify_mapped(directory: Path) -> str:
    """Full integrity check of a mapped layout; returns the digest.

    Verifies the combined metadata digest and every array's SHA-256.
    Raises :class:`MappedIntegrityError` on the first disagreement.
    """
    directory = Path(directory)
    meta = read_mapped_meta(directory)
    _check_meta_digest(directory, meta)
    if meta.get("has_tree"):
        arrays = _load_arrays(directory, meta, mmap=True)
        _verify_arrays(directory, meta, arrays)
    return str(meta["digest"])


def load_mapped_selector(
    directory: Path, *, mmap: bool = True, verify: bool = True
) -> Any:
    """A :class:`~repro.core.deploy.DeployedSelector` off mapped bytes.

    With ``mmap=True`` (the default) the tree arrays are read-only
    views over the page cache — concurrent loaders share one physical
    copy.  ``verify=True`` runs the checks of :func:`verify_mapped` on
    the loaded arrays, so a corrupted artifact surfaces as :class:`MappedIntegrityError` at
    load time instead of wrong selections later.
    """
    directory = Path(directory)
    meta = read_mapped_meta(directory)
    if verify:
        _check_meta_digest(directory, meta)
    tree = None
    if meta.get("has_tree"):
        from repro.ml.tree.structure import Tree

        arrays = _load_arrays(directory, meta, mmap=mmap)
        if verify:
            _verify_arrays(directory, meta, arrays)
        tree = Tree(**arrays)
    return rebuild_deployed(meta, tree)
