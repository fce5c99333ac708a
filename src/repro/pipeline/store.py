"""The content-addressed artifact store.

Filesystem layout (one directory per artifact, keyed by fingerprint)::

    <root>/
      objects/
        <fingerprint>/
          manifest.json        # Provenance
          payload/             # codec-defined files (.npz / .json)

Writes are atomic: the payload and manifest are staged in a temporary
sibling directory and ``os.replace``-d into place, so readers never see a
half-written artifact and concurrent writers of the same fingerprint
converge on identical content.  It is the one way to reuse a sweep: a
sweep artifact is a ``bench/cache.py`` file plus identity and lineage.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Iterator, List, Optional, Set, Union

from repro.pipeline.artifact import Artifact, Provenance
from repro.pipeline.codecs import get_codec

__all__ = ["ArtifactPayloadError", "ArtifactStore"]


class ArtifactPayloadError(RuntimeError):
    """A stored artifact's payload failed to decode.

    Raised by :meth:`ArtifactStore.get` when the manifest is readable
    but the codec cannot reconstruct the payload (truncated/corrupted
    files, missing payload members) — a clear signal that the object
    directory is damaged, instead of a raw ``KeyError``/decode error
    surfacing from deep inside a codec.
    """

_MANIFEST = "manifest.json"
_PAYLOAD = "payload"
_TMP_PREFIX = "tmp-"


class ArtifactStore:
    """Filesystem-backed, content-addressed artifact storage."""

    def __init__(self, root: Union[str, Path]):
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def _object_dir(self, fingerprint: str) -> Path:
        return self._objects / fingerprint

    # -- write ---------------------------------------------------------------

    def put(self, value, provenance: Provenance) -> Artifact:
        """Persist ``value`` under its provenance fingerprint, atomically."""
        final = self._object_dir(provenance.fingerprint)
        staging = self._objects / f"{_TMP_PREFIX}{uuid.uuid4().hex}"
        payload_dir = staging / _PAYLOAD
        payload_dir.mkdir(parents=True)
        try:
            get_codec(provenance.codec).save(value, payload_dir)
            (staging / _MANIFEST).write_text(provenance.to_json())
            if final.exists():
                # Same fingerprint => same content; keep the existing copy.
                shutil.rmtree(staging)
            else:
                os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return Artifact(value=value, provenance=provenance)

    # -- read ----------------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        return (self._object_dir(fingerprint) / _MANIFEST).exists()

    def manifest(self, fingerprint: str) -> Provenance:
        path = self._object_dir(fingerprint) / _MANIFEST
        if not path.exists():
            raise KeyError(f"no artifact with fingerprint {fingerprint!r}")
        return Provenance.from_json(path.read_text())

    def get(self, fingerprint: str) -> Optional[Artifact]:
        """Load an artifact (manifest + payload), or None when absent."""
        if fingerprint not in self:
            return None
        provenance = self.manifest(fingerprint)
        payload_dir = self._object_dir(fingerprint) / _PAYLOAD
        try:
            value = get_codec(provenance.codec).load(payload_dir)
        except Exception as exc:
            raise ArtifactPayloadError(
                f"artifact {provenance.artifact_id} (codec "
                f"{provenance.codec!r}) has an unreadable payload under "
                f"{payload_dir}: {exc}"
            ) from exc
        return Artifact(value=value, provenance=provenance)

    def resolve(self, artifact_id: str) -> Optional[Artifact]:
        """Load by full fingerprint or unambiguous prefix/artifact id.

        Accepts ``<fingerprint>``, a fingerprint prefix, or the display
        form ``<stage>:<prefix>``.
        """
        prefix = artifact_id.rsplit(":", 1)[-1]
        matches = [
            fp for fp in self.fingerprints() if fp.startswith(prefix)
        ]
        if len(matches) > 1:
            raise KeyError(f"artifact id {artifact_id!r} is ambiguous")
        return self.get(matches[0]) if matches else None

    # -- enumeration / maintenance -------------------------------------------

    def fingerprints(self) -> Iterator[str]:
        for entry in sorted(self._objects.iterdir()):
            if entry.is_dir() and not entry.name.startswith(_TMP_PREFIX):
                if (entry / _MANIFEST).exists():
                    yield entry.name

    def ls(self) -> List[Provenance]:
        """All stored manifests, newest first."""
        manifests = [self.manifest(fp) for fp in self.fingerprints()]
        manifests.sort(key=lambda p: p.created_at, reverse=True)
        return manifests

    def latest(self, stage: str) -> Optional[Provenance]:
        """Most recently created artifact of one stage, if any."""
        for provenance in self.ls():
            if provenance.stage == stage:
                return provenance
        return None

    def size_bytes(self, fingerprint: str) -> int:
        total = 0
        for path in self._object_dir(fingerprint).rglob("*"):
            if path.is_file():
                total += path.stat().st_size
        return total

    def gc(
        self, keep: Set[str], *, max_tmp_age_s: float = 3600.0
    ) -> List[str]:
        """Delete every artifact whose fingerprint is not in ``keep``.

        Also sweeps stale staging directories older than
        ``max_tmp_age_s``.  Returns the fingerprints removed.
        """
        removed = []
        for fingerprint in list(self.fingerprints()):
            if fingerprint not in keep:
                shutil.rmtree(self._object_dir(fingerprint))
                removed.append(fingerprint)
        now = time.time()
        for entry in self._objects.iterdir():
            if entry.name.startswith(_TMP_PREFIX):
                if now - entry.stat().st_mtime > max_tmp_age_s:
                    shutil.rmtree(entry, ignore_errors=True)
        return removed

    def __repr__(self) -> str:
        n = sum(1 for _ in self.fingerprints())
        return f"ArtifactStore({str(self._root)!r}, {n} artifacts)"
