"""Failure paths of ``SelectionService.from_artifact``.

A serving process bootstrapping from a store must fail loudly and
legibly: unknown or ambiguous artifact ids, artifacts of the wrong
stage, and corrupted payloads each get a distinct, self-describing
exception rather than a stack trace from store internals.
"""

from __future__ import annotations

import pytest

from repro.core.deploy import tune
from repro.pipeline import ArtifactPayloadError, ArtifactStore, Provenance
from repro.serving import SelectionService

TRAIN_FP = "a" * 64
DATASET_FP = "b" * 64
TWIN_FPS = ("ab" + "0" * 62, "ab" + "1" * 62)


def _provenance(stage, fingerprint, codec):
    return Provenance(
        stage=stage,
        fingerprint=fingerprint,
        code_version="test",
        params={},
        parents={},
        codec=codec,
    )


@pytest.fixture(scope="module")
def deployed(small_dataset):
    train, _ = small_dataset.split(test_size=0.2, random_state=0)
    return tune(train, n_configs=4, classifier="DecisionTree", random_state=0)


@pytest.fixture
def store(tmp_path, deployed, small_dataset):
    store = ArtifactStore(tmp_path / "store")
    store.put(deployed, _provenance("train", TRAIN_FP, "selector"))
    store.put(small_dataset, _provenance("dataset", DATASET_FP, "dataset"))
    return store


class TestUnknownArtifacts:
    def test_unknown_id_raises_keyerror_naming_the_id(self, store):
        with pytest.raises(KeyError, match="f{10}"):
            SelectionService.from_artifact(store, "f" * 64)

    def test_unknown_display_id(self, store):
        with pytest.raises(KeyError, match="train:feedc0de"):
            SelectionService.from_artifact(store, "train:feedc0de")

    def test_ambiguous_prefix_raises_keyerror(self, deployed, store):
        for fp in TWIN_FPS:
            store.put(deployed, _provenance("train", fp, "selector"))
        with pytest.raises(KeyError, match="ambiguous"):
            SelectionService.from_artifact(store, "ab")

    def test_ambiguous_error_keeps_the_requested_id(self, deployed, store):
        for fp in TWIN_FPS:
            store.put(deployed, _provenance("train", fp, "selector"))
        with pytest.raises(KeyError, match="cannot resolve artifact 'ab'"):
            SelectionService.from_artifact(store, "ab")


class TestWrongArtifacts:
    def test_non_policy_artifact_raises_typeerror(self, store):
        with pytest.raises(TypeError, match="not a selection policy"):
            SelectionService.from_artifact(store, DATASET_FP)

    def test_wrong_stage_error_names_the_stage(self, store):
        with pytest.raises(TypeError, match="stage 'dataset'"):
            SelectionService.from_artifact(store, DATASET_FP)


class TestCorruptedPayloads:
    def _payload_files(self, store, fingerprint):
        # The selector payload is nested (the zero-copy mapped/ layout
        # under the payload directory): corrupt every file, recursively.
        payload_dir = store.root / "objects" / fingerprint / "payload"
        return sorted(p for p in payload_dir.rglob("*") if p.is_file())

    def test_truncated_payload_raises_payload_error(self, store):
        for path in self._payload_files(store, TRAIN_FP):
            path.write_bytes(b"\x00garbage")
        with pytest.raises(ArtifactPayloadError, match="unreadable payload"):
            SelectionService.from_artifact(store, TRAIN_FP)

    def test_missing_payload_member_raises_payload_error(self, store):
        for path in self._payload_files(store, TRAIN_FP):
            path.unlink()
        with pytest.raises(ArtifactPayloadError, match="train:aaaaaaaaaaaa"):
            SelectionService.from_artifact(store, TRAIN_FP)

    def test_intact_artifact_still_serves(self, store, small_dataset):
        service = SelectionService.from_artifact(store, TRAIN_FP)
        shape = small_dataset.shapes[0]
        assert service.select(shape) is not None
        assert service.stats().artifact_id == f"train:{TRAIN_FP[:12]}"
