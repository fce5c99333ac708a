"""Mapped selector layout: zero-copy loads, digests, corruption handling."""

import numpy as np
import pytest

from repro.core.deploy import DeployedSelector
from repro.pipeline.mapped import (
    MAPPED_META_FILE,
    MappedIntegrityError,
    load_mapped_selector,
    mapped_digest,
    read_mapped_meta,
    verify_mapped,
    write_mapped_selector,
)


class TestMappedRoundTrip:
    def test_selections_survive_the_round_trip(
        self, tiny_deployed, mapped_dir, shape_pool
    ):
        loaded = load_mapped_selector(mapped_dir)
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )

    def test_arrays_are_memory_mapped_by_default(self, mapped_dir):
        loaded = load_mapped_selector(mapped_dir)
        tree = loaded.selector.estimator.tree_
        assert isinstance(tree.threshold, np.memmap)
        assert not tree.threshold.flags.writeable

    def test_mmap_false_loads_plain_arrays(self, mapped_dir):
        loaded = load_mapped_selector(mapped_dir, mmap=False)
        tree = loaded.selector.estimator.tree_
        assert not isinstance(tree.threshold, np.memmap)

    def test_from_mapped_constructor(self, mapped_dir, shape_pool):
        loaded = DeployedSelector.from_mapped(mapped_dir)
        direct = load_mapped_selector(mapped_dir)
        assert loaded.select_batch(shape_pool) == direct.select_batch(
            shape_pool
        )

    def test_digest_is_deterministic(self, tiny_deployed, tmp_path):
        a = write_mapped_selector(tiny_deployed, tmp_path / "a")
        b = write_mapped_selector(tiny_deployed, tmp_path / "b")
        assert a == b
        assert mapped_digest(tmp_path / "a") == a
        assert verify_mapped(tmp_path / "a") == a

    def test_compiled_path_works_off_mapped_arrays(
        self, mapped_dir, shape_pool
    ):
        loaded = load_mapped_selector(mapped_dir)
        compiled = loaded.compiled()
        assert compiled.select_batch(shape_pool[:32]) == loaded.select_batch(
            shape_pool[:32]
        )


class TestMappedIntegrity:
    def test_corrupt_array_file_is_a_clean_integrity_error(
        self, tiny_deployed, tmp_path
    ):
        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        path = directory / "threshold.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one data byte past the .npy header
        path.write_bytes(bytes(raw))
        with pytest.raises(MappedIntegrityError, match="SHA-256"):
            load_mapped_selector(directory)

    def test_tampered_metadata_fails_the_digest_check(
        self, tiny_deployed, tmp_path
    ):
        from repro.pipeline.serialize import dumps

        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        meta = read_mapped_meta(directory)
        meta["classifier"] = "SomethingElse"
        (directory / MAPPED_META_FILE).write_text(dumps(meta))
        with pytest.raises(MappedIntegrityError, match="digest"):
            load_mapped_selector(directory)

    def test_unparseable_metadata_is_an_integrity_error(
        self, tiny_deployed, tmp_path
    ):
        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        (directory / MAPPED_META_FILE).write_text("{not json")
        with pytest.raises(MappedIntegrityError, match="unreadable"):
            load_mapped_selector(directory)

    def test_missing_directory_is_an_integrity_error(self, tmp_path):
        with pytest.raises(MappedIntegrityError, match="no mapped selector"):
            load_mapped_selector(tmp_path / "nowhere")

    def test_missing_array_file_is_an_integrity_error(
        self, tiny_deployed, tmp_path
    ):
        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        (directory / "left.npy").unlink()
        with pytest.raises(MappedIntegrityError, match="missing"):
            load_mapped_selector(directory)

    def test_verify_false_skips_the_check(self, tiny_deployed, tmp_path):
        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        path = directory / "threshold.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        load_mapped_selector(directory, verify=False)  # caller's risk


class TestSelectorCodecIntegration:
    def test_codec_payload_carries_the_mapped_layout(
        self, tiny_deployed, tmp_path, shape_pool
    ):
        from repro.pipeline.artifact import Provenance
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        provenance = Provenance(
            stage="train",
            fingerprint="f" * 64,
            code_version="test",
            params={},
            parents={},
            codec="selector",
        )
        store.put(tiny_deployed, provenance)
        loaded = store.get(provenance.fingerprint).value
        tree = loaded.selector.estimator.tree_
        assert isinstance(tree.threshold, np.memmap)
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )

    def test_payload_without_mapped_layout_is_a_payload_error(
        self, tiny_deployed, tmp_path
    ):
        import shutil

        from repro.pipeline.artifact import Provenance
        from repro.pipeline.store import ArtifactPayloadError, ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        provenance = Provenance(
            stage="train",
            fingerprint="e" * 64,
            code_version="test",
            params={},
            parents={},
            codec="selector",
        )
        store.put(tiny_deployed, provenance)
        payload = store.root / "objects" / provenance.fingerprint / "payload"
        shutil.rmtree(payload / "mapped")
        with pytest.raises(ArtifactPayloadError, match="train:eeeeeeeeeeee"):
            store.get(provenance.fingerprint)
