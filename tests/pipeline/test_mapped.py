"""Selector artifact layout: round trips, one digest, corruption handling."""

import struct
import zipfile

import numpy as np
import pytest

from repro.core.deploy import DeployedSelector
from repro.pipeline.mapped import (
    MAPPED_META_FILE,
    MappedIntegrityError,
    write_mapped_selector,
)
from repro.pipeline.serialize import dumps, loads

ARRAYS_FILE = "selector_arrays.npz"


def _rewrite_arrays(directory, **changes):
    """Rewrite the archive as a valid ``.npz`` with ``changes`` applied:
    each maps an array name to a function of the old array, or to None
    to drop it."""
    path = directory / ARRAYS_FILE
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    for name, change in changes.items():
        if change is None:
            del arrays[name]
        else:
            arrays[name] = change(arrays[name])
    np.savez(path, **arrays)


def _flip_last_data_byte(path, member):
    """Flip the last byte of ``member``'s data inside an uncompressed zip."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = bytearray(path.read_bytes())
    header = info.header_offset
    name_len, extra_len = struct.unpack("<HH", raw[header + 26 : header + 30])
    raw[header + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestMappedRoundTrip:
    def test_selections_survive_the_round_trip(
        self, tiny_deployed, mapped_dir, shape_pool
    ):
        loaded = DeployedSelector.from_mapped(mapped_dir)
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )

    def test_from_mapped_constructor(self, mapped_dir, shape_pool):
        loaded = DeployedSelector.from_mapped(mapped_dir)
        unverified = DeployedSelector.from_mapped(mapped_dir, verify=False)
        assert isinstance(loaded, DeployedSelector)
        assert loaded.select_batch(shape_pool) == unverified.select_batch(
            shape_pool
        )

    def test_layout_is_one_uncompressed_archive_and_the_meta(
        self, mapped_dir
    ):
        assert {p.name for p in mapped_dir.iterdir()} == {
            ARRAYS_FILE,
            MAPPED_META_FILE,
        }
        with zipfile.ZipFile(mapped_dir / ARRAYS_FILE) as archive:
            infos = archive.infolist()
        assert len(infos) == 7
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}

    def test_digest_is_deterministic(self, tiny_deployed, tmp_path):
        a = write_mapped_selector(tiny_deployed, tmp_path / "a")
        b = write_mapped_selector(tiny_deployed, tmp_path / "b")
        assert a == b
        meta = loads((tmp_path / "a" / MAPPED_META_FILE).read_text())
        assert meta["digest"] == a

    def test_digest_ignores_zip_timestamps(
        self, tiny_deployed, tmp_path, shape_pool
    ):
        # A zip member carries its write time, which some NumPy releases
        # set from the clock; restamp the second archive so the two
        # files differ while the arrays in them do not.
        a = write_mapped_selector(tiny_deployed, tmp_path / "a")
        b = write_mapped_selector(tiny_deployed, tmp_path / "b")
        path = tmp_path / "b" / ARRAYS_FILE
        with zipfile.ZipFile(path) as archive:
            members = [(i.filename, archive.read(i)) for i in archive.infolist()]
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members:
                archive.writestr(zipfile.ZipInfo(name, (2001, 2, 3, 4, 5, 6)), data)
        assert path.read_bytes() != (tmp_path / "a" / ARRAYS_FILE).read_bytes()
        assert a == b
        loaded = DeployedSelector.from_mapped(tmp_path / "b")
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )

    def test_compiled_path_works_off_mapped_arrays(
        self, mapped_dir, shape_pool
    ):
        loaded = DeployedSelector.from_mapped(mapped_dir)
        compiled = loaded.compiled()
        assert compiled.select_batch(shape_pool[:32]) == loaded.select_batch(
            shape_pool[:32]
        )


class TestMappedIntegrity:
    @pytest.fixture
    def directory(self, tiny_deployed, tmp_path):
        directory = tmp_path / "m"
        write_mapped_selector(tiny_deployed, directory)
        return directory

    def test_corrupt_array_file_is_a_clean_integrity_error(self, directory):
        _flip_last_data_byte(directory / ARRAYS_FILE, "threshold.npy")
        # The zip member's CRC-32 catches a flipped byte, verified or not.
        for verify in (True, False):
            with pytest.raises(MappedIntegrityError, match="unreadable"):
                DeployedSelector.from_mapped(directory, verify=verify)

    def test_altered_array_fails_the_digest_check(self, directory):
        _rewrite_arrays(directory, threshold=lambda a: a + 1.0)
        with pytest.raises(MappedIntegrityError, match="SHA-256"):
            DeployedSelector.from_mapped(directory)

    @pytest.mark.parametrize(
        "field, relabel",
        [
            ("threshold", lambda a: a.view(np.int64)),
            ("value", lambda a: a.reshape(-1)),
        ],
        ids=["dtype", "shape"],
    )
    def test_relabelled_array_fails_the_digest_check(
        self, directory, field, relabel
    ):
        with np.load(directory / ARRAYS_FILE) as archive:
            old = archive[field]
        new = relabel(old)
        assert (new.dtype, new.shape) != (old.dtype, old.shape)
        assert new.tobytes() == old.tobytes()
        _rewrite_arrays(directory, **{field: relabel})
        with pytest.raises(MappedIntegrityError, match="SHA-256"):
            DeployedSelector.from_mapped(directory)

    def test_truncated_archive_is_an_integrity_error(self, directory):
        path = directory / ARRAYS_FILE
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(MappedIntegrityError, match="unreadable"):
            DeployedSelector.from_mapped(directory)

    def test_tampered_metadata_fails_the_digest_check(self, directory):
        meta = loads((directory / MAPPED_META_FILE).read_text())
        meta["classifier"] = "SomethingElse"
        (directory / MAPPED_META_FILE).write_text(dumps(meta))
        with pytest.raises(MappedIntegrityError, match="digest"):
            DeployedSelector.from_mapped(directory)

    def test_unparseable_metadata_is_an_integrity_error(self, directory):
        (directory / MAPPED_META_FILE).write_text("{not json")
        with pytest.raises(MappedIntegrityError, match="unreadable"):
            DeployedSelector.from_mapped(directory)

    def test_missing_directory_is_an_integrity_error(self, tmp_path):
        with pytest.raises(MappedIntegrityError, match="no mapped selector"):
            DeployedSelector.from_mapped(tmp_path / "nowhere")

    def test_missing_array_file_is_an_integrity_error(self, directory):
        _rewrite_arrays(directory, left=None)
        with pytest.raises(MappedIntegrityError, match="missing the 'left'"):
            DeployedSelector.from_mapped(directory)
        (directory / ARRAYS_FILE).unlink()
        with pytest.raises(MappedIntegrityError, match="missing"):
            DeployedSelector.from_mapped(directory)

    def test_verify_false_skips_the_check(
        self, directory, tiny_deployed, shape_pool
    ):
        # The schema tag is read by nothing but the digest.
        meta = loads((directory / MAPPED_META_FILE).read_text())
        meta["schema"] = "tampered"
        (directory / MAPPED_META_FILE).write_text(dumps(meta))
        with pytest.raises(MappedIntegrityError, match="digest"):
            DeployedSelector.from_mapped(directory)
        loaded = DeployedSelector.from_mapped(directory, verify=False)
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )


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
        payload = store.root / "objects" / provenance.fingerprint / "payload"
        assert {p.name for p in payload.iterdir()} == {
            ARRAYS_FILE,
            MAPPED_META_FILE,
        }
        loaded = store.get(provenance.fingerprint).value
        assert loaded.select_batch(shape_pool) == tiny_deployed.select_batch(
            shape_pool
        )

    def test_payload_without_mapped_layout_is_a_payload_error(
        self, tiny_deployed, tmp_path
    ):
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
        for path in payload.iterdir():
            path.unlink()
        with pytest.raises(ArtifactPayloadError, match="train:eeeeeeeeeeee"):
            store.get(provenance.fingerprint)
