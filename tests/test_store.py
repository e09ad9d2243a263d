"""Store behavior: content addressing, named entries, file persistence."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sschain.encoding import hash256
from sschain.errors import CorruptError, NotFoundError
from sschain.store import (
    EmptyValueError,
    FileKvStore,
    MemoryKvStore,
    StoreError,
)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryKvStore()
    return FileKvStore(tmp_path / "kv")


class TestContentAddressing:
    def test_key_is_value_digest(self, store) -> None:
        key = store.put(b"hello")
        assert key == hash256(b"hello")
        assert store.get(key) == b"hello"

    def test_put_is_idempotent(self, store) -> None:
        k1 = store.put(b"payload")
        k2 = store.put(b"payload")
        assert k1 == k2
        assert len(store) == 1

    def test_distinct_values_distinct_keys(self, store) -> None:
        assert store.put(b"a") != store.put(b"b")
        assert len(store) == 2

    def test_empty_value_rejected(self, store) -> None:
        with pytest.raises(EmptyValueError):
            store.put(b"")

    def test_missing_key(self, store) -> None:
        with pytest.raises(NotFoundError):
            store.get(hash256(b"never stored"))
        assert not store.has(hash256(b"never stored"))

    def test_bad_key_length(self, store) -> None:
        with pytest.raises(StoreError):
            store.get(b"short")

    @given(st.binary(min_size=1, max_size=200))
    def test_round_trip(self, data: bytes) -> None:
        s = MemoryKvStore()
        assert s.get(s.put(data)) == data


class TestNamedEntries:
    def test_put_named_and_overwrite(self, store) -> None:
        key = hash256(b"pointer-slot")
        store.put_named(key, b"v1")
        assert store.get(key) == b"v1"
        store.put_named(key, b"v2")
        assert store.get(key) == b"v2"

    def test_named_keys_listed_in_first_write_order(self, store) -> None:
        keys = [hash256(bytes([i])) for i in range(5)]
        for key in keys:
            store.put_named(key, b"x")
        store.put_named(keys[0], b"y")
        assert store.named_keys() == keys

    def test_named_exempt_from_verification(self, tmp_path) -> None:
        s = FileKvStore(tmp_path / "kv", verify_on_read=True)
        key = hash256(b"slot")
        s.put_named(key, b"does not hash to key")
        assert s.get(key) == b"does not hash to key"


class TestVerifyOnRead:
    def test_detects_corruption(self, tmp_path) -> None:
        s = FileKvStore(tmp_path / "kv")
        key = s.put(b"genuine bytes")
        path = tmp_path / "kv" / "blocks" / f"{key.hex()}.dat"
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptError):
            s.get(key)

    def test_memory_store_can_opt_in(self) -> None:
        s = MemoryKvStore(verify_on_read=True)
        key = s.put(b"data")
        s._entries[key] = b"tampered"
        with pytest.raises(CorruptError):
            s.get(key)


class TestFilePersistence:
    def test_reopen_sees_everything(self, tmp_path) -> None:
        s1 = FileKvStore(tmp_path / "kv")
        content_key = s1.put(b"block bytes")
        named_key = hash256(b"head")
        s1.put_named(named_key, b"pointer")

        s2 = FileKvStore(tmp_path / "kv")
        assert s2.get(content_key) == b"block bytes"
        assert s2.get(named_key) == b"pointer"
        assert s2.named_keys() == [named_key]
        assert len(s2) == 2

    def test_put_ignores_another_writers_temp_name(self, tmp_path) -> None:
        store = FileKvStore(tmp_path / "kv")
        key = hash256(b"value")
        (tmp_path / "kv" / "blocks" / f"{key.hex()}.tmp").mkdir()
        assert store.put(b"value") == key
        assert FileKvStore(tmp_path / "kv").get(key) == b"value"

    @pytest.mark.parametrize("torn", ["abc", "abcd"])
    def test_torn_named_index_rejected(self, tmp_path, torn: str) -> None:
        store = FileKvStore(tmp_path / "kv")
        store.put_named(hash256(b"head"), b"pointer")
        with (tmp_path / "kv" / "named.idx").open("a") as fh:
            fh.write(torn)
        with pytest.raises(CorruptError, match="named.idx line 2"):
            FileKvStore(tmp_path / "kv")

    def test_manifest_written_and_checked(self, tmp_path) -> None:
        FileKvStore(tmp_path / "kv")
        manifest = tmp_path / "kv" / "MANIFEST"
        assert manifest.read_text() == "hash sha-256\nversion 1\n"
        manifest.write_text("hash md5\nversion 1\n")
        with pytest.raises(StoreError):
            FileKvStore(tmp_path / "kv")
