"""Store behavior: content addressing, named entries, file persistence."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from sschain.encoding import hash256
from sschain.errors import CorruptError, NotFoundError
from sschain.store import (
    EmptyValueError,
    FileKvStore,
    MemoryKvStore,
    StoreError,
    open_database,
)


@pytest.fixture()
def db(tmp_path):
    connection = open_database(tmp_path / "kv.db")
    yield connection
    connection.close()


@pytest.fixture(params=["memory", "file"])
def store(request, db):
    if request.param == "memory":
        return MemoryKvStore()
    return FileKvStore(db, "kv")


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

    def test_named_exempt_from_verification(self, db) -> None:
        s = FileKvStore(db, "kv", verify_on_read=True)
        key = hash256(b"slot")
        s.put_named(key, b"does not hash to key")
        assert s.get(key) == b"does not hash to key"

    def test_content_put_over_named_entry_unnames_it(self, store) -> None:
        key = hash256(b"value")
        store.put_named(key, b"pointer")
        assert store.put(b"value") == key
        assert store.get(key) == b"value"
        assert store.named_keys() == []


class TestVerifyOnRead:
    def test_detects_corruption(self, db) -> None:
        s = FileKvStore(db, "kv")
        key = s.put(b"genuine bytes")
        db.execute("UPDATE kv SET value = ? WHERE key = ?", (b"Genuine bytes", key))
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
        db = open_database(tmp_path / "kv.db")
        s1 = FileKvStore(db, "kv")
        content_key = s1.put(b"block bytes")
        named_key = hash256(b"head")
        s1.put_named(named_key, b"pointer")
        db.close()

        db = open_database(tmp_path / "kv.db")
        s2 = FileKvStore(db, "kv")
        assert s2.get(content_key) == b"block bytes"
        assert s2.get(named_key) == b"pointer"
        assert s2.named_keys() == [named_key]
        assert len(s2) == 2
        db.close()

    def test_spaces_are_separate(self, db) -> None:
        first, second = FileKvStore(db, "one"), FileKvStore(db, "two")
        key = first.put(b"only in one")
        first.put_named(hash256(b"slot"), b"pointer")
        assert not second.has(key)
        assert (len(first), len(second)) == (2, 0)
        assert second.named_keys() == []

    def test_uncommitted_writes_roll_back(self, db) -> None:
        store = FileKvStore(db, "kv")
        kept = store.put(b"kept")
        db.execute("BEGIN")
        lost = store.put(b"lost")
        store.put_named(hash256(b"slot"), b"pointer")
        db.rollback()
        assert store.has(kept) and not store.has(lost)
        assert store.named_keys() == []

    def test_manifest_written_and_checked(self, db) -> None:
        FileKvStore(db, "kv")
        assert db.execute("PRAGMA user_version").fetchone() == (1,)
        db.execute("PRAGMA user_version = 2")
        with pytest.raises(StoreError, match="incompatible store"):
            FileKvStore(db, "kv")

    def test_shared_between_threads(self, db) -> None:
        store = FileKvStore(db, "kv")
        errors: list[BaseException] = []

        def work(worker: int) -> None:
            try:
                for i in range(50):
                    store.put(f"{worker}-{i}".encode())
                    store.put_named(hash256(f"slot-{worker}-{i}".encode()), b"p")
                    assert store.get(hash256(f"{worker}-{i}".encode()))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 400
        assert len(set(store.named_keys())) == 200
