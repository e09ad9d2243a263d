"""Store behavior: content addressing, named entries, file persistence."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from sschain.chain import _Overlay
from sschain.encoding import hash256
from sschain.errors import CorruptError, NotFoundError
from sschain.store import (
    STORE_VERSION,
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

    def test_named_keys_listed_in_key_order(self, store) -> None:
        keys = [hash256(bytes([i])) for i in range(5)]
        assert keys != sorted(keys)
        for key in keys:
            store.put_named(key, b"x")
        store.put_named(keys[0], b"y")
        assert store.named_keys() == sorted(keys)

    def test_named_keys_in_key_order_over_first_write_ranks(self, db) -> None:
        """An earlier release stored each named entry's first-write rank
        in ``named``; such a database lists its keys in key order too,
        and a named put over a ranked entry keeps it named."""
        keys = [hash256(bytes([i])) for i in range(5)]
        rows = [("kv", key, b"x", rank) for rank, key in enumerate(keys, 1)]
        db.executemany("INSERT INTO kv VALUES (?, ?, ?, ?)", rows)
        store = FileKvStore(db, "kv")
        content = store.put(b"content")
        assert store.named_keys() == sorted(keys)
        store.put_named(keys[3], b"y")
        assert store.named_keys() == sorted(keys)
        assert [store.get(key) for key in keys] == [b"x", b"x", b"x", b"y", b"x"]
        assert store.get(content) == b"content"

    def test_named_keys_read_the_covering_index(self, db) -> None:
        store = FileKvStore(db, "kv")
        store.put_named(hash256(b"slot"), b"pointer")
        statements: list[str] = []
        db.set_trace_callback(statements.append)
        store.named_keys()
        db.set_trace_callback(None)
        (statement,) = statements
        (plan,) = [row[-1] for row in db.execute(f"EXPLAIN QUERY PLAN {statement}")]
        assert "USING COVERING INDEX kv_named" in plan

    def test_named_exempt_from_verification(self, db) -> None:
        s = FileKvStore(db, "kv")
        key = hash256(b"slot")
        s.put_named(key, b"does not hash to key")
        assert s.get(key) == b"does not hash to key"

    def test_put_outcomes_match_across_backends(self, db) -> None:
        """A content put ends the same on both backends: a re-put keeps
        one entry, a put over a named key unnames only that key, and an
        empty value raises and writes nothing."""

        def outcome(store) -> tuple:
            store.put_named(hash256(b"value"), b"pointer")
            store.put_named(hash256(b"slot"), b"kept")
            keys = [store.put(b"value"), store.put(b"payload"), store.put(b"payload")]
            with pytest.raises(EmptyValueError):
                store.put(b"")
            return keys, len(store), store.named_keys(), [store.get(key) for key in keys]

        memory = outcome(MemoryKvStore())
        assert memory == outcome(FileKvStore(db, "kv"))
        assert memory[1:3] == (3, [hash256(b"slot")])

    def test_content_put_over_named_entry_unnames_it(self, store) -> None:
        key = hash256(b"value")
        store.put_named(key, b"pointer")
        assert store.put(b"value") == key
        assert store.get(key) == b"value"
        assert store.named_keys() == []


@pytest.fixture(params=["memory", "file", "overlay"])
def new_store(request, db):
    """A factory of empty stores of one kind: memory, file (each in a space
    of its own) or a validation overlay over an empty memory store."""
    if request.param == "memory":
        return MemoryKvStore
    if request.param == "file":
        spaces = iter(range(100))
        return lambda: FileKvStore(db, f"kv{next(spaces)}")
    return lambda: _Overlay(MemoryKvStore())


class TestPutMany:
    """A batch put ends as the same puts one at a time would."""

    VALUES = [b"value", b"payload", b"payload", b"\x01", b"\x80", bytes(200)]

    @staticmethod
    def contents(store, keys: list[bytes]) -> tuple:
        return len(store), store.named_keys(), [store.get(key) for key in keys]

    def test_matches_put(self, new_store) -> None:
        """The same keys, in order, and the same entries: a re-put value
        is one entry, and a value that was named becomes content."""
        one, batch = new_store(), new_store()
        for store in (one, batch):
            store.put_named(hash256(b"value"), b"pointer")
            store.put_named(hash256(b"slot"), b"kept")
        keys = [one.put(value) for value in self.VALUES]
        assert batch.put_many(self.VALUES) == keys
        everything = [*keys, hash256(b"slot")]
        assert self.contents(batch, everything) == self.contents(one, everything)
        assert batch.named_keys() == [hash256(b"slot")]
        assert batch.get(hash256(b"value")) == b"value"

    def test_empty_value_writes_nothing(self, new_store) -> None:
        store = new_store()
        with pytest.raises(EmptyValueError):
            store.put_many([b"first", b"", b"last"])
        assert len(store) == 0
        assert store.put_many([]) == [] and len(store) == 0

    def test_overlay_batch_leaves_its_base_alone(self) -> None:
        base = MemoryKvStore()
        overlay = _Overlay(base)
        keys = overlay.put_many(self.VALUES)
        assert [overlay.get(key) for key in keys] == self.VALUES
        assert len(base) == 0


def _flipped(value: bytes) -> bytes:
    return bytes([value[0] ^ 0x20]) + value[1:]


@pytest.fixture(params=["memory", "file", "overlay"])
def tamperable(request, db):
    """(writer, reader, flip): ``flip(key)`` flips a byte of the entry
    where ``writer`` keeps it, in its dict or in the database, and
    ``reader`` reads it, through a validation overlay in the third case."""
    if request.param == "file":
        store = FileKvStore(db, "kv")

        def flip(key: bytes) -> None:
            (value,) = db.execute("SELECT value FROM kv WHERE key = ?", (key,)).fetchone()
            db.execute("UPDATE kv SET value = ? WHERE key = ?", (_flipped(value), key))

        return store, store, flip
    base = MemoryKvStore()

    def flip(key: bytes) -> None:
        base._entries[key] = _flipped(base._entries[key])

    return base, base if request.param == "memory" else _Overlay(base), flip


class TestVerifyOnRead:
    """Every backend checks each content entry it returns."""

    def test_detects_corruption(self, tamperable) -> None:
        writer, reader, flip = tamperable
        key = writer.put(b"genuine bytes")
        assert reader.get(key) == b"genuine bytes"
        flip(key)
        with pytest.raises(CorruptError) as excinfo:
            reader.get(key)
        assert str(excinfo.value) == f"entry {key.hex()} fails its content hash"
        assert reader.has(key)

    def test_named_entry_exempt(self, tamperable) -> None:
        writer, reader, flip = tamperable
        key = hash256(b"slot")
        writer.put_named(key, b"pointer")
        flip(key)
        assert reader.get(key) == b"Pointer"


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

    def test_manifest_written_and_checked(self, tmp_path) -> None:
        path = tmp_path / "kv.db"
        db = open_database(path)
        assert db.execute("PRAGMA user_version").fetchone() == (3,)
        db.execute("PRAGMA user_version = 2")
        db.close()
        with pytest.raises(StoreError, match="incompatible store format 2, not 3"):
            open_database(path)

    def test_store_construction_runs_no_statement(self, db) -> None:
        statements: list[str] = []
        db.set_trace_callback(statements.append)
        FileKvStore(db, "kv")
        assert statements == []

    def test_first_openers_create_the_schema_once(self, tmp_path) -> None:
        path = tmp_path / "kv.db"
        holder = open_database(path)
        holder.execute("PRAGMA user_version = 0")
        holder.execute("BEGIN IMMEDIATE")
        opened: list = []
        opener = threading.Thread(target=lambda: opened.append(open_database(path)))
        opener.start()
        time.sleep(0.2)
        holder.execute(f"PRAGMA user_version = {STORE_VERSION}")
        holder.commit()
        opener.join(timeout=60)
        holder.close()
        assert not opener.is_alive()
        (db,) = opened
        assert db.execute("PRAGMA user_version").fetchone() == (STORE_VERSION,)
        assert FileKvStore(db, "kv").put(b"after the race")
        db.close()

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
