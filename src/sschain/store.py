"""Flat key-value stores keyed by 32-byte digests.

Two kinds of entry share one namespace:

* **content-addressed** entries, written by :meth:`KvStore.put`: the key
  is always ``hash256(value)``, so identical values deduplicate to one
  physical entry and a reader can detect tampering by re-hashing.
* **named** entries, written by :meth:`KvStore.put_named`: mutable
  pointers (account address -> current state root) whose key is derived
  from the address, not the value. These are exempt from the
  hash-on-read check and may be overwritten.

The file backend is one space (``trie``, ``shards/0``, ...) of the
``kv`` table of a SQLite database, one row per entry; its ``named``
column is NULL for content-addressed entries and a named entry's
first-write rank otherwise. ``PRAGMA user_version`` records the format.
Verification on read is on by default for the file backend (bytes on
disk are outside the process's control) and off for the in-memory one.

There is no delete: the chain layer keeps every historical node readable
for rollback.
"""

from __future__ import annotations

import sqlite3
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from .encoding import DIGEST_SIZE, Digest, hash256
from .errors import CorruptError, NotFoundError, SSChainError

STORE_VERSION = 1

_KV_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS kv (space TEXT NOT NULL, key BLOB NOT NULL,"
    " value BLOB NOT NULL, named INTEGER, PRIMARY KEY (space, key)) WITHOUT ROWID",
    "CREATE INDEX IF NOT EXISTS kv_named ON kv (space, named) WHERE named IS NOT NULL",
)
# A content put leaves an existing entry alone unless it was named; a
# named put overwrites the value and keeps the entry's first-write rank.
_PUT_CONTENT = (
    "INSERT INTO kv VALUES (?1, ?2, ?3, NULL) ON CONFLICT (space, key) DO UPDATE"
    " SET value = excluded.value, named = NULL WHERE named IS NOT NULL"
)
_PUT_NAMED = (
    "INSERT INTO kv VALUES (?1, ?2, ?3, 1 + ifnull((SELECT named FROM kv"
    " WHERE space = ?1 AND named IS NOT NULL ORDER BY named DESC LIMIT 1), 0))"
    " ON CONFLICT (space, key) DO UPDATE SET value = excluded.value,"
    " named = ifnull(named, excluded.named)"
)


class StoreError(SSChainError):
    """Storage-layer failure that is not a plain missing key."""


class EmptyValueError(StoreError):
    """Empty values are not storable; absence is expressed by a missing key."""


@dataclass(frozen=True)
class StoreEntry:
    """A (key, value) pair as returned by shard lookups."""

    key: Digest
    value: bytes


class KvStore(ABC):
    """Digest-keyed store; see the module docstring for entry kinds."""

    verify_on_read: bool

    def put(self, value: bytes) -> Digest:
        """Store ``value`` under its own hash and return that key.

        Re-putting identical bytes is a no-op (same key, same entry).

        Raises:
            EmptyValueError: if ``value`` is empty.
        """
        if not value:
            raise EmptyValueError("cannot store an empty value")
        key = hash256(value)
        self._write(key, value, named=False)
        return key

    def put_named(self, key: Digest, value: bytes) -> None:
        """Store ``value`` under an arbitrary digest ``key``, overwriting.

        Named entries are mutable pointers; they are excluded from
        hash-on-read verification.
        """
        _check_key(key)
        if not value:
            raise EmptyValueError("cannot store an empty value")
        self._write(key, value, named=True)

    def get(self, key: Digest) -> bytes:
        """Return the bytes stored under ``key``.

        Raises:
            NotFoundError: if the key is absent.
            CorruptError: if verification is on and a content-addressed
                entry no longer hashes to its key.
        """
        _check_key(key)
        found = self._read(key)
        if found is None:
            raise NotFoundError(f"no entry for {key.hex()}")
        value, named = found
        if self.verify_on_read and not named and hash256(value) != key:
            raise CorruptError(f"entry {key.hex()} fails its content hash")
        return value

    def has(self, key: Digest) -> bool:
        """True iff ``key`` is present (no verification)."""
        _check_key(key)
        return self._read(key) is not None

    def named_keys(self) -> list[Digest]:
        """Keys of all named entries, in first-write order."""
        return list(self._named)

    @abstractmethod
    def __len__(self) -> int:
        """Number of physical entries."""

    @abstractmethod
    def _write(self, key: Digest, value: bytes, named: bool) -> None: ...

    @abstractmethod
    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        """(value, whether the entry is named), or None if absent."""


class MemoryKvStore(KvStore):
    """Process-local store; trusted, so verification defaults off."""

    def __init__(self, verify_on_read: bool = False):
        self.verify_on_read = verify_on_read
        self._entries: dict[Digest, bytes] = {}
        self._named: dict[Digest, None] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _write(self, key: Digest, value: bytes, named: bool) -> None:
        with self._lock:
            if not named and key in self._entries and key not in self._named:
                return
            self._entries[key] = value
            if named:
                self._named.setdefault(key)
            else:
                self._named.pop(key, None)

    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        value = self._entries.get(key)
        return None if value is None else (value, key in self._named)


class FileKvStore(KvStore):
    """One space of the ``kv`` table in a SQLite database; survives reopen.
    Writes join ``db``'s open transaction, if any, and threads may share it."""

    def __init__(self, db: sqlite3.Connection, space: str, verify_on_read: bool = True):
        self.verify_on_read = verify_on_read
        self.db = db
        self.space = space
        (version,) = db.execute("PRAGMA user_version").fetchone()
        if version == 0:
            for statement in _KV_SCHEMA:
                db.execute(statement)
            db.execute(f"PRAGMA user_version = {STORE_VERSION}")
        elif version != STORE_VERSION:
            raise StoreError(f"incompatible store format {version}, not {STORE_VERSION}")

    def __len__(self) -> int:
        query = "SELECT count(*) FROM kv WHERE space = ?"
        return self.db.execute(query, (self.space,)).fetchone()[0]

    def named_keys(self) -> list[Digest]:
        query = "SELECT key FROM kv WHERE space = ? AND named IS NOT NULL ORDER BY named"
        return [key for (key,) in self.db.execute(query, (self.space,))]

    def _write(self, key: Digest, value: bytes, named: bool) -> None:
        self.db.execute(_PUT_NAMED if named else _PUT_CONTENT, (self.space, key, value))

    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        query = "SELECT value, named IS NOT NULL FROM kv WHERE space = ? AND key = ?"
        row = self.db.execute(query, (self.space, key)).fetchone()
        if row is not None and not isinstance(row[0], bytes):
            raise CorruptError(f"entry {key.hex()} in {self.space} is not a byte string")
        return row


def open_database(path: str | Path) -> sqlite3.Connection:
    """Open (creating if absent) the database at ``path`` in WAL mode.

    The connection autocommits unless the caller issues ``BEGIN``, and
    any thread may use it.
    """
    db = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    try:
        db.execute("PRAGMA journal_mode = WAL")
        db.execute("PRAGMA synchronous = NORMAL")
    except sqlite3.Error:
        db.close()
        raise
    return db


def _check_key(key: Digest) -> None:
    if len(key) != DIGEST_SIZE:
        raise StoreError(f"store keys are {DIGEST_SIZE} bytes, got {len(key)}")
