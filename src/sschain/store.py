"""Flat key-value stores keyed by 32-byte digests.

Two kinds of entry share one namespace:

* **content-addressed** entries, written by :meth:`KvStore.put`: the key
  is always ``hash256(value)``, so identical values deduplicate to one
  physical entry and a reader can detect tampering by re-hashing.
* **named** entries, written by :meth:`KvStore.put_named`: a key chosen
  by the caller, not derived from the value (the chain head, the
  workspace values, name records, a shard's registry of account lookup
  keys). These are exempt from the hash-on-read check and may be
  overwritten.

:meth:`KvStore.get` hashes every content-addressed entry it returns, on
every backend, and is the one place that does: a reader above the store
can trust any content read without hashing it again. Writes derive keys
here too: :meth:`KvStore.put_many` writes a batch of content entries,
each under the ``hash256`` of its bytes as ``put`` would, in one dict
update on a memory store and one ``executemany`` on a file store.

The file backend is one space (``trie``, ``shards/0``, ...) of the
``kv`` table of a SQLite database, one row per entry; its ``named``
column is NULL for content-addressed entries and 1 for a named entry (a
database written by an earlier release holds a rank there instead, which
reads the same). Only :func:`open_database` knows that schema: it
creates it and records the format, 3, in ``PRAGMA user_version``; a
database in another format, such as format 2 with its ``workspace`` and
``names`` tables, is refused.

There is no delete: the chain layer keeps every historical node readable
for rollback.
"""

from __future__ import annotations

import sqlite3
import threading
from abc import ABC, abstractmethod
from pathlib import Path

from .encoding import DIGEST_SIZE, Digest, hash256
from .errors import CorruptError, NotFoundError, SSChainError

STORE_VERSION = 3

_KV_SCHEMA = (
    "CREATE TABLE kv (space TEXT NOT NULL, key BLOB NOT NULL,"
    " value BLOB NOT NULL, named INTEGER, PRIMARY KEY (space, key)) WITHOUT ROWID",
    "CREATE INDEX kv_named ON kv (space, named) WHERE named IS NOT NULL",
    f"PRAGMA user_version = {STORE_VERSION}",
)
# A content put leaves an existing entry alone unless it was named; a
# named put overwrites the value.
_PUT_CONTENT = (
    "INSERT INTO kv VALUES (?1, ?2, ?3, NULL) ON CONFLICT (space, key) DO UPDATE"
    " SET value = excluded.value, named = NULL WHERE named IS NOT NULL"
)
_PUT_NAMED = "REPLACE INTO kv VALUES (?, ?, ?, 1)"


class StoreError(SSChainError):
    """Storage-layer failure that is not a plain missing key."""


class EmptyValueError(StoreError):
    """Empty values are not storable; absence is expressed by a missing key."""


class KvStore(ABC):
    """Digest-keyed store; see the module docstring for entry kinds."""

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

    def put_many(self, values: list[bytes]) -> list[Digest]:
        """Store each value as :meth:`put` does, in one batch; return
        their keys in order.

        Raises:
            EmptyValueError: if any value is empty; nothing is written.
        """
        if not all(values):
            raise EmptyValueError("cannot store an empty value")
        keys = list(map(hash256, values))
        self._write_content(keys, values)
        return keys

    def put_named(self, key: Digest, value: bytes) -> None:
        """Store ``value`` under an arbitrary digest ``key``, overwriting.

        Named entries are keyed by the caller, not by content; they are
        excluded from hash-on-read verification.
        """
        _check_key(key)
        if not value:
            raise EmptyValueError("cannot store an empty value")
        self._write(key, value, named=True)

    def get(self, key: Digest) -> bytes:
        """Return the bytes stored under ``key``.

        Raises:
            NotFoundError: if the key is absent.
            CorruptError: if a content-addressed entry no longer hashes
                to its key.
        """
        _check_key(key)
        found = self._read(key)
        if found is None:
            raise NotFoundError(f"no entry for {key.hex()}")
        value, named = found
        if not named and hash256(value) != key:
            raise CorruptError(f"entry {key.hex()} fails its content hash")
        return value

    def has(self, key: Digest) -> bool:
        """True iff ``key`` is present (no verification)."""
        _check_key(key)
        return self._read(key) is not None

    @abstractmethod
    def named_keys(self) -> list[Digest]:
        """Keys of all named entries, in key order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of physical entries."""

    @abstractmethod
    def _write(self, key: Digest, value: bytes, named: bool) -> None: ...

    @abstractmethod
    def _write_content(self, keys: list[Digest], values: list[bytes]) -> None:
        """Write each value as a content entry under its key."""

    @abstractmethod
    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        """(value, whether the entry is named), or None if absent."""


class MemoryKvStore(KvStore):
    """Process-local store. It verifies its reads as the file store does,
    so a corrupted entry is caught wherever the bytes were kept."""

    def __init__(self) -> None:
        self._entries: dict[Digest, bytes] = {}
        self._named: set[Digest] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def named_keys(self) -> list[Digest]:
        return sorted(self._named)

    def _write(self, key: Digest, value: bytes, named: bool) -> None:
        """A new content key costs one membership test and one dict store."""
        if named:
            self._entries[key] = value
            self._named.add(key)
        elif key not in self._entries:
            self._entries[key] = value
        elif key in self._named:
            self._entries[key] = value
            self._named.remove(key)

    def _write_content(self, keys: list[Digest], values: list[bytes]) -> None:
        """One dict update: a key already present holds the same bytes,
        unless it was named, and then it becomes content."""
        self._entries.update(zip(keys, values))
        if self._named:
            self._named.difference_update(keys)

    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        value = self._entries.get(key)
        return None if value is None else (value, key in self._named)


class FileKvStore(KvStore):
    """One space of the ``kv`` table in a SQLite database; survives reopen.
    Writes join ``db``'s open transaction, if any, and threads may share
    it: each statement and its fetch run under the connection's lock."""

    def __init__(self, db: sqlite3.Connection, space: str):
        self.db = db
        self.space = space
        self._lock: threading.Lock = db.lock  # set by open_database

    def __len__(self) -> int:
        query = "SELECT count(*) FROM kv WHERE space = ?"
        with self._lock:
            return self.db.execute(query, (self.space,)).fetchone()[0]

    def named_keys(self) -> list[Digest]:
        # The covering index kv_named answers this alone; with ORDER BY key
        # SQLite would scan the whole space by primary key instead.
        query = "SELECT key FROM kv WHERE space = ? AND named IS NOT NULL"
        with self._lock:
            return sorted(key for (key,) in self.db.execute(query, (self.space,)))

    def _write(self, key: Digest, value: bytes, named: bool) -> None:
        with self._lock:
            self.db.execute(_PUT_NAMED if named else _PUT_CONTENT, (self.space, key, value))

    def _write_content(self, keys: list[Digest], values: list[bytes]) -> None:
        rows = [(self.space, key, value) for key, value in zip(keys, values)]
        with self._lock:
            self.db.executemany(_PUT_CONTENT, rows)

    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        query = "SELECT value, named IS NOT NULL FROM kv WHERE space = ? AND key = ?"
        with self._lock:
            row = self.db.execute(query, (self.space, key)).fetchone()
        if row is not None and not isinstance(row[0], bytes):
            raise CorruptError(f"entry {key.hex()} in {self.space} is not a byte string")
        return row


class _Connection(sqlite3.Connection):
    """A connection with the lock its stores run their statements under.
    Threads that share a connection share its cached statements, so
    without the lock one thread's read can step another's statement: on
    Python 3.13, reads then returned another key's row, or none."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lock = threading.Lock()


def open_database(path: str | Path) -> sqlite3.Connection:
    """Open (creating if absent) the database at ``path`` in WAL mode;
    raise :class:`StoreError` if it is in another format.

    The connection autocommits unless the caller issues ``BEGIN``, and
    any thread may use it through a :class:`FileKvStore`.
    """
    db = sqlite3.connect(path, isolation_level=None, check_same_thread=False, factory=_Connection)
    try:
        db.execute("PRAGMA journal_mode = WAL")
        db.execute("PRAGMA synchronous = NORMAL")
        (version,) = db.execute("PRAGMA user_version").fetchone()
        if version == 0:
            with db:  # checked again under the write lock: one first opener creates
                db.execute("BEGIN IMMEDIATE")
                if db.execute("PRAGMA user_version").fetchone() == (0,):
                    for statement in _KV_SCHEMA:
                        db.execute(statement)
            (version,) = db.execute("PRAGMA user_version").fetchone()
        if version != STORE_VERSION:
            raise StoreError(f"incompatible store format {version}, not {STORE_VERSION}")
    except (sqlite3.Error, StoreError):
        db.close()
        raise
    return db


def _check_key(key: Digest) -> None:
    if len(key) != DIGEST_SIZE:
        raise StoreError(f"store keys are {DIGEST_SIZE} bytes, got {len(key)}")
