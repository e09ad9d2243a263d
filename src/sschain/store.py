"""Flat key-value stores keyed by 32-byte digests.

Two kinds of entry share one namespace:

* **content-addressed** entries, written by :meth:`KvStore.put`: the key
  is always ``hash256(value)``, so identical values deduplicate to one
  physical entry and a reader can detect tampering by re-hashing.
* **named** entries, written by :meth:`KvStore.put_named`: mutable
  pointers (account address -> current state root) whose key is derived
  from the address, not the value. These are exempt from the
  hash-on-read check and may be overwritten.

The file backend keeps one ``<lowercase hex digest>.dat`` file per entry
under ``<root>/blocks/``, a ``MANIFEST`` recording the store parameters,
and a ``named.idx`` listing which keys are pointer entries, one lowercase
hex key per line; opening a store whose index holds any other line (a
torn append, say) raises ``CorruptError``. Verification on read is on by
default for the file backend (bytes on disk are outside the process's
control) and off for the in-memory backend.

There is no delete: the chain layer keeps every historical node readable
for rollback.
"""

from __future__ import annotations

import os
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from .encoding import DIGEST_SIZE, Digest, hash256
from .errors import CorruptError, NotFoundError, SSChainError

MANIFEST_NAME = "MANIFEST"
MANIFEST_PARAMS = (("hash", "sha-256"), ("version", "1"))
_NAMED_LINE = re.compile(rb"[0-9a-f]{%d}" % (2 * DIGEST_SIZE))


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
        value = self._read(key)
        if value is None:
            raise NotFoundError(f"no entry for {key.hex()}")
        if self.verify_on_read and not self._is_named(key) and hash256(value) != key:
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
    def _read(self, key: Digest) -> bytes | None: ...

    @abstractmethod
    def _is_named(self, key: Digest) -> bool: ...


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

    def _read(self, key: Digest) -> bytes | None:
        return self._entries.get(key)

    def _is_named(self, key: Digest) -> bool:
        return key in self._named


class FileKvStore(KvStore):
    """One file per entry under ``<root>/blocks/``; survives reopen."""

    def __init__(self, root: str | Path, verify_on_read: bool = True):
        self.verify_on_read = verify_on_read
        self.root = Path(root)
        self._blocks = self.root / "blocks"
        self._named_idx = self.root / "named.idx"
        self._lock = threading.Lock()
        self._blocks.mkdir(parents=True, exist_ok=True)
        self._init_manifest()
        self._named: dict[Digest, None] = {}
        if self._named_idx.exists():
            lines = self._named_idx.read_bytes().splitlines()
            for number, line in enumerate(lines, 1):
                if _NAMED_LINE.fullmatch(line) is None:
                    raise CorruptError(
                        f"{self._named_idx} line {number} is not a key of"
                        f" {2 * DIGEST_SIZE} lowercase hex digits: {line!r}"
                    )
                self._named.setdefault(bytes.fromhex(line.decode()))

    def __len__(self) -> int:
        return sum(1 for p in self._blocks.iterdir() if p.suffix == ".dat")

    def _init_manifest(self) -> None:
        manifest = self.root / MANIFEST_NAME
        text = "".join(f"{k} {v}\n" for k, v in MANIFEST_PARAMS)
        if manifest.exists():
            if manifest.read_text() != text:
                raise StoreError(f"incompatible store manifest at {manifest}")
        else:
            manifest.write_text(text)

    def _path(self, key: Digest) -> Path:
        return self._blocks / f"{key.hex()}.dat"

    def _write(self, key: Digest, value: bytes, named: bool) -> None:
        with self._lock:
            path = self._path(key)
            if not named and path.exists() and key not in self._named:
                return
            replace_file(path, value)
            if named and key not in self._named:
                self._named.setdefault(key)
                with self._named_idx.open("a") as fh:
                    fh.write(key.hex() + "\n")
            elif not named:
                self._named.pop(key, None)

    def _read(self, key: Digest) -> bytes | None:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def _is_named(self, key: Digest) -> bool:
        return key in self._named


def replace_file(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file and a rename, so
    a reader sees the old bytes or the new, never a part. The temporary
    name carries the pid, so writers in two processes never write into
    each other's temporary file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _check_key(key: Digest) -> None:
    if len(key) != DIGEST_SIZE:
        raise StoreError(f"store keys are {DIGEST_SIZE} bytes, got {len(key)}")
