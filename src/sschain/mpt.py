"""Persistent Merkle Patricia Trie over a digest-keyed store.

Keys enter the trie as raw byte strings and descend one hex nibble at a
time (``hex_encode``). Three node kinds make up the tree:

* ``Leaf(path, value)`` — the unconsumed tail of a key plus its value.
* ``Extension(prefix, child)`` — a shared run of nibbles leading to a
  branch.
* ``Branch(children[16], value)`` — one slot per next nibble, plus an
  optional value for a key that ends exactly here.

A node serializes as the RLP list of its fields, with child references
embedded inline when their encoding is shorter than 32 bytes and as a
32-byte digest otherwise; a node's digest is ``hash256`` of its RLP.
The root node is always stored and referenced by digest.

Updates never modify existing nodes: ``insert`` returns a new handle that
shares every untouched subtree with its parent, so any number of
historical handles stay readable, and committing after a single-key
update writes only the nodes along that key's path. ``commit`` collapses
freshly stored subtrees into digest references inside the handle, so a
later commit re-serializes only what changed since.

The committed root digest is a pure function of the key-value content:
insertion order never affects it. The empty trie commits to the fixed
sentinel ``hash256(rlp_encode(b""))``.

There is no delete; replacing a key's value is the only update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .encoding import (
    DIGEST_SIZE,
    Digest,
    Nibbles,
    RlpDecodeError,
    RlpItem,
    hash256,
    hex_encode,
    hp_decode,
    hp_encode,
    rlp_decode,
    rlp_encode,
)
from .errors import CorruptError, NotFoundError, SSChainError
from .store import KvStore


class TrieError(SSChainError):
    """Base for trie-specific failures."""


class EmptyKeyError(TrieError):
    """Keys must be non-empty byte strings."""


class EmptyValueError(TrieError):
    """Values must be non-empty; the trie has no delete."""


class StoreEmptyError(TrieError):
    """A root digest was given but the backing store holds nothing."""


class RootNotFoundError(TrieError):
    """A root digest does not resolve in the backing store."""


class TrieDecodeError(TrieError):
    """Stored bytes do not decode to a valid trie node."""


@dataclass(frozen=True, slots=True)
class Leaf:
    path: Nibbles
    value: bytes


@dataclass(frozen=True, slots=True)
class Extension:
    prefix: Nibbles
    child: "Ref"


@dataclass(frozen=True, slots=True)
class Branch:
    children: tuple["Ref", ...]  # exactly 16
    value: Optional[bytes]


@dataclass(frozen=True, slots=True)
class HashRef:
    """Reference to a node stored under its digest."""

    digest: Digest


Node = Union[Leaf, Extension, Branch]
Ref = Union[Node, HashRef, None]

EMPTY_ROOT: Digest = hash256(rlp_encode(b""))
"""Root digest of the empty trie."""


class Trie:
    """Immutable snapshot handle: a root plus the store resolving it.

    ``insert`` returns a new handle; this one keeps answering ``get``
    exactly as before. Handles may be shared freely across threads;
    deriving new handles from one lineage is a single-writer affair.
    """

    __slots__ = ("store", "_root", "_committed")

    def __init__(self, store: KvStore, root_hash: Optional[Digest] = None):
        """Open a trie. With a root digest, the root node is loaded eagerly.

        Raises:
            StoreEmptyError: root given but the store has no entries.
            RootNotFoundError: root digest absent from the store.
            TrieDecodeError: root bytes are not a valid node.
        """
        self.store = store
        self._committed: Optional[Digest] = None
        if root_hash is None or root_hash == EMPTY_ROOT:
            self._root: Ref = None
            return
        try:
            raw = store.get(root_hash)
        except NotFoundError:
            if len(store) == 0:
                raise StoreEmptyError("cannot load a root from an empty store") from None
            raise RootNotFoundError(f"root {root_hash.hex()} not in store") from None
        self._root = _decode_node(_parse_rlp(raw))
        self._committed = root_hash

    def get(self, key: bytes) -> bytes:
        """Value most recently inserted under ``key`` in this lineage.

        Raises:
            EmptyKeyError: empty key.
            NotFoundError: key absent.
            CorruptError: a digest reference does not resolve.
        """
        if not key:
            raise EmptyKeyError("trie keys must be non-empty")
        value = self._get(self._root, hex_encode(key))
        if value is None:
            raise NotFoundError(f"key {key.hex()} not in trie")
        return value

    def insert(self, key: bytes, value: bytes) -> "Trie":
        """Return a new handle with ``key -> value`` set; self is unchanged."""
        if not key:
            raise EmptyKeyError("trie keys must be non-empty")
        if not value:
            raise EmptyValueError("trie values must be non-empty")
        new = Trie.__new__(Trie)
        new.store = self.store
        new._root = self._insert(self._root, hex_encode(key), value)
        new._committed = None
        return new

    def commit(self) -> Digest:
        """Serialize every node not yet in the store; return the root digest.

        Committing twice without intervening inserts returns the same
        digest and writes nothing new.
        """
        if self._committed is not None:
            return self._committed
        if self._root is None:
            self.store.put(rlp_encode(b""))
            self._committed = EMPTY_ROOT
            return EMPTY_ROOT
        _, collapsed, encoded = _commit_node(self._root, self.store)
        root_digest = self.store.put(encoded)
        self._root = collapsed
        self._committed = root_digest
        return root_digest

    def _get(self, ref: Ref, path: Nibbles) -> Optional[bytes]:
        while True:
            node = self._resolve(ref)
            if node is None:
                return None
            if isinstance(node, Leaf):
                return node.value if node.path == path else None
            if isinstance(node, Extension):
                if not path.startswith(node.prefix):
                    return None
                ref, path = node.child, path[len(node.prefix) :]
                continue
            if not path:
                return node.value
            ref, path = node.children[path[0]], path[1:]

    def _insert(self, ref: Ref, path: Nibbles, value: bytes) -> Node:
        node = self._resolve(ref)
        if node is None:
            return Leaf(path, value)
        if isinstance(node, Leaf):
            if node.path == path:
                return Leaf(path, value)
            return self._split(node.path, node, path, value)
        if isinstance(node, Extension):
            common = _common_prefix(node.prefix, path)
            if len(common) == len(node.prefix):
                child = self._insert(node.child, path[len(common) :], value)
                return Extension(node.prefix, child)
            return self._split(node.prefix, node, path, value, common)
        if not path:
            return Branch(node.children, value)
        slot = path[0]
        child = self._insert(node.children[slot], path[1:], value)
        children = node.children[:slot] + (child,) + node.children[slot + 1 :]
        return Branch(children, node.value)

    def _split(
        self,
        old_path: Nibbles,
        old_node: Union[Leaf, Extension],
        new_path: Nibbles,
        new_value: bytes,
        common: Optional[Nibbles] = None,
    ) -> Node:
        """Branch where an existing leaf/extension path diverges from a key."""
        if common is None:
            common = _common_prefix(old_path, new_path)
        children: list[Ref] = [None] * 16
        branch_value: Optional[bytes] = None

        old_rest = old_path[len(common) :]
        if isinstance(old_node, Leaf):
            if old_rest:
                children[old_rest[0]] = Leaf(old_rest[1:], old_node.value)
            else:
                branch_value = old_node.value
        else:
            # old_rest is non-empty here: common is a strict prefix of the
            # extension's path when we split one.
            if len(old_rest) > 1:
                children[old_rest[0]] = Extension(old_rest[1:], old_node.child)
            else:
                children[old_rest[0]] = old_node.child

        new_rest = new_path[len(common) :]
        if new_rest:
            children[new_rest[0]] = Leaf(new_rest[1:], new_value)
        else:
            branch_value = new_value

        branch = Branch(tuple(children), branch_value)
        return Extension(common, branch) if common else branch

    def _resolve(self, ref: Ref) -> Optional[Node]:
        if ref is None or isinstance(ref, (Leaf, Extension, Branch)):
            return ref
        try:
            raw = self.store.get(ref.digest)
        except NotFoundError:
            raise CorruptError(
                f"unresolvable trie reference {ref.digest.hex()}"
            ) from None
        return _decode_node(_parse_rlp(raw))


def new_node_count(old_root: Digest, new_root: Digest, store: KvStore) -> int:
    """Number of stored nodes reachable from ``new_root`` but not ``old_root``.

    Only digest-referenced nodes count; inline children live inside their
    parent's bytes.
    """
    return len(_reachable(new_root, store) - _reachable(old_root, store))


def _reachable(root: Digest, store: KvStore) -> set[Digest]:
    if root == EMPTY_ROOT and not store.has(root):
        return {root}
    seen: set[Digest] = set()
    stack = [root]
    first = True
    while stack:
        digest = stack.pop()
        if digest in seen:
            continue
        try:
            raw = store.get(digest)
        except NotFoundError:
            if first:
                raise RootNotFoundError(f"root {digest.hex()} not in store") from None
            raise CorruptError(f"dangling trie reference {digest.hex()}") from None
        first = False
        seen.add(digest)
        if raw == rlp_encode(b""):
            continue
        node = _decode_node(_parse_rlp(raw))
        stack.extend(_digest_refs(node))
    return seen


def _digest_refs(node: Node) -> Iterator[Digest]:
    refs: list[Ref]
    if isinstance(node, Leaf):
        return
    refs = [node.child] if isinstance(node, Extension) else list(node.children)
    for ref in refs:
        if isinstance(ref, HashRef):
            yield ref.digest
        elif isinstance(ref, (Extension, Branch)):
            yield from _digest_refs(ref)


def _common_prefix(a: Nibbles, b: Nibbles) -> Nibbles:
    n = 0
    limit = min(len(a), len(b))
    while n < limit and a[n] == b[n]:
        n += 1
    return a[:n]


def _commit_node(node: Node, store: KvStore) -> tuple[RlpItem, Node, bytes]:
    """Serialize ``node`` bottom-up.

    Returns (reference representation for the parent, collapsed node,
    encoded bytes). Children whose encoding reaches 32 bytes are written
    to the store and collapse to a ``HashRef``; smaller ones embed inline.
    """
    if isinstance(node, Leaf):
        struct: RlpItem = [hp_encode(node.path, True), node.value]
        collapsed: Node = node
    elif isinstance(node, Extension):
        child_repr, child_collapsed = _commit_ref(node.child, store)
        struct = [hp_encode(node.prefix, False), child_repr]
        collapsed = Extension(node.prefix, child_collapsed)
    else:
        reprs: list[RlpItem] = []
        collapsed_children: list[Ref] = []
        for child in node.children:
            child_repr, child_collapsed = _commit_ref(child, store)
            reprs.append(child_repr)
            collapsed_children.append(child_collapsed)
        struct = reprs + [node.value if node.value is not None else b""]
        collapsed = Branch(tuple(collapsed_children), node.value)
    return struct, collapsed, rlp_encode(struct)


def _commit_ref(ref: Ref, store: KvStore) -> tuple[RlpItem, Ref]:
    if ref is None:
        return b"", None
    if isinstance(ref, HashRef):
        return ref.digest, ref
    struct, collapsed, encoded = _commit_node(ref, store)
    if len(encoded) < DIGEST_SIZE:
        return struct, collapsed
    digest = store.put(encoded)
    return digest, HashRef(digest)


def _parse_rlp(raw: bytes) -> RlpItem:
    try:
        return rlp_decode(raw)
    except RlpDecodeError as exc:
        raise TrieDecodeError(f"stored node is not valid RLP: {exc}") from exc


def _decode_node(struct: RlpItem) -> Node:
    if not isinstance(struct, list):
        raise TrieDecodeError("trie node must be an RLP list")
    if len(struct) == 2:
        head, tail = struct
        if not isinstance(head, bytes):
            raise TrieDecodeError("leaf/extension path must be bytes")
        path, is_leaf = hp_decode(head)
        if is_leaf:
            if not isinstance(tail, bytes):
                raise TrieDecodeError("leaf value must be bytes")
            return Leaf(path, tail)
        if not path:
            raise TrieDecodeError("extension prefix must be non-empty")
        return Extension(path, _decode_ref(tail))
    if len(struct) == 17:
        children = tuple(_decode_ref(item) for item in struct[:16])
        value = struct[16]
        if not isinstance(value, bytes):
            raise TrieDecodeError("branch value must be bytes")
        return Branch(children, value if value else None)
    raise TrieDecodeError(f"trie node list has {len(struct)} items, not 2 or 17")


def _decode_ref(item: RlpItem) -> Ref:
    if isinstance(item, list):
        return _decode_node(item)
    if item == b"":
        return None
    if len(item) == DIGEST_SIZE:
        return HashRef(item)
    raise TrieDecodeError(f"child reference of {len(item)} bytes is not a digest")
