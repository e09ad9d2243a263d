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
The root node is always stored and referenced by digest. One encoder
writes those bytes for every commit: ``_encode_leaf``,
``_encode_extension`` and ``_encode_branch`` take each child as the
reference bytes its parent embeds (the empty string's RLP for no child,
the child's own encoding if inline, the digest's RLP otherwise) and frame
them with ``rlp_list_head``, so a child is encoded once, bottom-up, and
never re-serialized inside its parent.

Updates never modify existing nodes: ``insert`` returns a new handle that
shares every untouched subtree with its parent, so any number of
historical handles stay readable, and committing after a single-key
update writes only the nodes along that key's path. ``commit`` collapses
freshly stored subtrees into digest references inside the handle, so a
later commit re-serializes only what changed since.

A handle remembers each stored node it has read and decoded, keyed by
digest, and shares that memo with the handles ``insert`` derives from
it, so a block that reads an account and then writes it back decodes
each node on the path once. ``commit`` gives the committed handle a new
memo holding exactly the nodes it wrote, as collapsed nodes under their
digests, so the next block reads none of them back from the store: the
clean-node cache of geth's trie database, scoped to one handle. A memo
therefore holds at most one commit's nodes plus one block's reads and
does not grow with history; as nodes are content-addressed, it is right
on any branch. A handle opened from a root starts on an empty memo, so
it reads every node through the store, which checks each against its
digest; a root the store lacks raises ``RootNotFoundError`` without
counting the store, empty or not.

Any keys go through ``Trie``: inserts, then a commit. A block body goes
through ``commit_indexed``, which holds its values under the RLP of
their indexes. That trie's shape depends on the count alone, so it is
built bottom-up by index arithmetic, each node encoded once and no key
or node object made, to the root and entries that inserts and a commit
would write; each run of sibling leaves is written by one
``KvStore.put_many``.

The committed root digest is a pure function of the key-value content:
insertion order never affects it. The empty trie commits to the fixed
sentinel ``hash256(rlp_encode(b""))``, the digest of ``_EMPTY_NODE``.

There is no delete; replacing a key's value is the only update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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
    rlp_list_head,
)
from .errors import CorruptError, NotFoundError, SSChainError
from .store import KvStore


class TrieError(SSChainError):
    """Base for trie-specific failures."""


class EmptyKeyError(TrieError):
    """Keys must be non-empty byte strings."""


class EmptyValueError(TrieError):
    """Values must be non-empty; the trie has no delete."""


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


Node = Union[Leaf, Extension, Branch]
Ref = Union[Node, Digest, None]
"""A child: the node itself (inline, or not yet stored), the digest of a
stored node, or None for no child. An inline child is always a node
object, so a ``bytes`` reference is always a digest."""

_EMPTY_NODE = rlp_encode(b"")
"""Encoding of the empty trie, and the reference to an absent child."""

_DIGEST_HEAD = rlp_encode(bytes(DIGEST_SIZE))[:1]
"""RLP prefix of a 32-byte digest embedded as a child reference."""

EMPTY_ROOT: Digest = hash256(_EMPTY_NODE)
"""Root digest of the empty trie."""


class Trie:
    """Immutable snapshot handle: a root plus the store resolving it.

    ``insert`` returns a new handle; this one keeps answering ``get``
    exactly as before. Handles may be shared freely across threads;
    deriving new handles from one lineage is a single-writer affair.
    """

    __slots__ = ("store", "_root", "_committed", "_nodes")

    def __init__(self, store: KvStore, root_hash: Optional[Digest] = None):
        """Open a trie. With a root digest, the root node is loaded eagerly.

        Raises:
            RootNotFoundError: root digest absent from the store, empty
                or not.
            CorruptError: root bytes do not hash to the root digest.
            TrieDecodeError: root bytes are not a valid node.
        """
        self.store = store
        self._committed: Optional[Digest] = root_hash
        self._nodes: dict[Digest, Node] = {}
        if root_hash is None or root_hash == EMPTY_ROOT:
            self._root: Ref = None
            return
        try:
            raw = store.get(root_hash)
        except NotFoundError:
            raise RootNotFoundError(f"root {root_hash.hex()} not in store") from None
        self._root = _decode_node(_parse_rlp(raw))

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
        new._nodes = self._nodes
        return new

    def commit(self) -> Digest:
        """Serialize every node not yet in the store; return the root digest.

        The handle's node memo becomes the nodes this commit wrote, each
        under its digest, so reads after the commit decode nothing it
        encoded. Committing twice without intervening inserts returns the
        same digest, writes nothing new and keeps the memo.
        """
        if self._committed is not None:
            return self._committed
        self._nodes = {}
        if self._root is None:
            self.store.put(_EMPTY_NODE)
            self._committed = EMPTY_ROOT
            return EMPTY_ROOT
        collapsed, encoded = _commit_node(self._root, self.store, self._nodes)
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
        if type(ref) is not bytes:
            return ref
        node = self._nodes.get(ref)
        if node is not None:
            return node
        try:
            raw = self.store.get(ref)
        except NotFoundError:
            raise CorruptError(f"unresolvable trie reference {ref.hex()}") from None
        node = self._nodes[ref] = _decode_node(_parse_rlp(raw))
        return node


def _common_prefix(a: Nibbles, b: Nibbles) -> Nibbles:
    n = 0
    limit = min(len(a), len(b))
    while n < limit and a[n] == b[n]:
        n += 1
    return a[:n]


def _commit_node(node: Node, store: KvStore, written: dict[Digest, Node]) -> tuple[Node, bytes]:
    """Serialize ``node`` bottom-up; return (collapsed node, encoded bytes).

    Children whose encoding reaches 32 bytes are written to the store,
    recorded in ``written`` under their digest, and collapse to that
    digest; smaller ones embed inline.
    """
    if isinstance(node, Leaf):
        return node, _encode_leaf(node.path, node.value)
    if isinstance(node, Extension):
        child_ref, child_collapsed = _commit_ref(node.child, store, written)
        collapsed: Node = Extension(node.prefix, child_collapsed)
        return collapsed, _encode_extension(node.prefix, child_ref)
    refs: list[bytes] = []
    collapsed_children: list[Ref] = []
    for child in node.children:
        child_ref, child_collapsed = _commit_ref(child, store, written)
        refs.append(child_ref)
        collapsed_children.append(child_collapsed)
    return Branch(tuple(collapsed_children), node.value), _encode_branch(refs, node.value)


def _commit_ref(ref: Ref, store: KvStore, written: dict[Digest, Node]) -> tuple[bytes, Ref]:
    """Commit a child; return (its reference bytes, collapsed reference)."""
    if ref is None:
        return _EMPTY_NODE, None
    if type(ref) is bytes:
        return _DIGEST_HEAD + ref, ref
    collapsed, encoded = _commit_node(ref, store, written)
    if len(encoded) < DIGEST_SIZE:
        return encoded, collapsed
    digest = store.put(encoded)
    written[digest] = collapsed
    return _DIGEST_HEAD + digest, digest


def commit_indexed(store: KvStore, values: list[bytes]) -> Digest:
    """Commit the trie holding ``values[i]`` under the key
    ``rlp_encode(int_to_bytes(i))`` for each index ``i``, as a block
    body's transaction trie does; return its root. The root and the
    store entries written are those of inserting the same pairs into an
    empty :class:`Trie` and committing it.

    Every value must be at least 32 bytes, as every transaction encoding
    is, so that every node of the trie reaches 32 bytes and is stored
    under its digest, none embedded in its parent. A shorter value raises
    ``TrieError`` before anything is written.

    No RLP index key is a prefix of another, and the trie's shape
    depends on the count alone: the keys 1-127 sit under their high
    nibble, and key 0 (``0x80``) and each class of ``L``-byte indexes
    (``0x80 + L`` and the index's bytes) under nibble 8. Within a class
    the node over the indexes ``[a, b)`` branches at the top nibble
    where ``a`` and ``b - 1`` differ, so the trie is built by index
    arithmetic alone. Each run of up to 16 sibling leaves, the nodes
    that end their keys, is framed in one pass and written by one
    :meth:`KvStore.put_many`.
    """
    count = len(values)
    if not count:
        return store.put(_EMPTY_NODE)
    build = _IndexedBuild(store, values)
    if count == 1:
        return store.put(_encode_leaf(b"\x08\x00", values[0]))
    refs = [_EMPTY_NODE] * 16
    build.fill(refs, 1, min(count, 128), 2, 0)
    if count <= 128:
        refs[8] = build.ref(_encode_leaf(b"\x00", values[0]))
    else:
        classes = [build.ref(_encode_leaf(b"", values[0]))] + [_EMPTY_NODE] * 15
        length, lo = 1, 128
        while lo < count:
            hi = min(count, 1 << 8 * length)
            classes[length] = build.ref(build.node(lo, hi, 2 * length, 0))
            length, lo = length + 1, hi
        refs[8] = build.ref(_encode_branch(classes, None))
    return store.put(_encode_branch(refs, None))


class _IndexedBuild:
    """One :func:`commit_indexed` build: the values, the store's writers,
    and the bytes before the value of a leaf that ends its key, by value
    length."""

    __slots__ = ("values", "put", "put_many", "heads")

    def __init__(self, store: KvStore, values: list[bytes]):
        lengths = set(map(len, values))
        if min(lengths) < DIGEST_SIZE:
            raise TrieError(
                f"block body values must be at least {DIGEST_SIZE} bytes, not {min(lengths)}"
            )
        self.values = values
        self.put = store.put
        self.put_many = store.put_many
        self.heads = {n: _encode_leaf(b"", bytes(n))[:-n] for n in lengths}

    def ref(self, encoded: bytes) -> bytes:
        """How a parent embeds a child of these bytes: by the digest they
        are written under."""
        return _DIGEST_HEAD + self.put(encoded)

    def node(self, a: int, b: int, width: int, depth: int) -> bytes:
        """Encoding of the node over the indexes ``[a, b)``, keyed by
        their ``width`` nibbles, which all share their first ``depth``."""
        if b - a == 1:
            return _encode_leaf(_index_nibbles(a, width)[depth:], self.values[a])
        position = width - 1 - (((a ^ (b - 1)).bit_length() - 1) >> 2)
        if position == width - 1:
            branch = self.last_nibble_branch(a, b)
        else:
            refs = [_EMPTY_NODE] * 16
            self.fill(refs, a, b, width, position)
            branch = _encode_branch(refs, None)
        if position == depth:
            return branch
        return _encode_extension(_index_nibbles(a, width)[depth:position], self.ref(branch))

    def fill(self, refs: list[bytes], a: int, b: int, width: int, position: int) -> None:
        """Set the slots of ``refs``, a branch at nibble ``position`` short
        of the last, to the children over ``[a, b)``, one per value of
        that nibble."""
        shift = 4 * (width - 1 - position)
        lo = a
        while lo < b:
            hi = min(b, ((lo >> shift) + 1) << shift)
            refs[(lo >> shift) & 15] = self.ref(self.node(lo, hi, width, position + 1))
            lo = hi

    def last_nibble_branch(self, a: int, b: int) -> bytes:
        """Encoding of the branch over ``[a, b)``, indexes that differ in
        their last nibble alone, so that each child is a leaf that ends
        its key. The leaves are framed in one pass, written in one batch,
        and their digests joined straight into the payload."""
        keys = self.put_many([self.heads[len(value)] + value for value in self.values[a:b]])
        # the empty slots before the run, its digests, the empty slots
        # after it, and no value
        payload = b"".join((
            _EMPTY_NODE * (a & 15),
            _DIGEST_HEAD,
            _DIGEST_HEAD.join(keys),
            _EMPTY_NODE * (16 - ((b - 1) & 15)),
        ))
        return rlp_list_head(len(payload)) + payload


def _index_nibbles(index: int, width: int) -> Nibbles:
    """The ``width`` nibbles of ``index``, big-endian."""
    return hex_encode(index.to_bytes(width // 2, "big"))


def _encode_leaf(path: Nibbles, value: bytes) -> bytes:
    payload = rlp_encode(hp_encode(path, True)) + rlp_encode(value)
    return rlp_list_head(len(payload)) + payload


def _encode_extension(prefix: Nibbles, child_ref: bytes) -> bytes:
    payload = rlp_encode(hp_encode(prefix, False)) + child_ref
    return rlp_list_head(len(payload)) + payload


def _encode_branch(child_refs: list[bytes], value: Optional[bytes]) -> bytes:
    payload = b"".join(child_refs) + (_EMPTY_NODE if value is None else rlp_encode(value))
    return rlp_list_head(len(payload)) + payload


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
        return item
    raise TrieDecodeError(f"child reference of {len(item)} bytes is not a digest")
