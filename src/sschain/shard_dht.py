"""Consistent-hash ring partitioning accounts into shards.

Identifiers live on a ring of size 2^256: ``ring_position`` hashes any
byte string and reads the digest as a big-endian integer. A shard is its
index: the top ``log2(num_shards)`` bits of an address's position, read
as an integer, so the shard count must be a power of two, at most
``MAX_SHARDS``. Those prefix bits are only ever displayed. Within a
shard, keys go to the member node with the smallest position at or
clockwise of the key (wrapping past the top), so a node joining or
leaving moves only the keys on its own arc, from just after its
predecessor up to its own position. A change reads its shard's registry
once and returns the moves of exactly those keys.

A ``ShardTable`` holds the member nodes, the global account trie, whose
``trie`` handle is the one current state (a chain moves it block by
block), and one isolated key-value store per shard, made when the shard
is first used, so no cost grows with the shard count. ``shard_update``
writes an account's state into its shard as a small version DAG chained
to the version in ``trie``, and inserts it in ``trie``, which is
committed only when ``state_root`` is read. The trie leaf is the
account's one lookup pointer, which ``pointer`` reads. The shard store
keeps only a registry of its accounts' lookup keys, one named entry per
account written when the account first appears, which the ring remaps
among member nodes.
The lookup key is the fixed pipeline

    hash256(rlp_encode(hp_encode(hex_encode(address), leaf)))

so any two parties derive identical keys from an address alone.

Everything here is in-process: shards are node groups with private
stores, not sockets.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .encoding import DIGEST_SIZE, Digest, hash256, rlp_encode
from .errors import NotFoundError, SSChainError
from .merkle_dag import AccountState, dag_get, version_append, version_root
from .mpt import Trie
from .store import KvStore, MemoryKvStore


class ShardError(SSChainError):
    """Base for ring and shard-table failures."""


class EmptyRingError(ShardError):
    """No nodes to assign a key to."""


class NotPowerOfTwoError(ShardError, ValueError):
    """Shard counts must be powers of two so prefixes are exact bits."""


class DuplicateNodeError(ShardError):
    """A node id is already a member."""


class ShardEmptyError(ShardError):
    """Removing this node would leave its shard with no members."""


class NotAuthorizedError(ShardError):
    """Requester lacks the book or authority capability."""


RING_BITS = 256
RING_MODULUS = 1 << RING_BITS


def ring_position(data: bytes) -> int:
    """Map any byte string onto the ring: its digest as an integer."""
    return int.from_bytes(hash256(data), "big")


MAX_SHARDS = 1 << 16
"""Largest shard count, 64 times the paper's 1,024. A table makes a
shard's store only on its first use, so the bound is not for it: it
keeps the simulator's per-shard lists and its ``per-shard loads`` line
small, and ``--shards`` promises it."""


def prefix_width(num_shards: int) -> int:
    """Prefix bits naming a shard among ``num_shards``: log2 of the count.

    Raises:
        NotPowerOfTwoError: num_shards is not a power of two >= 1.
        ShardError: num_shards exceeds ``MAX_SHARDS``.
    """
    if num_shards < 1 or num_shards & (num_shards - 1):
        raise NotPowerOfTwoError(f"shard count must be a power of two: {num_shards}")
    if num_shards > MAX_SHARDS:
        raise ShardError(f"shard count {num_shards} exceeds {MAX_SHARDS}")
    return num_shards.bit_length() - 1


def shard_of_position(position: int, num_shards: int) -> int:
    """Index of the shard holding ``position``: its top prefix bits."""
    return position >> (RING_BITS - prefix_width(num_shards))


def shard_of(address: bytes, num_shards: int) -> int:
    """Index of the shard owning ``address``: the top prefix bits of its
    ring position.

    Raises:
        NotPowerOfTwoError: num_shards is not a power of two >= 1.
        ShardError: num_shards exceeds ``MAX_SHARDS``.
    """
    width = prefix_width(num_shards)
    if width == 0:
        return 0
    return ring_position(address) >> (RING_BITS - width)


@dataclass(frozen=True, slots=True)
class NodeIdentity:
    """A member node: id digest, derived ring position, and capabilities.

    ``book`` marks an accounting node, ``authority`` a node allowed to
    drive state updates; the inquire/update pipeline requires both.
    """

    node_id: Digest
    position: int
    shard: int
    book: bool = False
    authority: bool = False

    def __post_init__(self) -> None:
        if self.position != ring_position(self.node_id):
            raise ShardError("node position does not match its id digest")

    @classmethod
    def derive(
        cls,
        node_id: Digest,
        num_shards: int,
        book: bool = False,
        authority: bool = False,
    ) -> "NodeIdentity":
        position = ring_position(node_id)
        return cls(node_id, position, shard_of_position(position, num_shards), book, authority)


def assign_key(ring: Sequence[NodeIdentity], key_pos: int) -> NodeIdentity:
    """Clockwise owner of ``key_pos``: smallest node position >= key_pos,
    wrapping to the lowest-position node; a key exactly at a node's
    position belongs to that node.

    Raises:
        EmptyRingError: no nodes given.
    """
    if not ring:
        raise EmptyRingError("cannot assign a key on an empty ring")
    members = sorted(ring, key=lambda n: (n.position, n.node_id))
    idx = bisect_left([n.position for n in members], key_pos % RING_MODULUS)
    return members[idx % len(members)]


@dataclass(frozen=True, slots=True)
class Move:
    """A registry key that changed owner in a membership change."""

    key: Digest
    src: Digest
    dst: Digest


def pipeline_key(address: bytes) -> Digest:
    """Lookup key for an address: hash of the RLP of its HP-packed nibbles.

    An address's nibble path has even length, so its leaf hex-prefix form
    is the flag byte ``0x20`` followed by the address bytes.
    """
    return hash256(rlp_encode(b"\x20" + address))


StoreFactory = Callable[[int], KvStore]
"""Makes the store of the shard with the given index; a table calls it at
most once per index, when that shard is first used."""


class ShardTable:
    """The member nodes by id, the stores of the shards used so far by
    index, and the global account trie; ``trie`` is the handle at the
    current state, committed or not.

    Routing is pure (an address's shard never depends on membership);
    membership only decides which node inside the shard owns a key. A
    member's shard is its ``shard`` field.
    """

    def __init__(
        self,
        num_shards: int,
        store_factory: Optional[StoreFactory] = None,
        trie_store: Optional[KvStore] = None,
    ):
        prefix_width(num_shards)
        self.num_shards = num_shards
        self.members: dict[Digest, NodeIdentity] = {}
        self.stores: dict[int, KvStore] = {}
        self._store_factory = store_factory or (lambda _index: MemoryKvStore())
        self.trie_store = trie_store if trie_store is not None else MemoryKvStore()
        self.trie = Trie(self.trie_store)

    @property
    def state_root(self) -> Digest:
        """Root of the current state, committing it on first request."""
        return self.trie.commit()

    def store(self, index: int) -> KvStore:
        """The store of shard ``index``, made on its first use."""
        store = self.stores.get(index)
        if store is None:
            store = self.stores[index] = self._store_factory(index)
        return store

    def store_for(self, address: bytes) -> KvStore:
        return self.store(shard_of(address, self.num_shards))

    def node_join(self, node: NodeIdentity) -> tuple[Move, ...]:
        """Add a node to its prefix shard; return the moves of the keys on
        its arc, which go to it from its clockwise successor.

        Raises:
            DuplicateNodeError: node id already present.
            ShardError: the node's shard is not the one its position names
                among this table's shards.
        """
        expected = shard_of_position(node.position, self.num_shards)
        if node.shard != expected:
            raise ShardError(
                f"node labeled for shard {node.shard} but belongs to {expected}"
            )
        if node.node_id in self.members:
            raise DuplicateNodeError(f"node {node.node_id.hex()} already joined")
        others = [n for n in self.members.values() if n.shard == expected]
        self.members[node.node_id] = node
        if not others:
            return ()
        keys, successor = _arc(self.store(expected), others, node.position)
        return tuple(Move(key, successor.node_id, node.node_id) for key in keys)

    def node_leave(self, node_id: Digest) -> tuple[Move, ...]:
        """Remove a node; return the moves of the keys on its arc, which go
        to its clockwise successor.

        Raises:
            NotFoundError: unknown node id.
            ShardEmptyError: node is the last member of its shard.
        """
        node = self.members.get(node_id)
        if node is None:
            raise NotFoundError(f"node {node_id.hex()} is not a member")
        others = [n for n in self.members.values() if n.shard == node.shard and n is not node]
        if not others:
            raise ShardEmptyError(
                f"node {node_id.hex()} is the last member of shard {node.shard}"
            )
        del self.members[node_id]
        keys, successor = _arc(self.store(node.shard), others, node.position)
        return tuple(Move(key, node_id, successor.node_id) for key in keys)

    def pointer(self, address: bytes) -> Optional[Digest]:
        """Version Cid :attr:`trie` holds for ``address``, if any."""
        return _version(self.trie, address)

    def read_account(self, address: bytes, *, trie: Trie) -> Optional[tuple[AccountState, Digest]]:
        """(state, version Cid) stored under ``address`` in ``trie``, if any."""
        version = _version(trie, address)
        if version is None:
            return None
        store = self.store_for(address)
        leaf = dag_get(store, version_root(store, version))
        return AccountState.from_json_bytes(leaf.data), version

    def write_account(
        self,
        requester: NodeIdentity,
        address: bytes,
        state: AccountState,
        *,
        trie: Trie,
        prev_cid: Optional[Digest],
    ) -> tuple[Trie, Digest, bool]:
        """Write one account version against an explicit trie handle.

        Returns (new trie, version Cid, changed). When the new state equals
        the previous version's content nothing is written and ``changed``
        is False. The shard registry is left alone: a caller that keeps a
        first version (no ``prev_cid``) calls :meth:`register`.

        Raises:
            NotAuthorizedError: requester lacks book or authority.
        """
        _authorize(requester)
        store = self.store_for(address)
        version_cid = version_append(store, state.to_json_bytes(), prev_cid)
        if version_cid is None:
            return trie, prev_cid, False
        return trie.insert(address, version_cid), version_cid, True

    def register(self, address: bytes) -> None:
        """Add ``address``'s lookup key to its shard's registry, which the
        ring remaps among member nodes; once per account, when its first
        version is kept."""
        self.store_for(address).put_named(pipeline_key(address), address)

    def shard_update(
        self, requester: NodeIdentity, address: bytes, new_state: AccountState
    ) -> Digest:
        """Write a new state version for ``address`` into :attr:`trie`,
        chained to the one it holds, registering an account it creates;
        returns its Cid.

        The trie moves iff the state content changed; reading
        :attr:`state_root` commits it.

        Raises:
            NotAuthorizedError
        """
        prev_cid = _version(self.trie, address)
        self.trie, version_cid, _ = self.write_account(
            requester, address, new_state, trie=self.trie, prev_cid=prev_cid
        )
        if prev_cid is None:
            self.register(address)
        return version_cid


_COUNT = re.compile(r"[0-9]+")
_NODE = re.compile(r"[0-9a-fA-F]{%d} [01] [01]" % (2 * DIGEST_SIZE))


def table_to_config(table: ShardTable) -> str:
    """Text form: shard count plus one line per member node."""
    lines = [f"shards {table.num_shards}"]
    for node in sorted(table.members.values(), key=lambda n: n.node_id):
        lines.append(
            f"node {node.node_id.hex()} {int(node.book)} {int(node.authority)}"
        )
    return "\n".join(lines) + "\n"


def table_from_config(
    text: str,
    store_factory: Optional[StoreFactory] = None,
    trie_store: Optional[KvStore] = None,
) -> ShardTable:
    """Parse :func:`table_to_config` output and rebuild the membership.

    Members are loaded as data, straight into the member table: rebuilding
    a membership moves no key, so no move report is worked out.

    Raises:
        ShardError: malformed line, a shard count that is not a decimal
            integer, a node id that is not a hex digest, a role flag that is
            not ``0`` or ``1``, no shard count, or a node id given twice.
    """
    num_shards: Optional[int] = None
    nodes: list[tuple[Digest, bool, bool]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "shards" and len(fields) == 2 and _COUNT.fullmatch(fields[1]):
            num_shards = int(fields[1])
        elif fields[0] == "node" and _NODE.fullmatch(" ".join(fields[1:])):
            nodes.append(
                (bytes.fromhex(fields[1]), fields[2] == "1", fields[3] == "1")
            )
        else:
            raise ShardError(f"unrecognized table config line: {line!r}")
    if num_shards is None:
        raise ShardError("table config missing the shards line")
    table = ShardTable(num_shards, store_factory, trie_store)
    for node_id, book, authority in nodes:
        if node_id in table.members:
            raise DuplicateNodeError(f"node {node_id.hex()} already joined")
        table.members[node_id] = NodeIdentity.derive(node_id, num_shards, book, authority)
    return table


def _version(trie: Trie, address: bytes) -> Optional[Digest]:
    """The version Cid ``trie`` holds for ``address``, if any."""
    try:
        return trie.get(address)
    except NotFoundError:
        return None


def _authorize(node: NodeIdentity) -> None:
    if not (node.book and node.authority):
        raise NotAuthorizedError(
            f"node {node.node_id.hex()} lacks book or authority capability"
        )


def _arc(
    store: KvStore, others: Sequence[NodeIdentity], position: int
) -> tuple[list[Digest], NodeIdentity]:
    """Sorted registry keys on the arc a node at ``position`` owns among
    ``others``, (predecessor, position], which wraps past the top of the
    ring when the predecessor sits above it; and its clockwise successor,
    which owns those keys without it. The registry is read once, in key
    order."""
    ring = sorted(others, key=lambda n: (n.position, n.node_id))
    idx = bisect_left([n.position for n in ring], position)
    # Keys are digests, so as bytes they order as their positions do.
    low = ring[idx - 1].position.to_bytes(DIGEST_SIZE, "big")  # idx 0 wraps
    high = position.to_bytes(DIGEST_SIZE, "big")
    if low < high:
        keys = [k for k in store.named_keys() if low < k <= high]
    else:  # the arc wraps: every key but those on (position, low]
        keys = [k for k in store.named_keys() if not high < k <= low]
    return keys, ring[idx % len(ring)]
