"""Consistent-hash ring partitioning accounts into shards.

Identifiers live on a ring of size 2^256: ``ring_position`` hashes any
byte string and reads the digest as a big-endian integer. The top
``log2(num_shards)`` bits of an address's position name its shard, so
shard labels are fixed-width bit strings and shard count must be a power
of two. Within a shard, keys go to the member node with the smallest
position at or clockwise of the key (wrapping past the top), so a node
joining or leaving moves only the keys on its own arc.

A ``ShardTable`` holds one isolated key-value store per shard plus a
global account trie. ``shard_update`` writes an account's state into its
shard as a small version DAG and records the version under the account's
lookup key; ``shard_inquire`` reads that entry back. The lookup key is
the fixed pipeline

    hash256(rlp_encode(hp_encode(hex_encode(address), leaf)))

so any two parties derive identical keys from an address alone.

Everything here is in-process: shards are node groups with private
stores, not sockets.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .encoding import DIGEST_SIZE, Digest, hash256, rlp_encode
from .errors import NotFoundError, SSChainError
from .merkle_dag import AccountState, Cid, version_append
from .mpt import Trie
from .store import KvStore, MemoryKvStore, StoreEntry


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


@dataclass(frozen=True, slots=True)
class ShardId:
    """Fixed-width bit-string label; empty when there is one shard."""

    bits: str

    @property
    def index(self) -> int:
        return int(self.bits, 2) if self.bits else 0

    @property
    def width(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits if self.bits else "(single)"


def _prefix_width(num_shards: int) -> int:
    if num_shards < 1 or num_shards & (num_shards - 1):
        raise NotPowerOfTwoError(f"shard count must be a power of two: {num_shards}")
    return num_shards.bit_length() - 1


def shard_of_position(position: int, num_shards: int) -> ShardId:
    width = _prefix_width(num_shards)
    if width == 0:
        return ShardId("")
    return ShardId(format(position >> (RING_BITS - width), f"0{width}b"))


def shard_of(address: bytes, num_shards: int) -> ShardId:
    """Shard owning ``address``: the top prefix bits of its ring position.

    Raises:
        NotPowerOfTwoError: num_shards is not a power of two >= 1.
    """
    if _prefix_width(num_shards) == 0:
        return ShardId("")
    return shard_of_position(ring_position(address), num_shards)


@dataclass(frozen=True, slots=True)
class NodeIdentity:
    """A member node: id digest, derived ring position, and capabilities.

    ``book`` marks an accounting node, ``authority`` a node allowed to
    drive state updates; the inquire/update pipeline requires both.
    """

    node_id: Digest
    position: int
    shard: ShardId
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
    return _ring_owner(ring)(key_pos)


def _ring_owner(ring: Sequence[NodeIdentity]) -> Callable[[int], NodeIdentity]:
    """Sort ``ring`` once; return the clockwise-owner lookup over it."""
    if not ring:
        raise EmptyRingError("cannot assign a key on an empty ring")
    members = sorted(ring, key=lambda n: (n.position, n.node_id))
    positions = [n.position for n in members]

    def owner(key_pos: int) -> NodeIdentity:
        idx = bisect_left(positions, key_pos % RING_MODULUS)
        return members[idx % len(members)]

    return owner


@dataclass(frozen=True, slots=True)
class Move:
    key: Digest
    src: Digest
    dst: Digest


@dataclass(frozen=True, slots=True)
class RemapReport:
    """Keys that changed owner after a membership change."""

    moves: tuple[Move, ...]

    @property
    def count(self) -> int:
        return len(self.moves)

    def lines(self) -> list[str]:
        return [
            f"MOVED {m.key.hex()} {m.src.hex()} {m.dst.hex()}" for m in self.moves
        ]


def pipeline_key(address: bytes) -> Digest:
    """Lookup key for an address: hash of the RLP of its HP-packed nibbles.

    An address's nibble path has even length, so its leaf hex-prefix form
    is the flag byte ``0x20`` followed by the address bytes.
    """
    return hash256(rlp_encode(b"\x20" + address))


class Shard:
    """One node group: members keyed by node id, plus a private store."""

    __slots__ = ("shard_id", "members", "store")

    def __init__(self, shard_id: ShardId, store: KvStore):
        self.shard_id = shard_id
        self.members: dict[Digest, NodeIdentity] = {}
        self.store = store

    def assignments(self) -> dict[Digest, Digest]:
        """Current key -> owning node id map over this shard's entries."""
        keys = self.store.named_keys()
        if not keys:
            return {}
        owner = _ring_owner(list(self.members.values()))
        return {key: owner(int.from_bytes(key, "big")).node_id for key in keys}


StoreFactory = Callable[[ShardId], KvStore]


class ShardTable:
    """All shards plus the global account trie.

    Routing is pure (an address's shard never depends on membership);
    membership only decides which node inside the shard owns a key.
    Operations on different shards may run concurrently; the table-level
    lock serializes membership changes and trie updates.
    """

    def __init__(
        self,
        num_shards: int,
        store_factory: Optional[StoreFactory] = None,
        trie_store: Optional[KvStore] = None,
    ):
        width = _prefix_width(num_shards)
        factory = store_factory or (lambda _sid: MemoryKvStore())
        self.num_shards = num_shards
        self.shards: dict[ShardId, Shard] = {}
        for i in range(num_shards):
            sid = ShardId(format(i, f"0{width}b") if width else "")
            self.shards[sid] = Shard(sid, factory(sid))
        self.trie_store = trie_store if trie_store is not None else MemoryKvStore()
        self._lock = threading.Lock()
        self._trie = Trie(self.trie_store)
        self._root = self._trie.commit()

    @property
    def state_root(self) -> Digest:
        return self._root

    @property
    def trie(self) -> Trie:
        """Handle at the table's current committed root."""
        return self._trie

    def members(self) -> list[NodeIdentity]:
        return [n for shard in self.shards.values() for n in shard.members.values()]

    def find_node(self, node_id: Digest) -> Optional[NodeIdentity]:
        for shard in self.shards.values():
            if node_id in shard.members:
                return shard.members[node_id]
        return None

    def shard_for(self, address: bytes) -> Shard:
        return self.shards[shard_of(address, self.num_shards)]

    def node_join(self, node: NodeIdentity) -> RemapReport:
        """Add a node to its prefix shard; report keys that moved to it.

        Raises:
            DuplicateNodeError: node id already present.
            ShardError: node was derived for a different shard count.
        """
        expected = shard_of_position(node.position, self.num_shards)
        if node.shard != expected:
            raise ShardError(
                f"node labeled for shard {node.shard} but belongs to {expected}"
            )
        with self._lock:
            if self.find_node(node.node_id) is not None:
                raise DuplicateNodeError(f"node {node.node_id.hex()} already joined")
            shard = self.shards[expected]
            before = shard.assignments() if shard.members else {}
            shard.members[node.node_id] = node
            return _diff_assignments(before, shard.assignments() if before else {})

    def node_leave(self, node_id: Digest) -> RemapReport:
        """Remove a node; its keys move to the clockwise successor.

        Raises:
            NotFoundError: unknown node id.
            ShardEmptyError: node is the last member of its shard.
        """
        with self._lock:
            node = self.find_node(node_id)
            if node is None:
                raise NotFoundError(f"node {node_id.hex()} is not a member")
            shard = self.shards[node.shard]
            if len(shard.members) == 1:
                raise ShardEmptyError(
                    f"node {node_id.hex()} is the last member of shard {node.shard}"
                )
            before = shard.assignments()
            del shard.members[node_id]
            return _diff_assignments(before, shard.assignments())

    def pointer(self, address: bytes) -> Optional[Cid]:
        """Latest version Cid published for ``address``, if any."""
        shard = self.shard_for(address)
        try:
            return Cid(shard.store.get(pipeline_key(address)))
        except NotFoundError:
            return None

    def write_account(
        self,
        requester: NodeIdentity,
        address: bytes,
        state: AccountState,
        *,
        trie: Trie,
        prev_cid: Optional[Cid],
        update_pointer: bool = True,
    ) -> tuple[Trie, Cid, bool]:
        """Write one account version against an explicit trie handle.

        Returns (new trie, version Cid, changed). When the new state equals
        the previous version's content nothing is written and ``changed``
        is False. With ``update_pointer`` off the shard's lookup entry is
        left alone, which lets historical replays share the stores without
        disturbing the live pointers.

        Raises:
            NotAuthorizedError: requester lacks book or authority.
        """
        _authorize(requester)
        shard = self.shard_for(address)
        version_cid = version_append(shard.store, state.to_json_bytes(), prev_cid)
        if version_cid is None:
            return trie, prev_cid, False
        new_trie = trie.insert(address, version_cid.digest)
        if update_pointer:
            shard.store.put_named(pipeline_key(address), version_cid.digest)
        return new_trie, version_cid, True

    def shard_update(
        self, requester: NodeIdentity, address: bytes, new_state: AccountState
    ) -> tuple[Digest, Cid]:
        """Publish a new state version for ``address``; returns both roots.

        The trie root moves iff the state content actually changed.

        Raises:
            NotAuthorizedError
        """
        with self._lock:
            prev = self.pointer(address)
            trie, version_cid, changed = self.write_account(
                requester, address, new_state, trie=self._trie, prev_cid=prev
            )
            if changed:
                self._trie = trie
                self._root = trie.commit()
            return self._root, version_cid

    def shard_inquire(
        self, requester: NodeIdentity, address: bytes
    ) -> StoreEntry:
        """Look up the stored (key, version Cid bytes) entry for an address.

        Raises:
            NotAuthorizedError; NotFoundError.
        """
        _authorize(requester)
        key = pipeline_key(address)
        return StoreEntry(key, self.shard_for(address).store.get(key))


_COUNT = re.compile(r"[0-9]+")
_NODE_ID = re.compile(r"[0-9a-fA-F]{%d}" % (2 * DIGEST_SIZE))


def table_to_config(table: ShardTable) -> str:
    """Text form: shard count plus one line per member node."""
    lines = [f"shards {table.num_shards}"]
    for node in sorted(table.members(), key=lambda n: n.node_id):
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

    Raises:
        ShardError: malformed line, a shard count that is not a decimal
            integer, a node id that is not a hex digest, or no shard count.
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
        elif fields[0] == "node" and len(fields) == 4 and _NODE_ID.fullmatch(fields[1]):
            nodes.append(
                (bytes.fromhex(fields[1]), fields[2] == "1", fields[3] == "1")
            )
        else:
            raise ShardError(f"unrecognized table config line: {line!r}")
    if num_shards is None:
        raise ShardError("table config missing the shards line")
    table = ShardTable(num_shards, store_factory, trie_store)
    for node_id, book, authority in nodes:
        table.node_join(NodeIdentity.derive(node_id, num_shards, book, authority))
    return table


def _authorize(node: NodeIdentity) -> None:
    if not (node.book and node.authority):
        raise NotAuthorizedError(
            f"node {node.node_id.hex()} lacks book or authority capability"
        )


def _diff_assignments(
    before: dict[Digest, Digest], after: dict[Digest, Digest]
) -> RemapReport:
    moves = [
        Move(key, before[key], after[key])
        for key in before
        if after.get(key, before[key]) != before[key]
    ]
    moves.sort(key=lambda m: m.key)
    return RemapReport(tuple(moves))
