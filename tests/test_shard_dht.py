"""Ring math, key assignment, shard membership, and migration tests."""

from __future__ import annotations

import contextlib
import hashlib
import random
from typing import Callable, Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sschain import shard_dht
from sschain.errors import CorruptError, NotFoundError
from sschain.merkle_dag import (
    AccountState,
    dag_get,
    version_put,
    version_root,
)
from sschain.shard_dht import (
    MAX_SHARDS,
    RING_BITS,
    RING_MODULUS,
    DuplicateNodeError,
    EmptyRingError,
    Move,
    NodeIdentity,
    NotAuthorizedError,
    NotPowerOfTwoError,
    ShardEmptyError,
    ShardError,
    ShardTable,
    assign_key,
    pipeline_key,
    ring_position,
    shard_of,
    shard_of_position,
    table_from_config,
    table_to_config,
)
from sschain.store import FileKvStore, KvStore, MemoryKvStore, open_database

from test_merkle_dag import version_trail

# --- independent oracles -------------------------------------------------


def oracle_position(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest(), "big")


def oracle_successor(ring: list[NodeIdentity], key_pos: int) -> NodeIdentity:
    """Brute force: smallest position >= key, else global minimum."""
    ordered = sorted(ring, key=lambda n: (n.position, n.node_id))
    at_or_after = [n for n in ordered if n.position >= key_pos]
    return at_or_after[0] if at_or_after else ordered[0]


def oracle_pipeline_key(address: bytes) -> bytes:
    nibbles = address.hex()  # two hex characters per byte, always even
    packed = bytes.fromhex("20" + nibbles)
    assert len(packed) <= 55
    if len(packed) == 1 and packed[0] <= 0x7F:
        rlp = packed
    else:
        rlp = bytes([0x80 + len(packed)]) + packed
    return hashlib.sha256(rlp).digest()


def make_nodes(count: int, num_shards: int, seed: str = "node") -> list[NodeIdentity]:
    return [
        NodeIdentity.derive(hashlib.sha256(f"{seed}-{i}".encode()).digest(), num_shards)
        for i in range(count)
    ]


def read_state(table: ShardTable, address: bytes) -> AccountState:
    """Full inquiry pipeline: pointer -> version node -> leaf -> document."""
    pointer = table.pointer(address)
    assert pointer is not None
    store = table.store_for(address)
    leaf = dag_get(store, version_root(store, pointer))
    return AccountState.from_json_bytes(leaf.data)


class TestRingPosition:
    def test_empty_input_known_answer(self) -> None:
        expected = int(
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16
        )
        assert ring_position(b"") == expected

    @given(st.binary(max_size=64))
    def test_matches_oracle(self, data: bytes) -> None:
        assert ring_position(data) == oracle_position(data)

    @given(st.binary(max_size=64))
    def test_within_ring(self, data: bytes) -> None:
        assert 0 <= ring_position(data) < RING_MODULUS

    def test_ring_width(self) -> None:
        assert RING_BITS == 256
        assert RING_MODULUS == 2**256


class TestShardId:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 16, 64, 1024])
    def test_width_is_log2(self, num_shards: int) -> None:
        """The top log2(count) bits name the shard: the lowest position is
        in shard 0 and the highest in the last shard."""
        assert shard_of_position(0, num_shards) == 0
        assert shard_of_position(RING_MODULUS - 1, num_shards) == num_shards - 1

    @pytest.mark.parametrize("num_shards", [0, 3, 6, 100, -4])
    def test_non_power_of_two_rejected(self, num_shards: int) -> None:
        with pytest.raises(NotPowerOfTwoError):
            shard_of_position(0, num_shards)

    def test_single_shard_label(self) -> None:
        assert shard_of_position(12345, 1) == 0
        assert shard_of_position(RING_MODULUS - 1, 1) == 0

    def test_prefix_selects_shard(self) -> None:
        # a position with known top bits lands in the matching shard
        pos = 0b1011 << (RING_BITS - 4)
        assert shard_of_position(pos, 16) == 0b1011
        assert shard_of_position(pos, 4) == 0b10
        assert shard_of_position(pos, 2) == 0b1

    @given(st.integers(min_value=0, max_value=RING_MODULUS - 1))
    def test_refinement_is_consistent(self, pos: int) -> None:
        """Splitting shards in half refines the partition, never reshuffles it."""
        coarse = shard_of_position(pos, 4)
        fine = shard_of_position(pos, 8)
        assert fine >> 1 == coarse

    def test_shard_of_hashes_key(self) -> None:
        key = b"account-key"
        assert shard_of(key, 16) == shard_of_position(oracle_position(key), 16)

    def test_single_shard_needs_no_hash(self, monkeypatch) -> None:
        def fail(_data: bytes) -> int:
            raise AssertionError("ring_position called")

        monkeypatch.setattr("sschain.shard_dht.ring_position", fail)
        assert shard_of(b"account-key", 1) == 0
        with pytest.raises(NotPowerOfTwoError):
            shard_of(b"account-key", 3)

    def test_partition_is_total_and_disjoint(self) -> None:
        counts = [0] * 8
        rng = random.Random(7)
        for _ in range(2000):
            key = rng.randbytes(20)
            counts[shard_of(key, 8)] += 1
        assert sum(counts) == 2000
        assert all(c > 0 for c in counts)

    def test_count_bounded(self) -> None:
        """Every use of a count refuses one above ``MAX_SHARDS`` before
        anything is made; the bound itself is a valid count."""
        too_many = MAX_SHARDS * 2
        assert shard_of(b"account-key", MAX_SHARDS) < MAX_SHARDS
        made: list[int] = []
        for use in (
            lambda: ShardTable(too_many, lambda index: made.append(index) or MemoryKvStore()),
            lambda: shard_of(b"account-key", too_many),
            lambda: shard_of_position(0, too_many),
            lambda: NodeIdentity.derive(hashlib.sha256(b"n").digest(), too_many),
            lambda: table_from_config(f"shards {too_many}\n"),
        ):
            with pytest.raises(ShardError, match=f"shard count {too_many} exceeds {MAX_SHARDS}"):
                use()
        assert made == []


class TestNodeIdentity:
    def test_position_is_hash_of_id(self) -> None:
        node_id = hashlib.sha256(b"n1").digest()
        node = NodeIdentity.derive(node_id, 4)
        assert node.position == oracle_position(node_id)
        assert node.shard == shard_of_position(node.position, 4)

    def test_forged_position_rejected(self) -> None:
        node_id = hashlib.sha256(b"n1").digest()
        with pytest.raises(ShardError):
            NodeIdentity(node_id, position=0, shard=0)

    def test_roles_default_off(self) -> None:
        node = NodeIdentity.derive(hashlib.sha256(b"n").digest(), 1)
        assert not node.book and not node.authority


class TestAssignKey:
    def test_matches_brute_force(self) -> None:
        ring = make_nodes(12, 4)
        rng = random.Random(3)
        for _ in range(500):
            pos = rng.randrange(RING_MODULUS)
            assert assign_key(ring, pos) == oracle_successor(ring, pos)

    def test_exact_position_is_owned_by_that_node(self) -> None:
        ring = make_nodes(5, 1)
        for node in ring:
            assert assign_key(ring, node.position) == node

    def test_wraparound(self) -> None:
        ring = make_nodes(5, 1)
        top = max(n.position for n in ring)
        lowest = min(ring, key=lambda n: (n.position, n.node_id))
        assert top < RING_MODULUS - 1
        assert assign_key(ring, top + 1) == lowest

    def test_empty_ring(self) -> None:
        with pytest.raises(EmptyRingError):
            assign_key([], 0)

    @given(st.integers(min_value=0, max_value=RING_MODULUS - 1), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_oracle_property(self, pos: int, seed: int) -> None:
        ring = make_nodes(6, 2, seed=f"ring-{seed % 5}")
        assert assign_key(ring, pos) == oracle_successor(ring, pos)


PIPELINE_KEY_VECTORS = [
    (b"", "36a9e7f1c95b82ffb99743e0c5c4ce95d83c9a430aac59f84ef3cbfab6145068"),
    (
        b"\x00" * 20,
        "be4923c8aa8e1dbd4ddb163f76887b963f361de3c65f6490873a9418ff7e6103",
    ),
    (
        bytes(range(20)),
        "2ecdf03da1f733176d5525d18d9293b8e232d8f7a3da0e0546c7e6e5d88d47d4",
    ),
]


class TestPipelineKey:
    def test_composed_from_codecs(self) -> None:
        for address in (b"", b"\x00", bytes(range(20)), b"\xff" * 20):
            assert pipeline_key(address) == oracle_pipeline_key(address)

    @pytest.mark.parametrize("address,digest_hex", PIPELINE_KEY_VECTORS)
    def test_frozen_vectors(self, address: bytes, digest_hex: str) -> None:
        assert pipeline_key(address).hex() == digest_hex

    @given(st.binary(max_size=26))
    def test_oracle_property(self, address: bytes) -> None:
        assert pipeline_key(address) == oracle_pipeline_key(address)

    def test_distinct_addresses_distinct_keys(self) -> None:
        keys = {pipeline_key(bytes([i]) * 20) for i in range(50)}
        assert len(keys) == 50


AUTH = NodeIdentity.derive(hashlib.sha256(b"writer").digest(), 4, book=True, authority=True)
PLAIN = NodeIdentity.derive(hashlib.sha256(b"reader").digest(), 4)


class TestShardTable:
    @staticmethod
    def _recording(made: list[int]) -> Callable[[int], KvStore]:
        return lambda index: made.append(index) or MemoryKvStore()

    def test_makes_no_store_up_front(self) -> None:
        made: list[int] = []
        table = ShardTable(MAX_SHARDS, self._recording(made))
        assert made == [] and table.stores == {}

    def test_update_makes_only_its_shards_store(self) -> None:
        made: list[int] = []
        table = ShardTable(MAX_SHARDS, self._recording(made))
        address = b"\x11" * 20
        table.shard_update(AUTH, address, AccountState("1", "5.0"))
        assert made == [shard_of(address, MAX_SHARDS)]
        assert list(table.stores) == made

    def test_store_made_once(self) -> None:
        made: list[int] = []
        table = ShardTable(8, self._recording(made))
        address = b"\x11" * 20
        table.shard_update(AUTH, address, AccountState("1", "5.0"))
        store = table.store_for(address)
        table.shard_update(AUTH, address, AccountState("2", "4.0"))
        assert table.store(shard_of(address, 8)) is store
        assert table.store_for(address) is store
        assert made == [shard_of(address, 8)]

    def test_each_shard_gets_its_own_store(self) -> None:
        made: list[int] = []
        table = ShardTable(8, self._recording(made))
        stores = [table.store(index) for index in range(8)]
        assert len({id(store) for store in stores}) == 8
        assert made == list(range(8))
        for index in range(8):
            address = next(
                bytes([i]) * 20 for i in range(256) if shard_of(bytes([i]) * 20, 8) == index
            )
            assert table.store_for(address) is stores[index]

    def test_update_then_read_back(self) -> None:
        table = ShardTable(4)
        address = b"\x11" * 20
        state = AccountState("1", "5.0")
        version_cid = table.shard_update(AUTH, address, state)
        assert table.pointer(address) == version_cid
        assert table.store_for(address).named_keys() == [pipeline_key(address)]
        assert read_state(table, address) == state

    def test_unchanged_state_keeps_version(self) -> None:
        table = ShardTable(4)
        address = b"\x22" * 20
        first = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        root = table.state_root
        again = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        assert (table.state_root, again) == (root, first)

    def test_new_state_advances_version(self) -> None:
        table = ShardTable(4)
        address = b"\x22" * 20
        cid1 = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        root1 = table.state_root
        cid2 = table.shard_update(AUTH, address, AccountState("2", "4.0"))
        assert table.state_root != root1 and cid2 != cid1
        store = table.store_for(address)
        assert version_trail(store, table.pointer(address)) == [cid2, cid1]

    def test_write_requires_authority(self) -> None:
        table = ShardTable(4)
        with pytest.raises(NotAuthorizedError):
            table.shard_update(PLAIN, b"\x33" * 20, AccountState("0", "0.0"))

    def test_inquire_unknown_address(self) -> None:
        table = ShardTable(4)
        address = b"\x44" * 20
        assert table.pointer(address) is None
        assert pipeline_key(address) not in table.store_for(address).named_keys()

    def test_shard_stores_isolated(self) -> None:
        table = ShardTable(2)
        in_zero = next(bytes([i]) * 20 for i in range(256) if shard_of(bytes([i]) * 20, 2) == 0)
        in_one = next(bytes([i]) * 20 for i in range(256) if shard_of(bytes([i]) * 20, 2) == 1)
        table.shard_update(AUTH, in_zero, AccountState("1", "1.0"))
        zero = table.store(0)
        size = len(zero)
        assert list(table.stores) == [0] and size > 0
        table.shard_update(AUTH, in_one, AccountState("1", "1.0"))
        assert len(table.store(1)) > 0 and len(zero) == size

    def test_trie_root_tracks_writes(self) -> None:
        table = ShardTable(4)
        root0 = table.state_root
        table.shard_update(AUTH, b"\x55" * 20, AccountState("1", "2.0"))
        assert table.state_root != root0


class CountingStore(MemoryKvStore):
    """Memory store that counts ``get`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.gets = 0

    def get(self, key: bytes) -> bytes:
        self.gets += 1
        return super().get(key)


class TestWriteAccount:
    ADDRESS = b"\x66" * 20

    def first_version(self) -> tuple[ShardTable, CountingStore, bytes]:
        table = ShardTable(1, store_factory=lambda _sid: CountingStore())
        _, cid, _ = table.write_account(
            AUTH, self.ADDRESS, AccountState("0", "5.0"), trie=table.trie, prev_cid=None
        )
        return table, table.store_for(self.ADDRESS), cid

    def test_reads_previous_version_once(self) -> None:
        table, store, prev = self.first_version()
        store.gets = 0
        _, cid, changed = table.write_account(
            AUTH, self.ADDRESS, AccountState("1", "4.0"), trie=table.trie, prev_cid=prev
        )
        assert changed and store.gets == 1
        leaf = version_root(store, cid)
        assert version_put(store, leaf, prev) == cid
        assert version_trail(store, cid) == [cid, prev]

    def test_corrupt_previous_version_rejected(self) -> None:
        table, store, prev = self.first_version()
        raw = bytearray(store._entries[prev])
        raw[-1] ^= 1
        store._entries[prev] = bytes(raw)
        with pytest.raises(CorruptError):
            table.write_account(
                AUTH, self.ADDRESS, AccountState("1", "4.0"), trie=table.trie, prev_cid=prev
            )

    def test_unchanged_write_adds_nothing(self) -> None:
        table, store, prev = self.first_version()
        size = len(store)
        result = table.write_account(
            AUTH, self.ADDRESS, AccountState("0", "5.0"), trie=table.trie, prev_cid=prev
        )
        assert result == (table.trie, prev, False)
        assert len(store) == size


class TestMembership:
    def test_join_and_find(self) -> None:
        table = ShardTable(4)
        node = make_nodes(1, 4)[0]
        table.node_join(node)
        assert table.members == {node.node_id: node}

    def test_join_wrong_shard_rejected(self) -> None:
        table = ShardTable(4)
        node = make_nodes(1, 4)[0]
        forged = NodeIdentity(node.node_id, node.position, node.shard ^ 1)
        with pytest.raises(ShardError, match=f"shard {node.shard ^ 1} but belongs to {node.shard}"):
            table.node_join(forged)

    def test_join_label_zero_from_another_count(self) -> None:
        """A node derived for 8 shards in shard 0 sits in shard 0 of 4
        shards too, so it joins there."""
        node = next(n for n in make_nodes(40, 8) if n.shard == 0)
        table = ShardTable(4)
        assert table.node_join(node) == ()
        assert table.members == {node.node_id: node}

    def test_join_nonzero_label_from_another_count_rejected(self) -> None:
        """A nonzero shard among 8 is never the same index among 4, so a
        4-shard table refuses every such node and adds none."""
        table = ShardTable(4)
        nodes = [n for n in make_nodes(40, 8) if n.shard != 0]
        assert {n.shard for n in nodes} == set(range(1, 8))
        for node in nodes:
            with pytest.raises(ShardError, match="but belongs to"):
                table.node_join(node)
        assert table.members == {}

    def test_duplicate_join_rejected(self) -> None:
        table = ShardTable(4)
        node = make_nodes(1, 4)[0]
        table.node_join(node)
        with pytest.raises(DuplicateNodeError):
            table.node_join(node)

    def test_leave_unknown_node(self) -> None:
        table = ShardTable(4)
        with pytest.raises(NotFoundError):
            table.node_leave(hashlib.sha256(b"ghost").digest())

    def test_last_member_cannot_leave(self) -> None:
        table = ShardTable(1)
        node = make_nodes(1, 1)[0]
        table.node_join(node)
        table.shard_update(AUTH, b"\x66" * 20, AccountState("0", "1.0"))
        with pytest.raises(ShardEmptyError):
            table.node_leave(node.node_id)


class TestMigration:
    def _populated_table(self, num_nodes: int, num_keys: int) -> ShardTable:
        table = ShardTable(1)
        for node in make_nodes(num_nodes, 1):
            table.node_join(node)
        rng = random.Random(11)
        for i in range(num_keys):
            table.shard_update(AUTH, rng.randbytes(20), AccountState("0", f"{i}.0"))
        return table

    @staticmethod
    def _owners(table: ShardTable, index: int) -> dict[bytes, bytes]:
        """Brute-force owner of each key in shard ``index``'s registry,
        among the members whose ring position names that shard; none
        while the shard has no member."""
        ring = [
            n
            for n in table.members.values()
            if shard_of_position(n.position, table.num_shards) == index
        ]
        if not ring:
            return {}
        return {
            key: assign_key(ring, int.from_bytes(key, "big")).node_id
            for key in table.store(index).named_keys()
        }

    def test_join_moves_match_brute_force(self) -> None:
        table = self._populated_table(6, 80)
        before = self._owners(table, 0)
        newcomer = NodeIdentity.derive(hashlib.sha256(b"late").digest(), 1)
        moves = table.node_join(newcomer)
        after = self._owners(table, 0)
        expected = {
            key: (before[key], after[key]) for key in before if before[key] != after[key]
        }
        assert {m.key: (m.src, m.dst) for m in moves} == expected
        assert expected, "joining a populated ring should claim some keys"
        for move in moves:
            assert move.dst == newcomer.node_id

    def test_leave_moves_match_brute_force(self) -> None:
        table = self._populated_table(6, 80)
        leaver = sorted(table.members.values(), key=lambda n: n.position)[2]
        before = self._owners(table, 0)
        moves = table.node_leave(leaver.node_id)
        after = self._owners(table, 0)
        expected = {
            key: (before[key], after[key]) for key in before if before[key] != after[key]
        }
        assert {m.key: (m.src, m.dst) for m in moves} == expected
        for move in moves:
            assert move.src == leaver.node_id

    def test_join_empty_shard_moves_nothing(self) -> None:
        table = ShardTable(1)
        assert table.node_join(make_nodes(1, 1)[0]) == ()

    def test_join_claims_expected_fraction(self) -> None:
        """A tenth node claims about a tenth of the keys on average.

        A single ring's claimed arc is far too variable for a tight
        check, so the count is pooled over many independent rings.
        """
        rng = random.Random(5)
        rings, keys_per_ring, prior = 200, 500, 9
        moved = 0
        for _ in range(rings):
            nodes = [NodeIdentity.derive(rng.randbytes(32), 1) for _ in range(prior + 1)]
            veterans, newcomer = nodes[:prior], nodes[prior]
            for _ in range(keys_per_ring):
                pos = rng.randrange(RING_MODULUS)
                before = assign_key(veterans, pos)
                after = assign_key(nodes, pos)
                if after.node_id != before.node_id:
                    assert after.node_id == newcomer.node_id
                    moved += 1
        expected = rings * keys_per_ring // (prior + 1)
        assert abs(moved - expected) < 2000  # about three standard deviations


def _key_at(position: int) -> bytes:
    """The registry key whose ring position is ``position``."""
    return (position % RING_MODULUS).to_bytes(32, "big")


@contextlib.contextmanager
def _backend(kind: str) -> Iterator[KvStore]:
    if kind == "memory":
        yield MemoryKvStore()
        return
    db = open_database(":memory:")
    try:
        yield FileKvStore(db, "shards/0")
    finally:
        db.close()


class TestArcOracle:
    """Every join's and leave's report, move for move and in order, is the
    brute-force diff of the :func:`assign_key` owners before and after."""

    @staticmethod
    def _check(
        table: ShardTable, change: Callable[[], tuple[Move, ...]], index: int = 0
    ) -> tuple:
        """Runs ``change`` on shard ``index`` and checks its moves against
        the brute-force owners of that shard's keys before and after."""
        before = TestMigration._owners(table, index)
        moves = change()
        after = TestMigration._owners(table, index)
        expected = tuple(
            (key, before[key], after[key]) for key in sorted(before) if before[key] != after[key]
        )
        assert tuple((m.key, m.src, m.dst) for m in moves) == expected
        return expected

    @pytest.mark.parametrize("kind", ["memory", "file"])
    @given(
        node_ids=st.lists(st.binary(min_size=32, max_size=32), min_size=2, max_size=8, unique=True),
        keys=st.lists(st.binary(min_size=32, max_size=32), max_size=40),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_memberships(
        self, kind: str, node_ids: list[bytes], keys: list[bytes], data: st.DataObject
    ) -> None:
        """Every node joins in turn, then all but one leave in a drawn
        order. The registry also holds a key at each node's position and
        one just past it, and keys at both ends of the ring."""
        nodes = [NodeIdentity.derive(node_id, 1) for node_id in node_ids]
        leavers = data.draw(st.permutations(nodes))[1:]
        forced = [_key_at(0), _key_at(-1)]
        for node in nodes:
            forced += [_key_at(node.position), _key_at(node.position + 1)]
        with _backend(kind) as store:
            table = ShardTable(1, lambda _sid: store)
            for key in dict.fromkeys(keys + forced):
                store.put_named(key, b"registered")
            for node in nodes:
                self._check(table, lambda: table.node_join(node))
            for node in leavers:
                self._check(table, lambda: table.node_leave(node.node_id))

    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_edge_cases(self, kind: str) -> None:
        """A join into an empty shard moves nothing and one into a shard
        of one member takes its arc; a key at the node's own position moves
        with it and one at its predecessor's stays; the arc of the
        lowest-placed node wraps past the top of the ring, both ways."""
        ring = sorted(make_nodes(5, 1, seed="edge"), key=lambda n: n.position)
        lowest = ring[0]
        with _backend(kind) as store:
            table = ShardTable(1, lambda _sid: store)
            for key in [_key_at(node.position) for node in ring] + [_key_at(0), _key_at(-1)]:
                store.put_named(key, b"registered")
            assert self._check(table, lambda: table.node_join(ring[2])) == ()
            one_member = [move[0] for move in self._check(table, lambda: table.node_join(ring[3]))]
            assert _key_at(ring[3].position) in one_member
            assert _key_at(ring[2].position) not in one_member
            for node in (ring[4], ring[1]):
                self._check(table, lambda: table.node_join(node))
            wrapped = sorted([_key_at(0), _key_at(-1), _key_at(lowest.position)])
            assert self._check(table, lambda: table.node_join(lowest)) == tuple(
                (key, ring[1].node_id, lowest.node_id) for key in wrapped
            )
            assert self._check(table, lambda: table.node_leave(lowest.node_id)) == tuple(
                (key, lowest.node_id, ring[1].node_id) for key in wrapped
            )


class TestMembersAcrossShards:
    """One member table serves every shard: a change counts, moves and
    reports only the members and keys of its own shard."""

    SHARDS = 4

    def _table(self, per_shard: list[int]) -> tuple[ShardTable, list[NodeIdentity]]:
        """A table with ``per_shard[i]`` members in shard ``i`` and registry
        keys in every shard; also returns the nodes left out, in order."""
        table = ShardTable(self.SHARDS)
        spare = []
        for node in make_nodes(80, self.SHARDS, seed="across"):
            if sum(n.shard == node.shard for n in table.members.values()) < per_shard[node.shard]:
                table.node_join(node)
            else:
                spare.append(node)
        rng = random.Random(3)
        for i in range(60):
            table.shard_update(AUTH, rng.randbytes(20), AccountState("0", f"{i}.0"))
        counts = [0] * self.SHARDS
        for node in table.members.values():
            counts[node.shard] += 1
        assert counts == per_shard
        assert all(table.store(i).named_keys() for i in range(self.SHARDS))
        return table, spare

    def test_last_member_of_its_shard_cannot_leave(self) -> None:
        table, _ = self._table([3, 1, 3, 3])
        (lone,) = [n for n in table.members.values() if n.shard == 1]
        with pytest.raises(ShardEmptyError, match=f"{lone.node_id.hex()} is the last member of shard 1"):
            table.node_leave(lone.node_id)
        assert table.members[lone.node_id] == lone
        other = next(n for n in table.members.values() if n.shard == 0)
        TestArcOracle._check(table, lambda: table.node_leave(other.node_id), 0)
        assert other.node_id not in table.members

    def test_join_into_empty_shard_moves_nothing(self) -> None:
        table, spare = self._table([3, 3, 0, 3])
        first, second = [n for n in spare if n.shard == 2][:2]
        assert table.node_join(first) == ()
        assert table.members[first.node_id] == first
        moved = TestArcOracle._check(table, lambda: table.node_join(second), 2)
        assert {src for _, src, _ in moved} <= {first.node_id}

    def test_moves_match_brute_force_per_shard(self) -> None:
        table, spare = self._table([2, 2, 2, 2])
        moved = 0
        for node in spare[:16]:
            moved += len(TestArcOracle._check(table, lambda: table.node_join(node), node.shard))
        for index in range(self.SHARDS):
            for node in [n for n in table.members.values() if n.shard == index][1:]:
                moved += len(
                    TestArcOracle._check(table, lambda: table.node_leave(node.node_id), index)
                )
        assert moved > 0
        assert sorted(n.shard for n in table.members.values()) == list(range(self.SHARDS))


class TestConfig:
    def test_round_trip(self) -> None:
        table = ShardTable(4)
        for node in make_nodes(5, 4):
            table.node_join(node)
        restored = table_from_config(table_to_config(table))
        assert restored.num_shards == 4
        assert restored.members == table.members
        assert restored.stores == {}

    def test_roles_preserved(self) -> None:
        table = ShardTable(2)
        node = NodeIdentity.derive(hashlib.sha256(b"r").digest(), 2, book=True, authority=True)
        table.node_join(node)
        restored = table_from_config(table_to_config(table))
        again = restored.members[node.node_id]
        assert again.book and again.authority

    def test_load_works_out_no_assignments(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Loading a membership inserts each member into its shard; no
        arc is worked out, as nothing moves."""
        table = ShardTable(2)
        for node in make_nodes(8, 2):
            table.node_join(node)
        calls: list[tuple] = []
        arc = shard_dht._arc
        monkeypatch.setattr(shard_dht, "_arc", lambda *args: calls.append(args) or arc(*args))
        restored = table_from_config(table_to_config(table))
        assert calls == []
        assert restored.members == table.members

    def test_malformed_line_rejected(self) -> None:
        with pytest.raises(ShardError):
            table_from_config("shards 2\nbogus line here\n")
        with pytest.raises(ShardError):
            table_from_config("node " + "00" * 32 + " 0 0\n")

    @pytest.mark.parametrize(
        "config",
        [
            "shards four\n",
            "shards 2.0\n",
            "shards 2\nnode zz 1 1\n",
            "shards 2\nnode " + "0" * 63 + " 1 1\n",
            "shards 2\nnode " + "0g" * 32 + " 1 1\n",
            "shards 4\nnode " + "00" * 32 + " 2 x\n",
            "shards 4\nnode " + "00" * 32 + " 2 1\n",
            "shards 4\nnode " + "00" * 32 + " 1 true\n",
            "shards 4\nnode " + "00" * 32 + " 1 1\nnode " + "00" * 32 + " 0 0\n",
        ],
        ids=[
            "word",
            "fraction",
            "short-hex",
            "odd-length",
            "not-hex",
            "flags",
            "book-flag",
            "authority-flag",
            "duplicate-node",
        ],
    )
    def test_malformed_value_rejected(self, config: str) -> None:
        with pytest.raises(ShardError):
            table_from_config(config)


class TestBalance:
    @pytest.mark.parametrize("num_shards", [16, 64, 1024])
    def test_load_within_statistical_bound(self, num_shards: int) -> None:
        """Hash placement keeps max/mean within 1 + 5/sqrt(keys per shard)."""
        total = 100_000
        counts = [0] * num_shards
        rng = random.Random(42)
        for _ in range(total):
            counts[shard_of(rng.randbytes(20), num_shards)] += 1
        mean = total / num_shards
        slack = 5 / (total / num_shards) ** 0.5
        assert max(counts) / mean <= 1 + slack
        assert min(counts) / mean >= 1 - slack
