"""Ring math, key assignment, shard membership, and migration tests."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sschain.errors import CorruptError, NotFoundError
from sschain.merkle_dag import (
    AccountState,
    Cid,
    account_history,
    dag_get,
    version_put,
    version_root,
)
from sschain.shard_dht import (
    RING_BITS,
    RING_MODULUS,
    DuplicateNodeError,
    EmptyRingError,
    NodeIdentity,
    NotAuthorizedError,
    NotPowerOfTwoError,
    Shard,
    ShardEmptyError,
    ShardError,
    ShardId,
    ShardTable,
    assign_key,
    pipeline_key,
    ring_position,
    shard_of,
    shard_of_position,
    table_from_config,
    table_to_config,
)
from sschain.store import MemoryKvStore

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


def shard_by_index(table: ShardTable, index: int) -> Shard:
    return next(s for s in table.shards.values() if s.shard_id.index == index)


def read_state(table: ShardTable, address: bytes) -> AccountState:
    """Full inquiry pipeline: pointer -> version node -> leaf -> document."""
    pointer = table.pointer(address)
    assert pointer is not None
    store = table.shard_for(address).store
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
        sid = shard_of_position(0, num_shards)
        assert sid.width == num_shards.bit_length() - 1

    @pytest.mark.parametrize("num_shards", [0, 3, 6, 100, -4])
    def test_non_power_of_two_rejected(self, num_shards: int) -> None:
        with pytest.raises(NotPowerOfTwoError):
            shard_of_position(0, num_shards)

    def test_single_shard_label(self) -> None:
        assert str(shard_of_position(12345, 1)) == "(single)"

    def test_prefix_selects_shard(self) -> None:
        # a position with known top bits lands in the matching shard
        pos = 0b1011 << (RING_BITS - 4)
        assert shard_of_position(pos, 16).index == 0b1011
        assert shard_of_position(pos, 4).index == 0b10
        assert shard_of_position(pos, 2).index == 0b1

    @given(st.integers(min_value=0, max_value=RING_MODULUS - 1))
    def test_refinement_is_consistent(self, pos: int) -> None:
        """Splitting shards in half refines the partition, never reshuffles it."""
        coarse = shard_of_position(pos, 4).index
        fine = shard_of_position(pos, 8).index
        assert fine >> 1 == coarse

    def test_shard_of_hashes_key(self) -> None:
        key = b"account-key"
        assert shard_of(key, 16) == shard_of_position(oracle_position(key), 16)

    def test_single_shard_needs_no_hash(self, monkeypatch) -> None:
        def fail(_data: bytes) -> int:
            raise AssertionError("ring_position called")

        monkeypatch.setattr("sschain.shard_dht.ring_position", fail)
        assert shard_of(b"account-key", 1) == ShardId("")
        with pytest.raises(NotPowerOfTwoError):
            shard_of(b"account-key", 3)

    def test_partition_is_total_and_disjoint(self) -> None:
        counts = [0] * 8
        rng = random.Random(7)
        for _ in range(2000):
            key = rng.randbytes(20)
            counts[shard_of(key, 8).index] += 1
        assert sum(counts) == 2000
        assert all(c > 0 for c in counts)

    def test_str_shows_bits(self) -> None:
        sid = ShardId("101")
        assert str(sid) == "101"
        assert sid.index == 5


class TestNodeIdentity:
    def test_position_is_hash_of_id(self) -> None:
        node_id = hashlib.sha256(b"n1").digest()
        node = NodeIdentity.derive(node_id, 4)
        assert node.position == oracle_position(node_id)
        assert node.shard == shard_of_position(node.position, 4)

    def test_forged_position_rejected(self) -> None:
        node_id = hashlib.sha256(b"n1").digest()
        with pytest.raises(ShardError):
            NodeIdentity(node_id, position=0, shard=ShardId(""))

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
    def test_creates_all_shards(self) -> None:
        table = ShardTable(8)
        assert len(table.shards) == 8
        assert [s.shard_id.index for s in table.shards.values()] == list(range(8))

    def test_update_then_read_back(self) -> None:
        table = ShardTable(4)
        address = b"\x11" * 20
        state = AccountState("1", "5.0")
        _, version_cid = table.shard_update(AUTH, address, state)
        entry = table.shard_inquire(AUTH, address)
        assert entry.key == pipeline_key(address)
        assert entry.value == version_cid.digest
        assert read_state(table, address) == state

    def test_unchanged_state_keeps_version(self) -> None:
        table = ShardTable(4)
        address = b"\x22" * 20
        first = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        again = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        assert again == first

    def test_new_state_advances_version(self) -> None:
        table = ShardTable(4)
        address = b"\x22" * 20
        root1, cid1 = table.shard_update(AUTH, address, AccountState("1", "5.0"))
        root2, cid2 = table.shard_update(AUTH, address, AccountState("2", "4.0"))
        assert (root2, cid2) != (root1, cid1)
        store = table.shard_for(address).store
        assert account_history(store, table.pointer(address)) == [cid2, cid1]

    def test_write_requires_authority(self) -> None:
        table = ShardTable(4)
        with pytest.raises(NotAuthorizedError):
            table.shard_update(PLAIN, b"\x33" * 20, AccountState("0", "0.0"))
        with pytest.raises(NotAuthorizedError):
            table.shard_inquire(PLAIN, b"\x33" * 20)

    def test_inquire_unknown_address(self) -> None:
        table = ShardTable(4)
        with pytest.raises(NotFoundError):
            table.shard_inquire(AUTH, b"\x44" * 20)

    def test_shard_stores_isolated(self) -> None:
        table = ShardTable(2)
        in_zero = next(
            bytes([i]) * 20
            for i in range(256)
            if table.shard_for(bytes([i]) * 20).shard_id.index == 0
        )
        in_one = next(
            bytes([i]) * 20
            for i in range(256)
            if table.shard_for(bytes([i]) * 20).shard_id.index == 1
        )
        table.shard_update(AUTH, in_zero, AccountState("1", "1.0"))
        assert len(shard_by_index(table, 1).store) == 0
        table.shard_update(AUTH, in_one, AccountState("1", "1.0"))
        assert len(shard_by_index(table, 1).store) > 0

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

    def first_version(self) -> tuple[ShardTable, CountingStore, Cid]:
        table = ShardTable(1, store_factory=lambda _sid: CountingStore())
        _, cid, _ = table.write_account(
            AUTH, self.ADDRESS, AccountState("0", "5.0"), trie=table.trie, prev_cid=None
        )
        return table, table.shard_for(self.ADDRESS).store, cid

    def test_reads_previous_version_once(self) -> None:
        table, store, prev = self.first_version()
        store.gets = 0
        _, cid, changed = table.write_account(
            AUTH, self.ADDRESS, AccountState("1", "4.0"), trie=table.trie, prev_cid=prev
        )
        assert changed and store.gets == 1
        leaf = version_root(store, cid)
        assert version_put(store, leaf, prev) == cid
        assert account_history(store, cid) == [cid, prev]

    def test_corrupt_previous_version_rejected(self) -> None:
        table, store, prev = self.first_version()
        raw = bytearray(store._entries[prev.digest])
        raw[-1] ^= 1
        store._entries[prev.digest] = bytes(raw)
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
        assert table.find_node(node.node_id) == node
        assert node in table.members()

    def test_join_wrong_shard_rejected(self) -> None:
        table = ShardTable(4)
        node = make_nodes(1, 4)[0]
        flipped = "".join("1" if c == "0" else "0" for c in node.shard.bits)
        forged = NodeIdentity(node.node_id, node.position, ShardId(flipped))
        with pytest.raises(ShardError):
            table.node_join(forged)

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
    def _owners(shard: Shard) -> dict[bytes, bytes]:
        ring = list(shard.members.values())
        return {
            key: assign_key(ring, int.from_bytes(key, "big")).node_id
            for key in shard.store.named_keys()
        }

    def test_join_moves_match_brute_force(self) -> None:
        table = self._populated_table(6, 80)
        shard = shard_by_index(table, 0)
        before = self._owners(shard)
        newcomer = NodeIdentity.derive(hashlib.sha256(b"late").digest(), 1)
        report = table.node_join(newcomer)
        after = self._owners(shard)
        expected = {
            key: (before[key], after[key]) for key in before if before[key] != after[key]
        }
        assert {m.key: (m.src, m.dst) for m in report.moves} == expected
        assert expected, "joining a populated ring should claim some keys"
        for move in report.moves:
            assert move.dst == newcomer.node_id

    def test_leave_moves_match_brute_force(self) -> None:
        table = self._populated_table(6, 80)
        shard = shard_by_index(table, 0)
        leaver = sorted(shard.members.values(), key=lambda n: n.position)[2]
        before = self._owners(shard)
        report = table.node_leave(leaver.node_id)
        after = self._owners(shard)
        expected = {
            key: (before[key], after[key]) for key in before if before[key] != after[key]
        }
        assert {m.key: (m.src, m.dst) for m in report.moves} == expected
        for move in report.moves:
            assert move.src == leaver.node_id

    def test_report_lines(self) -> None:
        table = self._populated_table(3, 40)
        report = table.node_join(NodeIdentity.derive(hashlib.sha256(b"x").digest(), 1))
        assert len(report.lines()) == report.count
        for line in report.lines():
            parts = line.split()
            assert parts[0] == "MOVED"
            assert len(parts) == 4

    def test_join_empty_shard_moves_nothing(self) -> None:
        table = ShardTable(1)
        report = table.node_join(make_nodes(1, 1)[0])
        assert report.count == 0

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


class TestConfig:
    def test_round_trip(self) -> None:
        table = ShardTable(4)
        for node in make_nodes(5, 4):
            table.node_join(node)
        restored = table_from_config(table_to_config(table))
        assert restored.num_shards == 4
        for sid, shard in table.shards.items():
            assert sorted(shard.members) == sorted(restored.shards[sid].members)

    def test_roles_preserved(self) -> None:
        table = ShardTable(2)
        node = NodeIdentity.derive(hashlib.sha256(b"r").digest(), 2, book=True, authority=True)
        table.node_join(node)
        restored = table_from_config(table_to_config(table))
        again = restored.find_node(node.node_id)
        assert again is not None and again.book and again.authority

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
        ],
        ids=["word", "fraction", "short-hex", "odd-length", "not-hex"],
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
            counts[shard_of(rng.randbytes(20), num_shards).index] += 1
        mean = total / num_shards
        slack = 5 / (total / num_shards) ** 0.5
        assert max(counts) / mean <= 1 + slack
        assert min(counts) / mean >= 1 - slack
