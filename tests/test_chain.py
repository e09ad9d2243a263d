"""Chain tests built around a plain dict ledger as the behavioural oracle."""

from __future__ import annotations

import dataclasses
import pickle
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sschain import chain as chainmod
from sschain.chain import (
    _AMOUNT_RE,
    _amount,
    _encode_tx,
    HEAD_KEY,
    AmountError,
    BadHeightError,
    Block,
    BlockHeader,
    Chain,
    ChainError,
    Transaction,
    UnknownParentError,
    default_producer,
    tenths_from_text,
    text_from_tenths,
    tx_root,
)
from sschain.encoding import hash256, int_to_bytes, rlp_decode, rlp_encode
from sschain.errors import CorruptError, NotFoundError, SSChainError
from sschain.merkle_dag import AccountState
from sschain.mpt import EMPTY_ROOT, RootNotFoundError, Trie
from sschain.shard_dht import MAX_SHARDS, ShardTable, pipeline_key, shard_of
from sschain.store import FileKvStore, KvStore, MemoryKvStore, open_database

from test_merkle_dag import version_trail


class PutLog(MemoryKvStore):
    """A memory store that also keeps every value put into it, one at a
    time or in a batch."""

    def __init__(self) -> None:
        super().__init__()
        self.puts: set[bytes] = set()

    def put(self, value: bytes) -> bytes:
        self.puts.add(value)
        return super().put(value)

    def put_many(self, values: list[bytes]) -> list[bytes]:
        self.puts.update(values)
        return super().put_many(values)


def addr(i: int) -> bytes:
    return hash256(f"addr-{i}".encode())[:20]


def fund(table: ShardTable, balances: dict[bytes, str]) -> None:
    producer = default_producer(table.num_shards)
    for address, amount in balances.items():
        table.shard_update(producer, address, AccountState("0", amount))


Ledger = dict[bytes, tuple[int, int]]  # address -> (seq, balance in tenths)


def oracle_apply(
    ledger: Ledger, txs: list[Transaction]
) -> tuple[list[Transaction], list[tuple[Transaction, str]]]:
    """Reference semantics against a plain dict; mutates ``ledger``."""
    accepted: list[Transaction] = []
    rejected: list[tuple[Transaction, str]] = []
    for tx in txs:
        entry = ledger.get(tx.sender)
        if entry is None:
            rejected.append((tx, "unknown-sender"))
            continue
        seq, balance = entry
        amount = tenths_from_text(tx.amount)
        if tx.seq != seq:
            rejected.append((tx, "bad-seq"))
            continue
        if balance < amount:
            rejected.append((tx, "insufficient-balance"))
            continue
        ledger[tx.sender] = (seq + 1, balance - amount)
        r_seq, r_balance = ledger.get(tx.receiver, (0, 0))
        ledger[tx.receiver] = (r_seq, r_balance + amount)
        accepted.append(tx)
    return accepted, rejected


def assert_matches_ledger(chain: Chain, ledger: Ledger) -> None:
    for address, (seq, balance) in ledger.items():
        state = chain.query_account(address)
        assert (int(state.seq_number), tenths_from_text(state.balance)) == (seq, balance)


class TestAmountText:
    @pytest.mark.parametrize(
        "text,tenths",
        [("0", 0), ("0.0", 0), ("13.0", 130), ("13", 130), ("0.5", 5), ("999.9", 9999)],
    )
    def test_parse(self, text: str, tenths: int) -> None:
        assert tenths_from_text(text) == tenths

    @pytest.mark.parametrize(
        "bad", ["", "-1", "1.", ".5", "1.25", "1,5", "NaN", "1e3", "٣.٥", "５", "5\n"]
    )
    def test_parse_rejects(self, bad: str) -> None:
        with pytest.raises(AmountError):
            tenths_from_text(bad)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip(self, tenths: int) -> None:
        assert tenths_from_text(text_from_tenths(tenths)) == tenths

    def test_render_has_one_fractional_digit(self) -> None:
        assert text_from_tenths(130) == "13.0"
        assert text_from_tenths(0) == "0.0"
        assert text_from_tenths(7) == "0.7"

    def test_negative_render_rejected(self) -> None:
        with pytest.raises(AmountError):
            text_from_tenths(-1)


class TestTransaction:
    def test_rlp_round_trip(self) -> None:
        tx = Transaction(addr(1), addr(2), "4.2", 7)
        decoded = Transaction.from_rlp_item(tx.to_rlp_item())
        assert decoded == tx
        assert decoded.tenths == 42

    def test_amount_parsed_once_into_tenths(self) -> None:
        tx = Transaction(addr(1), addr(2), "13", 0)
        assert tx.tenths == 130
        assert "tenths" not in repr(tx)
        with pytest.raises(AttributeError):
            tx.tenths = 1  # type: ignore[misc]

    def test_equality_and_hash_ignore_tenths(self) -> None:
        """``"13"`` and ``"13.0"`` parse to the same tenths but are
        different transactions; equal transactions hash alike."""
        whole, decimal = (Transaction(addr(1), addr(2), text, 0) for text in ("13", "13.0"))
        assert whole.tenths == decimal.tenths
        assert whole != decimal
        twin = Transaction(addr(1), addr(2), "13", 0)
        object.__setattr__(twin, "tenths", 0)
        assert twin == whole and hash(twin) == hash(whole)

    def test_pickle_keeps_tenths(self) -> None:
        """The process pool ships transactions to its workers by pickle."""
        tx = Transaction(addr(1), addr(2), "4.2", 7)
        copy = pickle.loads(pickle.dumps(tx))
        assert copy == tx and hash(copy) == hash(tx)
        assert copy.tenths == 42

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol: int) -> None:
        """``__init__`` fills the slots through their descriptors, and
        unpickling fills them without it, under every protocol."""
        tx = Transaction(addr(1), addr(2), "4.2", 7)
        copy = pickle.loads(pickle.dumps(tx, protocol))
        assert copy == tx and hash(copy) == hash(tx)
        assert copy.tenths == 42 and repr(copy) == repr(tx)

    @pytest.mark.parametrize("name", ["sender", "receiver", "amount", "seq"])
    def test_fields_are_frozen(self, name: str) -> None:
        tx = Transaction(addr(1), addr(2), "4.2", 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tx, name, getattr(tx, name))

    def test_replace_checks_again(self) -> None:
        tx = Transaction(addr(1), addr(2), "4.2", 7)
        with pytest.raises(ChainError):
            dataclasses.replace(tx, seq=-1)
        with pytest.raises(ChainError):
            dataclasses.replace(tx, receiver=addr(1))
        moved = dataclasses.replace(tx, amount="13")
        assert moved == Transaction(addr(1), addr(2), "13", 7) and moved.tenths == 130

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sender=b"short", receiver=addr(2), amount="1.0", seq=0),
            dict(sender=addr(1), receiver=addr(1), amount="1.0", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="1.00", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="1.0", seq=-1),
            dict(sender=addr(1), receiver=addr(2), amount="٣.٥", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="５", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="5\n", seq=0),
        ],
    )
    def test_invalid_rejected(self, kwargs: dict) -> None:
        """Every time: the amount memo keeps no failed parse."""
        for _ in range(2):
            with pytest.raises(ChainError):
                Transaction(**kwargs)

    def test_amount_memo_past_its_bound(self) -> None:
        """More distinct amount texts than the memo holds, then the first
        again: each transaction's tenths and wire bytes are its own
        text's, and texts of equal tenths stay apart."""
        bound = _amount.cache_info().maxsize
        texts = [text for n in range(bound) for text in (str(n), text_from_tenths(n))]
        for seq, text in enumerate([*texts, texts[0]]):
            tx = Transaction(addr(1), addr(2), text, seq)
            assert tx.tenths == tenths_from_text(text)
            assert _encode_tx(tx) == rlp_encode(tx.to_rlp_item())
        assert _amount.cache_info().currsize == bound


class TestTxRoot:
    def test_empty_body_root(self) -> None:
        assert tx_root(()) == EMPTY_ROOT

    def test_order_sensitive(self) -> None:
        t1 = Transaction(addr(1), addr(2), "1.0", 0)
        t2 = Transaction(addr(3), addr(4), "2.0", 0)
        assert tx_root([t1, t2]) != tx_root([t2, t1])

    @staticmethod
    def _insert_path(txs: list[Transaction]) -> tuple[bytes, set[bytes]]:
        """Root and entries of the body inserted key by key into a
        persistent trie: the reference the bottom-up build must match."""
        store = PutLog()
        trie = Trie(store)
        for index, tx in enumerate(txs):
            trie = trie.insert(rlp_encode(int_to_bytes(index)), rlp_encode(tx.to_rlp_item()))
        return trie.commit(), store.puts

    @staticmethod
    def _built(txs: list[Transaction]) -> tuple[bytes, set[bytes]]:
        store = PutLog()
        return tx_root(txs, store), store.puts

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(7, 12),
                st.from_regex(_AMOUNT_RE, fullmatch=True),
                st.one_of(st.integers(0, 300), st.integers(0, 2**64)),
            ),
            max_size=140,
        )
    )
    def test_matches_the_insert_path(self, fields) -> None:
        """Amounts range over all text ``tenths_from_text`` accepts: one
        byte or many, past 55 bytes."""
        txs = [Transaction(addr(s), addr(r), a, q) for s, r, a, q in fields]
        assert self._built(txs) == self._insert_path(txs)

    @pytest.mark.parametrize(
        "amount, long_list",
        [("5", False), ("13", False), ("1234567890.5", True), ("9" * 60, True)],
        ids=["one-byte-amount", "two-byte-amount", "long-payload", "long-amount"],
    )
    def test_direct_framing(self, amount: str, long_list: bool) -> None:
        """Each transaction is stored as ``rlp_encode(tx.to_rlp_item())``:
        a one-byte amount encodes as itself, a longer amount pushes the
        list payload past 55 bytes, one past 55 bytes takes the long string
        form, and the seqs cross every integer form."""
        seqs = (0, 127, 128, 255, 256, 2**32)
        txs = [Transaction(addr(1), addr(2), amount, seq) for seq in seqs]
        encoded = [rlp_encode(tx.to_rlp_item()) for tx in txs]
        assert all((raw[0] >= 0xF8) == long_list for raw in encoded)
        assert [_encode_tx(tx) for tx in txs] == encoded
        assert self._built(txs) == self._insert_path(txs)
        store = MemoryKvStore()
        body = Trie(store, tx_root(txs, store))
        for index, tx in enumerate(txs):
            assert body.get(rlp_encode(int_to_bytes(index))) == rlp_encode(tx.to_rlp_item())

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 255, 256, 257])
    def test_rlp_key_boundaries(self, count: int) -> None:
        """Index 0's key ``0x80`` sorts after indexes 1-127; 128 and 256
        start the two- and three-byte keys."""
        txs = [Transaction(addr(1), addr(2), "0.5", seq) for seq in range(count)]
        assert self._built(txs) == self._insert_path(txs)

    def test_frozen_vector(self) -> None:
        """Regression anchor over the already-verified trie and list codecs."""
        txs = [
            Transaction(bytes([i]) * 20, bytes([i + 1]) * 20, f"{i}.5", i)
            for i in range(4)
        ]
        assert tx_root(txs).hex() == (
            "e4cb2c006de52d251aac0142ff12b7b21bb705ee6269384d7855ad99e2397286"
        )


class TestHeaderAndBlock:
    def test_header_digest_matches_manual_serialization(self) -> None:
        # independent serializer: the same two-branch list codec used
        # throughout the byte-level tests
        def rlp(item):
            if isinstance(item, bytes):
                if len(item) == 1 and item[0] <= 0x7F:
                    return item
                return _prefix(0x80, item)
            payload = b"".join(rlp(child) for child in item)
            return _prefix(0xC0, payload)

        def _prefix(base, payload):
            if len(payload) <= 55:
                return bytes([base + len(payload)]) + payload
            size = len(payload).to_bytes((len(payload).bit_length() + 7) // 8, "big")
            return bytes([base + 55 + len(size)]) + size + payload

        header = BlockHeader(hash256(b"parent"), 3, 44, hash256(b"s"), hash256(b"t"))
        expected = hash256(
            rlp([hash256(b"parent"), b"\x03", b"\x2c", hash256(b"s"), hash256(b"t")])
        )
        assert header.digest() == expected


def block_bytes(block: Block) -> bytes:
    """A block as RLP ``[header, [tx, ...]]``: the bytes mutation tests flip."""
    return rlp_encode([block.header.to_rlp_item(), [tx.to_rlp_item() for tx in block.txs]])


def block_from_bytes(raw: bytes) -> Block:
    """Inverse of :func:`block_bytes`; any other shape raises SSChainError."""
    item = rlp_decode(raw)
    if not (isinstance(item, list) and len(item) == 2 and isinstance(item[1], list)):
        raise CorruptError("block must be a [header, body] list")
    header, body = item
    return Block(
        BlockHeader.from_rlp_item(header), tuple(Transaction.from_rlp_item(tx) for tx in body)
    )


def counting(monkeypatch, owner: type, name: str) -> list:
    """Patch method ``name`` of ``owner`` to record each instance it runs on."""
    calls: list = []
    real = getattr(owner, name)

    def wrapper(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def build_chain(balances: dict[bytes, str], num_shards: int = 4) -> Chain:
    table = ShardTable(num_shards)
    fund(table, balances)
    return Chain(table)


class TestApplyBlock:
    def test_simple_transfer(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        block = chain.apply_block([Transaction(addr(1), addr(2), "3.5", 0)])
        assert block.header.number == 1
        assert chain.query_account(addr(1)).balance == "6.5"
        assert chain.query_account(addr(2)).balance == "3.5"
        assert chain.query_account(addr(1)).seq_number == "1"
        assert chain.query_account(addr(2)).seq_number == "0"
        assert chain.last_rejected == ()

    def test_receiver_created_then_spends(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        chain.apply_block([Transaction(addr(1), addr(2), "4.0", 0)])
        chain.apply_block([Transaction(addr(2), addr(3), "1.0", 0)])
        assert chain.query_account(addr(2)).balance == "3.0"
        assert chain.query_account(addr(3)).balance == "1.0"

    def test_root_tracks_state_changes(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        parent_root = chain.head.header.state_root
        empty = chain.apply_block([])
        assert empty.header.state_root == parent_root
        spent = chain.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        assert spent.header.state_root != parent_root

    @pytest.mark.parametrize(
        "tx,reason",
        [
            (lambda: Transaction(addr(9), addr(2), "1.0", 0), "unknown-sender"),
            (lambda: Transaction(addr(1), addr(2), "1.0", 5), "bad-seq"),
            (lambda: Transaction(addr(1), addr(2), "99.0", 0), "insufficient-balance"),
        ],
    )
    def test_rejection_reasons(self, tx, reason: str) -> None:
        chain = build_chain({addr(1): "10.0"})
        block = chain.apply_block([tx()])
        assert block.txs == ()
        assert [r.reason for r in chain.last_rejected] == [reason]

    def test_rejected_tx_leaves_no_trace(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        root_before = chain.head.header.state_root
        chain.apply_block([Transaction(addr(1), addr(2), "99.0", 0)])
        assert chain.head.header.state_root == root_before
        with pytest.raises(NotFoundError):
            chain.query_account(addr(2))

    def test_seq_advances_within_block(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        block = chain.apply_block(
            [
                Transaction(addr(1), addr(2), "1.0", 0),
                Transaction(addr(1), addr(2), "1.0", 1),
                Transaction(addr(1), addr(2), "1.0", 0),  # stale seq
            ]
        )
        assert len(block.txs) == 2
        assert [r.reason for r in chain.last_rejected] == ["bad-seq"]
        assert chain.query_account(addr(2)).balance == "2.0"

    def test_transfer_reads_each_account_once(self, monkeypatch) -> None:
        """Writes take the previous version Cid from the executor's own read."""
        chain = build_chain({addr(1): "10.0", addr(2): "5.0"})
        keys: list[bytes] = []
        original = Trie.get

        def counting_get(trie: Trie, key: bytes) -> bytes:
            keys.append(key)
            return original(trie, key)

        monkeypatch.setattr(Trie, "get", counting_get)
        chain.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        assert keys == [addr(1), addr(2)]

    def test_block_registers_only_new_accounts(self, monkeypatch) -> None:
        """A block writes one named entry, the lookup key of the account it
        creates; accounts it touches many times gain one version each, read
        from the head trie."""
        chain = build_chain({addr(1): "10.0"})
        keys: list[bytes] = []
        original = KvStore.put_named

        def counting_put_named(store: KvStore, key: bytes, value: bytes) -> None:
            keys.append(key)
            original(store, key, value)

        monkeypatch.setattr(KvStore, "put_named", counting_put_named)
        chain.apply_block([Transaction(addr(1), addr(2), "0.5", seq) for seq in range(6)])
        assert keys == [pipeline_key(addr(2))]
        head = Trie(chain.table.trie_store, chain.head.header.state_root)
        for address, versions in ((addr(1), 2), (addr(2), 1)):
            pointer = chain.table.pointer(address)
            assert pointer == head.get(address)
            assert len(version_trail(chain.table.store_for(address), pointer)) == versions

    def test_block_writes_each_touched_account_once(self) -> None:
        """An account that sends three times and receives once in a block
        gains one version, chained to the one the block started from, and
        the block validates."""
        chain = build_chain({addr(1): "10.0", addr(3): "5.0"})
        store = chain.table.store_for(addr(1))
        before = version_trail(store, chain.table.pointer(addr(1)))
        block = chain.apply_block(
            [
                Transaction(addr(1), addr(2), "1.0", 0),
                Transaction(addr(3), addr(1), "2.5", 0),
                Transaction(addr(1), addr(2), "1.0", 1),
                Transaction(addr(1), addr(3), "0.5", 2),
            ]
        )
        assert len(block.txs) == 4
        assert chain.validate_block(block)
        after = version_trail(store, chain.table.pointer(addr(1)))
        assert after[1:] == before
        state = chain.query_account(addr(1))
        assert (state.seq_number, state.balance) == ("3", "10.0")

    def test_timestamps_are_a_logical_clock(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        blocks = [chain.apply_block([]) for _ in range(3)]
        assert [b.header.timestamp for b in blocks] == [1, 2, 3]

    def test_parent_links(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        b1 = chain.apply_block([])
        b2 = chain.apply_block([])
        assert b1.header.parent_hash == chain.blocks[0].header.digest()
        assert b2.header.parent_hash == b1.header.digest()

    def test_foreign_receiver_queued_not_credited(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        chain.apply_block(
            [Transaction(addr(1), addr(2), "2.5", 0)], is_local=lambda a: a != addr(2)
        )
        assert chain.last_credits_out == ((addr(2), 25),)
        assert chain.query_account(addr(1)).balance == "7.5"
        with pytest.raises(NotFoundError):
            chain.query_account(addr(2))

    def test_incoming_credit_applied(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        chain.apply_block([], credits=[(addr(2), 25)])
        state = chain.query_account(addr(2))
        assert (state.seq_number, state.balance) == ("0", "2.5")

    def test_credit_handoff_conserves_total(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        chain.apply_block(
            [Transaction(addr(1), addr(2), "2.5", 0)], is_local=lambda a: a != addr(2)
        )
        chain.apply_block([], credits=chain.last_credits_out)
        total = sum(
            tenths_from_text(chain.query_account(a).balance) for a in (addr(1), addr(2))
        )
        assert total == 100


class TestLedgerOracle:
    def _workload(self, rng: random.Random, ledger: Ledger, count: int) -> list[Transaction]:
        known = list(ledger)
        txs = []
        shadow = dict(ledger)  # track seqs so most txs are valid
        for _ in range(count):
            roll = rng.random()
            sender = rng.choice(known)
            receiver = rng.choice([a for a in known if a != sender])
            seq, balance = shadow[sender]
            if roll < 0.1:
                txs.append(Transaction(addr(999), receiver, "1.0", 0))
                continue
            if roll < 0.2:
                txs.append(Transaction(sender, receiver, "1.0", seq + 3))
                continue
            if roll < 0.3:
                txs.append(
                    Transaction(sender, receiver, text_from_tenths(balance + 10), seq)
                )
                continue
            amount = rng.randint(1, max(balance // 4, 1))
            if amount > balance:
                continue
            txs.append(Transaction(sender, receiver, text_from_tenths(amount), seq))
            shadow[sender] = (seq + 1, balance - amount)
            r_seq, r_balance = shadow[receiver]
            shadow[receiver] = (r_seq, r_balance + amount)
        return txs

    def test_mixed_workload_matches_oracle(self) -> None:
        rng = random.Random(2024)
        balances = {addr(i): f"{50 + 10 * i}.0" for i in range(8)}
        chain = build_chain(balances)
        ledger: Ledger = {a: (0, tenths_from_text(b)) for a, b in balances.items()}
        initial_total = sum(bal for _, bal in ledger.values())
        snapshots: list[tuple[bytes, Ledger]] = [
            (chain.head.header.state_root, dict(ledger))
        ]

        for _ in range(6):
            txs = self._workload(rng, ledger, 12)
            accepted, rejected = oracle_apply(ledger, txs)
            block = chain.apply_block(txs)
            assert list(block.txs) == accepted
            assert [(r.tx, r.reason) for r in chain.last_rejected] == rejected
            assert_matches_ledger(chain, ledger)
            assert sum(bal for _, bal in ledger.values()) == initial_total
            snapshots.append((chain.head.header.state_root, dict(ledger)))

        # every historical root still answers queries with its own snapshot
        for root, snapshot in snapshots:
            for address, (seq, balance) in snapshot.items():
                state = chain.query_account(address, at_root=root)
                assert (int(state.seq_number), tenths_from_text(state.balance)) == (
                    seq,
                    balance,
                )

    def test_unknown_root_rejected(self) -> None:
        chain = build_chain({addr(1): "10.0"})
        with pytest.raises(RootNotFoundError):
            chain.query_account(addr(1), at_root=hash256(b"never-committed"))

    @pytest.mark.parametrize("root_given", [False, True])
    def test_failed_query_writes_nothing(self, root_given: bool) -> None:
        """A query of an absent account names the root it read, the head's
        when none is given, and leaves the table's uncommitted writes
        uncommitted."""

        def pending_chain() -> Chain:
            chain = build_chain({addr(1): "10.0"})
            fund(chain.table, {addr(3): "4.0"})
            return chain

        chain = pending_chain()
        root = chain.head.header.state_root
        store = chain.table.trie_store
        before = len(store)
        with pytest.raises(NotFoundError) as caught:
            chain.query_account(addr(9), at_root=root if root_given else None)
        assert len(store) == before
        assert str(caught.value).endswith(f"not at root {root.hex()}")
        txs = [Transaction(addr(1), addr(2), "1.0", 0)]
        unqueried = pending_chain().apply_block(txs)
        assert chain.apply_block(txs).header == unqueried.header


def assert_lookups_read_head(table: ShardTable, present: list[bytes], absent: list[bytes]) -> None:
    """``pointer`` agrees with the head trie, and each present account's
    lookup key is in its shard's registry."""
    for address in present:
        assert table.pointer(address) == table.trie.get(address)
        assert pipeline_key(address) in table.store_for(address).named_keys()
    for address in absent:
        assert table.pointer(address) is None


class TestRollback:
    def _three_blocks(self, table: Optional[ShardTable] = None) -> tuple[Chain, list[bytes]]:
        table = ShardTable(4) if table is None else table
        fund(table, {addr(1): "10.0"})
        chain = Chain(table)
        roots = [chain.head.header.state_root]
        for i in range(3):
            chain.apply_block([Transaction(addr(1), addr(2), "1.0", i)])
            roots.append(chain.head.header.state_root)
        return chain, roots

    def test_head_moves_and_state_follows(self) -> None:
        chain, roots = self._three_blocks()
        chain.rollback(1)
        assert chain.head_height == 1
        assert chain.head.header.state_root == roots[1]
        assert chain.query_account(addr(1)).balance == "9.0"
        assert chain.query_account(addr(2)).balance == "1.0"

    def test_rollback_to_genesis(self) -> None:
        chain, roots = self._three_blocks()
        chain.rollback(0)
        assert chain.head.header.state_root == roots[0]
        with pytest.raises(NotFoundError):
            chain.query_account(addr(2))

    def test_blocks_are_the_head_ancestry(self) -> None:
        chain, _ = self._three_blocks()
        replaced = chain.blocks[3]
        chain.rollback(1)
        assert [b.header.number for b in chain.blocks] == [0, 1]
        chain.apply_block([Transaction(addr(1), addr(3), "2.0", 1)])
        assert [b.header.number for b in chain.blocks] == [0, 1, 2]
        assert replaced not in chain.blocks
        assert chain.head_height == 2
        assert chain.query_account(addr(3)).balance == "2.0"

    @pytest.mark.parametrize("height", [-1, 4, 100])
    def test_bad_heights(self, height: int) -> None:
        chain, _ = self._three_blocks()
        with pytest.raises(BadHeightError):
            chain.rollback(height)

    def test_old_branch_blocks_remain_valid(self) -> None:
        chain, _ = self._three_blocks()
        old = chain.blocks[3]
        chain.rollback(1)
        assert chain.validate_block(old)

    def test_lookups_follow_rollback(self) -> None:
        chain, _ = self._three_blocks()
        chain.rollback(1)
        assert_lookups_read_head(chain.table, [addr(1), addr(2)], [])
        chain.rollback(0)
        assert_lookups_read_head(chain.table, [addr(1)], [addr(2)])

    def test_lookups_follow_load(self, db) -> None:
        chain, _ = file_chain(db)
        chain.rollback(0)
        chain.export()
        table = file_table(db)
        Chain.load(table)
        assert_lookups_read_head(table, [addr(1)], [addr(2)])


class TestValidateBlock:
    def test_replay_wraps_only_the_shards_its_block_touches(self, monkeypatch) -> None:
        """On a table of the most shards, with six funded accounts in six
        shards, a block between two of them is replayed through overlays
        of those two shards' stores and the trie store, and no other
        store is made."""
        chain = build_chain({addr(i): "10.0" for i in range(1, 7)}, MAX_SHARDS)
        table = chain.table
        block = chain.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        funded = {shard_of(addr(i), MAX_SHARDS) for i in range(1, 7)}
        touched = [shard_of(addr(i), MAX_SHARDS) for i in (1, 2)]
        assert len(funded) == 6 and sorted(table.stores) == sorted(funded)
        bases: list[KvStore] = []
        overlay = chainmod._Overlay

        class Recording(overlay):
            def __init__(self, base: KvStore) -> None:
                bases.append(base)
                super().__init__(base)

        monkeypatch.setattr(chainmod, "_Overlay", Recording)
        assert chain.validate_block(block)
        assert sorted(map(id, bases)) == sorted(
            map(id, [table.trie_store] + [table.stores[index] for index in touched])
        )
        assert sorted(table.stores) == sorted(funded)

    def test_every_produced_block_validates(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        for block in chain.blocks[1:]:
            assert chain.validate_block(block)

    def test_tampered_state_root_fails(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        good = chain.blocks[2]
        bad_root = bytes([good.header.state_root[0] ^ 1]) + good.header.state_root[1:]
        forged = Block(
            BlockHeader(
                good.header.parent_hash,
                good.header.number,
                good.header.timestamp,
                bad_root,
                good.header.tx_root,
            ),
            good.txs,
        )
        assert not chain.validate_block(forged)

    def test_tampered_body_fails(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        good = chain.blocks[2]
        altered = Transaction(good.txs[0].sender, good.txs[0].receiver, "9.9", good.txs[0].seq)
        forged = Block(good.header, (altered,))
        assert not chain.validate_block(forged)

    def test_unknown_parent(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        header = BlockHeader(hash256(b"other chain"), 9, 9, hash256(b"s"), tx_root(()))
        with pytest.raises(UnknownParentError):
            chain.validate_block(Block(header, ()))

    def test_parent_lookup_does_not_hash_history(self, monkeypatch) -> None:
        chain = build_chain({addr(1): "10.0"})
        for _ in range(300):
            chain.apply_block([])
        hashed = counting(monkeypatch, BlockHeader, "digest")
        assert chain.validate_block(chain.blocks[-1])
        assert len(hashed) <= 2

    def test_replaced_branch_still_validates(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        old = chain.blocks[3]
        chain.rollback(1)
        chain.apply_block([Transaction(addr(1), addr(3), "2.0", 1)])
        assert chain.validate_block(old)
        assert chain.validate_block(chain.blocks[2])

    def test_single_byte_mutations_rejected(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        raw = block_bytes(chain.blocks[2])
        rejections = 0
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            try:
                block = block_from_bytes(bytes(mutated))
            except SSChainError:
                rejections += 1
                continue
            try:
                ok = chain.validate_block(block)
            except SSChainError:
                rejections += 1
                continue
            if not ok:
                rejections += 1
        assert rejections == len(raw)

    @pytest.mark.parametrize(
        "extra,reason",
        [
            (lambda: Transaction(addr(9), addr(2), "1.0", 0), "unknown-sender"),
            (lambda: Transaction(addr(1), addr(2), "1.0", 99), "bad-seq"),
            (lambda: Transaction(addr(1), addr(2), "20.1", 1), "insufficient-balance"),
        ],
    )
    def test_body_with_rejectable_tx_fails(self, extra, reason: str) -> None:
        """An honest block plus one tx a producer would reject must not validate."""
        chain = build_chain({addr(1): "10.0", addr(3): "10.0"})
        honest = chain.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        assert chain.validate_block(honest)
        body = honest.txs + (extra(),)
        header = honest.header
        forged = Block(
            BlockHeader(
                header.parent_hash,
                header.number,
                header.timestamp,
                header.state_root,
                tx_root(body),
            ),
            body,
        )
        assert chain.validate_block(forged) is False
        chain.rollback(0)
        chain.apply_block(body)
        assert [r.reason for r in chain.last_rejected] == [reason]
        assert chain.head.header.state_root == header.state_root

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_rejected_replay_registers_nothing(self, backend: str, request) -> None:
        """A forged child of genesis that pays a new account and carries a
        wrong state root fails, and no shard registry gains the account's
        lookup key; applying the body registers it."""
        table = ShardTable(4) if backend == "memory" else file_table(request.getfixturevalue("db"))
        chain, _ = TestRollback()._three_blocks(table)
        genesis = chain.blocks[0].header
        body = (Transaction(addr(1), addr(9), "1.0", 0),)
        header = BlockHeader(genesis.digest(), 1, 1, hash256(b"wrong root"), tx_root(body))

        def registries() -> list[list[bytes]]:
            return [table.store(i).named_keys() for i in range(table.num_shards)]

        before = registries()
        assert sum(map(len, before)) == 2
        assert not chain.validate_block(Block(header, body))
        assert registries() == before
        chain.rollback(0)
        chain.apply_block(body)
        assert pipeline_key(addr(9)) in table.store_for(addr(9)).named_keys()
        assert sum(map(len, registries())) == 3

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("case", ["wrong-root", "rejected-tx", "accepted"])
    def test_validation_writes_nothing(self, backend: str, case: str, request) -> None:
        """A block made by another chain from the same genesis, which pays
        a new account: refused for a wrong state root, refused with a
        rejectable transaction added, or accepted, the replay leaves the
        trie store and every shard store with the entries they had."""
        balances = {addr(1): "10.0", addr(3): "10.0"}
        producer = build_chain(balances)
        block = producer.apply_block(
            [Transaction(addr(1), addr(2), "1.0", 0), Transaction(addr(3), addr(1), "2.0", 0)]
        )
        header, body = block.header, block.txs
        if case == "wrong-root":
            header = dataclasses.replace(header, state_root=hash256(b"wrong root"))
        elif case == "rejected-tx":
            body += (Transaction(addr(1), addr(2), "1.0", 99),)
            header = dataclasses.replace(header, tx_root=tx_root(body))
        table = ShardTable(4) if backend == "memory" else file_table(request.getfixturevalue("db"))
        fund(table, balances)
        chain = Chain(table)

        def sizes() -> list[int]:
            stores = [table.store(i) for i in range(table.num_shards)]
            return [len(table.trie_store)] + [len(store) for store in stores]

        before = sizes()
        assert chain.validate_block(Block(header, body)) is (case == "accepted")
        assert sizes() == before

    def test_validation_leaves_live_state_alone(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        table = chain.table

        def live() -> tuple:
            keys = [table.store(i).named_keys() for i in range(table.num_shards)]
            return table.pointer(addr(1)), table.state_root, keys

        before = live()
        assert chain.validate_block(chain.blocks[1])
        assert live() == before


@pytest.fixture()
def db(tmp_path):
    connection = open_database(tmp_path / "chain.db")
    yield connection
    connection.close()


def file_table(db) -> ShardTable:
    """A four-shard table whose stores are spaces of ``db``."""
    return ShardTable(
        4, lambda index: FileKvStore(db, f"shards/{index}"), FileKvStore(db, "trie")
    )


def file_chain(db) -> tuple[Chain, list[bytes]]:
    return TestRollback()._three_blocks(file_table(db))


def set_entry(db, key: bytes, value: object) -> None:
    db.execute("UPDATE kv SET value = ? WHERE space = 'trie' AND key = ?", (value, key))


def recorded_writes(monkeypatch, store: FileKvStore) -> list[tuple[bytes, bool]]:
    """Record (key, named) for each write to ``store`` from now on."""
    writes: list[tuple[bytes, bool]] = []
    real = store._write

    def write(key: bytes, value: bytes, named: bool) -> None:
        writes.append((key, named))
        real(key, value, named)

    monkeypatch.setattr(store, "_write", write)
    return writes


class TestBlockReads:
    def test_a_block_reads_each_trie_node_once(self, db, monkeypatch) -> None:
        """A block on a file store reads each stored trie node at most once:
        its account reads and its write-back share one node memo, which
        starts as the nodes the previous commit wrote. The second block
        touches only accounts the first wrote, so it reads no trie node;
        before the memo outlived the commit it made 90 store reads, 30 of
        them trie nodes, and now makes 60. The third touches accounts the
        second did not write, so it reads 19 trie nodes (26 before)."""
        table = file_table(db)
        fund(table, {addr(i): "100.0" for i in range(40)})
        chain = Chain(table)
        chain.apply_block([Transaction(addr(i), addr(i + 1), "1.0", 0) for i in range(0, 40, 2)])
        reads: list[tuple[str, bytes]] = []
        real_read = FileKvStore._read

        def read(store: FileKvStore, key: bytes):
            reads.append((store.space, key))
            return real_read(store, key)

        monkeypatch.setattr(FileKvStore, "_read", read)
        block = chain.apply_block(
            [Transaction(addr(i), addr(i + 3), "2.0", 1) for i in range(0, 20, 2)]
        )
        assert block.header.state_root.hex() == (
            "09e73a06c8651f857cb228411c9e7ba936974810af4b82b2dbe6e63461d3be3f"
        )
        assert [key for space, key in reads if space == "trie"] == []
        assert len(reads) == 60
        reads.clear()
        block = chain.apply_block(
            [Transaction(addr(i), addr(i + 1), "3.0", 1) for i in range(24, 40, 2)]
        )
        assert block.header.state_root.hex() == (
            "2e9adac798e2d9e9365247869bc081222dd800fc0b82629c705541a74efaa534"
        )
        trie_reads = [key for space, key in reads if space == "trie"]
        assert len(trie_reads) == len(set(trie_reads)) == 19
        assert len(reads) == 67


class TestExportLoad:
    def test_round_trip(self, db) -> None:
        chain, _ = file_chain(db)
        chain.export()
        loaded = Chain.load(file_table(db))
        assert loaded.head_height == chain.head_height
        assert loaded.blocks == chain.blocks
        assert loaded.query_account(addr(2)).balance == "3.0"

    def test_rolled_back_head_survives(self, db) -> None:
        chain, roots = file_chain(db)
        chain.rollback(1)
        chain.export()
        loaded = Chain.load(file_table(db))
        assert loaded.head_height == 1
        assert loaded.head.header.state_root == roots[1]
        assert len(loaded.blocks) == 2

    def test_missing_head_file(self, db) -> None:
        with pytest.raises(NotFoundError):
            Chain.load(file_table(db))
        chain = Chain(file_table(db))
        with pytest.raises(NotFoundError):
            Chain.load(chain.table)

    def test_height_gap_detected(self, db) -> None:
        chain, _ = file_chain(db)
        chain.export()
        db.execute("DELETE FROM kv WHERE key = ?", (chain.blocks[1].header.digest(),))
        loaded = Chain.load(file_table(db))
        assert loaded.rollback(2).head_height == 2
        with pytest.raises(CorruptError, match="parent of block 2"):
            loaded.rollback(0)
        assert loaded.head_height == 2
        with pytest.raises(CorruptError):
            loaded.blocks

    def test_broken_parent_link_detected(self, db) -> None:
        chain, roots = file_chain(db)
        store = chain.table.trie_store
        genesis = chain.blocks[0].header
        stray = BlockHeader(genesis.digest(), 2, 2, roots[2], tx_root((), store))
        store.put(rlp_encode(stray.to_rlp_item()))
        store.put_named(HEAD_KEY, stray.digest())
        loaded = Chain.load(file_table(db))
        assert loaded.head_height == 2
        with pytest.raises(CorruptError, match="names block 0 as parent"):
            loaded.rollback(1)

    @pytest.mark.parametrize(
        "pointer",
        [
            lambda head, roots: b"",
            lambda head, roots: "zz",
            lambda head, roots: head[:-1],
            lambda head, roots: hash256(b"nothing is stored here"),
            lambda head, roots: roots[1],
        ],
        ids=["empty", "text", "short", "no-root", "root-of-another-block"],
    )
    def test_malformed_head_rejected(self, db, pointer) -> None:
        """The head pointer must be the digest of a stored header."""
        chain, roots = file_chain(db)
        chain.export()
        set_entry(db, HEAD_KEY, pointer(chain.head.header.digest(), roots))
        with pytest.raises(CorruptError):
            Chain.load(file_table(db))

    def test_undecodable_block_rejected(self, db) -> None:
        """A header rewritten in place fails the store's content hash."""
        chain, _ = file_chain(db)
        chain.export()
        header = chain.head.header
        forged = BlockHeader(
            header.parent_hash, header.number, 9, header.state_root, header.tx_root
        )
        set_entry(db, header.digest(), rlp_encode(forged.to_rlp_item()))
        with pytest.raises(CorruptError, match="content hash"):
            Chain.load(file_table(db))

    def test_export_after_load_writes_only_the_new_block(self, db, monkeypatch) -> None:
        chain, _ = file_chain(db)
        chain.export()
        loaded = Chain.load(file_table(db))
        writes = recorded_writes(monkeypatch, loaded.table.trie_store)
        block = loaded.apply_block([Transaction(addr(1), addr(2), "1.0", 3)])
        assert (block.header.digest(), False) in writes
        assert not {b.header.digest() for b in chain.blocks} & {key for key, _ in writes}
        writes.clear()
        loaded.export()
        assert writes == [(HEAD_KEY, True)]
        assert Chain.load(file_table(db)).head == block

    def test_rollback_export_writes_only_head(self, db, monkeypatch) -> None:
        chain, roots = file_chain(db)
        chain.export()
        loaded = Chain.load(file_table(db))
        writes = recorded_writes(monkeypatch, loaded.table.trie_store)
        loaded.rollback(1).export()
        assert writes == [(HEAD_KEY, True)]
        reloaded = Chain.load(file_table(db))
        assert reloaded.head.header.state_root == roots[1]

    def test_apply_after_rollback_drops_the_replaced_branch(self, db) -> None:
        chain, _ = file_chain(db)
        chain.export()
        loaded = Chain.load(file_table(db))
        replaced = loaded.head
        loaded.rollback(1).apply_block([Transaction(addr(1), addr(2), "1.0", 1)])
        loaded.export()
        reloaded = Chain.load(file_table(db))
        assert reloaded.head == loaded.head
        assert [b.header.number for b in reloaded.blocks] == [0, 1, 2]
        assert replaced not in reloaded.blocks
        assert reloaded.validate_block(replaced)

    def test_interrupted_export_keeps_previous_head(self, db, monkeypatch) -> None:
        chain, roots = file_chain(db)
        chain.rollback(1)
        chain.export()
        loaded = Chain.load(file_table(db))
        store = loaded.table.trie_store
        real_put_named = store.put_named

        def put_named(key: bytes, value: bytes) -> None:
            real_put_named(key, value)
            raise OSError("interrupted")

        db.execute("BEGIN")
        loaded.apply_block([Transaction(addr(1), addr(2), "1.0", 1)])
        with monkeypatch.context() as patch:
            patch.setattr(store, "put_named", put_named)
            with pytest.raises(OSError):
                loaded.export()
        db.rollback()
        reloaded = Chain.load(file_table(db))
        assert reloaded.head_height == 1
        assert len(reloaded.blocks) == 2
        assert reloaded.head.header.state_root == roots[1]

    def test_branch_and_reload_match_the_memory_replay(self, db) -> None:
        """Apply two blocks, roll back one, apply another, reload: every
        root is the one the same steps reach on memory stores, and a
        reloaded handle still verifies each node it reads, though the
        handle that committed a node keeps it."""

        def run(table: ShardTable) -> tuple[Chain, list[bytes]]:
            fund(table, {addr(i): "50.0" for i in range(12)})
            chain = Chain(table)
            roots = [chain.head.header.state_root]
            for txs in (
                [Transaction(addr(i), addr(i + 1), "1.0", 0) for i in range(0, 12, 2)],
                [Transaction(addr(i), addr(i + 20), "2.5", 1) for i in range(0, 12, 4)],
            ):
                roots.append(chain.apply_block(txs).header.state_root)
            chain.rollback(1)
            txs = [Transaction(addr(i), addr(i + 30), "3.0", 1) for i in range(0, 12, 4)]
            roots.append(chain.apply_block(txs).header.state_root)
            return chain, roots

        chain, roots = run(file_table(db))
        memory, memory_roots = run(ShardTable(4))
        assert roots == memory_roots and len(set(roots)) == 4
        chain.export()
        loaded = Chain.load(file_table(db))
        assert loaded.blocks == memory.blocks
        held = [addr(i) for i in (*range(12), 30, 34, 38)]
        for address in held:
            assert loaded.query_account(address) == memory.query_account(address)
        with pytest.raises(NotFoundError):
            loaded.query_account(addr(20))
        victim = next(iter(chain.table.trie._nodes))
        set_entry(db, victim, b"tampered")
        for address in held:
            assert chain.query_account(address) == memory.query_account(address)
        reloaded = Chain.load(file_table(db))
        with pytest.raises(CorruptError):
            for address in held:
                reloaded.query_account(address)

    def test_load_cost_does_not_grow_with_height(self, tmp_path, monkeypatch) -> None:
        """Loading reads the pointer, the head block and the head root: the
        same reads at height 3 and 150 for bodies of equal size, and no
        header but the head's is decoded."""

        def load_at(height: int) -> tuple[list[bytes], list]:
            db = open_database(tmp_path / f"{height}.db")
            table = file_table(db)
            senders = [addr(1), addr(3)]
            fund(table, {sender: "100.0" for sender in senders})
            chain = Chain(table)
            db.execute("BEGIN")
            for seq in range(height):
                chain.apply_block([Transaction(s, addr(2), "0.1", seq) for s in senders])
            chain.export()
            db.commit()
            reads: list[bytes] = []
            real_read = FileKvStore._read
            real_decode = BlockHeader.from_rlp_item
            decoded: list = []

            def read(store: FileKvStore, key: bytes):
                reads.append(key)
                return real_read(store, key)

            def decode(cls, item):
                decoded.append(item)
                return real_decode(item)

            with monkeypatch.context() as patch:
                patch.setattr(FileKvStore, "_read", read)
                patch.setattr(BlockHeader, "from_rlp_item", classmethod(decode))
                loaded = Chain.load(file_table(db))
            assert loaded.head == chain.head
            assert decoded == [chain.head.header.to_rlp_item()]
            db.close()
            return reads

        low, high = load_at(3), load_at(150)
        assert len(low) == len(high) <= 10
        assert low[0] == high[0] == HEAD_KEY

class TestGenesisAdoption:
    def test_prefunded_accounts_visible_at_genesis(self) -> None:
        table = ShardTable(2)
        fund(table, {addr(1): "5.0", addr(2): "6.0"})
        chain = Chain(table)
        assert chain.head.header.number == 0
        assert chain.genesis_root == table.state_root
        assert chain.query_account(addr(1)).balance == "5.0"

    def test_empty_genesis(self) -> None:
        chain = Chain(ShardTable(1))
        assert chain.head.header.state_root == EMPTY_ROOT
        assert chain.head.header.parent_hash == bytes(32)


class TestStateOwner:
    """The table's trie is the one current state; the chain only moves it."""

    def test_table_root_follows_apply_and_rollback(self) -> None:
        chain, roots = TestRollback()._three_blocks()
        assert chain.table.state_root == roots[3]
        chain.rollback(1)
        assert chain.table.state_root == roots[1]
        chain.rollback(0)
        assert chain.table.state_root == roots[0]

    def test_table_root_follows_load(self, db) -> None:
        chain, roots = file_chain(db)
        chain.rollback(2).export()
        table = file_table(db)
        assert Chain.load(table).head.header.state_root == roots[2]
        assert table.state_root == roots[2]

    def test_update_after_rollback_builds_on_the_rolled_back_state(self) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.rollback(0)
        shard_store = chain.table.store_for(addr(1))
        entries = len(shard_store)
        chain.table.shard_update(chain.producer, addr(1), AccountState("0", "10.0"))
        assert len(shard_store) == entries
        assert chain.table.state_root == roots[0]

    def test_update_between_blocks_lands_in_the_next_block(self) -> None:
        """Like funding before genesis, the write lands in the next root;
        the block's body does not explain it, so the block does not
        validate."""
        chain = build_chain({addr(1): "10.0"})
        chain.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        chain.table.shard_update(chain.producer, addr(3), AccountState("0", "7.0"))
        assert chain.query_account(addr(3)).balance == "7.0"
        block = chain.apply_block([Transaction(addr(3), addr(1), "2.0", 0)])
        assert chain.last_rejected == ()
        assert chain.query_account(addr(3)).balance == "5.0"
        funded_at_genesis = build_chain({addr(1): "10.0", addr(3): "7.0"})
        funded_at_genesis.apply_block([Transaction(addr(1), addr(2), "1.0", 0)])
        expected = funded_at_genesis.apply_block([Transaction(addr(3), addr(1), "2.0", 0)])
        assert block.header.state_root == expected.header.state_root
        assert not chain.validate_block(block)
        assert funded_at_genesis.validate_block(expected)

    def test_rollback_and_genesis_root_read_no_skipped_body(self, monkeypatch) -> None:
        chain, roots = TestRollback()._three_blocks()
        decoded: list = []
        real = Transaction.from_rlp_item

        def decode(cls, item):
            decoded.append(item)
            return real(item)

        monkeypatch.setattr(Transaction, "from_rlp_item", classmethod(decode))
        assert chain.genesis_root == roots[0]
        chain.rollback(1)
        assert len(decoded) == 1
        assert chain.head.txs == (Transaction(addr(1), addr(2), "1.0", 0),)
