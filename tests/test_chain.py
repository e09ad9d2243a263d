"""Chain tests built around a plain dict ledger as the behavioural oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sschain.chain import (
    AmountError,
    BadHeightError,
    Block,
    BlockHeader,
    Chain,
    ChainError,
    Transaction,
    UnknownParentError,
    default_producer,
    stored_head,
    tenths_from_text,
    text_from_tenths,
    tx_root,
)
from sschain.encoding import hash256
from sschain.errors import CorruptError, NotFoundError, SSChainError
from sschain.merkle_dag import AccountState
from sschain.mpt import EMPTY_ROOT, RootNotFoundError, Trie
from sschain.shard_dht import ShardTable
from sschain.store import open_database


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

    @pytest.mark.parametrize("bad", ["", "-1", "1.", ".5", "1.25", "1,5", "NaN", "1e3"])
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
        assert Transaction.from_rlp_item(tx.to_rlp_item()) == tx

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sender=b"short", receiver=addr(2), amount="1.0", seq=0),
            dict(sender=addr(1), receiver=addr(1), amount="1.0", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="1.00", seq=0),
            dict(sender=addr(1), receiver=addr(2), amount="1.0", seq=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs: dict) -> None:
        with pytest.raises((ChainError, AmountError)):
            Transaction(**kwargs)


class TestTxRoot:
    def test_empty_body_root(self) -> None:
        assert tx_root(()) == EMPTY_ROOT

    def test_order_sensitive(self) -> None:
        t1 = Transaction(addr(1), addr(2), "1.0", 0)
        t2 = Transaction(addr(3), addr(4), "2.0", 0)
        assert tx_root([t1, t2]) != tx_root([t2, t1])

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

    def test_block_bytes_round_trip(self) -> None:
        header = BlockHeader(hash256(b"p"), 1, 1, hash256(b"s"), hash256(b"t"))
        block = Block(header, (Transaction(addr(1), addr(2), "1.0", 0),))
        assert Block.from_bytes(block.to_bytes()) == block

    def test_malformed_block_bytes(self) -> None:
        with pytest.raises(SSChainError):
            Block.from_bytes(b"\xc1\x80")


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


class TestRollback:
    def _three_blocks(self) -> tuple[Chain, list[bytes]]:
        chain = build_chain({addr(1): "10.0"})
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

    def test_later_blocks_stay_until_overwritten(self) -> None:
        chain, _ = self._three_blocks()
        chain.rollback(1)
        assert len(chain.blocks) == 4  # nothing deleted yet
        chain.apply_block([Transaction(addr(1), addr(3), "2.0", 1)])
        assert len(chain.blocks) == 3  # forward branch replaced
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


class TestValidateBlock:
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

    def test_replaced_branch_is_forgotten(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        old = chain.blocks[3]
        chain.rollback(1)
        chain.apply_block([Transaction(addr(1), addr(3), "2.0", 1)])
        with pytest.raises(UnknownParentError):
            chain.validate_block(old)
        assert chain.validate_block(chain.blocks[2])

    def test_single_byte_mutations_rejected(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        raw = chain.blocks[2].to_bytes()
        rejections = 0
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            try:
                block = Block.from_bytes(bytes(mutated))
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

    def test_validation_leaves_live_state_alone(self) -> None:
        chain, _ = TestRollback()._three_blocks()
        pointer_before = chain.table.pointer(addr(1))
        chain.validate_block(chain.blocks[1])
        assert chain.table.pointer(addr(1)) == pointer_before


@pytest.fixture()
def db(tmp_path):
    connection = open_database(tmp_path / "chain.db")
    yield connection
    connection.close()


class TestExportLoad:
    def test_round_trip(self, db) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        assert loaded.head_height == chain.head_height
        assert [b.header.digest() for b in loaded.blocks] == [
            b.header.digest() for b in chain.blocks
        ]
        assert loaded.query_account(addr(2)).balance == "3.0"

    def test_rolled_back_head_survives(self, db) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.rollback(1)
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        assert loaded.head_height == 1
        assert loaded.head.header.state_root == roots[1]
        assert len(loaded.blocks) == 4

    def test_missing_head_file(self, db) -> None:
        with pytest.raises(NotFoundError):
            Chain.load(db, ShardTable(4))
        assert stored_head(db) is None

    def test_height_gap_detected(self, db) -> None:
        chain, _ = TestRollback()._three_blocks()
        chain.export(db)
        db.execute("DELETE FROM chain_blocks WHERE height = 1")
        with pytest.raises(CorruptError):
            Chain.load(db, chain.table)

    def test_broken_parent_link_detected(self, db) -> None:
        chain, _ = TestRollback()._three_blocks()
        chain.export(db)
        stray = Block(
            BlockHeader(hash256(b"elsewhere"), 2, 2, hash256(b"s"), tx_root(())), ()
        )
        db.execute(
            "UPDATE chain_blocks SET block = ? WHERE height = 2", (stray.to_bytes(),)
        )
        with pytest.raises(CorruptError):
            Chain.load(db, chain.table)

    @pytest.mark.parametrize(
        "head",
        [
            lambda roots: ("", b""),
            lambda roots: ("zz", roots[3]),
            lambda roots: (-1, roots[3]),
            lambda roots: (3, roots[1]),
            lambda roots: (3, 3),
        ],
        ids=["empty", "not-a-number", "negative", "root-of-another-block", "no-root"],
    )
    def test_malformed_head_rejected(self, db, head) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.export(db)
        db.execute("UPDATE chain_head SET height = ?, root = ?", head(roots))
        with pytest.raises(CorruptError):
            Chain.load(db, chain.table)

    def test_undecodable_block_rejected(self, db) -> None:
        chain, _ = TestRollback()._three_blocks()
        chain.export(db)
        raw = chain.blocks[2].to_bytes()
        db.execute(
            "UPDATE chain_blocks SET block = ? WHERE height = 2", (raw[: len(raw) // 2],)
        )
        with pytest.raises(CorruptError):
            Chain.load(db, chain.table)

    def test_export_after_load_writes_only_the_new_block(self, db, monkeypatch) -> None:
        chain, _ = TestRollback()._three_blocks()
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        sentinel = b"not rewritten"
        db.execute("UPDATE chain_blocks SET block = ? WHERE height = 1", (sentinel,))
        loaded.apply_block([Transaction(addr(1), addr(2), "1.0", 3)])
        encoded = counting(monkeypatch, Block, "to_bytes")
        loaded.export(db)
        assert encoded == [loaded.blocks[4]]
        rows = dict(db.execute("SELECT height, block FROM chain_blocks"))
        assert rows[1] == sentinel
        assert rows[4] == loaded.blocks[4].to_bytes()

    def test_rollback_export_writes_only_head(self, db, monkeypatch) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        encoded = counting(monkeypatch, Block, "to_bytes")
        loaded.rollback(1).export(db)
        assert encoded == []
        reloaded = Chain.load(db, chain.table)
        assert reloaded.head.header.state_root == roots[1]

    def test_apply_after_rollback_drops_the_replaced_branch(self, db) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        loaded.rollback(1).apply_block([Transaction(addr(1), addr(2), "1.0", 1)])
        loaded.export(db)
        heights = [h for (h,) in db.execute("SELECT height FROM chain_blocks")]
        assert heights == [0, 1, 2]
        reloaded = Chain.load(db, chain.table)
        assert reloaded.head.header.digest() == loaded.head.header.digest()

    def test_interrupted_export_keeps_previous_head(self, db, monkeypatch) -> None:
        chain, roots = TestRollback()._three_blocks()
        chain.rollback(1)
        chain.export(db)
        loaded = Chain.load(db, chain.table)
        loaded.apply_block([Transaction(addr(1), addr(2), "1.0", 1)])
        real_to_bytes = Block.to_bytes

        def to_bytes(block: Block) -> bytes:
            real_to_bytes(block)
            raise OSError("interrupted")

        db.execute("BEGIN")
        with monkeypatch.context() as patch:
            patch.setattr(Block, "to_bytes", to_bytes)
            with pytest.raises(OSError):
                loaded.export(db)
        db.rollback()
        reloaded = Chain.load(db, chain.table)
        assert reloaded.head_height == 1
        assert len(reloaded.blocks) == 4
        assert reloaded.head.header.state_root == roots[1]


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
