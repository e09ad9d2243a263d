"""Blocks over the sharded account state.

A block header carries the committed account-trie root after its body
ran, plus a transaction-trie root over the body itself; the header
digest chains blocks together. Balances are decimal strings with one
fractional digit, held internally as integer tenths so arithmetic is
exact and the hashed text never wobbles.

One executor is the state transition: it debits each sender, credits
each receiver (creating it at zero on first contact), bumps the sender's
transaction count, and writes both accounts through the shard table. A
transaction that fails its checks is skipped whole; nothing of it lands
in the state. ``apply_block`` runs the executor to produce a block and
reports the skipped transactions on ``last_rejected``.
``validate_block`` is strict re-execution through the same executor
against the parent root; any rejected transaction fails the block, so a
block validates only if an honest producer could have made it. Every
committed root stays readable forever, so ``rollback`` is nothing more
than moving the head pointer.

On disk a chain is one ``<height>.blk`` file per block plus a ``HEAD``
file naming the head height and its state root. ``export`` writes each
block once, removes the files of a replaced branch, and replaces ``HEAD``
atomically, last.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from .encoding import (
    DIGEST_SIZE,
    Digest,
    RlpItem,
    hash256,
    int_from_bytes,
    int_to_bytes,
    rlp_decode,
    rlp_encode,
)
from .errors import CorruptError, NotFoundError, SSChainError
from .merkle_dag import AccountState, Cid, dag_get, version_root
from .mpt import Trie
from .shard_dht import NodeIdentity, ShardTable
from .store import MemoryKvStore, replace_file

ADDRESS_SIZE = 20
ZERO_DIGEST = bytes(DIGEST_SIZE)

REASON_UNKNOWN_SENDER = "unknown-sender"
REASON_BAD_SEQ = "bad-seq"
REASON_INSUFFICIENT = "insufficient-balance"


class ChainError(SSChainError):
    """Base for block and chain failures."""


class AmountError(ChainError, ValueError):
    """Text does not follow the one-fractional-digit decimal convention."""


class BadHeightError(ChainError):
    """Rollback target outside [0, head]."""


class UnknownParentError(ChainError):
    """A block's parent hash matches no stored header."""


_AMOUNT_RE = re.compile(r"^(\d+)(?:\.(\d))?$")
_BLOCK_FILE_RE = re.compile(r"(0|[1-9][0-9]*)\.blk")
_HEAD_RE = re.compile(rb"([0-9]{1,20}) ([0-9a-f]{%d})\s*" % (2 * DIGEST_SIZE))


def tenths_from_text(text: str) -> int:
    """Parse ``"13.0"`` or ``"13"`` into integer tenths.

    Raises:
        AmountError: negative, empty, or more than one fractional digit.
    """
    match = _AMOUNT_RE.match(text)
    if match is None:
        raise AmountError(f"bad decimal amount {text!r}")
    whole, frac = match.groups()
    return int(whole) * 10 + int(frac or 0)


def text_from_tenths(value: int) -> str:
    """Render integer tenths with exactly one fractional digit."""
    if value < 0:
        raise AmountError(f"negative balance {value}")
    return f"{value // 10}.{value % 10}"


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transfer: ``amount`` moves sender -> receiver at sender seq."""

    sender: bytes
    receiver: bytes
    amount: str
    seq: int

    def __post_init__(self) -> None:
        if len(self.sender) != ADDRESS_SIZE or len(self.receiver) != ADDRESS_SIZE:
            raise ChainError(f"addresses are {ADDRESS_SIZE} bytes")
        if self.sender == self.receiver:
            raise ChainError("self-transfers are not allowed")
        if self.seq < 0:
            raise ChainError(f"negative seq {self.seq}")
        tenths_from_text(self.amount)

    def to_rlp_item(self) -> RlpItem:
        return [self.sender, self.receiver, self.amount.encode(), int_to_bytes(self.seq)]

    @classmethod
    def from_rlp_item(cls, item: RlpItem) -> "Transaction":
        if not (isinstance(item, list) and len(item) == 4):
            raise CorruptError("transaction must be a four-item list")
        sender, receiver, amount, seq = item
        if not all(isinstance(f, bytes) for f in item):
            raise CorruptError("transaction fields must be byte strings")
        try:
            amount_text = amount.decode()
        except UnicodeDecodeError as exc:
            raise CorruptError("transaction amount is not valid text") from exc
        return cls(sender, receiver, amount_text, int_from_bytes(seq))


@dataclass(frozen=True, slots=True)
class BlockHeader:
    parent_hash: Digest
    number: int
    timestamp: int
    state_root: Digest
    tx_root: Digest

    def digest(self) -> Digest:
        return hash256(rlp_encode(self.to_rlp_item()))

    def to_rlp_item(self) -> RlpItem:
        return [
            self.parent_hash,
            int_to_bytes(self.number),
            int_to_bytes(self.timestamp),
            self.state_root,
            self.tx_root,
        ]

    @classmethod
    def from_rlp_item(cls, item: RlpItem) -> "BlockHeader":
        if not (isinstance(item, list) and len(item) == 5):
            raise CorruptError("header must be a five-item list")
        parent, number, timestamp, state_root, tx_root = item
        if not all(isinstance(f, bytes) for f in item):
            raise CorruptError("header fields must be byte strings")
        if len(parent) != DIGEST_SIZE or len(state_root) != DIGEST_SIZE:
            raise CorruptError("header digests have wrong length")
        if len(tx_root) != DIGEST_SIZE:
            raise CorruptError("header digests have wrong length")
        return cls(
            parent, int_from_bytes(number), int_from_bytes(timestamp), state_root, tx_root
        )


@dataclass(frozen=True, slots=True)
class Block:
    header: BlockHeader
    txs: tuple[Transaction, ...]

    def to_bytes(self) -> bytes:
        return rlp_encode(
            [self.header.to_rlp_item(), [tx.to_rlp_item() for tx in self.txs]]
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Block":
        struct = rlp_decode(raw)
        if not (isinstance(struct, list) and len(struct) == 2):
            raise CorruptError("block must be a [header, body] list")
        header_item, body = struct
        if not isinstance(body, list):
            raise CorruptError("block body must be a list")
        return cls(
            BlockHeader.from_rlp_item(header_item),
            tuple(Transaction.from_rlp_item(item) for item in body),
        )


def tx_root(txs: Iterable[Transaction]) -> Digest:
    """Trie root over index -> transaction, both RLP-encoded."""
    trie = Trie(MemoryKvStore())
    for index, tx in enumerate(txs):
        trie = trie.insert(rlp_encode(int_to_bytes(index)), rlp_encode(tx.to_rlp_item()))
    return trie.commit()


@dataclass(frozen=True, slots=True)
class Rejection:
    tx: Transaction
    reason: str


def default_producer(num_shards: int) -> NodeIdentity:
    """Deterministic fully-capable identity used to drive state writes."""
    return NodeIdentity.derive(
        hash256(b"block-producer"), num_shards, book=True, authority=True
    )


class Chain:
    """Append-only block list with a movable head.

    The chain adopts the table's current committed root as its genesis
    state, so accounts funded before construction are the genesis state.
    After ``rollback`` the head trie is reopened at the target root;
    applying a block then starts a fresh branch from there (the replaced
    blocks stay in their stores and remain readable by root).
    """

    def __init__(self, table: ShardTable, producer: Optional[NodeIdentity] = None):
        genesis = Block(
            BlockHeader(ZERO_DIGEST, 0, 0, table.state_root, tx_root(())), ()
        )
        self._set_fields(table, producer, [genesis], [genesis.header.digest()], 0)

    def _set_fields(
        self,
        table: ShardTable,
        producer: Optional[NodeIdentity],
        blocks: list[Block],
        digests: list[Digest],
        head_height: int,
        saved_in: Optional[Path] = None,
    ) -> None:
        """Every instance field, for both ``__init__`` and :meth:`load`.

        ``digests`` holds each block's header digest, in height order.
        ``saved_in`` names a directory that already holds all of
        ``blocks``, as written by :meth:`export`.
        """
        self.table = table
        self.producer = producer or default_producer(table.num_shards)
        self.blocks = blocks
        self.head_height = head_height
        self.last_rejected: tuple[Rejection, ...] = ()
        self.last_credits_out: tuple[tuple[bytes, int], ...] = ()
        self._trie = Trie(table.trie_store, blocks[head_height].header.state_root)
        # Header digest -> height for every block in ``blocks``. Keys are
        # inserted in height order, so the last key is the tip's digest and
        # ``popitem`` drops the tip.
        self._heights = {digest: height for height, digest in enumerate(digests)}
        # The leading run of ``blocks`` already on disk in ``_saved_dir``.
        self._saved_dir = saved_in
        self._saved = len(blocks) if saved_in is not None else 0

    @property
    def head(self) -> Block:
        return self.blocks[self.head_height]

    @property
    def genesis_root(self) -> Digest:
        return self.blocks[0].header.state_root

    def apply_block(
        self,
        txs: Iterable[Transaction],
        credits: Iterable[tuple[bytes, int]] = (),
        is_local: Optional[Callable[[bytes], bool]] = None,
    ) -> Block:
        """Run transactions, commit the state, and append one block.

        Invalid transactions are skipped whole and listed on
        ``last_rejected``; valid ones debit the sender, bump its seq, and
        credit the receiver. A receiver for which ``is_local`` is false is
        not touched here; the owed (address, tenths) pair is queued on
        ``last_credits_out`` for whoever owns it. ``credits`` are owed
        amounts from elsewhere, folded into this block after the body.

        Timestamps are a logical clock (parent's plus one), so the whole
        header is a function of the parent and the body and validation
        can re-derive every field.
        """
        head = self.head
        while len(self.blocks) > self.head_height + 1:
            self.blocks.pop()
            self._heights.popitem()
        self._saved = min(self._saved, len(self.blocks))
        trie, accepted, rejected, credits_out = self._execute(
            self._trie, txs, credits, is_local, update_pointer=True
        )
        self._trie = trie
        header = BlockHeader(
            next(reversed(self._heights)),
            head.header.number + 1,
            head.header.timestamp + 1,
            trie.commit(),
            tx_root(accepted),
        )
        block = Block(header, tuple(accepted))
        self._heights[header.digest()] = len(self.blocks)
        self.blocks.append(block)
        self.head_height += 1
        self.last_rejected = tuple(rejected)
        self.last_credits_out = tuple(credits_out)
        return block

    def _execute(
        self,
        trie: Trie,
        txs: Iterable[Transaction],
        credits: Iterable[tuple[bytes, int]],
        is_local: Optional[Callable[[bytes], bool]],
        *,
        update_pointer: bool,
    ) -> tuple[Trie, list[Transaction], list[Rejection], list[tuple[bytes, int]]]:
        """The state transition: run a body and credits against ``trie``.

        Returns (new trie, accepted, rejected, credits owed elsewhere). Each
        account is read from the trie once; later reads and the ``prev_cid``
        of each write come from the (state, version Cid) pairs held here.
        """
        pending: dict[bytes, tuple[Optional[AccountState], Optional[Cid]]] = {}
        accepted: list[Transaction] = []
        rejected: list[Rejection] = []
        credits_out: list[tuple[bytes, int]] = []

        def read(address: bytes) -> Optional[AccountState]:
            if address not in pending:
                pending[address] = self._read_account(trie, address) or (None, None)
            return pending[address][0]

        def write(address: bytes, state: AccountState) -> None:
            nonlocal trie
            trie, version, _ = self.table.write_account(
                self.producer,
                address,
                state,
                trie=trie,
                prev_cid=pending[address][1],
                update_pointer=update_pointer,
            )
            pending[address] = (state, version)

        def credit(address: bytes, tenths: int) -> None:
            state = read(address) or AccountState("0", "0.0")
            balance = tenths_from_text(state.balance) + tenths
            write(
                address,
                AccountState(state.seq_number, text_from_tenths(balance), state.code),
            )

        for tx in txs:
            sender = read(tx.sender)
            if sender is None:
                rejected.append(Rejection(tx, REASON_UNKNOWN_SENDER))
                continue
            if tx.seq != int(sender.seq_number):
                rejected.append(Rejection(tx, REASON_BAD_SEQ))
                continue
            amount = tenths_from_text(tx.amount)
            balance = tenths_from_text(sender.balance)
            if balance < amount:
                rejected.append(Rejection(tx, REASON_INSUFFICIENT))
                continue
            write(
                tx.sender,
                AccountState(
                    str(int(sender.seq_number) + 1),
                    text_from_tenths(balance - amount),
                    sender.code,
                ),
            )
            if is_local is None or is_local(tx.receiver):
                credit(tx.receiver, amount)
            else:
                credits_out.append((tx.receiver, amount))
            accepted.append(tx)

        for address, amount in credits:
            credit(address, amount)
        return trie, accepted, rejected, credits_out

    def query_account(
        self, address: bytes, at_root: Optional[Digest] = None
    ) -> AccountState:
        """Account state at the head root, or at any committed root.

        Raises:
            RootNotFoundError: ``at_root`` never committed here.
            NotFoundError: account absent at that root.
        """
        root = self.head.header.state_root if at_root is None else at_root
        trie = self._trie if root == self._trie.commit() else Trie(
            self.table.trie_store, root
        )
        found = self._read_account(trie, address)
        if found is None:
            raise NotFoundError(f"account {address.hex()} not at root {root.hex()}")
        return found[0]

    def rollback(self, to_height: int) -> "Chain":
        """Move the head; nothing is deleted, later blocks stay adoptable.

        Raises:
            BadHeightError: target outside [0, head].
        """
        if not 0 <= to_height <= self.head_height:
            raise BadHeightError(
                f"height {to_height} outside [0, {self.head_height}]"
            )
        self.head_height = to_height
        self._trie = Trie(self.table.trie_store, self.head.header.state_root)
        return self

    def validate_block(self, block: Block) -> bool:
        """Re-derive the header from the parent and body; true iff equal.

        Checks height and timestamp against the parent, recomputes the
        transaction root from the body, then re-executes the body against
        the parent state root: strict re-execution through the same
        executor as :meth:`apply_block`, so any rejected transaction fails
        the block. Blocks made with cross-shard credits, owed out or
        folded in, do not validate yet: the credits are not in the body.
        Replays never move the shard lookup pointers, so validating old or
        foreign blocks leaves live reads untouched.

        Raises:
            UnknownParentError: parent hash matches no block held here.
        """
        parent_height = self._heights.get(block.header.parent_hash)
        if parent_height is None:
            raise UnknownParentError(
                f"no parent with digest {block.header.parent_hash.hex()}"
            )
        parent = self.blocks[parent_height]
        if block.header.number != parent.header.number + 1:
            return False
        if block.header.timestamp != parent.header.timestamp + 1:
            return False
        if tx_root(block.txs) != block.header.tx_root:
            return False
        trie, _, rejected, _ = self._execute(
            Trie(self.table.trie_store, parent.header.state_root),
            block.txs,
            (),
            None,
            update_pointer=False,
        )
        return not rejected and trie.commit() == block.header.state_root

    def export(self, directory: str | Path) -> None:
        """Save the chain as ``<height>.blk`` files plus a ``HEAD`` file.

        Each block is written once: heights this chain already loaded from,
        or wrote to, the same directory are skipped (assuming nothing else
        writes it), so after :meth:`load` and one :meth:`apply_block` only
        the new block and ``HEAD`` are written, and after :meth:`rollback`
        only ``HEAD``. Block files past the last block, such as a branch
        :meth:`apply_block` replaced, are removed first, highest first, so
        the heights on disk never have a gap. Every file goes through a
        temporary file and a rename, ``HEAD`` last, so an interrupted
        export leaves the previous ``HEAD``; it stays loadable when no
        block at or below it was replaced, as after a load and one apply
        or rollback.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        base = os.fspath(out)
        for height in sorted(_block_heights(base), reverse=True):
            if height < len(self.blocks):
                break
            os.remove(os.path.join(base, f"{height}.blk"))
        start = self._saved if self._saved_dir == out else 0
        for height in range(start, len(self.blocks)):
            replace_file(
                os.path.join(base, f"{height}.blk"), self.blocks[height].to_bytes()
            )
        self._saved_dir, self._saved = out, len(self.blocks)
        replace_file(
            os.path.join(base, "HEAD"),
            f"{self.head_height} {self.head.header.state_root.hex()}\n".encode(),
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        table: ShardTable,
        producer: Optional[NodeIdentity] = None,
    ) -> "Chain":
        """Rebuild a chain exported by :meth:`export`.

        Lists the directory once and reads the contiguous run of block
        files from height 0. Every one must decode and link to its parent,
        the run must reach the height in ``HEAD``, and the root in ``HEAD``
        must be that block's state root. The loaded chain remembers that
        the directory holds all its blocks, so its next :meth:`export`
        there writes only what changed.

        Raises:
            NotFoundError: no HEAD file.
            CorruptError: malformed HEAD, gap in heights, undecodable
                block, broken parent link, or a HEAD root that is not the
                head block's state root.
        """
        src = os.fspath(directory)
        try:
            with open(os.path.join(src, "HEAD"), "rb") as fh:
                head_text = fh.read()
        except FileNotFoundError:
            raise NotFoundError(f"no chain at {src}") from None
        match = _HEAD_RE.fullmatch(head_text)
        if match is None:
            raise CorruptError(f"HEAD at {src} is not '<height> <state root hex>'")
        head_height = int(match.group(1))
        on_disk = _block_heights(src)
        blocks: list[Block] = []
        while len(blocks) in on_disk:
            with open(os.path.join(src, f"{len(blocks)}.blk"), "rb") as fh:
                raw = fh.read()
            try:
                blocks.append(Block.from_bytes(raw))
            except SSChainError as exc:
                raise CorruptError(f"block {len(blocks)} at {src}: {exc}") from exc
        if head_height >= len(blocks):
            raise CorruptError(f"chain at {src} is missing blocks up to its HEAD")
        digests = [block.header.digest() for block in blocks]
        for parent_digest, block in zip(digests, blocks[1:]):
            if block.header.parent_hash != parent_digest:
                raise CorruptError(f"broken parent link at height {block.header.number}")
        if blocks[head_height].header.state_root.hex().encode() != match.group(2):
            raise CorruptError(
                f"HEAD at {src} names a root that is not block {head_height}'s"
            )
        chain = cls.__new__(cls)
        chain._set_fields(table, producer, blocks, digests, head_height, Path(src))
        return chain

    def _read_account(
        self, trie: Trie, address: bytes
    ) -> Optional[tuple[AccountState, Cid]]:
        """(state, version Cid) stored under ``address`` in ``trie``, if any."""
        try:
            version = Cid(trie.get(address))
        except NotFoundError:
            return None
        store = self.table.shard_for(address).store
        leaf = dag_get(store, version_root(store, version))
        return AccountState.from_json_bytes(leaf.data), version


def _block_heights(directory: str) -> set[int]:
    """Heights of the ``<height>.blk`` files in ``directory``, one listing."""
    return {
        int(match.group(1))
        for match in map(_BLOCK_FILE_RE.fullmatch, os.listdir(directory))
        if match is not None
    }
