"""Blocks over the sharded account state.

A block header carries the committed account-trie root after its body
ran, plus a transaction-trie root over the body itself; the header
digest chains blocks together. Balances are decimal strings with one
fractional digit, held internally as integer tenths so arithmetic is
exact and the hashed text never wobbles.

The shard table owns the current state, its ``trie``; a chain keeps
only blocks and moves that trie. One executor is the state transition:
it debits each sender, credits each receiver (creating it at zero on
first contact) and bumps the sender's transaction count, all on integers
held for the block, then writes back: each account the block changed is
written through the shard table once, after the body and the credits,
its one new version chained to the version the block started from. This
is the once-per-block state commit of Ethereum (Yellow Paper section 4).
A transaction that fails its checks is skipped whole; nothing of it
lands in the state. ``apply_block`` runs the executor to produce a block,
reports the skipped transactions on ``last_rejected`` and registers each
account the block created in its shard's registry of lookup keys.
``validate_block`` is strict re-execution through the same executor
against the parent root; any rejected transaction fails the block, so a
block validates only if an honest producer could have made it, and the
replay, through overlays of the table's stores, writes nothing,
accepted or not. Every
committed root stays readable forever, so ``rollback`` only moves the
head pointer and reopens the table's trie at its root.

A chain is stored in the table's trie store and nowhere else: each
header under its own digest, so a ``parent_hash`` is the key of the
parent; each body as the transaction trie ``tx_root`` commits, built
from the body's length by index arithmetic, each transaction framed
directly; and the head header's digest in one named entry under
:data:`HEAD_KEY`.
``apply_block`` writes a header and its body, ``export`` only the head
pointer. ``load`` reads the pointer, the head block and the head root,
the same reads at any height. Ancestors' headers are read by parent
hash only when ``blocks``, ``genesis_root`` or ``rollback`` asks for
them, and a body only for a block one of them returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .encoding import (
    DIGEST_SIZE,
    Digest,
    RlpItem,
    hash256,
    int_from_bytes,
    int_to_bytes,
    rlp_decode,
    rlp_encode,
    rlp_list_head,
)
from .errors import CorruptError, NotFoundError, SSChainError
from .merkle_dag import AccountState
from .mpt import Trie, commit_indexed
from .shard_dht import NodeIdentity, ShardTable
from .store import KvStore, MemoryKvStore

ADDRESS_SIZE = 20
ZERO_DIGEST = bytes(DIGEST_SIZE)
HEAD_KEY: Digest = hash256(b"sschain chain head")
"""Key of the named entry that holds the head header's digest."""

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


_AMOUNT_RE = re.compile(r"([0-9]+)(?:\.([0-9]))?")


def tenths_from_text(text: str) -> int:
    """Parse ``"13.0"`` or ``"13"`` into integer tenths.

    Raises:
        AmountError: negative, empty, more than one fractional digit, or
            any character besides ASCII digits and the point.
    """
    match = _AMOUNT_RE.fullmatch(text)
    if match is None:
        raise AmountError(f"bad decimal amount {text!r}")
    whole, frac = match.groups()
    return int(whole) * 10 + int(frac or 0)


def text_from_tenths(value: int) -> str:
    """Render integer tenths with exactly one fractional digit."""
    if value < 0:
        raise AmountError(f"negative balance {value}")
    return f"{value // 10}.{value % 10}"


@lru_cache(maxsize=1024)
def _amount(text: str) -> tuple[int, bytes]:
    """``text`` in tenths, as :func:`tenths_from_text` parses it, and as
    an RLP string. A transfer stream repeats a few amount texts, so this
    bounded memo parses and frames each of them once; a malformed text
    raises every time, as a raise is not cached."""
    return tenths_from_text(text), rlp_encode(text.encode())


@dataclass(init=False, frozen=True, slots=True)
class Transaction:
    """One transfer: ``amount`` moves sender -> receiver at sender seq.

    ``tenths`` is ``amount`` in tenths, taken at construction from the
    bounded memo of parsed amount texts; it takes no part in equality,
    hashing or the encoding. The class is frozen, so ``__init__`` checks
    its arguments and then fills the five slots through their
    descriptors' ``__set__``, bound once at import, which costs less per
    transfer than ``object.__setattr__``.
    """

    sender: bytes
    receiver: bytes
    amount: str
    seq: int
    tenths: int = field(init=False, repr=False, compare=False)

    def __init__(self, sender: bytes, receiver: bytes, amount: str, seq: int) -> None:
        if len(sender) != ADDRESS_SIZE or len(receiver) != ADDRESS_SIZE:
            raise ChainError(f"addresses are {ADDRESS_SIZE} bytes")
        if sender == receiver:
            raise ChainError("self-transfers are not allowed")
        if seq < 0:
            raise ChainError(f"negative seq {seq}")
        tenths = _amount(amount)[0]
        _set_sender(self, sender)
        _set_receiver(self, receiver)
        _set_amount(self, amount)
        _set_seq(self, seq)
        _set_tenths(self, tenths)

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


# The slot setters ``Transaction.__init__`` calls; they skip the frozen
# class's ``__setattr__``.
_set_sender = Transaction.sender.__set__
_set_receiver = Transaction.receiver.__set__
_set_amount = Transaction.amount.__set__
_set_seq = Transaction.seq.__set__
_set_tenths = Transaction.tenths.__set__


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
        if not len(parent) == len(state_root) == len(tx_root) == DIGEST_SIZE:
            raise CorruptError("header digests have wrong length")
        return cls(
            parent, int_from_bytes(number), int_from_bytes(timestamp), state_root, tx_root
        )


@dataclass(frozen=True, slots=True)
class Block:
    header: BlockHeader
    txs: tuple[Transaction, ...]


def tx_root(txs: Iterable[Transaction], store: Optional[KvStore] = None) -> Digest:
    """Trie root over index -> transaction, both RLP-encoded, committed
    into ``store`` (a throwaway one if none is given), as geth's
    ``DeriveSha`` does.

    :func:`mpt.commit_indexed` builds the trie from the count alone, by
    index arithmetic: nothing is sorted and no key is made for a leaf.
    :func:`_encode_tx` frames each transaction directly to the bytes of
    ``rlp_encode(tx.to_rlp_item())``.
    """
    store = MemoryKvStore() if store is None else store
    return commit_indexed(store, [_encode_tx(tx) for tx in txs])


def _encode_tx(tx: Transaction) -> bytes:
    """The transaction's wire bytes, ``rlp_encode(tx.to_rlp_item())``,
    framed directly: an address is ``0x94`` and its 20 bytes, the amount's
    RLP string comes from the bounded memo of parsed amount texts, the
    seq is an RLP string, and ``rlp_list_head`` frames the four."""
    amount = _amount(tx.amount)[1]
    seq = tx.seq
    seq_item = _SMALL_INTS[seq] if seq < 128 else rlp_encode(int_to_bytes(seq))
    head = rlp_list_head(2 * (1 + ADDRESS_SIZE) + len(amount) + len(seq_item))
    return b"".join((head, b"\x94", tx.sender, b"\x94", tx.receiver, amount, seq_item))


def _tx_key(index: int) -> bytes:
    return rlp_encode(int_to_bytes(index))


_SMALL_INTS = [rlp_encode(int_to_bytes(value)) for value in range(128)]
"""RLP of each integer below 128: ``0x80`` for 0, else the byte itself."""


def _read_header(
    store: KvStore, digest: Digest, what: str, missing: type[SSChainError] = CorruptError
) -> BlockHeader:
    """The header stored under ``digest``, which ``what`` names; raises
    ``missing`` if no header is, and CorruptError if the entry fails its
    content hash."""
    try:
        raw = store.get(digest)
    except NotFoundError:
        raw = b""
    try:
        return BlockHeader.from_rlp_item(rlp_decode(raw))
    except SSChainError:
        raise missing(f"{what} {digest.hex()} is not a stored header") from None


def _read_block(store: KvStore, header: BlockHeader) -> Block:
    """``header`` with the body stored under its ``tx_root``.

    Raises:
        CorruptError: the body does not read back.
    """
    try:
        body = Trie(store, header.tx_root)
        txs: list[Transaction] = []
        while True:
            try:
                raw = body.get(_tx_key(len(txs)))
            except NotFoundError:
                return Block(header, tuple(txs))
            txs.append(Transaction.from_rlp_item(rlp_decode(raw)))
    except SSChainError as exc:
        raise CorruptError(f"body of block {header.number}: {exc}") from exc


class _Overlay(MemoryKvStore):
    """A replay's store: reads fall through to ``base``, writes stay here
    and go when it does, so ``base`` is left as it was. A read is checked
    against its key as any store's is, whichever of the two holds it."""

    def __init__(self, base: KvStore) -> None:
        super().__init__()
        self.base = base

    def _read(self, key: Digest) -> tuple[bytes, bool] | None:
        return super()._read(key) or self.base._read(key)


@dataclass(slots=True)
class _Account:
    """One account inside a block: the version the block started from
    (None for an account it creates), the live seq and balance in tenths,
    and whether the block changed it, so it is written back."""

    seq: int
    tenths: int
    code: bytes
    version: Optional[Digest]
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class Rejection:
    tx: Transaction
    reason: str


def _child_header(
    parent: BlockHeader, state_root: Digest, txs: Iterable[Transaction],
    store: Optional[KvStore] = None,
) -> BlockHeader:
    """``parent``'s child header; ``store`` is as for :func:`tx_root`."""
    number, timestamp = parent.number + 1, parent.timestamp + 1
    return BlockHeader(parent.digest(), number, timestamp, state_root, tx_root(txs, store))


def default_producer(num_shards: int) -> NodeIdentity:
    """Deterministic fully-capable identity used to drive state writes."""
    return NodeIdentity.derive(
        hash256(b"block-producer"), num_shards, book=True, authority=True
    )


class Chain:
    """A movable head over the blocks stored by header digest.

    The state is the table's ``trie``, which the chain only moves:
    ``apply_block`` advances it, ``load`` and ``rollback`` reopen it at
    the head root, and after each ``table.state_root`` is the head's.
    The chain adopts the table's current committed root as its genesis
    state, so accounts funded before construction are the genesis state;
    likewise a ``shard_update`` after genesis lands in the next block's
    state root, and that block does not validate. Applying a block after
    ``rollback`` starts a fresh branch from the target (the replaced
    blocks stay in the store and remain readable by digest and by root).
    """

    def __init__(self, table: ShardTable, producer: Optional[NodeIdentity] = None):
        """Start a chain at the table's state and write its genesis header."""
        store = table.trie_store
        genesis = BlockHeader(ZERO_DIGEST, 0, 0, table.state_root, tx_root((), store))
        store.put(rlp_encode(genesis.to_rlp_item()))
        self._set_fields(table, producer, Block(genesis, ()))

    def _set_fields(
        self, table: ShardTable, producer: Optional[NodeIdentity], head: Block
    ) -> None:
        """Every instance field, for both ``__init__`` and :meth:`load`."""
        self.table = table
        self.producer = producer or default_producer(table.num_shards)
        self.head = head
        self.last_rejected: tuple[Rejection, ...] = ()
        self.last_credits_out: tuple[tuple[bytes, int], ...] = ()

    @property
    def head_height(self) -> int:
        return self.head.header.number

    @property
    def blocks(self) -> list[Block]:
        """The head's ancestry, genesis first; see :meth:`_ancestry`."""
        ancestors = list(self._ancestry())[:0:-1]
        return [_read_block(self.table.trie_store, h) for h in ancestors] + [self.head]

    @property
    def genesis_root(self) -> Digest:
        *_, genesis = self._ancestry()
        return genesis.state_root

    def apply_block(
        self,
        txs: Iterable[Transaction],
        credits: Iterable[tuple[bytes, int]] = (),
        is_local: Optional[Callable[[bytes], bool]] = None,
    ) -> Block:
        """Run transactions on the table's trie, commit it, and append a block.

        The new header and its transaction trie are written to the trie
        store, and each account the block creates is registered in its
        shard, in first-touch order; the stored head pointer moves only on
        :meth:`export`.

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
        trie, accepted, rejected, credits_out, created = self._execute(
            self.table, self.table.trie, txs, credits, is_local
        )
        for address in created:
            self.table.register(address)
        store = self.table.trie_store
        header = _child_header(self.head.header, trie.commit(), accepted, store)
        store.put(rlp_encode(header.to_rlp_item()))
        self.head = Block(header, tuple(accepted))
        self.table.trie = trie
        self.last_rejected = tuple(rejected)
        self.last_credits_out = tuple(credits_out)
        return self.head

    def _execute(
        self,
        table: ShardTable,
        trie: Trie,
        txs: Iterable[Transaction],
        credits: Iterable[tuple[bytes, int]],
        is_local: Optional[Callable[[bytes], bool]],
    ) -> tuple[Trie, list[Transaction], list[Rejection], list[tuple[bytes, int]], list[bytes]]:
        """The state transition: run a body and credits against ``trie``,
        then write back through ``table`` every account it changed.

        Returns (new trie, accepted, rejected, credits owed elsewhere,
        accounts created, in first-touch order, for the caller to
        register). Each account is read from the trie once, on first
        touch, and its seq and balance are parsed then into a
        :class:`_Account`; every later debit, credit and check works on
        those integers. After the body and the credits, each changed
        account is written through the shard table once, in first-touch
        order, its one new version chained to the version ``trie`` held:
        one version per touched account per block.
        """
        accounts: dict[bytes, _Account] = {}
        accepted: list[Transaction] = []
        rejected: list[Rejection] = []
        credits_out: list[tuple[bytes, int]] = []

        def account(address: bytes) -> _Account:
            """The entry of an account not touched before, read from ``trie``."""
            found = table.read_account(address, trie=trie)
            if found is None:
                entry = _Account(0, 0, b"", None)
            else:
                state, version = found
                entry = _Account(
                    int(state.seq_number), tenths_from_text(state.balance), state.code, version
                )
            accounts[address] = entry
            return entry

        for tx in txs:
            sender = accounts.get(tx.sender) or account(tx.sender)
            if sender.version is None and not sender.dirty:  # not in the trie, not yet paid
                rejected.append(Rejection(tx, REASON_UNKNOWN_SENDER))
                continue
            if tx.seq != sender.seq:
                rejected.append(Rejection(tx, REASON_BAD_SEQ))
                continue
            amount = tx.tenths
            if sender.tenths < amount:
                rejected.append(Rejection(tx, REASON_INSUFFICIENT))
                continue
            sender.seq += 1
            sender.tenths -= amount
            sender.dirty = True
            if is_local is None or is_local(tx.receiver):
                receiver = accounts.get(tx.receiver) or account(tx.receiver)
                receiver.tenths += amount
                receiver.dirty = True
            else:
                credits_out.append((tx.receiver, amount))
            accepted.append(tx)

        for address, amount in credits:
            receiver = accounts.get(address) or account(address)
            receiver.tenths += amount
            receiver.dirty = True
        created: list[bytes] = []
        for address, entry in accounts.items():
            if entry.dirty:
                state = AccountState(str(entry.seq), text_from_tenths(entry.tenths), entry.code)
                trie, _, _ = table.write_account(
                    self.producer, address, state, trie=trie, prev_cid=entry.version
                )
                if entry.version is None:
                    created.append(address)
        return trie, accepted, rejected, credits_out, created

    def query_account(
        self, address: bytes, at_root: Optional[Digest] = None
    ) -> AccountState:
        """Account state in the table's trie (the head state) or at any committed root.

        Raises:
            RootNotFoundError: ``at_root`` never committed here.
            NotFoundError: account absent at that root.
        """
        trie = self.table.trie if at_root is None else Trie(self.table.trie_store, at_root)
        found = self.table.read_account(address, trie=trie)
        if found is None:
            # The trie has no delete, so a key absent from the pending
            # state is absent at the head root too; naming that root
            # leaves uncommitted writes and the node memo alone.
            root = self.head.header.state_root if at_root is None else at_root
            raise NotFoundError(f"account {address.hex()} not at root {root.hex()}")
        return found[0]

    def rollback(self, to_height: int) -> "Chain":
        """Move the head back to the ancestor at ``to_height``, walking
        parent hashes, and reopen the table's trie at its root; nothing is
        deleted, later blocks stay readable. On an error the head stays.

        Raises:
            BadHeightError: target outside [0, head].
            CorruptError: an ancestor on the way is missing.
        """
        if not 0 <= to_height <= self.head_height:
            raise BadHeightError(
                f"height {to_height} outside [0, {self.head_height}]"
            )
        store = self.table.trie_store
        header = next(h for h in self._ancestry() if h.number == to_height)
        head = self.head if to_height == self.head_height else _read_block(store, header)
        self.table.trie = Trie(store, header.state_root)
        self.head = head
        return self

    def validate_block(self, block: Block) -> bool:
        """Re-derive the header from the parent and body; true iff equal.

        The parent is the stored header the parent hash names, on the
        head's branch or not. Compares the header with the parent's child
        header for the body, its transaction root built on a throwaway
        store, then re-executes the body against the parent root: strict
        re-execution through the same executor as :meth:`apply_block`, so
        any rejected transaction fails the block. The replay reads the
        table's stores through overlays that keep its writes and are
        dropped after it, so it writes nothing, registers no account and
        leaves every store as it was, whatever the answer. Blocks made
        with cross-shard credits, owed out or folded in, do not validate
        yet: the credits are not in the body.

        Raises:
            UnknownParentError: parent hash names no stored header.
        """
        store = self.table.trie_store
        parent = _read_header(store, block.header.parent_hash, "parent", UnknownParentError)
        if block.header != _child_header(parent, block.header.state_root, block.txs):
            return False
        table = self.table
        replay = ShardTable(
            table.num_shards,
            lambda index: _Overlay(table.store(index)),
            _Overlay(store),
        )
        trie, _, rejected, _, _ = self._execute(
            replay, Trie(replay.trie_store, parent.state_root), block.txs, (), None
        )
        return not rejected and trie.commit() == block.header.state_root

    def export(self) -> None:
        """Point the stored head at this chain's head: one named write, as
        ``__init__`` and :meth:`apply_block` already stored every block."""
        self.table.trie_store.put_named(HEAD_KEY, self.head.header.digest())

    @classmethod
    def load(
        cls, table: ShardTable, producer: Optional[NodeIdentity] = None
    ) -> "Chain":
        """Reopen the chain whose head :meth:`export` stored in the table's
        trie store, reading the pointer, the head block and the head root.

        Raises:
            NotFoundError: no head pointer in the store.
            CorruptError: the pointer is not the digest of a stored header,
                or the head block does not read back.
        """
        store = table.trie_store
        try:
            digest = store.get(HEAD_KEY)
        except NotFoundError:
            raise NotFoundError("no chain in the store") from None
        if len(digest) != DIGEST_SIZE:
            raise CorruptError(f"chain head pointer {digest.hex()} is not a digest")
        head = _read_block(store, _read_header(store, digest, "chain head"))
        table.trie = Trie(store, head.header.state_root)
        chain = cls.__new__(cls)
        chain._set_fields(table, producer, head)
        return chain

    def _ancestry(self) -> Iterator[BlockHeader]:
        """The head's header, then each ancestor's to genesis by parent hash.

        Raises:
            CorruptError: an ancestor is missing or is not one height below.
        """
        header = self.head.header
        yield header
        while (number := header.number) > 0:
            header = _read_header(
                self.table.trie_store, header.parent_hash, f"parent of block {number}"
            )
            if header.number != number - 1:
                raise CorruptError(f"block {number} names block {header.number} as parent")
            yield header

