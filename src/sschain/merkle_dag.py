"""Content-addressed Merkle DAG of versioned account states.

A ``DagNode`` carries an optional byte payload and a list of named links
to other nodes. Its canonical serialization is the RLP list

    [data, [[name, cid, size], ...]]

with links sorted by name and sizes in minimal big-endian form, and its
``Cid`` is the SHA-256 digest of those bytes, printed as ``ss1-<hex>``.
Identical content always produces the same Cid, so storing the same
payload twice costs one entry.

Account states serialize to a small fixed-shape JSON document whose
field hashes make every field individually checkable. Its byte form is a
fixed contract: exactly ``json.dumps(doc, indent=2) + "\n"`` with the
keys in the order ``AccountState.to_json_bytes`` writes them. Leaf Cids,
version Cids and state roots all hash these bytes, so any change to the
form changes every root. Directory nodes group state files; version
nodes wrap a root and link back to the prior version, giving a rollback
trail (``account_history``). A ``NameRegistry``
maps a publisher's node id to its latest root, latest-sequence-wins.

A version node is the DAG node ``[b"", [[b"prev", prev, prev_size],
[b"root", root, root_size]]]`` (no ``prev`` link on a first version),
and its bytes are a fixed contract too. In hex, with ``S(n)`` the RLP of
the minimal big-endian form of ``n`` (``80`` for 0, the byte itself
below 128, else ``80+len`` and the bytes) and ``R``/``P`` the two link
triples::

    R = c0+len(rest) | 84 "root" | a0 root digest | S(root_size)
    P = c0+len(rest) | 84 "prev" | a0 prev digest | S(prev_size)
    first version:   c2+len(R) | 80 | c0+len(R) | R
    later versions:  f8 | 3+len(P R) | 80 | f8 | len(P R) | P R

Sizes are byte counts below 2**64, so every head has the form shown.
Only ``_encode_version`` writes these bytes, and ``_parse_version``
accepts exactly what it writes: a node with any other bytes, such as
extra data, extra links or a padded size, is not a version node.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from .encoding import (
    DIGEST_SIZE,
    CodecError,
    Digest,
    RlpDecodeError,
    RlpItem,
    hash256,
    int_from_bytes,
    int_to_bytes,
    rlp_decode,
    rlp_encode,
)
from .errors import CorruptError, NotFoundError, SSChainError
from .store import KvStore


class DagError(SSChainError):
    """Base for DAG-specific failures."""


class DanglingLinkError(DagError):
    """A node links to a Cid that is not in the store."""


class DuplicateNameError(DagError):
    """Two links (or input files) share a name."""


class UnknownCidError(DagError):
    """A Cid passed by reference does not resolve in the store."""


class CidFormatError(DagError, ValueError):
    """Text does not parse as an ``ss1-<hex>`` Cid."""


CID_PREFIX = "ss1-"


@dataclass(frozen=True, slots=True)
class Cid:
    """Content identifier: the digest of a node's canonical bytes."""

    digest: Digest

    def __str__(self) -> str:
        return CID_PREFIX + self.digest.hex()

    @classmethod
    def parse(cls, text: str) -> "Cid":
        if not text.startswith(CID_PREFIX):
            raise CidFormatError(f"cid must start with {CID_PREFIX!r}: {text!r}")
        try:
            digest = bytes.fromhex(text[len(CID_PREFIX) :])
        except ValueError:
            raise CidFormatError(f"cid hex part is malformed: {text!r}") from None
        if len(digest) != DIGEST_SIZE:
            raise CidFormatError(f"cid digest must be {DIGEST_SIZE} bytes: {text!r}")
        return cls(digest)


@dataclass(frozen=True, slots=True)
class Link:
    name: str
    cid: Cid
    size: int


@dataclass(frozen=True, slots=True)
class DagNode:
    data: bytes = b""
    links: tuple[Link, ...] = ()

    def link(self, name: str) -> Optional[Link]:
        for link in self.links:
            if link.name == name:
                return link
        return None


@dataclass(frozen=True, slots=True)
class AccountState:
    """One account's balance, transaction count, and contract code.

    ``seq_number`` counts transactions the account has sent; ``balance``
    keeps the one-fractional-digit decimal convention (``"13.0"``) so the
    hashed text is reproducible. ``code`` is empty for external accounts.
    """

    seq_number: str
    balance: str
    code: bytes = b""

    @property
    def seq_number_hash(self) -> str:
        return hash256(self.seq_number.encode()).hex()

    @property
    def balance_hash(self) -> str:
        return hash256(self.balance.encode()).hex()

    @property
    def code_hash(self) -> str:
        """Hex digest of the code, or the empty string for no code."""
        return hash256(self.code).hex() if self.code else ""

    @property
    def data_hash(self) -> str:
        """Digest over the concatenated hex texts of the three field hashes."""
        return self._field_hashes()[3]

    def _field_hashes(self) -> tuple[str, str, str, str]:
        """(seqNumberHash, balanceHash, codeHash, dataHash), each hashed once."""
        seq_hash = self.seq_number_hash
        balance_hash = self.balance_hash
        code_hash = self.code_hash
        data_hash = hash256((seq_hash + balance_hash + code_hash).encode()).hex()
        return seq_hash, balance_hash, code_hash, data_hash

    def to_json_bytes(self) -> bytes:
        """The account document; byte-identical to ``json.dumps(indent=2)``."""
        hashes = self._field_hashes()
        return (
            _ACCOUNT_JSON
            % (
                encode_basestring_ascii(self.seq_number),
                encode_basestring_ascii(self.balance),
                self.code.hex(),
                *hashes,
            )
        ).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "AccountState":
        """Parse and re-verify every embedded field hash.

        Raises:
            CorruptError: malformed document or any hash mismatch.
        """
        try:
            result = json.loads(raw.decode())["result"]
            state = cls(
                seq_number=result["seqNumber"],
                balance=result["balance"],
                code=bytes.fromhex(result["code"]),
            )
            stored = (
                result["seqNumberHash"],
                result["balanceHash"],
                result["codeHash"],
                result["dataHash"],
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptError(f"malformed account state document: {exc}") from exc
        if stored != state._field_hashes():
            raise CorruptError("account state field hash mismatch")
        return state


# ``json.dumps(doc, indent=2) + "\n"`` of the account document, with the
# string fields already quoted. The hex fields need no escaping.
_ACCOUNT_JSON = """{
  "result": {
    "seqNumber": %s,
    "balance": %s,
    "code": "%s",
    "seqNumberHash": "%s",
    "balanceHash": "%s",
    "codeHash": "%s",
    "dataHash": "%s"
  }
}
"""


def dag_put(store: KvStore, node: DagNode) -> Cid:
    """Store ``node`` canonically; children must already be present.

    Raises:
        DuplicateNameError: two links share a name.
        DagError: a link size is negative.
        DanglingLinkError: a linked Cid is missing from the store.
    """
    names = [link.name for link in node.links]
    if len(set(names)) != len(names):
        raise DuplicateNameError(f"duplicate link names in {sorted(names)}")
    for link in node.links:
        if link.size < 0:
            raise DagError(f"link {link.name!r} has negative size {link.size}")
        if not store.has(link.cid.digest):
            raise DanglingLinkError(f"link {link.name!r} -> {link.cid} not in store")
    return Cid(store.put(_encode_node(node)))


def dag_get(store: KvStore, cid: Cid) -> DagNode:
    """Load a node and re-verify its digest before decoding.

    Raises:
        NotFoundError: cid absent.
        CorruptError: stored bytes do not hash to the cid or do not
            decode as a canonical node.
    """
    return _decode_node(_get_verified(store, cid))


def dag_build_directory(store: KvStore, files: list[tuple[str, bytes]]) -> Cid:
    """Store each payload as a leaf, then one directory node linking them all.

    Links carry the file name and payload size; the directory Cid depends
    only on the name/content set, not on input order.

    Raises:
        DuplicateNameError: repeated file name.
    """
    names = [name for name, _ in files]
    if len(set(names)) != len(names):
        raise DuplicateNameError(f"duplicate file names in {sorted(names)}")
    links = []
    for name, payload in files:
        leaf_cid = dag_put(store, DagNode(data=payload))
        links.append(Link(name, leaf_cid, len(payload)))
    return dag_put(store, DagNode(links=tuple(sorted(links, key=lambda l: l.name))))


def account_update(
    store: KvStore, dir_cid: Cid, name: str, new_state: AccountState
) -> Cid:
    """Replace one named entry of a directory; return the new directory Cid.

    Only the leaf and the directory node are rewritten; sibling links are
    reused byte-for-byte. An update that leaves the content unchanged
    returns ``dir_cid`` itself.

    Raises:
        NotFoundError: ``name`` is not linked from the directory.
    """
    directory = dag_get(store, dir_cid)
    old = directory.link(name)
    if old is None:
        raise NotFoundError(f"no entry named {name!r} under {dir_cid}")
    payload = new_state.to_json_bytes()
    leaf_cid = dag_put(store, DagNode(data=payload))
    if leaf_cid == old.cid:
        return dir_cid
    links = tuple(
        Link(name, leaf_cid, len(payload)) if link.name == name else link
        for link in directory.links
    )
    return dag_put(store, DagNode(data=directory.data, links=links))


def version_put(store: KvStore, root: Cid, prev: Optional[Cid] = None) -> Cid:
    """Wrap ``root`` in a version node, optionally chained to ``prev``.

    Raises:
        NotFoundError: root or prev absent.
    """
    root_size = len(store.get(root.digest))
    prev_size = len(store.get(prev.digest)) if prev is not None else 0
    return Cid(store.put(_encode_version(root, root_size, prev, prev_size)))


def version_root(store: KvStore, version: Cid) -> Cid:
    """The content root a version node wraps.

    Raises:
        NotFoundError: version absent.
        CorruptError: node fails its digest or is not a version node.
    """
    return _parse_version(_get_verified(store, version), version)[0]


def version_append(
    store: KvStore, payload: bytes, prev: Optional[Cid] = None
) -> Optional[Cid]:
    """Store ``payload`` as a leaf and wrap it in a version chained to ``prev``.

    ``prev`` is read once, and its digest verified as :func:`dag_get`
    does. Returns None when ``prev`` already wraps identical content; only
    the (already present) leaf is written then. The version node is the
    one :func:`version_put` would write for the same leaf and ``prev``.

    Raises:
        NotFoundError: prev absent.
        CorruptError: prev fails its digest or is not a version node.
    """
    leaf = _encode_node(DagNode(data=payload))
    leaf_cid = Cid(store.put(leaf))
    prev_size = 0
    if prev is not None:
        raw = _get_verified(store, prev)
        if _parse_version(raw, prev)[0] == leaf_cid:
            return None
        prev_size = len(raw)
    return Cid(store.put(_encode_version(leaf_cid, len(leaf), prev, prev_size)))


def account_history(store: KvStore, version_head: Cid) -> list[Cid]:
    """All version Cids reachable from ``version_head``, newest first.

    Adopting any returned Cid as current is a rollback; nothing is
    deleted by moving the head.

    Raises:
        NotFoundError: head or any prev link does not resolve.
        CorruptError: a node on the trail fails its digest or is not a
            version node.
    """
    history = []
    cursor: Optional[Cid] = version_head
    while cursor is not None:
        history.append(cursor)
        cursor = _parse_version(_get_verified(store, cursor), cursor)[2]
    return history


@dataclass(frozen=True, slots=True)
class NameRecord:
    node_id: Digest
    target: Cid
    sequence: int


@dataclass
class NameRegistry:
    """Mutable node-id -> latest published Cid map, single writer per id."""

    store: KvStore
    _records: dict[Digest, NameRecord] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


def name_publish(registry: NameRegistry, node_id: Digest, target: Cid) -> NameRecord:
    """Bind ``node_id`` to ``target`` with the next sequence number.

    Raises:
        UnknownCidError: target not present in the registry's store.
    """
    if not registry.store.has(target.digest):
        raise UnknownCidError(f"cannot publish unstored {target}")
    with registry._lock:
        prior = registry._records.get(node_id)
        record = NameRecord(node_id, target, (prior.sequence if prior else 0) + 1)
        registry._records[node_id] = record
    return record


def name_resolve(registry: NameRegistry, node_id: Digest) -> Cid:
    """Latest Cid published by ``node_id``.

    Raises:
        NotFoundError: nothing published under this id.
    """
    record = registry._records.get(node_id)
    if record is None:
        raise NotFoundError(f"no name published by {node_id.hex()}")
    return record.target


def _get_verified(store: KvStore, cid: Cid) -> bytes:
    raw = store.get(cid.digest)
    if hash256(raw) != cid.digest:
        raise CorruptError(f"content of {cid} does not match its digest")
    return raw


def _encode_node(node: DagNode) -> bytes:
    triples: list[RlpItem] = [
        [link.name.encode(), link.cid.digest, int_to_bytes(link.size)]
        for link in sorted(node.links, key=lambda l: l.name)
    ]
    return rlp_encode([node.data, triples])


def _decode_node(raw: bytes) -> DagNode:
    try:
        struct = rlp_decode(raw)
    except RlpDecodeError as exc:
        raise CorruptError(f"stored node is not valid RLP: {exc}") from exc
    if not (isinstance(struct, list) and len(struct) == 2):
        raise CorruptError("dag node must be a two-item RLP list")
    data, triples = struct
    if not isinstance(data, bytes) or not isinstance(triples, list):
        raise CorruptError("dag node fields have wrong shapes")
    links = []
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise CorruptError("dag link must be a [name, cid, size] triple")
        name, digest, size = triple
        if not (isinstance(name, bytes) and isinstance(digest, bytes)):
            raise CorruptError("dag link fields have wrong shapes")
        if len(digest) != DIGEST_SIZE or not isinstance(size, bytes):
            raise CorruptError("dag link cid or size is malformed")
        try:
            links.append(Link(name.decode(), Cid(digest), int_from_bytes(size)))
        except (UnicodeDecodeError, CodecError) as exc:
            raise CorruptError(f"dag link name or size is malformed: {exc}") from exc
    names = [link.name for link in links]
    if names != sorted(names) or len(set(names)) != len(names):
        raise CorruptError("dag links are not uniquely named in sorted order")
    return DagNode(data=data, links=tuple(links))


# The RLP of a link name followed by the head of the 32-byte digest.
_ROOT_FIELD = b"\x84root\xa0"
_PREV_FIELD = b"\x84prev\xa0"
# Bytes of a link triple between its head and its size field.
_LINK_FIXED = len(_ROOT_FIELD) + DIGEST_SIZE


def _encode_version(
    root: Cid, root_size: int, prev: Optional[Cid], prev_size: int
) -> bytes:
    """A version node's bytes, as the module docstring lays them out.

    Equal to ``_encode_node`` of the node's ``root`` and ``prev`` links.
    """
    links = _version_link(_ROOT_FIELD, root, root_size)
    if prev is None:
        return bytes((0xC2 + len(links), 0x80, 0xC0 + len(links))) + links
    links = _version_link(_PREV_FIELD, prev, prev_size) + links
    return bytes((0xF8, 3 + len(links), 0x80, 0xF8, len(links))) + links


def _version_link(field: bytes, cid: Cid, size: int) -> bytes:
    """RLP of one ``[name, cid, size]`` triple; ``field`` is the name part."""
    if 0 < size < 0x80:
        size_item = bytes((size,))
    else:
        size_raw = int_to_bytes(size)
        size_item = bytes((0x80 + len(size_raw),)) + size_raw
    head = bytes((0xC0 + _LINK_FIXED + len(size_item),))
    return head + field + cid.digest + size_item


def _parse_version(raw: bytes, cid: Cid) -> tuple[Cid, int, Optional[Cid], int]:
    """(root, root size, prev or None, prev size) of the version node ``cid``.

    The link fields are read at their fixed offsets and re-encoded; the
    node is accepted only if that gives back ``raw`` exactly.

    Raises:
        CorruptError: ``raw`` is not what :func:`_encode_version` writes.
    """
    # A first version's root triple starts at byte 3; a later version's
    # two long-form heads put its prev triple at byte 5, the root after it.
    prev, prev_size, at = None, 0, 3
    if raw[:1] == b"\xf8":
        prev, prev_size, at = _read_link(raw, 5)
    root, root_size, _ = _read_link(raw, at)
    if _encode_version(root, root_size, prev, prev_size) != raw:
        raise CorruptError(f"{cid} is not a version node")
    return root, root_size, prev, prev_size


def _read_link(raw: bytes, at: int) -> tuple[Cid, int, int]:
    """(cid, size, end) of the link triple whose head is at ``at``, unchecked.

    A size field longer than 8 bytes is read as its first 8, so it cannot
    re-encode to the same bytes.
    """
    at += 1 + _LINK_FIXED
    head = raw[at] if at < len(raw) else 0
    cid = Cid(raw[at - DIGEST_SIZE : at])
    if head < 0x80:
        return cid, head, at + 1
    end = at + 1 + min(head - 0x80, 8)
    return cid, int.from_bytes(raw[at + 1 : end], "big"), end
