"""Content-addressed Merkle DAG of versioned account states.

A ``DagNode`` carries an optional byte payload and a list of named links
to other nodes. Its canonical serialization is the RLP list

    [data, [[name, cid, size], ...]]

with links sorted by name and sizes in minimal big-endian form. Its Cid
(content id) is the SHA-256 digest of those bytes, and is passed around
as those 32 bytes; :func:`cid_text` and :func:`parse_cid` own its text
form ``ss1-<hex>``. Identical content always produces the same Cid, so
storing the same payload twice costs one entry.

Account states serialize to a small fixed-shape JSON document whose
field hashes make every field individually checkable. Its byte form is a
fixed contract: exactly ``json.dumps(doc, indent=2) + "\n"`` with the
keys in the order ``AccountState.to_json_bytes`` writes them. Leaf Cids,
version Cids and state roots all hash these bytes, so any change to the
form changes every root. Directory nodes group state files; version
nodes wrap a root and link back to the prior version through their
``prev`` link, giving a rollback trail. A chain writes one version per
touched account per block, after the block's body and credits, chained
to the version the previous block left, so the trail steps block by
block. :func:`name_publish` binds a publisher's node id to its latest
root, latest-sequence-wins, as RLP ``[sequence, target digest]`` under
the node id in a ``records`` store.

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
from dataclasses import dataclass
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


def cid_text(cid: Digest) -> str:
    """The ``ss1-<hex>`` text form of a Cid."""
    return CID_PREFIX + cid.hex()


def parse_cid(text: str) -> Digest:
    """The Cid whose text form is ``text``.

    Raises:
        CidFormatError: no ``ss1-`` prefix, or not 32 bytes of hex after it.
    """
    if not text.startswith(CID_PREFIX):
        raise CidFormatError(f"cid must start with {CID_PREFIX!r}: {text!r}")
    try:
        digest = bytes.fromhex(text[len(CID_PREFIX) :])
    except ValueError:
        raise CidFormatError(f"cid hex part is malformed: {text!r}") from None
    if len(digest) != DIGEST_SIZE:
        raise CidFormatError(f"cid digest must be {DIGEST_SIZE} bytes: {text!r}")
    return digest


@dataclass(frozen=True, slots=True)
class Link:
    name: str
    cid: Digest
    size: int


@dataclass(frozen=True, slots=True)
class DagNode:
    data: bytes = b""
    links: tuple[Link, ...] = ()


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

    def _field_hashes(self) -> tuple[str, str, str, str]:
        """(seqNumberHash, balanceHash, codeHash, dataHash) as hex texts.

        The code hash is the empty string for no code, and the data hash
        is the digest of the other three texts concatenated.
        """
        seq_hash = hash256(self.seq_number.encode()).hex()
        balance_hash = hash256(self.balance.encode()).hex()
        code_hash = hash256(self.code).hex() if self.code else ""
        data_hash = hash256((seq_hash + balance_hash + code_hash).encode()).hex()
        return seq_hash, balance_hash, code_hash, data_hash

    def to_json_bytes(self) -> bytes:
        """The account document; byte-identical to ``json.dumps(indent=2)``.
        Text UTF-8 cannot encode (a lone surrogate) raises UnicodeEncodeError."""
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
            computed = state._field_hashes()
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptError(f"malformed account state document: {exc}") from exc
        if stored != computed:
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


def dag_put(store: KvStore, node: DagNode) -> Digest:
    """Store ``node`` canonically and return its Cid; children must
    already be present.

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
        if not store.has(link.cid):
            raise DanglingLinkError(f"link {link.name!r} -> {cid_text(link.cid)} not in store")
    return store.put(_encode_node(node))


def dag_get(store: KvStore, cid: Digest) -> DagNode:
    """Load and decode a node; the store has checked its bytes against
    the cid.

    Raises:
        NotFoundError: cid absent.
        CorruptError: stored bytes do not hash to the cid or do not
            decode as a canonical node.
    """
    return _decode_node(store.get(cid))


def dag_build_directory(store: KvStore, files: list[tuple[str, bytes]]) -> Digest:
    """Store each payload as a leaf, then one directory node linking them
    all; return the directory's Cid.

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


def version_put(store: KvStore, root: Digest, prev: Optional[Digest] = None) -> Digest:
    """Wrap ``root`` in a version node, optionally chained to ``prev``.

    Raises:
        NotFoundError: root or prev absent.
    """
    root_size = len(store.get(root))
    prev_size = len(store.get(prev)) if prev is not None else 0
    return store.put(_encode_version(root, root_size, prev, prev_size))


def version_root(store: KvStore, version: Digest) -> Digest:
    """The content root a version node wraps, read once through the
    store, which checks the node's bytes against ``version``.

    Raises:
        NotFoundError: version absent.
        CorruptError: node fails its digest or is not a version node.
    """
    return _parse_version(store.get(version), version)[0]


def version_append(
    store: KvStore, payload: bytes, prev: Optional[Digest] = None
) -> Optional[Digest]:
    """Store ``payload`` as a leaf and wrap it in a version chained to ``prev``.

    ``prev`` is read once, through the store, which checks it against its
    digest. Returns None when ``prev`` already wraps identical content;
    only the (already present) leaf is written then. The version node is
    the one :func:`version_put` would write for the same leaf and ``prev``.

    Raises:
        NotFoundError: prev absent.
        CorruptError: prev fails its digest or is not a version node.
    """
    leaf = _encode_node(DagNode(data=payload))
    leaf_cid = store.put(leaf)
    prev_size = 0
    if prev is not None:
        raw = store.get(prev)
        if _parse_version(raw, prev)[0] == leaf_cid:
            return None
        prev_size = len(raw)
    return store.put(_encode_version(leaf_cid, len(leaf), prev, prev_size))


def name_publish(store: KvStore, records: KvStore, node_id: Digest, target: Digest) -> int:
    """Bind ``node_id`` to ``target``, a Cid in ``store``, in ``records``;
    return the binding's sequence number, one past the prior binding's.

    Raises:
        CorruptError: the stored record for ``node_id`` is malformed.
        UnknownCidError: target not present in ``store``.
    """
    prior = _name_record(records, node_id)
    if not store.has(target):
        raise UnknownCidError(f"cannot publish unstored {cid_text(target)}")
    sequence = (prior[0] if prior else 0) + 1
    records.put_named(node_id, rlp_encode([int_to_bytes(sequence), target]))
    return sequence


def name_resolve(records: KvStore, node_id: Digest) -> Digest:
    """Latest Cid ``node_id`` bound in ``records``.

    Raises:
        NotFoundError: nothing published under this id.
        CorruptError: the stored record is malformed.
    """
    record = _name_record(records, node_id)
    if record is None:
        raise NotFoundError(f"no name published by {node_id.hex()}")
    return record[1]


def _name_record(records: KvStore, node_id: Digest) -> Optional[tuple[int, Digest]]:
    """(sequence, target) stored for ``node_id``, if any; CorruptError if
    malformed."""
    try:
        raw = records.get(node_id)
    except NotFoundError:
        return None
    try:
        sequence, target = rlp_decode(raw)
        if isinstance(sequence, bytes) and sequence and isinstance(target, bytes):
            if len(target) == DIGEST_SIZE:
                return int_from_bytes(sequence), target
    except ValueError:
        pass
    raise CorruptError(f"stored name record for {node_id.hex()} is malformed")


def _encode_node(node: DagNode) -> bytes:
    triples: list[RlpItem] = [
        [link.name.encode(), link.cid, int_to_bytes(link.size)]
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
            links.append(Link(name.decode(), digest, int_from_bytes(size)))
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
    root: Digest, root_size: int, prev: Optional[Digest], prev_size: int
) -> bytes:
    """A version node's bytes, as the module docstring lays them out.

    Equal to ``_encode_node`` of the node's ``root`` and ``prev`` links.
    """
    links = _version_link(_ROOT_FIELD, root, root_size)
    if prev is None:
        return bytes((0xC2 + len(links), 0x80, 0xC0 + len(links))) + links
    links = _version_link(_PREV_FIELD, prev, prev_size) + links
    return bytes((0xF8, 3 + len(links), 0x80, 0xF8, len(links))) + links


def _version_link(field: bytes, cid: Digest, size: int) -> bytes:
    """RLP of one ``[name, cid, size]`` triple; ``field`` is the name part."""
    if 0 < size < 0x80:
        size_item = bytes((size,))
    else:
        size_raw = int_to_bytes(size)
        size_item = bytes((0x80 + len(size_raw),)) + size_raw
    head = bytes((0xC0 + _LINK_FIXED + len(size_item),))
    return head + field + cid + size_item


def _parse_version(raw: bytes, cid: Digest) -> tuple[Digest, int, Optional[Digest], int]:
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
        raise CorruptError(f"{cid_text(cid)} is not a version node")
    return root, root_size, prev, prev_size


def _read_link(raw: bytes, at: int) -> tuple[Digest, int, int]:
    """(cid, size, end) of the link triple whose head is at ``at``, unchecked.

    A size field longer than 8 bytes is read as its first 8, so it cannot
    re-encode to the same bytes.
    """
    at += 1 + _LINK_FIXED
    head = raw[at] if at < len(raw) else 0
    cid = raw[at - DIGEST_SIZE : at]
    if head < 0x80:
        return cid, head, at + 1
    end = at + 1 + min(head - 0x80, 8)
    return cid, int.from_bytes(raw[at + 1 : end], "big"), end
