"""DAG tests: dedup, tamper evidence, directory updates, version history."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sschain.merkle_dag
import sschain.store
from sschain.encoding import hash256, rlp_encode
from sschain.errors import CorruptError, NotFoundError
from sschain.merkle_dag import (
    AccountState,
    CidFormatError,
    DagNode,
    DanglingLinkError,
    DuplicateNameError,
    Link,
    UnknownCidError,
    cid_text,
    dag_build_directory,
    dag_get,
    dag_put,
    name_publish,
    name_resolve,
    parse_cid,
    _encode_node,
    _encode_version,
    _parse_version,
    version_append,
    version_put,
    version_root,
)
from sschain.shard_dht import NodeIdentity, ShardTable
from sschain.store import FileKvStore, KvStore, MemoryKvStore, open_database

FOUR_FILES = [
    ("acct-a.dat", AccountState("6", "13.0").to_json_bytes()),
    ("acct-b.dat", AccountState("2", "7.5").to_json_bytes()),
    ("acct-c.dat", AccountState("0", "0.0").to_json_bytes()),
    ("acct-d.dat", AccountState("11", "250.3").to_json_bytes()),
]


# Each malformed Cid text and what its error says is wrong with it.
BAD_CID_TEXT = {
    "bare": "must start with 'ss1-'",
    "ss1-zz": "hex part is malformed",
    "ss1-abcd": "digest must be 32 bytes",
    "ss2-" + "00" * 32: "must start with 'ss1-'",
}


class TestCid:
    @given(st.binary(min_size=32, max_size=32))
    def test_text_round_trip(self, cid: bytes) -> None:
        text = cid_text(cid)
        assert text == "ss1-" + cid.hex()
        assert parse_cid(text) == cid

    @pytest.mark.parametrize("bad", list(BAD_CID_TEXT))
    def test_parse_rejects(self, bad: str) -> None:
        with pytest.raises(CidFormatError) as excinfo:
            parse_cid(bad)
        assert str(excinfo.value) == f"cid {BAD_CID_TEXT[bad]}: {bad!r}"


class TestPutGet:
    def test_round_trip(self) -> None:
        store = MemoryKvStore()
        node = DagNode(data=b"payload")
        cid = dag_put(store, node)
        assert dag_get(store, cid) == node

    def test_dedup(self) -> None:
        store = MemoryKvStore()
        c1 = dag_put(store, DagNode(data=b"same"))
        c2 = dag_put(store, DagNode(data=b"same"))
        assert c1 == c2
        assert len(store) == 1

    def test_leaf_cid_is_serialization_digest(self) -> None:
        store = MemoryKvStore()
        cid = dag_put(store, DagNode(data=b"leaf"))
        assert cid == hash256(store.get(cid))

    def test_dangling_link_rejected(self) -> None:
        store = MemoryKvStore()
        ghost = Link("ghost", hash256(b"unstored"), 4)
        with pytest.raises(DanglingLinkError) as excinfo:
            dag_put(store, DagNode(links=(ghost,)))
        assert str(excinfo.value) == f"link 'ghost' -> ss1-{ghost.cid.hex()} not in store"

    def test_duplicate_link_names_rejected(self) -> None:
        store = MemoryKvStore()
        leaf = dag_put(store, DagNode(data=b"x"))
        twice = (Link("same", leaf, 1), Link("same", leaf, 1))
        with pytest.raises(DuplicateNameError):
            dag_put(store, DagNode(links=twice))

    def test_get_missing(self) -> None:
        with pytest.raises(NotFoundError):
            dag_get(MemoryKvStore(), hash256(b"missing"))


class TestTamperEvidence:
    def test_single_corrupt_byte_detected(self) -> None:
        store = MemoryKvStore()
        cid = dag_put(store, DagNode(data=b"account state bytes"))
        raw = bytearray(store._entries[cid])
        raw[3] ^= 0xFF
        store._entries[cid] = bytes(raw)
        with pytest.raises(CorruptError) as excinfo:
            dag_get(store, cid)
        assert str(excinfo.value) == f"entry {cid.hex()} fails its content hash"

    def test_every_single_bit_flip_detected(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, [("a", b"one"), ("b", b"two")])
        node_keys = list(store._entries)
        originals = {k: store._entries[k] for k in node_keys}
        flips = checked = 0
        for key in node_keys:
            raw = originals[key]
            for byte_index, bit in itertools.product(range(len(raw)), range(8)):
                mutated = bytearray(raw)
                mutated[byte_index] ^= 1 << bit
                store._entries[key] = bytes(mutated)
                with pytest.raises(CorruptError):
                    dag_get(store, key)
                flips += 1
            store._entries[key] = raw
            checked += 1
        assert checked == len(node_keys) and flips > 0

    def test_dag_read_hashes_its_bytes_once(self, tmp_path, monkeypatch) -> None:
        """The store checks a DAG read; the DAG does not check it again."""
        db = open_database(tmp_path / "kv.db")
        store = FileKvStore(db, "kv")
        cid = dag_put(store, DagNode(data=b"account state bytes"))
        version = version_put(store, cid)
        hashed: list[bytes] = []
        for module in (sschain.store, sschain.merkle_dag):
            real = module.hash256
            monkeypatch.setattr(
                module, "hash256", lambda data, real=real: hashed.append(data) or real(data)
            )
        assert dag_get(store, cid).data == b"account state bytes"
        assert version_root(store, version) == cid
        db.close()
        leaf = _encode_node(DagNode(data=b"account state bytes"))
        assert hashed == [leaf, _encode_version(cid, len(leaf), None, 0)]


class TestDirectory:
    def test_four_files(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        node = dag_get(store, root)
        assert [l.name for l in node.links] == sorted(n for n, _ in FOUR_FILES)
        assert [l.size for l in node.links] == [len(p) for _, p in sorted(FOUR_FILES)]

    def test_input_order_irrelevant(self) -> None:
        store = MemoryKvStore()
        baseline = dag_build_directory(store, FOUR_FILES)
        for perm in itertools.permutations(FOUR_FILES):
            assert dag_build_directory(MemoryKvStore(), list(perm)) == baseline

    def test_empty_directory_valid(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, [])
        assert dag_get(store, root).links == ()

    def test_duplicate_file_name(self) -> None:
        with pytest.raises(DuplicateNameError):
            dag_build_directory(MemoryKvStore(), [("n", b"1"), ("n", b"2")])


def with_account(
    files: list[tuple[str, bytes]], name: str, state: AccountState
) -> list[tuple[str, bytes]]:
    """``files`` with the payload named ``name`` replaced by ``state``'s document."""
    return [(n, state.to_json_bytes() if n == name else p) for n, p in files]


class TestAccountUpdate:
    """Updating one account's file rebuilds its directory from the new
    file set; content addressing keeps every untouched entry as it was."""

    def test_two_of_four_links_change(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        before = {l.name: l.cid for l in dag_get(store, root).links}
        files = with_account(FOUR_FILES, "acct-a.dat", AccountState("7", "10.0"))
        files = with_account(files, "acct-c.dat", AccountState("1", "3.0"))
        root3 = dag_build_directory(store, files)
        after = {l.name: l.cid for l in dag_get(store, root3).links}
        changed = {n for n in before if before[n] != after[n]}
        assert changed == {"acct-a.dat", "acct-c.dat"}
        assert root3 != root
        # untouched entries are the same stored bytes
        for name in ("acct-b.dat", "acct-d.dat"):
            assert store.get(before[name]) == store.get(after[name])

    def test_old_root_still_readable(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        dag_build_directory(
            store, with_account(FOUR_FILES, "acct-b.dat", AccountState("9", "1.1"))
        )
        links = {l.name: l.cid for l in dag_get(store, root).links}
        assert dag_get(store, links["acct-b.dat"]).data == FOUR_FILES[1][1]

    def test_identical_state_is_noop(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        same = dag_build_directory(
            store, with_account(FOUR_FILES, "acct-a.dat", AccountState("6", "13.0"))
        )
        assert same == root

    def test_update_stores_only_leaf_and_directory(self) -> None:
        # A flat directory is one level deep, so a fresh update writes
        # exactly two nodes: the new leaf and the new directory.
        store = MemoryKvStore()
        dag_build_directory(store, FOUR_FILES)
        before = len(store)
        dag_build_directory(
            store, with_account(FOUR_FILES, "acct-d.dat", AccountState("42", "0.5"))
        )
        assert len(store) == before + 2

    def test_noop_update_stores_nothing_new(self) -> None:
        store = MemoryKvStore()
        dag_build_directory(store, FOUR_FILES)
        before = len(store)
        dag_build_directory(
            store, with_account(FOUR_FILES, "acct-a.dat", AccountState("6", "13.0"))
        )
        assert len(store) == before


def version_trail(store: KvStore, head: bytes) -> list[bytes]:
    """Version Cids from ``head`` back along each ``prev`` link, newest first."""
    trail = []
    cursor: bytes | None = head
    while cursor is not None:
        trail.append(cursor)
        cursor = next((l.cid for l in dag_get(store, cursor).links if l.name == "prev"), None)
    return trail


class TestVersionHistory:
    def test_head_without_prev(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        head = version_put(store, root)
        assert version_trail(store, head) == [head]
        assert version_root(store, head) == root

    def test_ten_versions_replay_exactly(self) -> None:
        store = MemoryKvStore()
        snapshots = []
        files = FOUR_FILES
        dir_cid = dag_build_directory(store, files)
        head = version_put(store, dir_cid)
        snapshots.append((head, dir_cid, files))
        for i in range(1, 10):
            files = with_account(files, "acct-a.dat", AccountState(str(i), f"{i}.0"))
            dir_cid = dag_build_directory(store, files)
            head = version_put(store, dir_cid, prev=head)
            snapshots.append((head, dir_cid, files))
        assert version_trail(store, head) == [v for v, _, _ in reversed(snapshots)]
        for version, expected_dir, expected_files in snapshots:
            assert version_root(store, version) == expected_dir
            node = dag_get(store, expected_dir)
            payloads = {l.name: dag_get(store, l.cid).data for l in node.links}
            assert payloads == dict(expected_files)

    def test_broken_prev_link(self) -> None:
        store = MemoryKvStore()
        root = dag_build_directory(store, FOUR_FILES)
        head = version_put(store, root)
        # drop the prev target after the fact to simulate a lost object
        del store._entries[head]
        with pytest.raises(NotFoundError):
            version_append(store, AccountState("1", "4.0").to_json_bytes(), prev=head)


LINK_SIZES = [0, 1, 127, 128, 255, 256, 65535, 65536]
ROOT = hash256(b"root")
PREV = hash256(b"prev")


def generic_version(
    root: bytes, root_size: int, prev: bytes | None, prev_size: int
) -> bytes:
    """A version node through the generic DAG encoder."""
    links = [Link("root", root, root_size)]
    if prev is not None:
        links.append(Link("prev", prev, prev_size))
    return _encode_node(DagNode(links=tuple(links)))


class TestVersionCodec:
    @pytest.mark.parametrize("prev_size", [None, *LINK_SIZES])
    @pytest.mark.parametrize("root_size", LINK_SIZES)
    def test_matches_generic_encoding(
        self, root_size: int, prev_size: int | None
    ) -> None:
        prev = None if prev_size is None else PREV
        fields = (ROOT, root_size, prev, prev_size or 0)
        raw = _encode_version(*fields)
        assert raw == generic_version(*fields)
        assert _parse_version(raw, ROOT) == fields

    @given(
        st.binary(min_size=32, max_size=32),
        st.integers(0, 2**64 - 1),
        st.none() | st.binary(min_size=32, max_size=32),
        st.integers(0, 2**64 - 1),
    )
    def test_oracle_property(
        self, root: bytes, root_size: int, prev: bytes | None, prev_size: int
    ) -> None:
        fields = (root, root_size, None, 0)
        if prev is not None:
            fields = (root, root_size, prev, prev_size)
        raw = _encode_version(*fields)
        assert raw == generic_version(*fields)
        assert _parse_version(raw, ROOT) == fields

    @given(
        st.sampled_from(LINK_SIZES),
        st.booleans(),
        st.integers(0, 120),
        st.binary(max_size=3),
        st.integers(0, 3),
    )
    def test_parse_accepts_only_what_encode_writes(
        self, size: int, chained: bool, at: int, insert: bytes, cut: int
    ) -> None:
        """A version node with bytes spliced in or cut out parses only if it
        is still exactly what the encoder writes for the fields read."""
        valid = _encode_version(ROOT, size, PREV if chained else None, size)
        raw = valid[:at] + insert + valid[at + cut :]
        try:
            fields = _parse_version(raw, ROOT)
        except CorruptError:
            return
        assert _encode_version(*fields) == raw


WRITER = NodeIdentity.derive(hash256(b"writer"), 1, book=True, authority=True)


def store_not_a_version(store: MemoryKvStore, kind: str) -> bytes:
    """Store a node that is not a version node and return its Cid."""
    payload = AccountState("0", "5.0").to_json_bytes()
    leaf = dag_put(store, DagNode(data=payload))
    root_link = Link("root", leaf, len(store.get(leaf)))
    if kind == "account leaf":
        return leaf
    if kind == "directory":
        return dag_build_directory(store, FOUR_FILES)
    if kind == "extra data":
        return dag_put(store, DagNode(data=b"x", links=(root_link,)))
    if kind == "extra link":
        extra = Link("zzz", leaf, root_link.size)
        return dag_put(store, DagNode(links=(root_link, extra)))
    assert kind == "padded size"
    size = b"\x00" + root_link.size.to_bytes(2, "big")
    return store.put(rlp_encode([b"", [[b"root", leaf, size]]]))


NOT_VERSION_KINDS = [
    "account leaf",
    "directory",
    "extra data",
    "extra link",
    "padded size",
]


class TestNotAVersionNode:
    @pytest.mark.parametrize("kind", NOT_VERSION_KINDS)
    def test_version_root_refuses(self, kind: str) -> None:
        store = MemoryKvStore()
        cid = store_not_a_version(store, kind)
        with pytest.raises(CorruptError) as excinfo:
            version_root(store, cid)
        assert str(excinfo.value) == f"ss1-{cid.hex()} is not a version node"

    @pytest.mark.parametrize("kind", NOT_VERSION_KINDS)
    def test_write_account_refuses_prev(self, kind: str) -> None:
        table = ShardTable(1)
        address = b"\x66" * 20
        prev = store_not_a_version(table.store_for(address), kind)
        with pytest.raises(CorruptError, match="is not a version node"):
            table.write_account(
                WRITER, address, AccountState("1", "4.0"), trie=table.trie, prev_cid=prev
            )


class TestNameRegistry:
    """Name records: node id -> latest Cid, as named entries of ``records``."""

    def test_publish_then_resolve(self) -> None:
        store, records = MemoryKvStore(), MemoryKvStore()
        target = dag_put(store, DagNode(data=b"content"))
        node_id = hash256(b"publisher")
        assert name_publish(store, records, node_id, target) == 1
        assert name_resolve(records, node_id) == target

    def test_latest_wins_with_sequence(self) -> None:
        store, records = MemoryKvStore(), MemoryKvStore()
        node_id = hash256(b"publisher")
        targets = [dag_put(store, DagNode(data=bytes([i]))) for i in range(1, 4)]
        sequences = [name_publish(store, records, node_id, target) for target in targets]
        assert sequences == [1, 2, 3]
        assert name_resolve(records, node_id) == targets[-1]

    def test_unpublished(self) -> None:
        with pytest.raises(NotFoundError):
            name_resolve(MemoryKvStore(), hash256(b"nobody"))

    def test_unstored_target_rejected(self) -> None:
        records, ghost = MemoryKvStore(), hash256(b"ghost")
        with pytest.raises(UnknownCidError) as excinfo:
            name_publish(MemoryKvStore(), records, hash256(b"id"), ghost)
        assert str(excinfo.value) == f"cannot publish unstored ss1-{ghost.hex()}"
        assert len(records) == 0

    def test_record_is_a_named_entry_of_records(self) -> None:
        store, records = MemoryKvStore(), MemoryKvStore()
        target = dag_put(store, DagNode(data=b"content"))
        node_id = hash256(b"publisher")
        name_publish(store, records, node_id, target)
        name_publish(store, records, node_id, target)
        assert records.named_keys() == [node_id]
        assert records.get(node_id) == rlp_encode([b"\x02", target])
        assert name_resolve(records, node_id) == target

    @pytest.mark.parametrize(
        "raw",
        [b"zz", rlp_encode([b"\x01", b"short"]), rlp_encode([b"\x00", bytes(32)])],
        ids=["not-rlp", "short-target", "padded-sequence"],
    )
    def test_malformed_record(self, raw: bytes) -> None:
        records = MemoryKvStore()
        node_id = hash256(b"publisher")
        records.put_named(node_id, raw)
        message = f"stored name record for {node_id.hex()} is malformed"
        with pytest.raises(CorruptError, match=message):
            name_resolve(records, node_id)

    def test_publishers_isolated(self) -> None:
        store, records = MemoryKvStore(), MemoryKvStore()
        t1 = dag_put(store, DagNode(data=b"one"))
        t2 = dag_put(store, DagNode(data=b"two"))
        name_publish(store, records, hash256(b"p1"), t1)
        name_publish(store, records, hash256(b"p2"), t2)
        assert name_resolve(records, hash256(b"p1")) == t1
        assert name_resolve(records, hash256(b"p2")) == t2


# Text for the account document's string fields, weighted towards the
# characters JSON must escape (quote, backslash, controls, non-ASCII).
DOC_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(),
    max_size=12,
)

REFERENCE_DOC_HASHES = {
    "seqNumberHash": "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683",
    "balanceHash": "be293da5be477078cbeee7feef7b384f879f730ef26f51a674ce59f6ee0251d4",
    "codeHash": "",
    "dataHash": "8685aa835d1a6cc594c80b6e834174ebe17f5c9a8abdf479d04a14eb28a0b701",
}


class TestAccountState:
    def test_reference_document_known_answers(self) -> None:
        """seq 6 / balance 13.0 reproduces the reference hash set exactly."""
        state = AccountState("6", "13.0")
        doc = json.loads(state.to_json_bytes())["result"]
        assert doc["seqNumber"] == "6"
        assert doc["balance"] == "13.0"
        assert doc["code"] == ""
        for field, expected in REFERENCE_DOC_HASHES.items():
            assert doc[field] == expected

    def test_field_hashes_recompute(self) -> None:
        doc = json.loads(AccountState("3", "0.5", code=b"\x60\x00").to_json_bytes())["result"]
        assert doc["seqNumberHash"] == hash256(b"3").hex()
        assert doc["balanceHash"] == hash256(b"0.5").hex()
        assert doc["codeHash"] == hash256(b"\x60\x00").hex()
        preimage = (doc["seqNumberHash"] + doc["balanceHash"] + doc["codeHash"]).encode()
        assert doc["dataHash"] == hash256(preimage).hex()

    def test_empty_code_hash_is_empty_string(self) -> None:
        assert json.loads(AccountState("0", "0.0").to_json_bytes())["result"]["codeHash"] == ""

    def test_json_round_trip(self) -> None:
        state = AccountState("42", "999.9", code=b"\xde\xad")
        assert AccountState.from_json_bytes(state.to_json_bytes()) == state

    def test_altered_field_rejected_on_parse(self) -> None:
        raw = AccountState("6", "13.0").to_json_bytes()
        doc = json.loads(raw)
        doc["result"]["balance"] = "14.0"
        with pytest.raises(CorruptError):
            AccountState.from_json_bytes(json.dumps(doc).encode())

    @given(DOC_TEXT, DOC_TEXT, st.binary(max_size=8))
    def test_json_bytes_match_json_dumps(self, seq: str, balance: str, code: bytes) -> None:
        """The document's byte form is exactly ``json.dumps(indent=2)``; text
        UTF-8 cannot encode (a lone surrogate) raises instead."""
        state = AccountState(seq, balance, code=code)
        try:
            (seq + balance).encode()
        except UnicodeEncodeError:
            with pytest.raises(UnicodeEncodeError):
                state.to_json_bytes()
            return
        hashes = [hash256(seq.encode()).hex(), hash256(balance.encode()).hex()]
        hashes.append(hash256(code).hex() if code else "")
        doc = {
            "result": {
                "seqNumber": seq,
                "balance": balance,
                "code": code.hex(),
                "seqNumberHash": hashes[0],
                "balanceHash": hashes[1],
                "codeHash": hashes[2],
                "dataHash": hash256("".join(hashes).encode()).hex(),
            }
        }
        raw = state.to_json_bytes()
        assert raw == (json.dumps(doc, indent=2) + "\n").encode()
        assert AccountState.from_json_bytes(raw) == state

    @pytest.mark.parametrize("field", ["seqNumber", "balance"])
    def test_lone_surrogate_field_rejected(self, field: str) -> None:
        doc = json.loads(AccountState("6", "13.0").to_json_bytes())
        doc["result"][field] = "\ud800"
        raw = json.dumps(doc).encode()
        assert b'"\\ud800"' in raw
        with pytest.raises(CorruptError):
            AccountState.from_json_bytes(raw)

    def test_malformed_document_rejected(self) -> None:
        with pytest.raises(CorruptError):
            AccountState.from_json_bytes(b"{}")
        with pytest.raises(CorruptError):
            AccountState.from_json_bytes(b"not json")
