"""Trie behavior against a plain dict oracle, plus sharing and errors."""

from __future__ import annotations

import functools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from sschain.encoding import (
    hash256, hex_encode, hp_encode, int_to_bytes, rlp_decode, rlp_encode
)
from sschain.errors import CorruptError, NotFoundError
from sschain.mpt import (
    EMPTY_ROOT,
    EmptyKeyError,
    EmptyValueError,
    RootNotFoundError,
    Trie,
    TrieDecodeError,
    TrieError,
    _decode_node,
    _parse_rlp,
    commit_indexed,
)
from sschain.store import FileKvStore, MemoryKvStore, open_database


def build(store, pairs):
    trie = Trie(store)
    for key, value in pairs:
        trie = trie.insert(key, value)
    return trie


def random_pairs(rng, count, key_len=(1, 12)):
    pairs = {}
    while len(pairs) < count:
        key = bytes(rng.randrange(256) for _ in range(rng.randint(*key_len)))
        if key:
            pairs[key] = hash256(key + b"v")[: rng.randint(1, 32)]
    return pairs


class TestEmptyTrie:
    def test_empty_root_value(self) -> None:
        assert EMPTY_ROOT == hash256(rlp_encode(b""))
        assert EMPTY_ROOT.hex() == (
            "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71"
        )

    def test_commit_of_empty(self) -> None:
        store = MemoryKvStore()
        assert Trie(store).commit() == EMPTY_ROOT
        assert store.get(EMPTY_ROOT) == rlp_encode(b"")

    def test_open_at_empty_root(self) -> None:
        store = MemoryKvStore()
        Trie(store).commit()
        trie = Trie(store, EMPTY_ROOT)
        with pytest.raises(NotFoundError):
            trie.get(b"anything")

    def test_commit_at_empty_root_writes_nothing(self, tmp_path) -> None:
        db = open_database(tmp_path / "empty.db")
        try:
            db.execute("PRAGMA query_only = ON")
            assert Trie(FileKvStore(db, "trie"), EMPTY_ROOT).commit() == EMPTY_ROOT
        finally:
            db.close()


class TestBasicOps:
    def test_insert_then_get(self) -> None:
        trie = Trie(MemoryKvStore()).insert(b"dog", b"puppy")
        assert trie.get(b"dog") == b"puppy"

    def test_insert_does_not_mutate(self) -> None:
        t0 = Trie(MemoryKvStore()).insert(b"dog", b"puppy")
        t1 = t0.insert(b"dog", b"grown")
        assert t0.get(b"dog") == b"puppy"
        assert t1.get(b"dog") == b"grown"

    def test_prefix_keys_coexist(self) -> None:
        trie = build(
            MemoryKvStore(),
            [(b"do", b"verb"), (b"dog", b"puppy"), (b"dodge", b"car"), (b"d", b"letter")],
        )
        assert trie.get(b"do") == b"verb"
        assert trie.get(b"dog") == b"puppy"
        assert trie.get(b"dodge") == b"car"
        assert trie.get(b"d") == b"letter"

    def test_missing_key(self) -> None:
        trie = Trie(MemoryKvStore()).insert(b"dog", b"puppy")
        with pytest.raises(NotFoundError):
            trie.get(b"cat")
        with pytest.raises(NotFoundError):
            trie.get(b"doge")

    def test_empty_key_and_value_rejected(self) -> None:
        trie = Trie(MemoryKvStore())
        with pytest.raises(EmptyKeyError):
            trie.insert(b"", b"v")
        with pytest.raises(EmptyKeyError):
            trie.get(b"")
        with pytest.raises(EmptyValueError):
            trie.insert(b"k", b"")


class TestCommitAndReload:
    def test_reload_from_root(self) -> None:
        store = MemoryKvStore()
        pairs = random_pairs(random.Random(1), 200)
        root = build(store, pairs.items()).commit()
        reloaded = Trie(store, root)
        for key, value in pairs.items():
            assert reloaded.get(key) == value

    def test_commit_is_idempotent(self) -> None:
        store = MemoryKvStore()
        trie = build(store, [(b"a", b"1"), (b"b", b"2")])
        root = trie.commit()
        size = len(store)
        assert trie.commit() == root
        assert len(store) == size

    def test_recommit_after_one_change_is_cheap(self) -> None:
        store = MemoryKvStore()
        trie = build(store, random_pairs(random.Random(2), 500).items())
        trie.commit()
        size = len(store)
        trie2 = trie.insert(b"fresh key", b"fresh value")
        trie2.commit()
        assert len(store) - size <= 10

    def test_open_errors(self, tmp_path) -> None:
        """A missing root is the same error, with the same text, whether
        the store is empty or not."""
        missing = hash256(b"missing root")
        message = f"root {missing.hex()} not in store"
        with pytest.raises(RootNotFoundError) as empty:
            Trie(MemoryKvStore(), missing)
        assert str(empty.value) == message
        store = MemoryKvStore()
        store.put(b"unrelated")
        with pytest.raises(RootNotFoundError) as non_empty:
            Trie(store, missing)
        assert str(non_empty.value) == message

    def test_open_at_existing_root_does_not_count_store(self) -> None:
        """Opening a trie never counts its store: not at a stored root,
        nor at a missing one, in an empty store or a full one."""

        class NoLenStore(MemoryKvStore):
            def __len__(self) -> int:
                raise AssertionError("Trie opened a root via len(store)")

        with pytest.raises(RootNotFoundError):
            Trie(NoLenStore(), hash256(b"missing root"))
        store = NoLenStore()
        root = build(store, [(b"k1", b"v1"), (b"k2", b"v2")]).commit()
        assert Trie(store, root).get(b"k2") == b"v2"
        with pytest.raises(RootNotFoundError):
            Trie(store, hash256(b"missing root"))

    def test_decode_error_on_garbage_root(self) -> None:
        store = MemoryKvStore()
        key = store.put(b"not rlp at all")
        with pytest.raises(TrieDecodeError):
            Trie(store, key)

    def test_dangling_reference_detected(self) -> None:
        store = MemoryKvStore()
        pairs = random_pairs(random.Random(3), 50)
        root = build(store, pairs.items()).commit()
        victim = next(
            k for k in list(store._entries) if k != root and len(store._entries[k]) >= 32
        )
        del store._entries[victim]
        trie = Trie(store, root)
        with pytest.raises((CorruptError, NotFoundError)):
            for key in pairs:
                trie.get(key)


class TestNodeMemo:
    """A handle decodes each stored node once: the handles ``insert``
    derives share its memo, a commit leaves the committed handle the
    nodes it wrote, and a fresh open starts empty."""

    @pytest.fixture()
    def file_store(self, tmp_path):
        db = open_database(tmp_path / "memo.db")
        yield FileKvStore(db, "trie")
        db.close()

    def test_reads_and_inserts_read_each_node_once(self, file_store, monkeypatch) -> None:
        pairs = random_pairs(random.Random(4), 200)
        root = build(file_store, pairs.items()).commit()
        reads: list[bytes] = []
        real_read = file_store._read

        def read(key: bytes):
            reads.append(key)
            return real_read(key)

        monkeypatch.setattr(file_store, "_read", read)
        trie = Trie(file_store, root)
        keys = list(pairs)[:50]
        for key in keys:
            assert trie.get(key) == pairs[key]
        for key in keys:
            trie = trie.insert(key, b"new " + key)
        assert reads and len(reads) == len(set(reads))

    def test_inserts_share_it_and_commit_keeps_what_it_wrote(self, monkeypatch) -> None:
        store = MemoryKvStore()
        pairs = random_pairs(random.Random(5), 100)
        root = build(store, pairs.items()).commit()
        trie = Trie(store, root)
        trie.get(next(iter(pairs)))
        assert trie._nodes
        derived = trie.insert(b"fresh key", b"fresh value")
        assert derived._nodes is trie._nodes
        written: list[bytes] = []
        real_write = store._write

        def write(key: bytes, value: bytes, named: bool) -> None:
            written.append(key)
            real_write(key, value, named)

        monkeypatch.setattr(store, "_write", write)
        new_root = derived.commit()
        memo = derived._nodes
        # The root is written last and held by the handle, not the memo.
        assert written[-1] == new_root and memo is not trie._nodes
        assert memo and set(memo) == set(written[:-1])
        for digest, node in memo.items():
            assert node == _decode_node(_parse_rlp(store.get(digest)))
        assert derived.commit() == new_root and derived._nodes is memo
        assert Trie(store, root)._nodes == {}

    def test_a_committed_handle_reads_nothing_back(self, file_store, monkeypatch) -> None:
        pairs = random_pairs(random.Random(7), 200)
        trie = build(file_store, pairs.items())
        trie.commit()
        reads: list[bytes] = []
        real_read = file_store._read

        def read(key: bytes):
            reads.append(key)
            return real_read(key)

        monkeypatch.setattr(file_store, "_read", read)
        for key, value in pairs.items():
            assert trie.get(key) == value
        assert reads == []

    def test_a_fresh_handle_verifies_every_node(self, file_store) -> None:
        pairs = random_pairs(random.Random(6), 100)
        root = build(file_store, pairs.items()).commit()
        trie = Trie(file_store, root)
        for key in pairs:
            trie.get(key)
        victim = next(iter(trie._nodes))
        file_store.db.execute(
            "UPDATE kv SET value = ? WHERE space = 'trie' AND key = ?", (b"tampered", victim)
        )
        fresh = Trie(file_store, root)
        with pytest.raises(CorruptError):
            for key in pairs:
                fresh.get(key)


class TestRootDeterminism:
    def test_insertion_order_independent(self) -> None:
        rng = random.Random(42)
        pairs = list(random_pairs(rng, 100).items())
        baseline = build(MemoryKvStore(), pairs).commit()
        for _ in range(10):
            rng.shuffle(pairs)
            assert build(MemoryKvStore(), pairs).commit() == baseline

    def test_update_then_restore_returns_old_root(self) -> None:
        pairs = list(random_pairs(random.Random(5), 50).items())
        store = MemoryKvStore()
        trie = build(store, pairs)
        root = trie.commit()
        key, value = pairs[7]
        changed = trie.insert(key, b"different")
        assert changed.commit() != root
        assert changed.insert(key, value).commit() == root


class TestStructuralSharing:
    def test_old_root_readable_after_updates(self) -> None:
        store = MemoryKvStore()
        pairs = random_pairs(random.Random(7), 300)
        trie = build(store, pairs.items())
        old_root = trie.commit()
        for key in list(pairs)[:50]:
            trie = trie.insert(key, b"new-" + key[:8])
        trie.commit()
        old = Trie(store, old_root)
        for key, value in pairs.items():
            assert old.get(key) == value

    def test_single_update_writes_path_only(self) -> None:
        store = MemoryKvStore()
        pairs = random_pairs(random.Random(8), 2000, key_len=(20, 20))
        trie = build(store, pairs.items())
        trie.commit()
        key = next(iter(pairs))
        before = len(store)
        trie.insert(key, b"replacement").commit()
        created = len(store) - before
        # a 20-byte key walks at most 40 branch levels plus a leaf
        assert 1 <= created <= 42

    def test_commit_from_empty_base_writes_new_nodes_only(self) -> None:
        store = MemoryKvStore()
        trie = Trie(store)
        trie.commit()
        before = len(store)
        root = trie.insert(b"key", b"value").commit()
        assert len(store) - before == 1
        before = len(store)
        assert Trie(store, root).commit() == root
        assert len(store) == before


class TestMapOracle:
    def test_against_dict(self) -> None:
        rng = random.Random(11)
        store = MemoryKvStore()
        trie = Trie(store)
        oracle: dict[bytes, bytes] = {}
        for step in range(1500):
            if oracle and rng.random() < 0.3:
                key = rng.choice(list(oracle))
            else:
                key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
                if not key:
                    continue
            value = hash256(key + bytes([step % 256]))[:16]
            trie = trie.insert(key, value)
            oracle[key] = value
        for key, value in oracle.items():
            assert trie.get(key) == value
        for _ in range(500):
            absent = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
            if absent in oracle or not absent:
                continue
            with pytest.raises(NotFoundError):
                trie.get(absent)

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=8),
            st.binary(min_size=1, max_size=16),
            min_size=1,
            max_size=30,
        )
    )
    def test_committed_reload_matches_dict(self, mapping: dict[bytes, bytes]) -> None:
        store = MemoryKvStore()
        root = build(store, mapping.items()).commit()
        reloaded = Trie(store, root)
        for key, value in mapping.items():
            assert reloaded.get(key) == value


class EntryLog(MemoryKvStore):
    """A memory store that also keeps each content entry put into it, one
    at a time or in a batch."""

    def __init__(self) -> None:
        super().__init__()
        self.entries: dict[bytes, bytes] = {}

    def put(self, value: bytes) -> bytes:
        key = super().put(value)
        self.entries[key] = value
        return key

    def put_many(self, values: list[bytes]) -> list[bytes]:
        keys = super().put_many(values)
        self.entries.update(zip(keys, values))
        return keys


def reference_entries(mapping: dict[bytes, bytes]) -> tuple[bytes, dict[bytes, bytes]]:
    """Root and store entries of the trie holding ``mapping``, built apart
    from ``mpt``: each node as the RLP structure of its fields, a child
    embedded as its structure when that encodes to under 32 bytes and as
    its digest otherwise, each node serialized whole by ``rlp_encode``."""
    entries: dict[bytes, bytes] = {}

    def ref(struct: list) -> object:
        encoded = rlp_encode(struct)
        if len(encoded) < 32:
            return struct
        entries[hash256(encoded)] = encoded
        return hash256(encoded)

    def branch(items: list[tuple[bytes, bytes]]) -> list:
        slots: list = [b""] * 17
        groups: dict[int, list[tuple[bytes, bytes]]] = {}
        for path, value in items:
            if path:
                groups.setdefault(path[0], []).append((path[1:], value))
            else:
                slots[16] = value
        for nibble, group in groups.items():
            slots[nibble] = ref(node(group))
        return slots

    def node(items: list[tuple[bytes, bytes]]) -> list:
        if len(items) == 1:
            path, value = items[0]
            return [hp_encode(path, True), value]
        shared = os.path.commonprefix([path for path, _ in items])
        if not shared:
            return branch(items)
        rest = [(path[len(shared) :], value) for path, value in items]
        return [hp_encode(shared, False), ref(branch(rest))]

    items = [(hex_encode(key), value) for key, value in mapping.items()]
    encoded = rlp_encode(node(items)) if items else rlp_encode(b"")
    entries[hash256(encoded)] = encoded
    return hash256(encoded), entries


def node_forms(entries: dict[bytes, bytes]) -> set[str]:
    """Which encodings the stored nodes use, read back by ``rlp_decode``."""
    forms = set()
    for raw in entries.values():
        if raw[0] >= 0xF8:
            forms.add("long list")
        struct = rlp_decode(raw)
        if not isinstance(struct, list):
            continue
        if any(isinstance(item, list) for item in struct):
            forms.add("inline child")
        if len(struct) == 17 and struct[16]:
            forms.add("branch value")
        if len(struct) == 2 and struct[0][0] & 0x20 and len(struct[1]) > 55:  # a leaf
            forms.add("long value")
    return forms


class TestNodeBytes:
    """``Trie.commit`` writes exactly the entries of a reference that
    encodes nodes as RLP structures, apart from the node encoder."""

    FORMS = {
        b"\x01": b"a",
        b"\x01\x02": b"b" * 60,
        b"\x01\x03": b"c",
        b"\x02": b"d",
        b"\x03": b"e" * 40,
    }

    def test_fixed_mapping_covers_every_form(self) -> None:
        root, entries = reference_entries(self.FORMS)
        assert node_forms(entries) == {
            "long list", "inline child", "branch value", "long value"
        }
        inserted = EntryLog()
        assert build(inserted, self.FORMS.items()).commit() == root
        assert inserted.entries == entries

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=3), st.binary(min_size=1, max_size=70),
            max_size=30,
        ),
        st.dictionaries(
            st.binary(min_size=1, max_size=3), st.binary(min_size=1, max_size=70),
            max_size=12,
        ),
    )
    def test_both_paths_match_the_reference(
        self, first: dict[bytes, bytes], more: dict[bytes, bytes]
    ) -> None:
        """Short keys make prefix keys and inline children; values past 55
        bytes take the long string form. Both paths of ``Trie.commit`` are
        checked: a commit of fresh inserts, then more inserts over the
        collapsed handle and a second commit."""
        merged = {**first, **more}
        first_root, first_entries = reference_entries(first)
        merged_root, merged_entries = reference_entries(merged)

        store = EntryLog()
        trie = build(store, first.items())
        assert trie.commit() == first_root
        assert store.entries == first_entries
        for key, value in more.items():
            trie = trie.insert(key, value)
        assert trie.commit() == merged_root
        assert store.entries == {**first_entries, **merged_entries}


def indexed_pairs(values: list[bytes]) -> list[tuple[bytes, bytes]]:
    """Each value under the RLP of its index, as a block body keys it."""
    return [(rlp_encode(int_to_bytes(index)), value) for index, value in enumerate(values)]


def stored(store) -> dict[bytes, bytes]:
    """Every entry of a memory or file store, by key."""
    if isinstance(store, FileKvStore):
        query = "SELECT key, value FROM kv WHERE space = ?"
        return dict(store.db.execute(query, (store.space,)))
    return dict(store._entries)


def body_values(count: int, lengths: tuple[int, int]) -> list[bytes]:
    rng = random.Random(count)
    return [rng.randbytes(rng.randint(*lengths)) for _ in range(count)]


def entries_digest(entries: dict[bytes, bytes]) -> bytes:
    """One digest of a store's entries, each fixed-size key joined to its
    value, in order."""
    return hash256(b"".join(sorted(key + value for key, value in entries.items())))


@functools.cache
def body_reference(count: int, lengths: tuple[int, int]) -> tuple[bytes, bytes]:
    """Root and entries digest of the trie over ``body_values(count,
    lengths)``, built apart from ``mpt``: computed once for both backends,
    and kept small, as the largest bodies have 70,000 entries."""
    root, entries = reference_entries(dict(indexed_pairs(body_values(count, lengths))))
    return root, entries_digest(entries)


class TestCommitIndexed:
    """The index-arithmetic build commits what the reference commits over
    the same ``rlp(index)`` keys: the same root and the same store
    entries, on both backends."""

    @pytest.fixture(params=["memory", "file"])
    def new_store(self, request, tmp_path):
        """A factory of empty stores of one backend, each file store in a
        space of its own."""
        if request.param == "memory":
            yield MemoryKvStore
            return
        db = open_database(tmp_path / "kv.db")
        spaces = iter(range(1000))
        yield lambda: FileKvStore(db, f"body{next(spaces)}")
        db.close()

    def check(self, new_store, count: int, lengths: tuple[int, int]) -> None:
        root, digest = body_reference(count, lengths)
        store = new_store()
        assert commit_indexed(store, body_values(count, lengths)) == root, count
        assert entries_digest(stored(store)) == digest, count

    @pytest.mark.parametrize(
        "lengths", [(45, 80), (32, 40)], ids=["transaction-sized", "short"]
    )
    def test_every_count_to_300(self, new_store, lengths: tuple[int, int]) -> None:
        """Index 0's key ``0x80`` sorts after 1-127, and 128 and 256 start
        the two- and three-byte keys. Short values reach down to the
        32-byte minimum."""
        for count in range(301):
            self.check(new_store, count, lengths)

    @pytest.mark.parametrize("count", [4095, 4096, 4097, 4111, 4112, 4113, 65535, 65536, 65537])
    def test_counts_across_nibble_and_key_length_bounds(self, new_store, count: int) -> None:
        """A full last run of 16 leaves and one past it, extensions over
        shared nibbles, and the step from three-byte to four-byte keys."""
        self.check(new_store, count, (45, 80))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.binary(min_size=32, max_size=33),
                st.binary(min_size=34, max_size=70),
            ),
            max_size=300,
        )
    )
    def test_any_values_match_the_reference(self, values: list[bytes]) -> None:
        """Values of 32 and 33 bytes, the shortest a body may hold, and
        longer ones past the long string form at 56, mixed, against the
        reference built apart from ``mpt``."""
        root, entries = reference_entries(dict(indexed_pairs(values)))
        store = EntryLog()
        assert commit_indexed(store, values) == root
        assert store.entries == entries

    def test_a_value_under_32_bytes_is_refused_before_any_write(self) -> None:
        """At every count, one short value anywhere in the body refuses the
        whole body, and the message names the minimum."""
        for count, short in [(1, 0), (2, 1), (17, 16), (129, 0), (300, 200)]:
            for length in (1, 31):
                values = body_values(count, (32, 80))
                values[short] = bytes(length)
                store = EntryLog()
                with pytest.raises(TrieError) as refused:
                    commit_indexed(store, values)
                assert str(refused.value) == (
                    f"block body values must be at least 32 bytes, not {length}"
                )
                assert store.entries == {} and len(store) == 0
