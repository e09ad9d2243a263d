"""End-to-end command tests driving ``main(argv)`` directly."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from sschain import chain as chainmod
from sschain import cli
from sschain.cli import SHARD_TABLE_KEY, TRIE_ROOT_KEY, Workspace, main
from sschain.encoding import hash256, rlp_encode
from sschain.merkle_dag import AccountState, cid_text, dag_build_directory, name_publish, parse_cid
from sschain.mpt import EMPTY_ROOT
from sschain.shard_dht import (
    NodeIdentity,
    ShardTable,
    assign_key,
    pipeline_key,
    ring_position,
    shard_of,
    shard_of_position,
)
from sschain.store import FileKvStore, MemoryKvStore, open_database

ADDR_A = hash256(b"cli-a")[:20].hex()
ADDR_B = hash256(b"cli-b")[:20].hex()
NODE_1 = hash256(b"cli-node-1").hex()
NODE_2 = hash256(b"cli-node-2").hex()


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "ws")


def lines_of(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


def sql(store: str, statement: str, params: tuple = ()) -> None:
    """Run one statement on the workspace database from outside the CLI."""
    db = sqlite3.connect(Path(store, "sschain.db"))
    with db:
        db.execute(statement, params)
    db.close()


def set_entry(store: str, space: str, key: bytes, value: bytes) -> None:
    """Overwrite one kv entry of the workspace database from outside the CLI."""
    sql(store, "UPDATE kv SET value = ? WHERE space = ? AND key = ?", (value, space, key))


def saved_heights(store: str) -> list[int]:
    """Heights of the saved head's ancestry, genesis first, read from
    outside the CLI."""
    ws = Workspace(Path(store), write=False)
    try:
        return [b.header.number for b in chainmod.Chain.load(ws.load_table()).blocks]
    finally:
        ws.close()


def fork(func) -> int:
    """Run ``func()`` in a forked child that exits with its return value
    (70 if it raises); return the child's pid."""
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            code = func()
        finally:
            os._exit(code)
    return pid


def wait(pid: int, timeout: float = 60.0) -> int:
    """Wait status of child ``pid``; kill it and fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"child {pid} still running after {timeout} s")
        time.sleep(0.01)


class TestStore:
    def test_put_then_get(self, store, tmp_path, capsysbinary) -> None:
        source = tmp_path / "payload.bin"
        source.write_bytes(b"\x00\x01binary\xff")
        assert main(["--store", store, "store", "put", str(source)]) == 0
        key = capsysbinary.readouterr().out.decode().strip()
        assert key == hash256(b"\x00\x01binary\xff").hex()
        assert main(["--store", store, "store", "get", key]) == 0
        assert capsysbinary.readouterr().out == b"\x00\x01binary\xff"

    def test_put_from_stdin(self, store, capsys, monkeypatch) -> None:
        class FakeStdin:
            buffer = io.BytesIO(b"piped")

        monkeypatch.setattr("sys.stdin", FakeStdin())
        assert main(["--store", store, "store", "put", "-"]) == 0
        assert lines_of(capsys) == [hash256(b"piped").hex()]

    def test_get_to_file(self, store, tmp_path, capsys) -> None:
        source = tmp_path / "in.txt"
        source.write_text("hello")
        main(["--store", store, "store", "put", str(source)])
        key = lines_of(capsys)[0]
        out = tmp_path / "out.txt"
        assert main(["--store", store, "store", "get", key, "--out", str(out)]) == 0
        assert out.read_bytes() == b"hello"

    def test_get_missing_key(self, store, capsys) -> None:
        assert main(["--store", store, "store", "get", "00" * 32]) == 1
        assert "error:" in capsys.readouterr().err

    def test_put_a_directory(self, store, tmp_path, capsys) -> None:
        assert main(["--store", store, "store", "put", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_get_into_a_directory(self, store, tmp_path, capsys) -> None:
        source = tmp_path / "in.txt"
        source.write_text("hello")
        main(["--store", store, "store", "put", str(source)])
        key = lines_of(capsys)[0]
        assert main(["--store", store, "store", "get", key, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_store_that_is_a_file(self, tmp_path, capsys) -> None:
        """A ``--store`` path that is a regular file is an error, and the
        file is left as it was."""
        path = tmp_path / "plain"
        path.write_bytes(b"not a workspace")
        assert main(["--store", str(path), "chain", "init"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_bytes() == b"not a workspace"


class TestDag:
    def test_add_single_file(self, store, tmp_path, capsys) -> None:
        source = tmp_path / "one.txt"
        source.write_text("account data")
        assert main(["--store", store, "dag", "add", str(source)]) == 0
        (line,) = lines_of(capsys)
        verb, cid, name = line.split()
        assert verb == "added" and cid.startswith("ss1-") and name == "one.txt"

    def test_add_directory_lists_children_then_root(
        self, store, tmp_path, capsys
    ) -> None:
        box = tmp_path / "box"
        box.mkdir()
        payloads = {f"f{i}.dat": f"payload {i}".encode() for i in range(4)}
        for name, payload in payloads.items():
            (box / name).write_bytes(payload)
        assert main(["--store", store, "dag", "add", "-r", str(box)]) == 0
        out = lines_of(capsys)
        assert len(out) == 5
        assert [line.split()[2] for line in out[:4]] == sorted(payloads)
        assert out[4].split()[2] == "box"

        root_cid = out[4].split()[1]
        expected = dag_build_directory(MemoryKvStore(), list(payloads.items()))
        assert root_cid == cid_text(expected)
        assert main(["--store", store, "dag", "get", root_cid]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [link["Name"] for link in doc["links"]] == sorted(payloads)
        assert [link["Size"] for link in doc["links"]] == [
            len(payloads[n]) for n in sorted(payloads)
        ]

    def test_cat_returns_exact_bytes(self, store, tmp_path, capsysbinary) -> None:
        source = tmp_path / "c.bin"
        source.write_bytes(b"\xde\xad\xbe\xef")
        main(["--store", store, "dag", "add", str(source)])
        cid = capsysbinary.readouterr().out.decode().split()[1]
        assert main(["--store", store, "dag", "cat", cid]) == 0
        assert capsysbinary.readouterr().out == b"\xde\xad\xbe\xef"

    def test_directory_without_recursive_flag(self, store, tmp_path, capsys) -> None:
        box = tmp_path / "box"
        box.mkdir()
        assert main(["--store", store, "dag", "add", str(box)]) == 1

    def test_missing_path(self, store, capsys) -> None:
        assert main(["--store", store, "dag", "add", "/nonexistent/file"]) == 1

    def test_bad_cid_is_usage_error(self, store) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "dag", "cat", "not-a-cid"])
        assert excinfo.value.code == 2


class TestName:
    def _add(self, store, tmp_path, capsys, text: str) -> str:
        source = tmp_path / "n.txt"
        source.write_text(text)
        main(["--store", store, "dag", "add", str(source)])
        return lines_of(capsys)[0].split()[1]

    def test_publish_then_resolve(self, store, tmp_path, capsys) -> None:
        cid = self._add(store, tmp_path, capsys, "v1")
        assert (
            main(["--store", store, "name", "publish", cid, "--node-id", NODE_1]) == 0
        )
        assert lines_of(capsys) == [f"Published to {NODE_1}: /ss/{cid}"]
        assert main(["--store", store, "name", "resolve", NODE_1]) == 0
        assert lines_of(capsys) == [f"/ss/{cid}"]

    def test_republish_wins(self, store, tmp_path, capsys) -> None:
        first = self._add(store, tmp_path, capsys, "v1")
        main(["--store", store, "name", "publish", first, "--node-id", NODE_1])
        capsys.readouterr()
        second = self._add(store, tmp_path, capsys, "v2")
        main(["--store", store, "name", "publish", second, "--node-id", NODE_1])
        capsys.readouterr()
        assert main(["--store", store, "--json", "name", "resolve", NODE_1]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == second

    def test_resolve_unknown(self, store, capsys) -> None:
        assert main(["--store", store, "name", "resolve", NODE_2]) == 1

    def test_corrupt_record_is_an_error(self, store, tmp_path, capsys) -> None:
        cid = self._add(store, tmp_path, capsys, "v1")
        main(["--store", store, "name", "publish", cid, "--node-id", NODE_1])
        capsys.readouterr()
        for damage in (
            b"zz",
            rlp_encode([b"\x01", b"short"]),
            rlp_encode([b"\x00", bytes(32)]),
            rlp_encode([[], bytes(32)]),
        ):
            set_entry(store, "names", bytes.fromhex(NODE_1), damage)
            assert main(["--store", store, "name", "resolve", NODE_1]) == 1
            err = capsys.readouterr().err
            assert err == f"error: stored name record for {NODE_1} is malformed\n"

    def test_corrupt_record_leaves_other_names_working(
        self, store, tmp_path, capsys
    ) -> None:
        first = self._add(store, tmp_path, capsys, "v1")
        second = self._add(store, tmp_path, capsys, "v2")
        main(["--store", store, "name", "publish", first, "--node-id", NODE_1])
        main(["--store", store, "name", "publish", second, "--node-id", NODE_2])
        capsys.readouterr()
        set_entry(store, "names", bytes.fromhex(NODE_1), b"zz")
        assert main(["--store", store, "name", "resolve", NODE_2]) == 0
        assert lines_of(capsys) == [f"/ss/{second}"]
        third = self._add(store, tmp_path, capsys, "v3")
        assert main(["--store", store, "name", "publish", third, "--node-id", NODE_2]) == 0
        assert main(["--store", store, "name", "publish", third, "--node-id", NODE_1]) == 1

    def test_records_published_by_the_library_resolve(self, store, tmp_path, capsys) -> None:
        cid = self._add(store, tmp_path, capsys, "v1")
        db = open_database(Path(store, "sschain.db"))
        objects, names = FileKvStore(db, "objects"), FileKvStore(db, "names")
        name_publish(objects, names, bytes.fromhex(NODE_1), parse_cid(cid))
        db.close()
        assert main(["--store", store, "name", "resolve", NODE_1]) == 0
        assert lines_of(capsys) == [f"/ss/{cid}"]
        assert main(["--store", store, "--json", "name", "publish", cid, "--node-id", NODE_1]) == 0
        assert json.loads(capsys.readouterr().out)["sequence"] == 2

    def test_publish_unstored_cid(self, store, capsys) -> None:
        ghost = "ss1-" + hash256(b"ghost").hex()
        assert (
            main(["--store", store, "name", "publish", ghost, "--node-id", NODE_1]) == 1
        )


class TestTrie:
    def test_root_of_empty_workspace(self, store, capsys) -> None:
        assert main(["--store", store, "trie", "root"]) == 0
        assert lines_of(capsys) == [EMPTY_ROOT.hex()]

    def test_put_get_root(self, store, capsys) -> None:
        assert main(["--store", store, "trie", "put", "alpha", "1"]) == 0
        root1 = lines_of(capsys)[0]
        assert main(["--store", store, "trie", "put", "beta", "2"]) == 0
        root2 = lines_of(capsys)[0]
        assert root1 != root2
        main(["--store", store, "trie", "get", "alpha"])
        assert lines_of(capsys) == ["1"]
        main(["--store", store, "trie", "root"])
        assert lines_of(capsys) == [root2]

    def test_get_missing(self, store, capsys) -> None:
        main(["--store", store, "trie", "put", "alpha", "1"])
        capsys.readouterr()
        assert main(["--store", store, "trie", "get", "missing"]) == 1

    def test_corrupt_root_is_an_error(self, store, capsys) -> None:
        main(["--store", store, "trie", "put", "alpha", "1"])
        capsys.readouterr()
        set_entry(store, "workspace", TRIE_ROOT_KEY, b"zz")
        assert main(["--store", store, "trie", "get", "alpha"]) == 1
        assert capsys.readouterr().err == "error: stored trie root 7a7a is not a digest\n"


class TestShard:
    def test_map_line(self, store, capsys) -> None:
        assert shard_of(bytes.fromhex(ADDR_A), 4) == 0
        assert main(["--store", store, "shard", "map", ADDR_A]) == 0
        assert lines_of(capsys) == [f"{ADDR_A} -> shard 0 (prefix 00)"]

    def test_map_single_shard_has_no_prefix(self, store, capsys) -> None:
        assert main(["--store", store, "shard", "map", ADDR_A, "--shards", "1"]) == 0
        assert lines_of(capsys) == [f"{ADDR_A} -> shard 0"]

    @pytest.mark.parametrize("shards,shard,prefix", [("1", 0, ""), ("8", 1, "001")])
    def test_map_json(self, store, capsys, shards: str, shard: int, prefix: str) -> None:
        """The prefix is the shard index in log2(count) bits, empty at one shard."""
        assert main(["--store", store, "--json", "shard", "map", ADDR_A, "--shards", shards]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"address": ADDR_A, "shard": shard, "prefix": prefix}

    def test_map_shard_count_above_bound(self, tmp_path, capsys) -> None:
        missing = tmp_path / "none"
        argv = ["--store", str(missing), "shard", "map", ADDR_A, "--shards", "131072"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: shard count 131072 exceeds 65536\n"
        assert not missing.exists()

    def test_map_builds_no_table_when_none_is_stored(self, tmp_path, capsys, monkeypatch) -> None:
        """Without a stored table the count alone names the shard: no table
        of 65,536 shards and stores is built to print one line."""

        def refuse(*args, **kwargs):
            raise AssertionError("a shard table was built")

        monkeypatch.setattr(ShardTable, "__init__", refuse)
        argv = ["--store", str(tmp_path / "none"), "shard", "map", "00aa11bb", "--shards", "65536"]
        assert main(argv) == 0
        assert lines_of(capsys) == ["00aa11bb -> shard 63922 (prefix 1111100110110010)"]

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["chain", "init", "--shards", "3"], "shard count must be a power of two: 3"),
            (["shard", "join", NODE_1, "--shards", "131072"], "shard count 131072 exceeds 65536"),
        ],
        ids=["chain-init", "shard-join"],
    )
    def test_refused_count_creates_no_workspace(self, tmp_path, capsys, argv, err) -> None:
        missing = tmp_path / "none"
        assert main(["--store", str(missing), *argv]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not missing.exists()

    def test_join_moved_lines(self, store, capsys) -> None:
        """A join prints its node and shard, then one MOVED line per registry
        key it takes, in key order, from its successor to itself; a leave
        in --json gives the same keys back."""
        funds = [
            arg
            for i in range(12)
            for arg in ("--fund", f"{hash256(f'account-{i}'.encode())[:20].hex()}=1.0")
        ]
        assert main(["--store", store, "chain", "init", "--shards", "1", *funds]) == 0
        assert main(["--store", store, "shard", "join", NODE_1]) == 0
        capsys.readouterr()
        assert main(["--store", store, "shard", "join", NODE_2]) == 0
        joined, *moved = lines_of(capsys)
        assert joined == f"joined {NODE_2} shard 0"
        keys = [line.split()[1] for line in moved]
        assert keys and keys == sorted(keys)
        assert moved == [f"MOVED {key} {NODE_1} {NODE_2}" for key in keys]
        assert main(["--store", store, "--json", "shard", "leave", NODE_2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["moves"] == [{"key": key, "from": NODE_2, "to": NODE_1} for key in keys]

    def test_join_persists_and_duplicates_fail(self, store, capsys, tmp_path) -> None:
        assert main(["--store", store, "shard", "join", NODE_1, "--shards", "2"]) == 0
        first = lines_of(capsys)[0]
        assert first.startswith(f"joined {NODE_1} shard ")
        assert [p.name for p in (tmp_path / "ws").iterdir()] == ["sschain.db"]
        assert main(["--store", store, "shard", "join", NODE_1]) == 1

    def test_join_then_leave(self, store, capsys) -> None:
        main(["--store", store, "shard", "join", NODE_1, "--shards", "1"])
        main(["--store", store, "shard", "join", NODE_2])
        capsys.readouterr()
        assert main(["--store", store, "shard", "leave", NODE_1]) == 0
        assert lines_of(capsys)[0] == f"left {NODE_1}"

    def test_leave_unknown(self, store, capsys) -> None:
        main(["--store", store, "shard", "join", NODE_1, "--shards", "1"])
        capsys.readouterr()
        assert main(["--store", store, "shard", "leave", NODE_2]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["chain", "init", "--fund", f"{ADDR_A}=50.0"], ["shard", "join", NODE_2],
         ["shard", "map", ADDR_A]],
        ids=["chain-init", "shard-join", "shard-map"],
    )
    def test_shards_disagreeing_with_the_stored_table(self, store, capsys, argv) -> None:
        """A --shards other than the stored table's count is an error that
        names both counts, and writes nothing; the stored count works."""
        assert main(["--store", store, "shard", "join", NODE_1]) == 0
        capsys.readouterr()
        before = Path(store, "sschain.db").read_bytes()
        assert main(["--store", store, *argv, "--shards", "8"]) == 1
        assert capsys.readouterr().err == (
            "error: --shards 8 disagrees with the stored table's 4 shards\n"
        )
        assert Path(store, "sschain.db").read_bytes() == before
        assert main(["--store", store, *argv, "--shards", "4"]) == 0


class TestMostShards:
    """On a workspace of 65,536 shards, each command asks the workspace for
    the stores of only the shards it touches, and prints what it would
    print at any other count."""

    SHARDS = 65536

    def _nodes_in(self, shard: int, key: bytes) -> tuple[str, str]:
        """Two node ids in ``shard``, the one that owns ``key`` among the
        two second."""
        found = []
        i = 0
        while len(found) < 2:
            node_id = hash256(f"most-{i}".encode())
            if shard_of_position(ring_position(node_id), self.SHARDS) == shard:
                found.append(NodeIdentity.derive(node_id, self.SHARDS))
            i += 1
        owner = assign_key(found, ring_position(key))
        first, second = sorted(found, key=lambda n: n is owner)
        return first.node_id.hex(), second.node_id.hex()

    def test_each_command_requests_only_its_shards(self, store, capsysbinary, monkeypatch) -> None:
        a, b = bytes.fromhex(ADDR_A), bytes.fromhex(ADDR_B)
        shard_a, shard_b = shard_of(a, self.SHARDS), shard_of(b, self.SHARDS)
        assert shard_a != shard_b
        requested: list[int] = []
        shard_store = Workspace.shard_store
        monkeypatch.setattr(
            Workspace,
            "shard_store",
            lambda ws, index: requested.append(index) or shard_store(ws, index),
        )

        def run(*argv: str) -> bytes:
            requested.clear()
            assert main(["--store", store, *argv]) == 0
            return capsysbinary.readouterr().out

        # The same funding and block on a one-shard library table: a state
        # root does not depend on the shard count.
        table = ShardTable(1)
        table.shard_update(chainmod.default_producer(1), a, AccountState("0", "50.0"))
        library = chainmod.Chain(table)
        genesis = library.genesis_root.hex()
        block = library.apply_block([chainmod.Transaction(a, b, "3.5", 0)]).header.state_root

        out = run("chain", "init", "--shards", str(self.SHARDS), "--fund", f"{ADDR_A}=50.0")
        assert out.decode() == f"head 0 root {genesis}\n"
        assert requested == [shard_a]
        out = run("shard", "map", ADDR_A)
        assert out.decode() == f"{ADDR_A} -> shard {shard_a} (prefix {shard_a:016b})\n"
        assert requested == []
        assert run("chain", "query", ADDR_A) == AccountState("0", "50.0").to_json_bytes()
        assert requested == [shard_a]
        out = run("chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:3.5:0")
        assert out.decode() == f"block 1 root {block.hex()} accepted 1 rejected 0\n"
        assert sorted(requested) == sorted([shard_a, shard_b])
        key = pipeline_key(a).hex()
        first, second = self._nodes_in(shard_a, pipeline_key(a))
        assert run("shard", "join", first).decode() == f"joined {first} shard {shard_a}\n"
        assert requested == []
        assert run("shard", "join", second).decode() == (
            f"joined {second} shard {shard_a}\nMOVED {key} {first} {second}\n"
        )
        assert requested == [shard_a]
        assert run("shard", "leave", second).decode() == (
            f"left {second}\nMOVED {key} {second} {first}\n"
        )
        assert requested == [shard_a]


class TestChain:
    def _init(self, store, capture, fund: str = "50.0") -> str:
        code = main(
            [
                "--store",
                store,
                "chain",
                "init",
                "--shards",
                "2",
                "--fund",
                f"{ADDR_A}={fund}",
            ]
        )
        assert code == 0
        out = capture.readouterr().out
        line = (out.decode() if isinstance(out, bytes) else out).splitlines()[0]
        assert line.startswith("head 0 root ")
        return line.split()[3]

    def test_init_apply_query(self, store, capsysbinary) -> None:
        self._init(store, capsysbinary)
        code = main(
            ["--store", store, "chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:3.5:0"]
        )
        assert code == 0
        line = capsysbinary.readouterr().out.decode().splitlines()[0]
        assert line.startswith("block 1 root ")
        assert line.endswith("accepted 1 rejected 0")

        assert main(["--store", store, "chain", "query", ADDR_B]) == 0
        assert (
            capsysbinary.readouterr().out
            == AccountState("0", "3.5").to_json_bytes()
        )
        assert main(["--store", store, "chain", "query", ADDR_A]) == 0
        assert (
            capsysbinary.readouterr().out
            == AccountState("1", "46.5").to_json_bytes()
        )

    def test_double_init_refused(self, store, capsys) -> None:
        self._init(store, capsys)
        assert main(["--store", store, "chain", "init"]) == 1

    def test_rejected_tx_reported(self, store, capsys) -> None:
        self._init(store, capsys)
        code = main(
            ["--store", store, "chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:999.0:0"]
        )
        assert code == 0
        out = lines_of(capsys)
        assert out[0].endswith("accepted 0 rejected 1")
        assert out[1] == f"REJECTED {ADDR_A} insufficient-balance"

    def test_historical_query_and_rollback(self, store, capsysbinary) -> None:
        genesis_root = self._init(store, capsysbinary)
        main(["--store", store, "chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:3.5:0"])
        capsysbinary.readouterr()

        code = main(
            ["--store", store, "chain", "query", ADDR_A, "--root", genesis_root]
        )
        assert code == 0
        assert (
            capsysbinary.readouterr().out == AccountState("0", "50.0").to_json_bytes()
        )

        assert main(["--store", store, "chain", "rollback", "0"]) == 0
        head_line = capsysbinary.readouterr().out.decode().splitlines()[0]
        assert head_line == f"head 0 root {genesis_root}"
        main(["--store", store, "chain", "query", ADDR_A])
        assert (
            capsysbinary.readouterr().out == AccountState("0", "50.0").to_json_bytes()
        )

    def test_applies_after_rollback(self, store, capsysbinary, tmp_path) -> None:
        self._init(store, capsysbinary)

        def apply(seq: int) -> int:
            tx = f"{ADDR_A}:{ADDR_B}:1.0:{seq}"
            return main(["--store", store, "chain", "apply", "--tx", tx])

        assert [apply(seq) for seq in range(4)] == [0, 0, 0, 0]
        assert main(["--store", store, "chain", "rollback", "1"]) == 0
        assert [apply(seq) for seq in (1, 2)] == [0, 0]
        capsysbinary.readouterr()
        assert main(["--store", store, "chain", "query", ADDR_A]) == 0
        assert capsysbinary.readouterr().out == AccountState("3", "47.0").to_json_bytes()
        assert [p.name for p in (tmp_path / "ws").iterdir()] == ["sschain.db"]
        assert saved_heights(store) == [0, 1, 2, 3]

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_database_is_an_error(self, store, capsys, damage: str) -> None:
        self._init(store, capsys)
        path = Path(store, "sschain.db")
        raw = path.read_bytes()
        damaged = raw[: len(raw) // 2] if damage == "truncated" else b"\x5a" * len(raw)
        path.write_bytes(damaged)
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_old_layout_is_refused(self, store, capsys) -> None:
        Path(store, "chain").mkdir(parents=True)
        Path(store, "chain", "HEAD").write_text("0 " + "00" * 32 + "\n")
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "old file-per-entry layout" in err
        assert not Path(store, "sschain.db").exists()

    def test_killed_mid_command_keeps_previous_head(self, store, capsysbinary) -> None:
        self._init(store, capsysbinary)
        tx = f"{ADDR_A}:{ADDR_B}:3.5:0"
        export = chainmod.Chain.export

        def export_then_die(chain) -> None:
            export(chain)
            os.kill(os.getpid(), signal.SIGKILL)

        def apply_and_die() -> int:
            chainmod.Chain.export = export_then_die
            return main(["--store", store, "chain", "apply", "--tx", tx])

        status = wait(fork(apply_and_die))
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert main(["--store", store, "chain", "query", ADDR_A]) == 0
        assert capsysbinary.readouterr().out == AccountState("0", "50.0").to_json_bytes()

        table = ShardTable(2)
        alice, bob = bytes.fromhex(ADDR_A), bytes.fromhex(ADDR_B)
        table.shard_update(chainmod.default_producer(2), alice, AccountState("0", "50.0"))
        library = chainmod.Chain(table)
        block = library.apply_block([chainmod.Transaction(alice, bob, "3.5", 0)])
        assert main(["--store", store, "chain", "apply", "--tx", tx]) == 0
        assert capsysbinary.readouterr().out.decode().splitlines() == [
            f"block 1 root {block.header.state_root.hex()} accepted 1 rejected 0"
        ]
        assert [p.name for p in Path(store).iterdir()] == ["sschain.db"]

    def test_concurrent_writers_take_turns(self, store, capsys) -> None:
        applies = 6
        senders = [hash256(f"writer-{w}".encode())[:20].hex() for w in range(2)]
        funds = [arg for s in senders for arg in ("--fund", f"{s}=100.0")]
        assert main(["--store", store, "chain", "init", "--shards", "2", *funds]) == 0

        def writer(sender: str) -> int:
            codes = [
                main(["--store", store, "chain", "apply", "--tx", f"{sender}:{ADDR_B}:1.5:{i}"])
                for i in range(applies)
            ]
            return 0 if codes == [0] * applies else 1

        pids = [fork(lambda s=sender: writer(s)) for sender in senders]
        statuses = [wait(pid) for pid in pids]
        assert all(os.WIFEXITED(s) and os.WEXITSTATUS(s) == 0 for s in statuses)

        assert saved_heights(store) == list(range(2 * applies + 1))
        capsys.readouterr()
        for sender in senders:
            assert main(["--store", store, "chain", "query", sender]) == 0
            doc = json.loads(capsys.readouterr().out)["result"]
            assert (doc["seqNumber"], doc["balance"]) == (
                str(applies),
                chainmod.text_from_tenths(1000 - 15 * applies),
            )
        assert main(["--store", store, "chain", "query", ADDR_B]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["balance"] == chainmod.text_from_tenths(2 * 15 * applies)

    def test_workspace_has_no_chain_tables(self, store, tmp_path, capsys) -> None:
        self._init(store, capsys)
        source = tmp_path / "n.txt"
        source.write_text("named")
        assert main(["--store", store, "chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:1.0:0"]) == 0
        assert main(["--store", store, "trie", "put", "alpha", "1"]) == 0
        assert main(["--store", store, "dag", "add", str(source)]) == 0
        cid = lines_of(capsys)[-1].split()[1]
        assert main(["--store", store, "name", "publish", cid, "--node-id", NODE_1]) == 0
        assert main(["--store", store, "shard", "join", NODE_1]) == 0
        db = sqlite3.connect(Path(store, "sschain.db"))
        names = {name for (name,) in db.execute("SELECT name FROM sqlite_master")}
        (version,) = db.execute("PRAGMA user_version").fetchone()
        db.close()
        assert (names, version) == ({"kv", "kv_named"}, 3)

    def test_format_2_workspace_is_refused(self, store, capsys) -> None:
        self._init(store, capsys)
        sql(store, "PRAGMA user_version = 2")
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        assert capsys.readouterr().err == "error: incompatible store format 2, not 3\n"

    @pytest.mark.parametrize(
        "damage",
        ["missing-head", "not-a-digest", "not-a-header", "tampered-header", "missing-ancestor"],
    )
    def test_damaged_chain_is_an_error(self, store, capsys, damage: str) -> None:
        genesis_root = bytes.fromhex(self._init(store, capsys))
        for seq in range(2):
            tx = f"{ADDR_A}:{ADDR_B}:1.0:{seq}"
            assert main(["--store", store, "chain", "apply", "--tx", tx]) == 0
        ws = Workspace(Path(store), write=False)
        _, first, head = [b.header for b in chainmod.Chain.load(ws.load_table()).blocks]
        ws.close()
        update = "UPDATE kv SET value = ? WHERE space = 'trie' AND key = ?"
        delete = "DELETE FROM kv WHERE space = 'trie' AND key = ?"
        forged = chainmod.BlockHeader(
            head.parent_hash, head.number, 9, head.state_root, head.tx_root
        )
        statement, params, message = {
            "missing-head": (delete, (chainmod.HEAD_KEY,), "no chain"),
            "not-a-digest": (update, (b"\x00", chainmod.HEAD_KEY), "is not a digest"),
            "not-a-header": (update, (genesis_root, chainmod.HEAD_KEY), "not a stored header"),
            "tampered-header": (
                update,
                (rlp_encode(forged.to_rlp_item()), head.digest()),
                "fails its content hash",
            ),
            "missing-ancestor": (delete, (first.digest(),), "not a stored header"),
        }[damage]
        sql(store, statement, params)
        capsys.readouterr()
        command = ["rollback", "0"] if damage == "missing-ancestor" else ["query", ADDR_A]
        assert main(["--store", store, "chain", *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_corrupt_shard_table_is_an_error(self, store, capsys) -> None:
        self._init(store, capsys)
        for damage in (b"shards four\n", b"shards \xff\n", b"shards 131072\n"):
            set_entry(store, "workspace", SHARD_TABLE_KEY, damage)
            assert main(["--store", store, "chain", "query", ADDR_A]) == 1
            assert capsys.readouterr().err.startswith("error: stored shard table: ")

    def test_registry_entries_are_in_their_shard_space(self, store, capsys) -> None:
        """Each funded account's registry entry is the named entry under
        its lookup key in the kv space ``shards/<its shard index>``."""
        funds = ["--fund", f"{ADDR_A}=5.0", "--fund", f"{ADDR_B}=1.0"]
        assert main(["--store", store, "chain", "init", "--shards", "4", *funds]) == 0
        db = sqlite3.connect(Path(store, "sschain.db"))
        try:
            rows = db.execute(
                "SELECT space, key, value FROM kv WHERE named IS NOT NULL AND space LIKE 'shards/%'"
            ).fetchall()
            spaces = {space for (space,) in db.execute("SELECT DISTINCT space FROM kv")}
        finally:
            db.close()
        expected = {
            (f"shards/{shard_of(address, 4)}", pipeline_key(address), address)
            for address in (bytes.fromhex(ADDR_A), bytes.fromhex(ADDR_B))
        }
        assert set(rows) == expected
        assert spaces == {"shards/0", "shards/2", "trie", "workspace"}

    def test_rollback_past_head(self, store, capsys) -> None:
        self._init(store, capsys)
        assert main(["--store", store, "chain", "rollback", "5"]) == 1

    def test_apply_without_init(self, store, capsys) -> None:
        assert main(["--store", store, "chain", "apply"]) == 1

    def test_query_unknown_account(self, store, capsys) -> None:
        root = self._init(store, capsys)
        assert main(["--store", store, "chain", "query", ADDR_B]) == 1
        assert capsys.readouterr().err == f"error: account {ADDR_B} not at root {root}\n"

    def test_json_mode(self, store, capsys) -> None:
        self._init(store, capsys)
        code = main(
            [
                "--store",
                store,
                "--json",
                "chain",
                "apply",
                "--tx",
                f"{ADDR_A}:{ADDR_B}:1.0:0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["height"] == 1
        assert doc["accepted"] == 1
        assert doc["rejected"] == []


class TestReadsBesideAWriter:
    """A reading command neither waits for nor fails on another
    connection's write transaction."""

    READS = [
        ["chain", "query", ADDR_A],
        ["shard", "map", ADDR_A],
        ["trie", "get", "alpha"],
        ["name", "resolve", NODE_1],
    ]

    def test_reads_while_another_connection_commits(
        self, store, tmp_path, capsysbinary
    ) -> None:
        source = tmp_path / "n.txt"
        source.write_text("named")
        for argv in (
            ["chain", "init", "--shards", "2", "--fund", f"{ADDR_A}=50.0"],
            ["trie", "put", "alpha", "1"],
            ["dag", "add", str(source)],
        ):
            assert main(["--store", store, *argv]) == 0
        cid = capsysbinary.readouterr().out.decode().split()[-2]
        assert main(["--store", store, "name", "publish", cid, "--node-id", NODE_1]) == 0
        capsysbinary.readouterr()
        alone = []
        for argv in self.READS:
            assert main(["--store", store, *argv]) == 0
            alone.append(capsysbinary.readouterr().out)

        for index, (argv, expected) in enumerate(zip(self.READS, alone)):
            writer = open_database(Path(store, "sschain.db"))
            writer.execute("BEGIN IMMEDIATE")
            FileKvStore(writer, "objects").put(f"written beside read {index}".encode())
            commit = threading.Timer(0.3, writer.commit)
            commit.start()
            try:
                code = main(["--store", store, *argv])
            finally:
                commit.join()
                writer.close()
            assert (code, capsysbinary.readouterr().out) == (0, expected), argv

    def test_reading_workspace_refuses_writes(self, store) -> None:
        assert main(["--store", store, "trie", "put", "alpha", "1"]) == 0
        ws = Workspace(Path(store), write=False)
        try:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                ws.store("objects").put(b"written by a reader")
        finally:
            ws.close()


class TestSim:
    def test_run_text(self, store, capsys) -> None:
        code = main(
            [
                "--store",
                store,
                "sim",
                "run",
                "--txs",
                "60",
                "--shards",
                "2",
                "--nodes",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "processed 60 txs" in out
        assert "final state root" in out

    def test_run_json_with_trailing_global_flags(self, store, capsys) -> None:
        code = main(
            [
                "sim",
                "run",
                "--txs",
                "40",
                "--shards",
                "2",
                "--nodes",
                "8",
                "--store",
                store,
                "--json",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shards"] == 2 and doc["txs"] == 40

    def test_scaling_emits_one_line_per_count(self, store, capsys) -> None:
        code = main(
            [
                "--store",
                store,
                "--json",
                "sim",
                "run",
                "--txs",
                "40",
                "--shards",
                "1",
                "--nodes",
                "8",
                "--scaling",
                "1,2",
            ]
        )
        assert code == 0
        docs = [json.loads(line) for line in lines_of(capsys)]
        assert [d["shards"] for d in docs] == [1, 2]

    def test_same_seed_same_reported_shape(self, store, capsys, tmp_path) -> None:
        argv = ["sim", "run", "--txs", "30", "--shards", "2", "--nodes", "4", "--json"]
        assert main(["--store", str(tmp_path / "a"), *argv]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["--store", str(tmp_path / "b"), *argv]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["txs"] == second["txs"] == 30

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_consensus_delay(self, capsys, delay: str) -> None:
        assert main(["sim", "run", "--txs", "10", "--consensus", delay]) == 1
        assert capsys.readouterr().err == (
            f"error: consensus_delay_s must be finite and >= 0: {float(delay)}\n"
        )

    def test_invalid_shard_count(self, store, capsys) -> None:
        code = main(["--store", store, "sim", "run", "--txs", "10", "--shards", "3"])
        assert code == 1

    @pytest.mark.parametrize("counts", ["3", "1,0"])
    def test_scaling_count_out_of_range(self, store, capsys, monkeypatch, counts: str) -> None:
        """A count in digits that no run can use is a domain error, as
        ``--shards`` is, and it is refused before the first run."""
        from sschain import simulator

        runs: list[simulator.SimConfig] = []
        monkeypatch.setattr(simulator, "generate_workload", lambda config: runs.append(config) or [])
        code = main(["--store", store, "sim", "run", "--txs", "10", "--scaling", counts])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: num_shards must be a power of two: ")
        assert runs == []

    @pytest.mark.parametrize("argv", [["--shards", "131072"], ["--scaling", "1,131072"]])
    def test_shard_count_above_bound(self, store, capsys, monkeypatch, argv: list[str]) -> None:
        """A count above the bound is refused before the first run."""
        from sschain import simulator

        runs: list[simulator.SimConfig] = []
        monkeypatch.setattr(simulator, "generate_workload", lambda config: runs.append(config) or [])
        assert main(["--store", store, "sim", "run", "--txs", "10", *argv]) == 1
        assert capsys.readouterr().err == "error: num_shards 131072 exceeds 65536\n"
        assert runs == []


class TestClosedStdout:
    """A command whose reader has gone exits 1, rolled back, and prints no
    traceback, whether the lost write fails at ``print`` (unbuffered) or
    at the final flush (buffered)."""

    @staticmethod
    def _run(argv: list[str], unbuffered: str) -> subprocess.CompletedProcess:
        """Run the CLI in a new interpreter whose stdout is a pipe with its
        read end already closed."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            return subprocess.run(
                [sys.executable, "-m", "sschain.cli", *argv],
                stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_fd)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_sim_run(self, store, unbuffered: str) -> None:
        argv = ["--store", store, "sim", "run", "--txs", "2000", "--shards", "4",
                "--nodes", "16", "--accounts", "50", "--seed", "7"]
        done = self._run(argv, unbuffered)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_writing_command_is_rolled_back(self, store, capsys, unbuffered: str) -> None:
        done = self._run(["--store", store, "chain", "init", "--fund", f"{ADDR_A}=5.0"], unbuffered)
        assert (done.returncode, done.stderr) == (1, b"")
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        assert main(["--store", store, "chain", "init", "--fund", f"{ADDR_A}=5.0"]) == 0
        assert lines_of(capsys)[-1].startswith("head 0 root ")


class TestUsageErrors:
    def test_unknown_command(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_digest_argument(self, store) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "store", "get", "zz"])
        assert excinfo.value.code == 2

    def test_bad_tx_argument(self, store) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "chain", "apply", "--tx", "only:three:parts"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "tx",
        [
            f"{ADDR_A}:{ADDR_B}:1.0:\u0660", f"{ADDR_A}:{ADDR_B}:1.0:0_0",
            f"{ADDR_A}:{ADDR_B}:1.0: 0", f"{ADDR_A}:{ADDR_B}:1.0:-1", f"{ADDR_A}:{ADDR_B}:1.0:",
            f"{ADDR_A[:20]} {ADDR_A[20:]}:{ADDR_B}:1.0:0", f"{ADDR_A[:38]}:{ADDR_B}:1.0:0",
            f"{ADDR_A}:{ADDR_B}00:1.0:0", f"{ADDR_A}:{ADDR_B}:1.25:0", f"{ADDR_A}:{ADDR_A}:1.0:0",
        ],
        ids=[
            "arabic-indic-seq", "underscore-seq", "spaced-seq", "negative-seq", "no-seq",
            "spaced-address", "short-address", "long-address", "two-decimals",
            "self-transfer",
        ],
    )
    def test_tx_no_block_could_hold(self, store, capsys, tx: str) -> None:
        """A transaction no block could hold is refused at parse time, as a
        bad ``--fund`` is: exit 2, and the workspace is not opened, so
        its head stays where it was."""
        assert main(["--store", store, "chain", "init", "--fund", f"{ADDR_A}=50.0"]) == 0
        before = Path(store, "sschain.db").read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "chain", "apply", "--tx", tx])
        assert excinfo.value.code == 2
        assert "argument --tx: " in capsys.readouterr().err
        assert Path(store, "sschain.db").read_bytes() == before

    @pytest.mark.parametrize(
        "fund",
        [
            f"{ADDR_A}=1.25", f"{ADDR_A}=-3", f"{ADDR_A}=", f"{ADDR_A}=٣.٥",
            "abcd=5.0", f"{ADDR_A}00=5.0",
        ],
        ids=[
            "two-decimals", "negative", "no-amount", "arabic-indic-digits",
            "short-address", "long-address",
        ],
    )
    def test_bad_fund_argument(self, store, fund: str) -> None:
        """A funding no block could spend is refused before a workspace exists."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "chain", "init", "--fund", fund])
        assert excinfo.value.code == 2
        assert not Path(store).exists()

    def test_repeated_fund_address(self, store) -> None:
        """An address funded twice, in any hex case, is refused before a
        workspace exists: the genesis would keep one amount and drop the
        other."""
        funds = ["--fund", f"{ADDR_A}=5.0", "--fund", f"{ADDR_B}=1.0", "--fund", f"{ADDR_A.upper()}=7.0"]
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "chain", "init", *funds])
        assert excinfo.value.code == 2
        assert not Path(store).exists()

    @pytest.mark.parametrize(
        "counts", ["abc", ",,", "", "1,x", "-1", "1, 2", "1.0", "\u0663"],
        ids=["letters", "only-commas", "empty", "one-bad-part", "negative", "spaced",
             "decimal", "arabic-indic-digit"],
    )
    def test_bad_scaling_argument(self, capsys, counts: str) -> None:
        """Shard counts that are not ASCII digits, or none at all, are a
        usage error, raised while parsing and so before any experiment."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "run", "--txs", "10", "--scaling", counts])
        assert excinfo.value.code == 2
        assert "argument --scaling: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "address", ["", "abcd", f"{ADDR_A}00"], ids=["empty", "short", "long"]
    )
    def test_bad_query_address(self, store, capsys, address: str) -> None:
        """``chain query`` checks its address at parse time, as ``--tx`` and
        ``--fund`` do."""
        assert main(["--store", store, "chain", "init", "--fund", f"{ADDR_A}=50.0"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["--store", store, "chain", "query", address])
        assert excinfo.value.code == 2
        assert "argument address: " in capsys.readouterr().err

    def test_missing_subcommand(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestReadmeTranscripts:
    """The README's command transcripts, replayed byte for byte."""

    ALICE = "a7dcb39d30d146219809f933e86b9501a221256f"
    BOB = "4c789b5c8f688321b1c211b3004e9782ab26ad5e"

    @staticmethod
    def _run(argv: list[str], capture) -> list[str]:
        assert main(argv) == 0
        return capture.readouterr().out.decode().splitlines()

    def test_chain_init_apply_query(self, store, capsysbinary) -> None:
        fund = f"{self.ALICE}=50.0"
        assert self._run(
            ["--store", store, "chain", "init", "--fund", fund], capsysbinary
        ) == [
            "head 0 root "
            "bec3cd5d8dc367af311ebe85ac58894714aa262b71406cbae20d37e4a3c43f5d"
        ]
        tx = f"{self.ALICE}:{self.BOB}:3.5:0"
        assert self._run(
            ["--store", store, "chain", "apply", "--tx", tx], capsysbinary
        ) == [
            "block 1 root "
            "64b173bc6a73b485ced3b53ee438098f08a455efa36b5d198383df123b5ea638"
            " accepted 1 rejected 0"
        ]
        query = self._run(["--store", store, "chain", "query", self.BOB], capsysbinary)
        result = json.loads("\n".join(query))["result"]
        assert (result["seqNumber"], result["balance"]) == ("0", "3.5")

    def test_trie_put(self, store, capsysbinary) -> None:
        argv = ["--store", store, "trie", "put", "cafe01", '{"balance":"13.0"}']
        assert self._run(argv, capsysbinary) == [
            "ab3b2b1d2a5d76f94af0ef874a72740980a37144baca4c85df70ababf9256af3"
        ]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_sim_run(self, capsysbinary, parallelism: str) -> None:
        argv = "sim run --txs 2000 --shards 4 --nodes 16 --accounts 50 --seed 7"
        lines = self._run(argv.split() + ["--parallelism", parallelism], capsysbinary)
        assert lines[0].startswith("processed 2000 txs in ")
        assert lines[1].endswith(" over 1 block window(s)")
        assert lines[2:] == [
            "final state root "
            "711a830f935a9e9ccf61a44ed35c69be6432d4048114f066fa0e99d97cc1d1ae",
            "per-shard loads 455 564 438 543",
        ]


GROUPS = {
    "store": ["put", "get"],
    "dag": ["add", "get", "cat"],
    "name": ["publish", "resolve"],
    "trie": ["put", "get", "root"],
    "shard": ["map", "join", "leave"],
    "chain": ["init", "apply", "query", "rollback"],
    "sim": ["run"],
}
SCREENS = (
    [[], ["--help"]]
    + [[group, "--help"] for group in GROUPS]
    + [[group, command, "--help"] for group, commands in GROUPS.items() for command in commands]
    + [["chain"], ["chain", "apply", "--tx", "zz"], ["shard", "map"]]
)
INVALID_CHOICES = [["bogus"], ["chain", "bogus"]]
SCREENS_FILE = Path(__file__).with_name("cli_screens.json")


def screen(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``sschain <argv>`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def screen_id(argv: list[str]) -> str:
    return " ".join(["sschain", *argv])


class TestHelpScreens:
    """Help and usage text at 80 columns, byte for byte as recorded in
    ``cli_screens.json``. After an intended change to the text, record it
    again as ``{screen_id(argv): screen(argv)}`` over ``SCREENS +
    INVALID_CHOICES`` with ``COLUMNS=80``."""

    @pytest.fixture()
    def pinned(self, monkeypatch) -> dict:
        monkeypatch.setenv("COLUMNS", "80")
        return json.loads(SCREENS_FILE.read_text())

    def test_every_screen_is_recorded(self, pinned) -> None:
        assert set(pinned) == {screen_id(argv) for argv in SCREENS + INVALID_CHOICES}

    @pytest.mark.parametrize("argv", SCREENS, ids=screen_id)
    def test_screen_is_unchanged(self, pinned, argv: list[str]) -> None:
        assert screen(argv) == pinned[screen_id(argv)]

    @pytest.mark.parametrize("argv", INVALID_CHOICES, ids=screen_id)
    def test_invalid_choice(self, pinned, argv: list[str]) -> None:
        """How argparse quotes the offered choices varies across Python
        releases, so only the usage lines and the bad name are compared."""
        got, expected = screen(argv), pinned[screen_id(argv)]
        *usage, error = got["stderr"].splitlines()
        assert (got["code"], got["stdout"]) == (2, "")
        assert usage == expected["stderr"].splitlines()[:-1]
        assert "invalid choice: 'bogus'" in error


class Recorded(Exception):
    """Raised instead of opening a workspace, carrying its write mode."""


class TestCommandTable:
    CID = cid_text(hash256(b"cli-table"))
    LINES = [
        ["store", "put", "-"],
        ["store", "get", NODE_1],
        ["dag", "add", "x"],
        ["dag", "get", CID],
        ["dag", "cat", CID],
        ["name", "publish", CID, "--node-id", NODE_1],
        ["name", "resolve", NODE_1],
        ["trie", "put", "k", "v"],
        ["trie", "get", "k"],
        ["trie", "root"],
        ["shard", "map", ADDR_A],
        ["shard", "join", NODE_1],
        ["shard", "leave", NODE_1],
        ["chain", "init"],
        ["chain", "apply"],
        ["chain", "query", ADDR_A],
        ["chain", "rollback", "0"],
        ["sim", "run"],
    ]

    def test_lines_cover_every_command(self) -> None:
        assert [argv[:2] for argv in self.LINES] == [
            [group, command] for group, commands in GROUPS.items() for command in commands
        ]

    def test_read_commands_are_query_only(self, store, monkeypatch) -> None:
        def record(root: Path, write: bool) -> None:
            raise Recorded(write)

        monkeypatch.setattr(cli, "Workspace", record)
        modes = {}
        for argv in self.LINES:
            with pytest.raises(Recorded) as excinfo:
                main(["--store", store, *argv])
            modes[" ".join(argv[:2])] = excinfo.value.args[0]
        assert {line for line, write in modes.items() if not write} == {
            "store get", "dag get", "dag cat", "name resolve", "trie get",
            "trie root", "shard map", "chain query", "sim run",
        }

    @staticmethod
    def built_parsers(monkeypatch) -> list:
        """The parsers built from now on, as ``ArgumentParser.__init__`` runs."""
        built: list = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs) -> None:
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_a_command_builds_only_the_parsers_it_reaches(
        self, store, capsys, monkeypatch
    ) -> None:
        """Top, group and command: the other groups and commands are
        never built."""
        built = self.built_parsers(monkeypatch)
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        assert len(built) == 3

    @pytest.mark.parametrize(
        "argv,parsers",
        [
            (["chain", "apply", "--tx", f"{ADDR_A}:{ADDR_B}:1.0:0"], 3),
            (["sim", "run", "--txs", "10"], 3),
            (["--help"], 1),
            (["chain", "--help"], 2),
        ],
        ids=["chain-apply", "sim-run", "help", "chain-help"],
    )
    def test_parsers_built_per_command_line(
        self, store, capsys, monkeypatch, argv: list[str], parsers: int
    ) -> None:
        def record(root: Path, write: bool) -> None:
            raise Recorded(write)

        monkeypatch.setattr(cli, "Workspace", record)
        built = self.built_parsers(monkeypatch)
        with pytest.raises((Recorded, SystemExit)):
            main(["--store", store, *argv])
        assert len(built) == parsers


class TestMissingWorkspace:
    """A reading command on a --store that does not exist reads an empty
    workspace and leaves nothing behind."""

    def test_reads_create_nothing(self, tmp_path, capsys) -> None:
        missing = tmp_path / "none"
        assert main(["--store", str(missing), "trie", "root"]) == 0
        assert lines_of(capsys) == [EMPTY_ROOT.hex()]
        assert main(["--store", str(missing), "chain", "query", ADDR_A]) == 1
        assert capsys.readouterr().err == (
            f"error: no shard table in {missing / 'sschain.db'}; run chain init\n"
        )
        assert not missing.exists()
