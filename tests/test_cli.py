"""End-to-end command tests driving ``main(argv)`` directly."""

from __future__ import annotations

import io
import json
import os
import signal
import sqlite3
import time
from pathlib import Path

import pytest

from sschain import chain as chainmod
from sschain.cli import main
from sschain.encoding import hash256
from sschain.merkle_dag import AccountState, dag_build_directory
from sschain.mpt import EMPTY_ROOT
from sschain.shard_dht import ShardTable, shard_of
from sschain.store import MemoryKvStore, open_database

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
        assert root_cid == str(expected)
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
        sql(store, "UPDATE names SET node_id = 'zz', target = 'ss1-00'")
        assert main(["--store", store, "name", "resolve", NODE_1]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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
        sql(store, "UPDATE workspace SET value = 'zz' WHERE name = 'trie_root'")
        assert main(["--store", store, "trie", "get", "alpha"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestShard:
    def test_map_line(self, store, capsys) -> None:
        address = bytes.fromhex(ADDR_A)
        expected = shard_of(address, 4)
        assert main(["--store", store, "shard", "map", ADDR_A]) == 0
        assert lines_of(capsys) == [
            f"{ADDR_A} -> shard {expected.index} (prefix {expected.bits})"
        ]

    def test_map_single_shard_has_no_prefix(self, store, capsys) -> None:
        assert main(["--store", store, "shard", "map", ADDR_A, "--shards", "1"]) == 0
        assert lines_of(capsys) == [f"{ADDR_A} -> shard 0"]

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
        db = open_database(tmp_path / "ws" / "sschain.db")
        heights = [h for (h,) in db.execute("SELECT height FROM chain_blocks")]
        db.close()
        assert heights == [0, 1, 2, 3]

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

        def export_then_die(chain, db) -> None:
            export(chain, db)
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

        db = open_database(Path(store, "sschain.db"))
        head = chainmod.stored_head(db)
        db.close()
        assert head is not None and head[0] == 2 * applies
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

    def test_corrupt_shard_table_is_an_error(self, store, capsys) -> None:
        self._init(store, capsys)
        sql(store, "UPDATE workspace SET value = 'shards four' WHERE name = 'shard_table'")
        assert main(["--store", store, "chain", "query", ADDR_A]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_rollback_past_head(self, store, capsys) -> None:
        self._init(store, capsys)
        assert main(["--store", store, "chain", "rollback", "5"]) == 1

    def test_apply_without_init(self, store, capsys) -> None:
        assert main(["--store", store, "chain", "apply"]) == 1

    def test_query_unknown_account(self, store, capsys) -> None:
        self._init(store, capsys)
        assert main(["--store", store, "chain", "query", ADDR_B]) == 1

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

    def test_invalid_shard_count(self, store, capsys) -> None:
        code = main(["--store", store, "sim", "run", "--txs", "10", "--shards", "3"])
        assert code == 1


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
            "b8cdead796bf77bb817f1215ff189e12d5579c21c1027a7b8f022c2c83c74f06",
            "per-shard loads 455 564 438 543",
        ]
