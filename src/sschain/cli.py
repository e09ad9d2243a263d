"""Command-line front end.

Everything stateful lives in one SQLite database, ``sschain.db``, under
``--store`` (default ``./sschain-store``): the store spaces ``objects``,
``trie`` and ``shards/<i>``, the chain's tables, and this module's
``workspace`` (trie root, shard table) and ``names`` tables.

Each command is one transaction, committed only if it succeeds, so a
failed or killed command leaves the workspace as it was. Writing
commands start with ``BEGIN IMMEDIATE``, so two writers take turns. A
directory in the old file-per-entry layout is refused, not read.

Exit codes: 0 on success, 1 on a domain error (missing key, bad root,
rejected precondition), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from pathlib import Path
from typing import Optional

from . import chain as chainmod
from . import merkle_dag as dagmod
from . import shard_dht as shardmod
from . import simulator as simmod
from .encoding import DIGEST_SIZE, Digest
from .errors import CorruptError, SSChainError
from .merkle_dag import AccountState, Cid, DagNode, NameRecord, NameRegistry
from .mpt import EMPTY_ROOT, Trie
from .store import FileKvStore, KvStore, open_database

DB_NAME = "sschain.db"
_OLD_LAYOUT = ("objects", "trie", "shards", "chain", "table.cfg", "TRIE_ROOT", "names.txt")
_CLI_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS workspace"
    " (name TEXT PRIMARY KEY, value NOT NULL) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS names (node_id BLOB PRIMARY KEY,"
    " sequence INTEGER NOT NULL, target BLOB NOT NULL) WITHOUT ROWID",
)


def _hex_arg(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}") from None


def _digest_arg(text: str) -> bytes:
    raw = _hex_arg(text)
    if len(raw) != DIGEST_SIZE:
        raise argparse.ArgumentTypeError(f"expected {DIGEST_SIZE} hex bytes")
    return raw


def _cid_arg(text: str) -> Cid:
    try:
        return Cid.parse(text)
    except dagmod.CidFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tx_arg(text: str) -> tuple[bytes, bytes, str, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "transaction must be <from-hex>:<to-hex>:<amount>:<seq>"
        )
    try:
        return (bytes.fromhex(parts[0]), bytes.fromhex(parts[1]), parts[2], int(parts[3]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fund_arg(text: str) -> tuple[bytes, str]:
    address, sep, amount = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("funding must be <address-hex>=<amount>")
    try:
        return bytes.fromhex(address), amount
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Workspace:
    """The --store database, opened on first use inside the command's
    transaction, which :meth:`close` ends. Values read back are checked."""

    def __init__(self, root: Path, write: bool):
        self.root, self.write = root, write
        self._db: Optional[sqlite3.Connection] = None

    @property
    def db(self) -> sqlite3.Connection:
        if self._db is None:
            path = self.root / DB_NAME
            if not path.exists():
                old = [name for name in _OLD_LAYOUT if (self.root / name).exists()]
                if old:
                    raise SSChainError(
                        f"{self.root} is in the old file-per-entry layout ({', '.join(old)}),"
                        f" which this version does not read; it keeps one {DB_NAME}"
                    )
                self.root.mkdir(parents=True, exist_ok=True)
            self._db = open_database(path)
            self._db.execute("BEGIN IMMEDIATE" if self.write else "BEGIN")
            for statement in _CLI_SCHEMA:
                self._db.execute(statement)
        return self._db

    def close(self, commit: bool = False) -> None:
        """Commit the transaction if ``commit`` is set, then close the
        database; closing without a commit rolls the transaction back."""
        db, self._db = self._db, None
        if db is not None:
            try:
                if commit:
                    db.commit()
            finally:
                db.close()

    def store(self, space: str) -> FileKvStore:
        return FileKvStore(self.db, space)

    def shard_store(self, shard_id: shardmod.ShardId) -> KvStore:
        return self.store(f"shards/{shard_id.index}")

    def _value(self, name: str) -> object:
        row = self.db.execute("SELECT value FROM workspace WHERE name = ?", (name,)).fetchone()
        return None if row is None else row[0]

    def _set_value(self, name: str, value: object) -> None:
        self.db.execute("INSERT OR REPLACE INTO workspace VALUES (?, ?)", (name, value))

    def trie_root(self) -> Digest:
        """Root of the standalone trie commands; the empty root at first."""
        root = self._value("trie_root")
        if root is not None and not _is_digest(root):
            raise CorruptError(f"stored trie root {root!r} is not a digest")
        return EMPTY_ROOT if root is None else root

    def save_trie_root(self, root: Digest) -> None:
        self._set_value("trie_root", root)

    def load_table(self, default_shards: Optional[int] = None) -> shardmod.ShardTable:
        trie_store = self.store("trie")
        config = self._value("shard_table")
        if config is None:
            if default_shards is None:
                raise SSChainError(f"no shard table in {self.root / DB_NAME}; run chain init")
            return shardmod.ShardTable(default_shards, self.shard_store, trie_store)
        try:
            if not isinstance(config, str):
                raise shardmod.ShardError(f"{config!r} is not text")
            return shardmod.table_from_config(config, self.shard_store, trie_store)
        except shardmod.ShardError as exc:
            raise CorruptError(f"stored shard table: {exc}") from exc

    def save_table(self, table: shardmod.ShardTable) -> None:
        self._set_value("shard_table", shardmod.table_to_config(table))

    def load_registry(self, store: KvStore) -> NameRegistry:
        registry = NameRegistry(store)
        for node_id, sequence, target in self.db.execute("SELECT * FROM names"):
            if not (_is_digest(node_id) and _is_digest(target) and type(sequence) is int):
                raise CorruptError(f"stored name record for {node_id!r} is malformed")
            registry._records[node_id] = NameRecord(node_id, Cid(target), sequence)
        return registry

    def save_name(self, record: NameRecord) -> None:
        row = (record.node_id, record.sequence, record.target.digest)
        self.db.execute("INSERT OR REPLACE INTO names VALUES (?, ?, ?)", row)


def _is_digest(value: object) -> bool:
    return isinstance(value, bytes) and len(value) == DIGEST_SIZE


def _emit(args: argparse.Namespace, payload: object, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_store_put(args: argparse.Namespace, ws: Workspace) -> int:
    data = sys.stdin.buffer.read() if args.path == "-" else Path(args.path).read_bytes()
    key = ws.store("objects").put(data)
    _emit(args, {"key": key.hex()}, [key.hex()])
    return 0


def cmd_store_get(args: argparse.Namespace, ws: Workspace) -> int:
    value = ws.store("objects").get(args.key)
    if args.out:
        Path(args.out).write_bytes(value)
        _emit(args, {"key": args.key.hex(), "size": len(value)}, [f"wrote {args.out}"])
    elif args.json:
        _emit(args, {"key": args.key.hex(), "hex": value.hex()}, [])
    else:
        sys.stdout.buffer.write(value)
        sys.stdout.buffer.flush()
    return 0


def cmd_dag_add(args: argparse.Namespace, ws: Workspace) -> int:
    path = Path(args.path)
    if not path.exists():
        raise SSChainError(f"path not found: {path}")
    store = ws.store("objects")
    if path.is_dir():
        if not args.recursive:
            raise SSChainError(f"{path} is a directory; use -r")
        files = [(p.name, p.read_bytes()) for p in path.iterdir() if p.is_file()]
        dir_cid = dagmod.dag_build_directory(store, files)
        added = [(link.cid, link.name) for link in dagmod.dag_get(store, dir_cid).links]
        added.append((dir_cid, path.name))
    else:
        added = [(dagmod.dag_put(store, DagNode(data=path.read_bytes())), path.name)]
    _emit(
        args,
        [{"cid": str(cid), "name": name} for cid, name in added],
        [f"added {cid} {name}" for cid, name in added],
    )
    return 0


def cmd_dag_get(args: argparse.Namespace, ws: Workspace) -> int:
    node = dagmod.dag_get(ws.store("objects"), args.cid)
    doc = {
        "data": node.data.hex(),
        "links": [
            {"Name": link.name, "Cid": str(link.cid), "Size": link.size}
            for link in node.links
        ],
    }
    print(json.dumps(doc) if args.json else json.dumps(doc, indent=2))
    return 0


def cmd_dag_cat(args: argparse.Namespace, ws: Workspace) -> int:
    node = dagmod.dag_get(ws.store("objects"), args.cid)
    sys.stdout.buffer.write(node.data)
    sys.stdout.buffer.flush()
    return 0


def cmd_name_publish(args: argparse.Namespace, ws: Workspace) -> int:
    registry = ws.load_registry(ws.store("objects"))
    record = dagmod.name_publish(registry, args.node_id, args.cid)
    ws.save_name(record)
    _emit(
        args,
        {
            "node_id": record.node_id.hex(),
            "sequence": record.sequence,
            "target": str(record.target),
        },
        [f"Published to {record.node_id.hex()}: /ss/{record.target}"],
    )
    return 0


def cmd_name_resolve(args: argparse.Namespace, ws: Workspace) -> int:
    registry = ws.load_registry(ws.store("objects"))
    target = dagmod.name_resolve(registry, args.node_id)
    _emit(
        args,
        {"node_id": args.node_id.hex(), "target": str(target)},
        [f"/ss/{target}"],
    )
    return 0


def _cli_trie(ws: Workspace) -> Trie:
    return Trie(ws.store("objects"), ws.trie_root())


def cmd_trie_put(args: argparse.Namespace, ws: Workspace) -> int:
    trie = _cli_trie(ws).insert(args.key.encode(), args.value.encode())
    root = trie.commit()
    ws.save_trie_root(root)
    _emit(args, {"root": root.hex()}, [root.hex()])
    return 0


def cmd_trie_get(args: argparse.Namespace, ws: Workspace) -> int:
    value = _cli_trie(ws).get(args.key.encode())
    _emit(
        args,
        {"key": args.key, "value": value.decode(errors="replace")},
        [value.decode(errors="replace")],
    )
    return 0


def cmd_trie_root(args: argparse.Namespace, ws: Workspace) -> int:
    root = ws.trie_root()
    _emit(args, {"root": root.hex()}, [root.hex()])
    return 0


def cmd_shard_map(args: argparse.Namespace, ws: Workspace) -> int:
    shard = shardmod.shard_of(args.address, ws.load_table(args.shards).num_shards)
    suffix = f" (prefix {shard.bits})" if shard.bits else ""
    _emit(
        args,
        {"address": args.address.hex(), "shard": shard.index, "prefix": shard.bits},
        [f"{args.address.hex()} -> shard {shard.index}{suffix}"],
    )
    return 0


def _report_payload(report: shardmod.RemapReport) -> list[dict]:
    return [
        {"key": m.key.hex(), "from": m.src.hex(), "to": m.dst.hex()}
        for m in report.moves
    ]


def cmd_shard_join(args: argparse.Namespace, ws: Workspace) -> int:
    table = ws.load_table(default_shards=args.shards)
    node = shardmod.NodeIdentity.derive(
        args.node_id, table.num_shards, book=args.book, authority=args.authority
    )
    report = table.node_join(node)
    ws.save_table(table)
    _emit(
        args,
        {"node_id": node.node_id.hex(), "shard": node.shard.index, "moves": _report_payload(report)},
        [f"joined {node.node_id.hex()} shard {node.shard.index}"] + report.lines(),
    )
    return 0


def cmd_shard_leave(args: argparse.Namespace, ws: Workspace) -> int:
    table = ws.load_table()
    report = table.node_leave(args.node_id)
    ws.save_table(table)
    _emit(
        args,
        {"node_id": args.node_id.hex(), "moves": _report_payload(report)},
        [f"left {args.node_id.hex()}"] + report.lines(),
    )
    return 0


def cmd_chain_init(args: argparse.Namespace, ws: Workspace) -> int:
    if chainmod.stored_head(ws.db) is not None:
        raise SSChainError(f"chain already initialized in {ws.root / DB_NAME}")
    table = ws.load_table(default_shards=args.shards)
    producer = chainmod.default_producer(table.num_shards)
    for address, amount in args.fund or []:
        table.shard_update(producer, address, AccountState("0", amount))
    chain = chainmod.Chain(table, producer)
    chain.export(ws.db)
    ws.save_table(table)
    root = chain.genesis_root
    _emit(args, {"height": 0, "root": root.hex()}, [f"head 0 root {root.hex()}"])
    return 0


def _load_chain(ws: Workspace) -> chainmod.Chain:
    return chainmod.Chain.load(ws.db, ws.load_table())


def cmd_chain_apply(args: argparse.Namespace, ws: Workspace) -> int:
    chain = _load_chain(ws)
    txs = [chainmod.Transaction(*fields) for fields in args.tx or []]
    block = chain.apply_block(txs)
    chain.export(ws.db)
    rejected = [
        f"REJECTED {r.tx.sender.hex()} {r.reason}" for r in chain.last_rejected
    ]
    _emit(
        args,
        {
            "height": block.header.number,
            "root": block.header.state_root.hex(),
            "accepted": len(block.txs),
            "rejected": [
                {"from": r.tx.sender.hex(), "reason": r.reason}
                for r in chain.last_rejected
            ],
        },
        [
            f"block {block.header.number} root {block.header.state_root.hex()} "
            f"accepted {len(block.txs)} rejected {len(chain.last_rejected)}"
        ]
        + rejected,
    )
    return 0


def cmd_chain_query(args: argparse.Namespace, ws: Workspace) -> int:
    chain = _load_chain(ws)
    state = chain.query_account(args.address, args.root)
    sys.stdout.buffer.write(state.to_json_bytes())
    sys.stdout.buffer.flush()
    return 0


def cmd_chain_rollback(args: argparse.Namespace, ws: Workspace) -> int:
    chain = _load_chain(ws)
    chain.rollback(args.height)
    chain.export(ws.db)
    root = chain.head.header.state_root
    _emit(
        args,
        {"height": chain.head_height, "root": root.hex()},
        [f"head {chain.head_height} root {root.hex()}"],
    )
    return 0


def cmd_sim_run(args: argparse.Namespace, ws: Workspace) -> int:
    config = simmod.SimConfig(
        num_nodes=args.nodes,
        num_shards=args.shards,
        num_txs=args.txs,
        block_interval_s=args.interval,
        consensus_delay_s=args.consensus,
        seed=args.seed,
        parallelism=args.parallelism,
        num_accounts=args.accounts,
        txs_per_block=args.txs_per_block,
    )
    if args.scaling:
        counts = [int(part) for part in args.scaling.split(",") if part]
        report = simmod.run_scaling(config, counts)
    else:
        report = simmod.run_experiment(config)
    if args.json:
        for line in report.json_lines():
            print(line)
    else:
        print(report.text())
    return 0


def _common_flags() -> argparse.ArgumentParser:
    """Global flags, repeated on every leaf so they work in either position."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store", type=Path, default=argparse.SUPPRESS, help="state directory"
    )
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized runs"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sschain", description="Sharded account-state chain tools."
    )
    parser.add_argument(
        "--store", type=Path, default=Path("./sschain-store"), help="state directory"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    top = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]

    store = top.add_parser("store", help="content-addressed store").add_subparsers(
        dest="action", required=True
    )
    put = store.add_parser("put", help="store a file (or - for stdin)", parents=common)
    put.add_argument("path")
    put.set_defaults(func=cmd_store_put)
    get = store.add_parser("get", help="print a stored value", parents=common)
    get.add_argument("key", type=_digest_arg)
    get.add_argument("--out", help="write to a file instead of stdout")
    get.set_defaults(func=cmd_store_get)

    dag = top.add_parser("dag", help="merkle dag").add_subparsers(
        dest="action", required=True
    )
    add = dag.add_parser("add", help="add a file or directory", parents=common)
    add.add_argument("path")
    add.add_argument("-r", "--recursive", action="store_true")
    add.set_defaults(func=cmd_dag_add)
    dget = dag.add_parser("get", help="print a node as JSON", parents=common)
    dget.add_argument("cid", type=_cid_arg)
    dget.set_defaults(func=cmd_dag_get)
    cat = dag.add_parser("cat", help="print a leaf payload", parents=common)
    cat.add_argument("cid", type=_cid_arg)
    cat.set_defaults(func=cmd_dag_cat)

    name = top.add_parser("name", help="name records").add_subparsers(
        dest="action", required=True
    )
    pub = name.add_parser("publish", help="bind a node id to a cid", parents=common)
    pub.add_argument("cid", type=_cid_arg)
    pub.add_argument("--node-id", type=_digest_arg, required=True)
    pub.set_defaults(func=cmd_name_publish)
    res = name.add_parser("resolve", help="latest cid for a node id", parents=common)
    res.add_argument("node_id", type=_digest_arg)
    res.set_defaults(func=cmd_name_resolve)

    trie = top.add_parser("trie", help="persistent trie").add_subparsers(
        dest="action", required=True
    )
    tput = trie.add_parser("put", help="insert key and value text", parents=common)
    tput.add_argument("key")
    tput.add_argument("value")
    tput.set_defaults(func=cmd_trie_put)
    tget = trie.add_parser("get", help="look a key up", parents=common)
    tget.add_argument("key")
    tget.set_defaults(func=cmd_trie_get)
    troot = trie.add_parser("root", help="print the current root", parents=common)
    troot.set_defaults(func=cmd_trie_root)

    shard = top.add_parser("shard", help="shard table").add_subparsers(
        dest="action", required=True
    )
    smap = shard.add_parser("map", help="address to shard", parents=common)
    smap.add_argument("address", type=_hex_arg)
    smap.add_argument("--shards", type=int, default=4)
    smap.set_defaults(func=cmd_shard_map)
    sjoin = shard.add_parser("join", help="add a member node", parents=common)
    sjoin.add_argument("node_id", type=_digest_arg)
    sjoin.add_argument("--shards", type=int, default=4)
    sjoin.add_argument("--book", action=argparse.BooleanOptionalAction, default=True)
    sjoin.add_argument(
        "--authority", action=argparse.BooleanOptionalAction, default=True
    )
    sjoin.set_defaults(func=cmd_shard_join)
    sleave = shard.add_parser("leave", help="remove a member node", parents=common)
    sleave.add_argument("node_id", type=_digest_arg)
    sleave.set_defaults(func=cmd_shard_leave)

    chain = top.add_parser("chain", help="block chain").add_subparsers(
        dest="action", required=True
    )
    cinit = chain.add_parser("init", help="create the chain", parents=common)
    cinit.add_argument("--shards", type=int, default=4)
    cinit.add_argument(
        "--fund", type=_fund_arg, action="append", help="<address-hex>=<amount>"
    )
    cinit.set_defaults(func=cmd_chain_init)
    capply = chain.add_parser(
        "apply", help="apply one block of transactions", parents=common
    )
    capply.add_argument(
        "--tx", type=_tx_arg, action="append", help="<from>:<to>:<amount>:<seq>"
    )
    capply.set_defaults(func=cmd_chain_apply)
    cquery = chain.add_parser(
        "query", help="account state at head or a root", parents=common
    )
    cquery.add_argument("address", type=_hex_arg)
    cquery.add_argument("--root", type=_digest_arg)
    cquery.set_defaults(func=cmd_chain_query)
    croll = chain.add_parser(
        "rollback", help="move the head to a height", parents=common
    )
    croll.add_argument("height", type=int)
    croll.set_defaults(func=cmd_chain_rollback)

    sim = top.add_parser("sim", help="experiments").add_subparsers(
        dest="action", required=True
    )
    srun = sim.add_parser("run", help="run a seeded experiment", parents=common)
    srun.add_argument("--txs", type=int, default=1000)
    srun.add_argument("--shards", type=int, default=4)
    srun.add_argument("--nodes", type=int, default=64)
    srun.add_argument("--accounts", type=int, default=0)
    srun.add_argument("--txs-per-block", type=int, default=0)
    srun.add_argument("--interval", type=float, default=15.0)
    srun.add_argument("--consensus", type=float, default=10.0)
    srun.add_argument("--parallelism", type=int, default=1)
    srun.add_argument("--scaling", help="comma-separated shard counts")
    srun.set_defaults(func=cmd_sim_run)

    return parser


_WRITERS = {
    cmd_store_put, cmd_dag_add, cmd_name_publish, cmd_trie_put, cmd_shard_join,
    cmd_shard_leave, cmd_chain_init, cmd_chain_apply, cmd_chain_rollback,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    ws = Workspace(args.store, write=args.func in _WRITERS)
    try:
        code = args.func(args, ws)
        ws.close(commit=True)
        return code
    except (SSChainError, sqlite3.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: not found: {exc}", file=sys.stderr)
        return 1
    finally:
        ws.close()


if __name__ == "__main__":
    sys.exit(main())
