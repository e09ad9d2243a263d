"""Command-line front end.

Everything stateful is an entry of the one ``kv`` table of ``sschain.db``
under ``--store`` (default ``./sschain-store``), in the store spaces
``objects``, ``trie`` (also the chain's headers, transaction tries and
head pointer), ``shards/<i>``, ``workspace`` (the trie root and shard
table text under :data:`TRIE_ROOT_KEY` and :data:`SHARD_TABLE_KEY`) and
``names`` (RLP [sequence, target digest] under each node id).

Each command is declared once, in :data:`COMMANDS`: its group, help
text, handler, whether it writes, and its arguments. The global flags
``--store``, ``--json`` and ``--seed`` are declared once too and work
before or after the command. :func:`build_parser` builds only the top
parser: a group's parser and a command's parser are each built when a
command line reaches it, so a command line builds three parsers (top,
group, command) and ``sschain <group> --help`` two.

Each command is one transaction, committed only if it succeeds and its
output has been written, so a failed or killed command, or one whose
reader closed stdout early, leaves the workspace as it was. Writing
commands start with ``BEGIN IMMEDIATE``, so two writers take turns;
reading commands are query-only, so they run beside a writer, and on a
``--store`` that does not exist they read an empty in-memory database
and create nothing. A directory in the old file-per-entry layout is
refused, not read.

Exit codes: 0 on success, 1 on a domain error (missing key, bad root,
rejected precondition) or a closed stdout, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from . import chain as chainmod
from . import merkle_dag as dagmod
from . import shard_dht as shardmod
from .encoding import DIGEST_SIZE, Digest, hash256
from .errors import CorruptError, NotFoundError, SSChainError
from .merkle_dag import AccountState, DagNode, cid_text
from .mpt import EMPTY_ROOT, Trie
from .store import FileKvStore, KvStore, open_database

DB_NAME = "sschain.db"
_OLD_LAYOUT = ("objects", "trie", "shards", "chain", "table.cfg", "TRIE_ROOT", "names.txt")
TRIE_ROOT_KEY = hash256(b"sschain trie root")
SHARD_TABLE_KEY = hash256(b"sschain shard table")
DEFAULT_SHARDS = 4


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


def _cid_arg(text: str) -> Digest:
    try:
        return dagmod.parse_cid(text)
    except dagmod.CidFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _address(text: str) -> bytes:
    """An account address: exactly its bytes in hex digits."""
    raw = _hex_arg(text)
    if len(raw) != chainmod.ADDRESS_SIZE or len(text) != 2 * chainmod.ADDRESS_SIZE:
        raise argparse.ArgumentTypeError(f"expected a {chainmod.ADDRESS_SIZE}-byte address")
    return raw


def _tx_arg(text: str) -> chainmod.Transaction:
    """A transaction a block can hold: two addresses, an amount in tenths
    and a seq in ASCII digits."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "transaction must be <from-hex>:<to-hex>:<amount>:<seq>"
        )
    sender, receiver, amount, seq = parts
    if not (seq.isascii() and seq.isdigit()):
        raise argparse.ArgumentTypeError(f"seq must be decimal digits: {seq!r}")
    try:
        return chainmod.Transaction(_address(sender), _address(receiver), amount, int(seq))
    except chainmod.ChainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _counts_arg(text: str) -> list[int]:
    """One or more comma-separated shard counts in ASCII digits."""
    parts = [part for part in text.split(",") if part]
    if not parts or not all(part.isascii() and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"expected comma-separated shard counts: {text!r}")
    return [int(part) for part in parts]


def _fund_arg(text: str) -> tuple[bytes, str]:
    """An (address, amount text) pair a block can later spend: the address
    is an account address and the amount a decimal in tenths, kept as given."""
    address, sep, amount = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("funding must be <address-hex>=<amount>")
    raw = _address(address)
    try:
        chainmod.tenths_from_text(amount)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return raw, amount


class _FundAction(argparse.Action):
    """Collect ``--fund`` pairs as address -> amount text in first-seen
    order, refusing an address funded twice: the genesis would keep one
    of the amounts and drop the other."""

    def __call__(self, parser, namespace, values, option_string=None):
        funds = getattr(namespace, self.dest) or {}
        address, amount = values
        if address in funds:
            raise argparse.ArgumentError(self, f"address {address.hex()} funded twice")
        funds[address] = amount
        setattr(namespace, self.dest, funds)


class Workspace:
    """The --store database, opened on first use inside the command's
    transaction, which :meth:`close` ends. A reading workspace is
    query-only, and empty if the database does not exist. Values read
    back are checked."""

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
                if self.write:
                    self.root.mkdir(parents=True, exist_ok=True)
                else:  # a missing workspace reads as empty and is not created
                    path = ":memory:"
            self._db = open_database(path)
            if not self.write:
                self._db.execute("PRAGMA query_only = ON")
            self._db.execute("BEGIN IMMEDIATE" if self.write else "BEGIN")
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

    def shard_store(self, index: int) -> KvStore:
        return self.store(f"shards/{index}")

    def trie_root(self) -> Digest:
        """Root of the standalone trie commands; the empty root at first."""
        root = _find(self.store("workspace"), TRIE_ROOT_KEY) or EMPTY_ROOT
        if len(root) != DIGEST_SIZE:
            raise CorruptError(f"stored trie root {root.hex()} is not a digest")
        return root

    def save_trie_root(self, root: Digest) -> None:
        self.store("workspace").put_named(TRIE_ROOT_KEY, root)

    def load_table(self, shards: Optional[int] = None) -> Optional[shardmod.ShardTable]:
        """The stored table, or None if none is stored. A given ``shards``
        must be a valid count, checked before the database opens so that a
        refused count creates nothing, and must match a stored table's."""
        if shards is not None:
            shardmod.prefix_width(shards)
        config = _find(self.store("workspace"), SHARD_TABLE_KEY)
        if config is None:
            return None
        try:
            table = shardmod.table_from_config(config.decode(), self.shard_store, self.store("trie"))
        except (UnicodeDecodeError, shardmod.ShardError) as exc:
            raise CorruptError(f"stored shard table: {exc}") from exc
        if shards is not None and shards != table.num_shards:
            raise SSChainError(
                f"--shards {shards} disagrees with the stored table's {table.num_shards} shards"
            )
        return table

    def stored_table(self) -> shardmod.ShardTable:
        table = self.load_table()
        if table is None:
            raise SSChainError(f"no shard table in {self.root / DB_NAME}; run chain init")
        return table

    def shard_table(self, shards: Optional[int]) -> shardmod.ShardTable:
        """The stored table, or a new one of ``shards`` (4 if not given)
        when none is stored."""
        table = self.load_table(shards)
        if table is None:
            count = DEFAULT_SHARDS if shards is None else shards
            table = shardmod.ShardTable(count, self.shard_store, self.store("trie"))
        return table

    def save_table(self, table: shardmod.ShardTable) -> None:
        config = shardmod.table_to_config(table).encode()
        self.store("workspace").put_named(SHARD_TABLE_KEY, config)


def _find(store: KvStore, key: Digest) -> Optional[bytes]:
    try:
        return store.get(key)
    except NotFoundError:
        return None


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
        [{"cid": cid_text(cid), "name": name} for cid, name in added],
        [f"added {cid_text(cid)} {name}" for cid, name in added],
    )
    return 0


def cmd_dag_get(args: argparse.Namespace, ws: Workspace) -> int:
    node = dagmod.dag_get(ws.store("objects"), args.cid)
    doc = {
        "data": node.data.hex(),
        "links": [
            {"Name": link.name, "Cid": cid_text(link.cid), "Size": link.size}
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
    sequence = dagmod.name_publish(ws.store("objects"), ws.store("names"), args.node_id, args.cid)
    node_id, target = args.node_id.hex(), cid_text(args.cid)
    _emit(
        args,
        {"node_id": node_id, "sequence": sequence, "target": target},
        [f"Published to {node_id}: /ss/{target}"],
    )
    return 0


def cmd_name_resolve(args: argparse.Namespace, ws: Workspace) -> int:
    target = cid_text(dagmod.name_resolve(ws.store("names"), args.node_id))
    _emit(args, {"node_id": args.node_id.hex(), "target": target}, [f"/ss/{target}"])
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
    table = ws.load_table(args.shards)  # a new table is not built just to be read
    if table is None:
        num_shards = DEFAULT_SHARDS if args.shards is None else args.shards
    else:
        num_shards = table.num_shards
    shard = shardmod.shard_of(args.address, num_shards)
    width = shardmod.prefix_width(num_shards)  # one shard has no prefix bits
    prefix = format(shard, f"0{width}b") if width else ""
    suffix = f" (prefix {prefix})" if prefix else ""
    _emit(
        args,
        {"address": args.address.hex(), "shard": shard, "prefix": prefix},
        [f"{args.address.hex()} -> shard {shard}{suffix}"],
    )
    return 0


def _report_payload(moves: tuple[shardmod.Move, ...]) -> list[dict]:
    return [{"key": m.key.hex(), "from": m.src.hex(), "to": m.dst.hex()} for m in moves]


def _moved_lines(moves: tuple[shardmod.Move, ...]) -> list[str]:
    return [f"MOVED {m.key.hex()} {m.src.hex()} {m.dst.hex()}" for m in moves]


def cmd_shard_join(args: argparse.Namespace, ws: Workspace) -> int:
    table = ws.shard_table(args.shards)
    node = shardmod.NodeIdentity.derive(
        args.node_id, table.num_shards, book=args.book, authority=args.authority
    )
    moves = table.node_join(node)
    ws.save_table(table)
    _emit(
        args,
        {"node_id": node.node_id.hex(), "shard": node.shard, "moves": _report_payload(moves)},
        [f"joined {node.node_id.hex()} shard {node.shard}"] + _moved_lines(moves),
    )
    return 0


def cmd_shard_leave(args: argparse.Namespace, ws: Workspace) -> int:
    table = ws.stored_table()
    moves = table.node_leave(args.node_id)
    ws.save_table(table)
    _emit(
        args,
        {"node_id": args.node_id.hex(), "moves": _report_payload(moves)},
        [f"left {args.node_id.hex()}"] + _moved_lines(moves),
    )
    return 0


def cmd_chain_init(args: argparse.Namespace, ws: Workspace) -> int:
    table = ws.shard_table(args.shards)
    if table.trie_store.has(chainmod.HEAD_KEY):
        raise SSChainError(f"chain already initialized in {ws.root / DB_NAME}")
    producer = chainmod.default_producer(table.num_shards)
    for address, amount in (args.fund or {}).items():
        table.shard_update(producer, address, AccountState("0", amount))
    chain = chainmod.Chain(table, producer)
    chain.export()
    ws.save_table(table)
    root = chain.genesis_root
    _emit(args, {"height": 0, "root": root.hex()}, [f"head 0 root {root.hex()}"])
    return 0


def _load_chain(ws: Workspace) -> chainmod.Chain:
    return chainmod.Chain.load(ws.stored_table())


def cmd_chain_apply(args: argparse.Namespace, ws: Workspace) -> int:
    chain = _load_chain(ws)
    block = chain.apply_block(args.tx or [])
    chain.export()
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
    chain.export()
    root = chain.head.header.state_root
    _emit(
        args,
        {"height": chain.head_height, "root": root.hex()},
        [f"head {chain.head_height} root {root.hex()}"],
    )
    return 0


def cmd_sim_run(args: argparse.Namespace, ws: Workspace) -> int:
    from . import simulator as simmod  # only the sim commands load it
    config = simmod.SimConfig(
        num_nodes=args.nodes,
        num_shards=args.shards,
        num_txs=args.txs,
        consensus_delay_s=args.consensus,
        seed=args.seed,
        parallelism=args.parallelism,
        num_accounts=args.accounts,
        txs_per_block=args.txs_per_block,
    )
    if args.scaling:
        report = simmod.run_scaling(config, args.scaling)
    else:
        report = simmod.run_experiment(config)
    if args.json:
        for line in report.json_lines():
            print(line)
    else:
        print(report.text())
    return 0


Arg = tuple[tuple[str, ...], dict]
Handler = Callable[[argparse.Namespace, Workspace], int]
Command = tuple[str, Handler, bool, tuple[Arg, ...]]  # help, handler, writes, args


def _arg(*names: str, **options: object) -> Arg:
    return names, options


def _reads(help: str, func: Handler, *args: Arg) -> Command:
    return help, func, False, args


def _writes(help: str, func: Handler, *args: Arg) -> Command:
    return help, func, True, args


_GLOBAL_FLAGS = [
    _arg("--store", type=Path, default=Path("./sschain-store"), help="state directory"),
    _arg("--json", action="store_true", help="machine-readable output"),
    _arg("--seed", type=int, default=0, help="seed for randomized runs"),
]

COMMANDS: dict[str, tuple[str, dict[str, Command]]] = {
    "store": ("content-addressed store", {
        "put": _writes("store a file (or - for stdin)", cmd_store_put, _arg("path")),
        "get": _reads("print a stored value", cmd_store_get,
                      _arg("key", type=_digest_arg),
                      _arg("--out", help="write to a file instead of stdout")),
    }),
    "dag": ("merkle dag", {
        "add": _writes("add a file or directory", cmd_dag_add,
                       _arg("path"), _arg("-r", "--recursive", action="store_true")),
        "get": _reads("print a node as JSON", cmd_dag_get, _arg("cid", type=_cid_arg)),
        "cat": _reads("print a leaf payload", cmd_dag_cat, _arg("cid", type=_cid_arg)),
    }),
    "name": ("name records", {
        "publish": _writes("bind a node id to a cid", cmd_name_publish,
                           _arg("cid", type=_cid_arg),
                           _arg("--node-id", type=_digest_arg, required=True)),
        "resolve": _reads("latest cid for a node id", cmd_name_resolve,
                          _arg("node_id", type=_digest_arg)),
    }),
    "trie": ("persistent trie", {
        "put": _writes("insert key and value text", cmd_trie_put, _arg("key"), _arg("value")),
        "get": _reads("look a key up", cmd_trie_get, _arg("key")),
        "root": _reads("print the current root", cmd_trie_root),
    }),
    "shard": ("shard table", {
        "map": _reads("address to shard", cmd_shard_map,
                      _arg("address", type=_hex_arg), _arg("--shards", type=int)),
        "join": _writes("add a member node", cmd_shard_join,
                        _arg("node_id", type=_digest_arg),
                        _arg("--shards", type=int),
                        _arg("--book", action=argparse.BooleanOptionalAction, default=True),
                        _arg("--authority", action=argparse.BooleanOptionalAction, default=True)),
        "leave": _writes("remove a member node", cmd_shard_leave,
                         _arg("node_id", type=_digest_arg)),
    }),
    "chain": ("block chain", {
        "init": _writes("create the chain", cmd_chain_init,
                        _arg("--shards", type=int),
                        _arg("--fund", type=_fund_arg, action=_FundAction,
                             help="<address-hex>=<amount>")),
        "apply": _writes("apply one block of transactions", cmd_chain_apply,
                         _arg("--tx", type=_tx_arg, action="append",
                              help="<from>:<to>:<amount>:<seq>")),
        "query": _reads("account state at head or a root", cmd_chain_query,
                        _arg("address", type=_address), _arg("--root", type=_digest_arg)),
        "rollback": _writes("move the head to a height", cmd_chain_rollback,
                            _arg("height", type=int)),
    }),
    "sim": ("experiments", {
        "run": _reads("run a seeded experiment", cmd_sim_run,
                      _arg("--txs", type=int, default=1000),
                      _arg("--shards", type=int, default=4),
                      _arg("--nodes", type=int, default=64),
                      _arg("--accounts", type=int, default=0),
                      _arg("--txs-per-block", type=int, default=0),
                      _arg("--consensus", type=float, default=10.0),
                      _arg("--parallelism", type=int, default=1),
                      _arg("--scaling", type=_counts_arg, help="comma-separated shard counts")),
    }),
}


class _LazyParser(argparse.ArgumentParser):
    """A group's or a command's parser, built when a command line reaches
    it. ``add_parser`` only records the keyword arguments it passes; the
    first ``parse_known_args`` builds the parser from them and hands it to
    ``fill``, which adds the group's command parsers or the command's
    arguments. Help listings come from the choices ``add_parser`` records,
    so listing a parser does not build it."""

    fill: Callable[[argparse.ArgumentParser], None]

    def __init__(self, **kwargs):
        self._kwargs: Optional[dict] = kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._kwargs is not None:
            kwargs, self._kwargs = self._kwargs, None
            super().__init__(**kwargs)
            self.fill(self)
        return super().parse_known_args(args, namespace)


def _add_commands(parser: argparse.ArgumentParser, commands: dict[str, Command]) -> None:
    actions = parser.add_subparsers(dest="action", required=True, parser_class=_LazyParser)
    for name, command in commands.items():
        actions.add_parser(name, help=command[0]).fill = partial(_add_arguments, command=command)


def _add_arguments(parser: argparse.ArgumentParser, command: Command) -> None:
    _, func, writes, arguments = command
    for names, options in _GLOBAL_FLAGS:  # work before or after the command
        parser.add_argument(*names, **{**options, "default": argparse.SUPPRESS})
    for names, options in arguments:
        parser.add_argument(*names, **options)
    parser.set_defaults(func=func, write=writes)


def build_parser() -> argparse.ArgumentParser:
    """The top parser, with a lazy parser per group of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="sschain", description="Sharded account-state chain tools."
    )
    for names, options in _GLOBAL_FLAGS:
        parser.add_argument(*names, **options)
    groups = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    for name, (help, commands) in COMMANDS.items():
        groups.add_parser(name, help=help).fill = partial(_add_commands, commands=commands)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    ws = Workspace(args.store, write=args.write)
    try:
        code = args.func(args, ws)
        sys.stdout.flush()
        ws.close(commit=True)
        return code
    except BrokenPipeError:
        # The reader closed stdout, so the output was lost: roll back, and
        # point stdout at devnull so that the flush at exit prints nothing,
        # as the documentation of Python's signal module advises.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except FileNotFoundError as exc:
        print(f"error: not found: {exc}", file=sys.stderr)
        return 1
    except (SSChainError, sqlite3.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ws.close()


if __name__ == "__main__":
    sys.exit(main())
