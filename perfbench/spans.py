"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``sschain`` from outside
the package: it rebinds each name in every ``sschain`` module that holds
it (``from .encoding import hash256`` copies the name, so patching
``encoding`` alone would miss most calls) and patches methods on their
classes. Each outermost call of a wrapped name records one span: name,
start, end, parent span and two numeric attributes (bytes, flags or
counts, chosen per name). A call made while a span of the same name is
open passes straight through, so recursive calls count once.

Spans stay in memory, in flat arrays, and every process writes its own to
the trace directory when it ends: the benchmark process when its traced
unit ends, and benchmark-forked CLI children by calling
:meth:`Tracer.spill` before they exit. A process forked while the tracer
is installed starts with empty arrays. Worker pools are not covered: no
workload starts one. :func:`collect` merges the files of one run id and
:func:`layer_metrics` turns them into per-layer numbers.

The tracer is single-threaded by design: the benchmark starts no threads.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import sys
import time
from array import array
from pathlib import Path

import sschain.chain as chain_mod
import sschain.cli as cli_mod
import sschain.encoding as encoding_mod
import sschain.merkle_dag as dag_mod
import sschain.mpt as mpt_mod
import sschain.shard_dht as shard_mod
import sschain.simulator as sim_mod
from sschain.store import FileKvStore, KvStore, MemoryKvStore

PUT_CHECK = "trace.put_check"
"""Hidden span around the existence check made before each traced put. It
is never reported, but like any child span it is subtracted from its
parent's self time."""

BACKENDS = {MemoryKvStore: "memory", FileKvStore: "file"}


def _arg_len(args, _result):
    return len(args[0]), 0


def _result_len(_args, result):
    return (len(result) if result is not None else 0), 0


def _changed(_args, result):
    return (1 if result is not None and result[2] else 0), 0


def _block_txs(_args, result):
    return (len(result.txs) if result is not None else 0), 0


def _blocks_read(_args, result):
    return (len(result.blocks) if result is not None else 0), 0


def _blocks_written(args, _result):
    return len(args[0].blocks), 0


# (owner, attribute, span name, attribute extractor). ``owner`` is a module
# for plain functions, which are rebound in every sschain module holding
# them, or a class for methods. Store methods are wrapped separately
# because their span name depends on the backend.
FUNCTIONS = [
    (encoding_mod, "hash256", "encoding.hash256", _arg_len),
    (encoding_mod, "rlp_encode", "encoding.rlp_encode", None),
    (encoding_mod, "rlp_decode", "encoding.rlp_decode", None),
    (encoding_mod, "hex_encode", "encoding.hex_encode", None),
    (mpt_mod.Trie, "__init__", "mpt.Trie.open", None),
    (mpt_mod.Trie, "get", "mpt.Trie.get", None),
    (mpt_mod.Trie, "insert", "mpt.Trie.insert", None),
    (mpt_mod.Trie, "commit", "mpt.Trie.commit", None),
    (dag_mod, "dag_put", "merkle_dag.dag_put", None),
    (dag_mod, "dag_get", "merkle_dag.dag_get", None),
    (dag_mod, "version_put", "merkle_dag.version_put", None),
    (dag_mod, "version_root", "merkle_dag.version_root", None),
    (dag_mod.AccountState, "to_json_bytes", "merkle_dag.AccountState.to_json_bytes", None),
    (dag_mod.AccountState, "from_json_bytes", "merkle_dag.AccountState.from_json_bytes", None),
    (shard_mod.ShardTable, "write_account", "shard_dht.ShardTable.write_account", _changed),
    (shard_mod, "pipeline_key", "shard_dht.pipeline_key", None),
    (shard_mod, "shard_of", "shard_dht.shard_of", None),
    (shard_mod.ShardTable, "shard_update", "shard_dht.ShardTable.shard_update", None),
    (shard_mod, "table_from_config", "shard_dht.table_from_config", None),
    (chain_mod.Chain, "apply_block", "chain.Chain.apply_block", _block_txs),
    (chain_mod, "tx_root", "chain.tx_root", None),
    (chain_mod.Chain, "load", "chain.Chain.load", _blocks_read),
    (chain_mod.Chain, "export", "chain.Chain.export", _blocks_written),
    (chain_mod.Chain, "query_account", "chain.Chain.query_account", None),
    (sim_mod, "generate_workload", "simulator.generate_workload", None),
    (cli_mod.Workspace, "load_table", "cli.Workspace.load_table", None),
]

STORE_METHODS = [("get", _result_len), ("put_named", None), ("has", None)]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, trace_dir: Path, run_id: str):
        self.trace_dir = Path(trace_dir)
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: list[int] = []
        self.installed = False
        self._restore: list[tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.a1 = array("d")
        self.a2 = array("d")
        self._stack: list[int] = []
        self._open = [0] * len(self.names)

    def _after_fork(self) -> None:
        if self.installed:
            self._reset()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._name_ids[name]

    def call(self, nid, func, args, kwargs, extract):
        """Run ``func`` inside a span named ``self.names[nid]``."""
        if self._open[nid]:
            return func(*args, **kwargs)
        idx = len(self.end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.a1.append(0.0)
        self.a2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[nid] = 1
        result = None
        self.start.append(time.perf_counter())
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            self.end[idx] = time.perf_counter()
            self._open[nid] = 0
            self._stack.pop()
            if extract is not None:
                self.a1[idx], self.a2[idx] = extract(args, result)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name; :meth:`uninstall` restores them."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "sschain" or name.startswith("sschain.")
        ]
        for owner, attr, span_name, extract in FUNCTIONS:
            if isinstance(owner, type):
                self._wrap_method(owner, attr, span_name, extract)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(self._name_id(span_name), original, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        self._wrap_store_put()
        for attr, extract in STORE_METHODS:
            self._wrap_store(attr, extract)
        for cls, backend in BACKENDS.items():
            self._wrap_method(cls, "__len__", f"store.{backend}.len", None)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self.installed = False

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, nid, func, extract):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, func, args, kwargs, extract)

        return wrapper

    def _wrap_method(self, cls, attr, span_name, extract) -> None:
        raw = vars(cls)[attr]
        nid = self._name_id(span_name)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrapper(nid, raw.__func__, extract)))
        else:
            self._set(cls, attr, self._wrapper(nid, raw, extract))

    def _wrap_store(self, attr, extract) -> None:
        func = vars(KvStore)[attr]
        ids = {cls: self._name_id(f"store.{b}.{attr}") for cls, b in BACKENDS.items()}
        call = self.call

        def wrapper(store, *args, **kwargs):
            return call(ids[type(store)], func, (store,) + args, kwargs, extract)

        self._set(KvStore, attr, wrapper)

    def _wrap_store_put(self) -> None:
        """``put`` spans carry (bytes, 1 if the entry was new); wrap it
        before ``has`` so the existence check calls the unwrapped method."""
        func = vars(KvStore)["put"]
        has = vars(KvStore)["has"]
        ids = {cls: self._name_id(f"store.{b}.put") for cls, b in BACKENDS.items()}
        check = self._name_id(PUT_CHECK)
        call = self.call

        def existed(store, value):
            return not value or has(store, hashlib.sha256(value).digest())

        def wrapper(store, value):
            fresh = 0 if call(check, existed, (store, value), {}, None) else 1
            return call(
                ids[type(store)], func, (store, value), {}, lambda _a, _r: (len(value), fresh)
            )

        self._set(KvStore, "put", wrapper)

    # -- output -------------------------------------------------------------

    def spill(self) -> None:
        """Write this process's spans to the trace directory and clear them."""
        if not len(self.end):
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}-{time.monotonic_ns()}.pkl"
        payload = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "names": list(self.names),
            "columns": [self.parent, self.name, self.start, self.end, self.a1, self.a2],
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._reset()


class Spans:
    """Spans of every process of one run, merged into flat columns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("H")
        self.dur = array("d")
        self.a1 = array("d")
        self.a2 = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def extend(self, payload: dict) -> None:
        offset = len(self.dur)
        remap = [self.name_id(n) for n in payload["names"]]
        parent, name, start, end, a1, a2 = payload["columns"]
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.name.extend(remap[n] for n in name)
        self.dur.extend(e - s for s, e in zip(start, end))
        self.a1.extend(a1)
        self.a2.extend(a2)


def collect(trace_dir: Path, run_id: str) -> Spans:
    """Merge the span files that the processes of ``run_id`` wrote."""
    spans = Spans()
    for path in sorted(Path(trace_dir).glob("spans-*.pkl")):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if payload["run_id"] == run_id:
            spans.extend(payload)
    return spans


def percentile(values: list[float], q: int) -> float:
    """Inclusive linear-interpolation percentile; 0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer numbers (listed in ``BENCHMARK.json``) from one run's spans.

    ``calls`` counts spans, ``self_ms`` is span time minus child span time,
    ``reads_per_call`` counts store gets below a span. A name the workload
    never calls reports 0.
    """
    n = len(spans.names)
    calls, total, self_t, a1, a2 = [0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    child = array("d", bytes(8 * len(spans.dur)))
    for i, p in enumerate(spans.parent):
        if p >= 0:
            child[p] += spans.dur[i]
    for i, nid in enumerate(spans.name):
        calls[nid] += 1
        total[nid] += spans.dur[i]
        self_t[nid] += spans.dur[i] - child[i]
        a1[nid] += spans.a1[i]
        a2[nid] += spans.a2[i]

    # Store reads and writes, attributed to every traced caller above them.
    kinds = {
        nid: name.rsplit(".", 1)[1]
        for nid, name in enumerate(spans.names)
        if name.startswith("store.") and name.endswith((".get", ".put"))
    }
    reads_under, puts_under, put_bytes_under = [0] * n, [0] * n, [0.0] * n
    apply_id = spans._ids.get("chain.Chain.apply_block")
    apply_durs = []
    for i, nid in enumerate(spans.name):
        if nid == apply_id:
            apply_durs.append(spans.dur[i])
        kind = kinds.get(nid)
        if kind is None:
            continue
        seen = set()
        p = spans.parent[i]
        while p >= 0:
            owner = spans.name[p]
            if owner not in seen:
                seen.add(owner)
                if kind == "get":
                    reads_under[owner] += 1
                else:
                    puts_under[owner] += 1
                    put_bytes_under[owner] += spans.a1[i]
            p = spans.parent[p]

    def col(values, name):
        nid = spans._ids.get(name)
        return values[nid] if nid is not None else 0

    def per_call(value, name):
        count = col(calls, name)
        return value / count if count else 0.0

    out: dict[str, float] = {}

    def emit(name: str, *stats: str) -> None:
        for stat in stats:
            key = f"{name}.{stat}"
            if stat == "calls":
                out[key] = col(calls, name)
            elif stat == "self_ms":
                out[key] = col(self_t, name) * 1000.0
            elif stat == "bytes":
                out[key] = col(a1, name)
            elif stat == "reads_per_call":
                out[key] = per_call(col(reads_under, name), name)
            else:
                raise ValueError(stat)

    emit("encoding.hash256", "calls", "bytes", "self_ms")
    for fn in ("rlp_encode", "rlp_decode", "hex_encode"):
        emit(f"encoding.{fn}", "calls", "self_ms")
    for backend in BACKENDS.values():
        s = f"store.{backend}"
        emit(f"{s}.get", "calls", "bytes", "self_ms")
        emit(f"{s}.put", "calls", "bytes")
        out[f"{s}.put.new_ratio"] = per_call(col(a2, f"{s}.put"), f"{s}.put")
        emit(f"{s}.put_named", "calls")
        emit(f"{s}.has", "calls")
        emit(f"{s}.len", "calls", "self_ms")
    emit("mpt.Trie.open", "calls", "self_ms")
    emit("mpt.Trie.get", "calls", "self_ms", "reads_per_call")
    emit("mpt.Trie.insert", "calls", "self_ms", "reads_per_call")
    commit = "mpt.Trie.commit"
    emit(commit, "calls", "self_ms")
    out[f"{commit}.nodes_written_per_call"] = per_call(col(puts_under, commit), commit)
    out[f"{commit}.bytes_written"] = col(put_bytes_under, commit)
    emit("merkle_dag.dag_put", "calls", "self_ms")
    emit("merkle_dag.dag_get", "calls", "self_ms")
    emit("merkle_dag.version_put", "calls", "self_ms", "reads_per_call")
    emit("merkle_dag.version_root", "calls", "self_ms")
    emit("merkle_dag.AccountState.to_json_bytes", "calls", "self_ms")
    emit("merkle_dag.AccountState.from_json_bytes", "calls", "self_ms")
    wa = "shard_dht.ShardTable.write_account"
    emit(wa, "calls", "self_ms")
    out[f"{wa}.us_per_call"] = per_call(col(total, wa), wa) * 1e6
    out[f"{wa}.unchanged_ratio"] = per_call(col(calls, wa) - col(a1, wa), wa)
    emit("shard_dht.pipeline_key", "calls", "self_ms")
    emit("shard_dht.shard_of", "calls", "self_ms")
    emit("shard_dht.ShardTable.shard_update", "calls", "self_ms")
    emit("shard_dht.table_from_config", "self_ms")
    ab = "chain.Chain.apply_block"
    emit(ab, "calls")
    out[f"{ab}.ms_p50"] = percentile(apply_durs, 50) * 1000.0
    out[f"{ab}.ms_p95"] = percentile(apply_durs, 95) * 1000.0
    txs = col(a1, ab)
    out[f"{ab}.us_per_tx"] = col(total, ab) / txs * 1e6 if txs else 0.0
    emit("chain.tx_root", "calls", "self_ms")
    emit("chain.Chain.load", "calls", "self_ms")
    out["chain.Chain.load.blocks_read"] = col(a1, "chain.Chain.load")
    emit("chain.Chain.export", "calls", "self_ms")
    out["chain.Chain.export.blocks_written"] = col(a1, "chain.Chain.export")
    emit("chain.Chain.query_account", "calls", "self_ms")
    out["simulator.generate_workload.ms"] = col(total, "simulator.generate_workload") * 1000.0
    emit("cli.Workspace.load_table", "self_ms")
    return out
