"""Simulator workload: whole ``run_experiment`` calls on a seeded config.

``sim-bigblock`` puts every transaction of the run into one block on one
shard, so each of the 200 accounts is written about 100 times inside one
uncommitted block: the write path (account JSON, DAG and version nodes,
``write_account``) does nearly all the work while trie reads hit nodes
still in memory.

Host noise sets the size: a call takes a few seconds, and a run reports the
median over all the calls that fit in it.

Correctness: after the timed calls, a library ``Chain`` on one shard
replays the same generated transfers, block by block. Its accounts must
hold the balances and sequence numbers that plain integer arithmetic over
the transfers gives, and every call's final root and per-shard loads must
equal the replay's.
"""

from __future__ import annotations

import time

from sschain.chain import Chain, default_producer, tenths_from_text, text_from_tenths
from sschain.errors import SSChainError
from sschain.merkle_dag import AccountState
from sschain.mpt import Trie
from sschain.shard_dht import ShardTable
from sschain.simulator import (
    INITIAL_BALANCE_TENTHS,
    SimConfig,
    SimReport,
    account_addresses,
    generate_workload,
    run_experiment,
)
from sschain.store import MemoryKvStore

from common import Outcome, child_user_seconds, fresh_python, median, peak_rss_mb
from spans import Tracer, collect, layer_metrics

WORKLOADS = {
    "sim-bigblock": dict(num_txs=10000, num_shards=1, num_nodes=8, parallelism=1),
}

SETUP_REPEATS = 9


def setup(out: Outcome) -> None:
    """Set-up is starting an interpreter and importing the package; its
    time is the mean user CPU time of the children (see
    ``child_user_seconds``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        (code, _, _), user = child_user_seconds(lambda: fresh_python(["-c", "import sschain"]))
        if out.check(code == 0, f"fresh import exited {code}"):
            times.append(user)
    out.metric("setup_s", sum(times) / max(len(times), 1), len(times))


def reference(config: SimConfig, out: Outcome) -> tuple[bytes, list[int]]:
    """(final root, per-shard loads) of ``config`` by a library replay.

    It covers one-shard configs, the only ones the simulator workload
    uses, which have no cross-shard credits to replay. The root is built
    as ``run_experiment`` documents it: a fresh trie of address -> final
    version digest.
    """
    txs = generate_workload(config)
    addresses = account_addresses(config.seed, config.effective_accounts)
    table = ShardTable(1)
    producer = default_producer(1)
    for address in addresses:
        table.shard_update(
            producer, address, AccountState("0", text_from_tenths(INITIAL_BALANCE_TENTHS))
        )
    chain = Chain(table, producer)
    size = config.effective_txs_per_block
    for start in range(0, len(txs), size):
        chain.apply_block(txs[start : start + size])
        out.check(not chain.last_rejected, f"replay rejected {len(chain.last_rejected)} txs")

    balance = dict.fromkeys(addresses, INITIAL_BALANCE_TENTHS)
    sent = dict.fromkeys(addresses, 0)
    for tx in txs:
        balance[tx.sender] -= tenths_from_text(tx.amount)
        balance[tx.receiver] += tenths_from_text(tx.amount)
        sent[tx.sender] += 1
    wrong = [
        address.hex()
        for address in addresses
        if chain.query_account(address)
        != AccountState(str(sent[address]), text_from_tenths(balance[address]))
    ]
    out.check(not wrong, f"replay accounts differ from the arithmetic: {wrong[:3]}")

    state = Trie(table.trie_store, chain.head.header.state_root)
    merged = Trie(MemoryKvStore())
    for address in addresses:
        merged = merged.insert(address, state.get(address))
    return merged.commit(), [len(txs)]


class Runs:
    """Every ``run_experiment`` call of one run; ``verify`` checks each one
    processed every transaction and matched the library replay."""

    def __init__(self, config: SimConfig, out: Outcome):
        self.config = config
        self.out = out
        self.results: list[tuple[int, bytes, list[int]]] = []

    def run(self) -> tuple[SimReport | None, float]:
        """One call; returns (report, or None if it raised, and wall seconds)."""
        started = time.perf_counter()
        try:
            report = run_experiment(self.config)
        except SSChainError as exc:
            self.out.check(False, f"run_experiment raised {exc!r}")
            return None, time.perf_counter() - started
        wall = time.perf_counter() - started
        self.results.append(
            (report.txs_processed, report.final_state_root, list(report.per_shard_loads))
        )
        return report, wall

    def verify(self) -> None:
        root, loads = reference(self.config, self.out)
        for processed, got_root, got_loads in self.results:
            self.out.check(
                processed == self.config.num_txs and (got_root, got_loads) == (root, loads),
                f"processed {processed} of {self.config.num_txs}, "
                f"root {got_root.hex()} loads {got_loads}, "
                f"replay root {root.hex()} loads {loads}",
            )


def run(name: str, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    out = Outcome()
    setup(out)
    runs = Runs(SimConfig(seed=seed, **WORKLOADS[name]), out)
    if trace:
        _traced(runs, ctx, out)
    else:
        _timed(runs, seconds, out)
    out.metric("peak_rss_mb", peak_rss_mb())
    runs.verify()
    return out


def _timed(runs: Runs, seconds: float, out: Outcome) -> None:
    tps, walls = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started + median(walls) <= seconds:
        report, wall = runs.run()
        walls.append(wall)
        if report is not None and report.wall_seconds > 0:
            tps.append(report.txs_processed / report.wall_seconds)
    out.metric("tps", median(tps), len(tps))
    out.metric("op_ms", median(walls) * 1000.0, len(walls))


def _traced(runs: Runs, ctx, out: Outcome) -> None:
    _, base_wall = runs.run()
    tracer = Tracer(ctx.trace_dir, ctx.run_id)
    tracer.install()
    try:
        report, wall = runs.run()
    finally:
        tracer.uninstall()
        tracer.spill()
    metrics = layer_metrics(collect(ctx.trace_dir, ctx.run_id))
    if report is not None:
        loads = report.per_shard_loads
        jobs_ms = report.wall_seconds * 1000.0
        metrics["simulator.shard_jobs.ms"] = jobs_ms
        metrics["simulator.outside_jobs.ms"] = (
            wall * 1000.0 - jobs_ms - metrics["simulator.generate_workload.ms"]
        )
        metrics["simulator.load_imbalance"] = max(loads) / (sum(loads) / len(loads))
        metrics["simulator.windows"] = report.windows
        metrics["simulator.effective_tps"] = report.tx_per_second_effective
    metrics["trace.overhead_ratio"] = wall / base_wall
    out.layers.update(metrics)
