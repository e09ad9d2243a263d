"""Desk-scale throughput experiments over the sharded chain.

A run builds a deterministic transfer workload from a seed and
partitions it in one walk over the stream. The k-th transfer of sender
shard i lands in window k // txs_per_block of shard i; if its receiver
lives in another shard, the (receiver, tenths) credit lands in that
shard's window with the same index, and the owner folds it into that
window's block. A shard job is plain data: (shard index, its addresses,
one (transfers, credits in) pair per window of the run), and every job
runs all the run's windows as a little chain of its own, optionally on a
process pool. When all shards finish, their final account versions merge
into one fresh trie whose root is the run's final state root; it depends
only on (seed, config), never on worker scheduling.

Workload generation keeps a pessimistic balance per account (credits are
ignored, debits are not), so every emitted transfer is valid no matter
how the stream is later batched, and the stream itself is identical for
any shard count.

The consensus delay is accounted arithmetically per block window rather
than slept, so measured wall time is pure processing; a report's
effective rate is :func:`effective_throughput` of the processed count,
that wall time, the delay and the window count.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace

from .chain import (
    Chain,
    Transaction,
    default_producer,
    text_from_tenths,
)
from .encoding import hash256
from .errors import SSChainError
from .merkle_dag import AccountState
from .mpt import commit_items
from .shard_dht import MAX_SHARDS, ShardTable, shard_of
from .store import MemoryKvStore

INITIAL_BALANCE_TENTHS = 10000
MAX_TRANSFER_TENTHS = 50


class SimError(SSChainError):
    """Base for simulator failures."""


class ConfigInvalidError(SimError, ValueError):
    """A SimConfig field is out of range."""


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Experiment parameters; equal configs give bit-identical runs.

    ``num_accounts`` and ``txs_per_block`` default (when zero) to a
    hundredth of the transaction count and to one window respectively.
    A run uses at most ``parallelism`` workers, one per shard job and one
    per core; with one, it runs serially in this process.
    """

    num_nodes: int = 8
    num_shards: int = 4
    num_txs: int = 1000
    consensus_delay_s: float = 10.0
    seed: int = 0
    parallelism: int = 1
    num_accounts: int = 0
    txs_per_block: int = 0

    def validate(self) -> None:
        if self.num_shards < 1 or self.num_shards & (self.num_shards - 1):
            raise ConfigInvalidError(f"num_shards must be a power of two: {self.num_shards}")
        if self.num_shards > MAX_SHARDS:
            raise ConfigInvalidError(f"num_shards {self.num_shards} exceeds {MAX_SHARDS}")
        if self.num_nodes < 1:
            raise ConfigInvalidError(f"num_nodes must be >= 1: {self.num_nodes}")
        if self.num_shards > self.num_nodes:
            raise ConfigInvalidError(
                f"num_shards {self.num_shards} exceeds num_nodes {self.num_nodes}"
            )
        if self.num_txs < 0:
            raise ConfigInvalidError(f"num_txs must be >= 0: {self.num_txs}")
        if self.parallelism < 1:
            raise ConfigInvalidError(f"parallelism must be >= 1: {self.parallelism}")
        if not (math.isfinite(self.consensus_delay_s) and self.consensus_delay_s >= 0):
            raise ConfigInvalidError(
                f"consensus_delay_s must be finite and >= 0: {self.consensus_delay_s}"
            )
        if self.num_accounts < 0 or self.txs_per_block < 0:
            raise ConfigInvalidError("count parameters must be >= 0")

    @property
    def effective_accounts(self) -> int:
        return self.num_accounts or max(64, self.num_txs // 100)

    @property
    def effective_txs_per_block(self) -> int:
        return self.txs_per_block or max(1, self.num_txs)


@dataclass(slots=True)
class SimReport:
    txs_processed: int
    wall_seconds: float
    tx_per_second_effective: float
    per_shard_loads: list[int]
    final_state_root: bytes
    windows: int
    scaling_series: list[tuple[int, float]] = field(default_factory=list)

    def json_lines(self) -> list[str]:
        points = self.scaling_series or [
            (len(self.per_shard_loads), self.tx_per_second_effective)
        ]
        return [
            json.dumps(
                {
                    "shards": shards,
                    "txs": self.txs_processed,
                    "seconds": round(self.wall_seconds, 6),
                    "tps": round(tps, 2),
                }
            )
            for shards, tps in points
        ]

    def text(self) -> str:
        lines = [
            f"processed {self.txs_processed} txs in {self.wall_seconds:.3f}s wall",
            f"effective throughput {self.tx_per_second_effective:,.2f} tx/s "
            f"over {self.windows} block window(s)",
            f"final state root {self.final_state_root.hex()}",
            "per-shard loads " + " ".join(str(n) for n in self.per_shard_loads),
        ]
        for shards, tps in self.scaling_series:
            lines.append(f"scaling: shards={shards} tps={tps:,.2f}")
        return "\n".join(lines)


def effective_throughput(
    txs: int, processing_s: float, consensus_s: float, windows: int
) -> float:
    """Transactions per second of processing plus one consensus delay per
    block window; 0.0 for no transactions or no accounted time."""
    accounted = processing_s + consensus_s * windows
    return txs / accounted if txs and accounted > 0 else 0.0


def account_addresses(seed: int, count: int) -> list[bytes]:
    """Deterministic distinct 20-byte addresses for a run."""
    return [
        hash256(f"account-{seed}-{i}".encode())[:20] for i in range(count)
    ]


def generate_workload(config: SimConfig) -> list[Transaction]:
    """Seeded transfer stream, valid under any batching and shard count.

    Senders are only picked while their pessimistic balance (credits
    ignored) covers the amount, so no later partitioning can invalidate
    a transfer.

    The stream is that of ``randint(1, MAX_TRANSFER_TENTHS)`` for each
    amount and ``randrange(len(addresses))`` for each pick, drawn inline
    as ``random.Random`` draws a number below ``n``: ``n.bit_length()``
    random bits, drawn again while the value is ``n`` or more.
    """
    rng = random.Random(config.seed)
    addresses = account_addresses(config.seed, config.effective_accounts)
    count = len(addresses)
    if config.num_txs > 0 and count < 2:
        raise ConfigInvalidError("transfers need at least two accounts")
    getrandbits = rng.getrandbits
    pick_bits, amount_bits = count.bit_length(), MAX_TRANSFER_TENTHS.bit_length()
    amount_texts = [text_from_tenths(tenths) for tenths in range(MAX_TRANSFER_TENTHS + 1)]
    balances = [INITIAL_BALANCE_TENTHS] * count
    seqs = [0] * count
    txs: list[Transaction] = []
    for _ in range(config.num_txs):
        amount = getrandbits(amount_bits)
        while amount >= MAX_TRANSFER_TENTHS:
            amount = getrandbits(amount_bits)
        amount += 1
        for _attempt in range(64):
            sender = getrandbits(pick_bits)
            while sender >= count:
                sender = getrandbits(pick_bits)
            if balances[sender] >= amount:
                break
        else:
            sender = max(range(count), key=lambda i: (balances[i], addresses[i]))
            if balances[sender] < amount:
                break
        receiver = sender
        while receiver == sender:
            receiver = getrandbits(pick_bits)
            while receiver >= count:
                receiver = getrandbits(pick_bits)
        txs.append(
            Transaction(addresses[sender], addresses[receiver], amount_texts[amount], seqs[sender])
        )
        seqs[sender] += 1
        balances[sender] -= amount
    return txs


Window = tuple[list[Transaction], list[tuple[bytes, int]]]  # (transfers, credits in)
ShardJob = tuple[int, list[bytes], list[Window]]  # (shard index, its addresses, windows)


def _run_shard_job(job: ShardJob) -> tuple[int, int, dict[bytes, bytes]]:
    """Process one shard's job in isolation: fund each of its addresses at
    :data:`INITIAL_BALANCE_TENTHS`, then apply one block per window.

    Every job holds the run's window count, so a window past the shard's
    own transfers is a block of only the credits it receives, or an empty
    one, which changes no account.
    Returns (shard index, processed count, address -> final version digest).
    Runs in a worker process, so it rebuilds its own in-memory table (one
    shard: it writes only local accounts, and a receiver is local iff it is
    one of them); the version digests it reports are pure content hashes,
    identical wherever they are computed.
    """
    shard_index, addresses, windows = job
    table = ShardTable(1)
    producer = default_producer(1)
    funded = AccountState("0", text_from_tenths(INITIAL_BALANCE_TENTHS))
    for address in addresses:
        table.shard_update(producer, address, funded)
    chain = Chain(table, producer)
    is_local = set(addresses).__contains__
    processed = 0
    for txs, credits in windows:
        block = chain.apply_block(txs, credits=credits, is_local=is_local)
        if chain.last_rejected:
            raise SimError(
                f"shard {shard_index} rejected {len(chain.last_rejected)} txs"
            )
        processed += len(block.txs)
    final = {address: table.trie.get(address) for address in addresses}
    return shard_index, processed, final


def run_experiment(config: SimConfig) -> SimReport:
    """Generate, partition, process, and merge; see the module docstring.

    Raises:
        ConfigInvalidError
    """
    config.validate()
    txs = generate_workload(config)
    addresses = account_addresses(config.seed, config.effective_accounts)
    num_shards = config.num_shards
    size = config.effective_txs_per_block
    home = {address: shard_of(address, num_shards) for address in addresses}

    accounts: list[list[bytes]] = [[] for _ in range(num_shards)]
    for address in addresses:
        accounts[home[address]].append(address)
    sent = [0] * num_shards
    for tx in txs:
        sent[home[tx.sender]] += 1
    total_windows = -(-max(sent) // size)
    windows: list[list[Window]] = [
        [([], []) for _ in range(total_windows)] for _ in range(num_shards)
    ]
    placed = [0] * num_shards
    for tx in txs:
        i = home[tx.sender]
        w = placed[i] // size
        placed[i] += 1
        windows[i][w][0].append(tx)
        target = home[tx.receiver]
        if target != i:
            windows[target][w][1].append((tx.receiver, tx.tenths))
    jobs: list[ShardJob] = [
        (i, accounts[i], windows[i]) for i in range(num_shards) if accounts[i]
    ]

    workers = min(config.parallelism, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        started = time.perf_counter()
        results = [_run_shard_job(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded untimed, for a pool only
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_shard_job, jobs))
    wall = time.perf_counter() - started

    merged: dict[bytes, bytes] = {}
    loads = [0] * num_shards
    for shard_index, processed, final in results:
        loads[shard_index] = processed
        merged.update(final)
    final_root = commit_items(MemoryKvStore(), merged.items())

    processed_total = sum(loads)
    return SimReport(
        txs_processed=processed_total,
        wall_seconds=wall,
        tx_per_second_effective=effective_throughput(
            processed_total, wall, config.consensus_delay_s, total_windows
        ),
        per_shard_loads=loads,
        final_state_root=final_root,
        windows=total_windows,
    )


def scaling_series(config: SimConfig, shard_counts: list[int]) -> list[tuple[int, float]]:
    """Throughput at each shard count, same total work, same seed; each
    count's config is checked before the first run.

    Worker count follows the shard count; :func:`run_experiment` caps it.

    Raises:
        ConfigInvalidError
    """
    configs = [
        replace(config, num_shards=count, num_nodes=max(config.num_nodes, count), parallelism=count)
        for count in shard_counts
    ]
    for run_config in configs:
        run_config.validate()
    return [
        (run_config.num_shards, run_experiment(run_config).tx_per_second_effective)
        for run_config in configs
    ]


def run_scaling(config: SimConfig, shard_counts: list[int]) -> SimReport:
    """One report for ``config``, run after its scaling series, with the
    series attached. Every config is checked, ``config`` first, before
    the first run.

    Raises:
        ConfigInvalidError
    """
    config.validate()
    series = scaling_series(config, shard_counts)
    report = run_experiment(config)
    report.scaling_series = series
    return report
