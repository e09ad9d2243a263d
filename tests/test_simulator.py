"""Simulator tests: throughput arithmetic, workload validity, determinism."""

from __future__ import annotations

import concurrent.futures
import json
import os
import random
from dataclasses import replace
from typing import Optional

import pytest

from sschain.chain import Transaction, tenths_from_text, text_from_tenths
from sschain.merkle_dag import AccountState, version_append
from sschain.mpt import Trie
from sschain.shard_dht import shard_of
from sschain.simulator import (
    INITIAL_BALANCE_TENTHS,
    MAX_TRANSFER_TENTHS,
    ConfigInvalidError,
    SimConfig,
    account_addresses,
    effective_throughput,
    generate_workload,
    run_experiment,
    run_scaling,
    scaling_series,
)
from sschain.store import MemoryKvStore


class TestEffectiveThroughput:
    def test_headline_configuration(self) -> None:
        value = effective_throughput(500_000, 5, 10, 1)
        assert value == pytest.approx(500_000 / 15)
        assert round(value) == 33_333

    @pytest.mark.parametrize(
        "txs,processing,consensus,windows,expected",
        [
            (100, 0, 1, 1, 100.0),
            (50, 1, 1, 1, 25.0),
            (0, 5, 10, 1, 0.0),
            (40, 4, 3, 2, 4.0),
        ],
    )
    def test_values(self, txs, processing, consensus, windows, expected) -> None:
        assert effective_throughput(txs, processing, consensus, windows) == expected

    def test_interval_exactly_fits(self) -> None:
        assert effective_throughput(15, 5, 10, 1) == 1.0

    @pytest.mark.parametrize(
        "args",
        [(1, -1, 0, 1), (1, 0, -1, 1), (1, 0, 1, -1), (1, 2, -1, 3)],
    )
    def test_negative_inputs(self, args) -> None:
        """Inputs are not range-checked here (``SimConfig.validate`` is);
        an accounted time of zero or less gives no rate."""
        assert effective_throughput(*args) == 0.0


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_shards=3),
            dict(num_shards=0),
            dict(num_shards=16, num_nodes=8),
            dict(num_nodes=0),
            dict(num_txs=-1),
            dict(parallelism=0),
            dict(consensus_delay_s=-1.0),
            dict(num_accounts=-5),
            dict(txs_per_block=-1),
            dict(consensus_delay_s=float("nan")),
            dict(consensus_delay_s=float("inf")),
            dict(num_shards=1 << 17, num_nodes=1 << 17),
        ],
    )
    def test_invalid(self, kwargs: dict) -> None:
        with pytest.raises(ConfigInvalidError):
            SimConfig(**kwargs).validate()

    def test_defaults_are_valid(self) -> None:
        SimConfig().validate()

    def test_effective_accounts(self) -> None:
        assert SimConfig(num_txs=1000).effective_accounts == 64
        assert SimConfig(num_txs=100_000).effective_accounts == 1000
        assert SimConfig(num_accounts=10).effective_accounts == 10

    def test_effective_txs_per_block(self) -> None:
        assert SimConfig(num_txs=500).effective_txs_per_block == 500
        assert SimConfig(num_txs=0).effective_txs_per_block == 1
        assert SimConfig(num_txs=500, txs_per_block=50).effective_txs_per_block == 50


class TestAddresses:
    def test_shape_and_distinctness(self) -> None:
        addresses = account_addresses(0, 200)
        assert len(addresses) == 200
        assert all(len(a) == 20 for a in addresses)
        assert len(set(addresses)) == 200

    def test_seed_changes_everything(self) -> None:
        assert set(account_addresses(0, 50)).isdisjoint(account_addresses(1, 50))

    def test_deterministic(self) -> None:
        assert account_addresses(7, 50) == account_addresses(7, 50)


class TestWorkload:
    CONFIG = SimConfig(num_txs=600, seed=5)

    def test_deterministic(self) -> None:
        assert generate_workload(self.CONFIG) == generate_workload(self.CONFIG)

    def test_shard_count_does_not_change_the_stream(self) -> None:
        base = generate_workload(self.CONFIG)
        for shards, nodes in ((1, 8), (2, 8), (16, 16)):
            other = replace(self.CONFIG, num_shards=shards, num_nodes=nodes)
            assert generate_workload(other) == base

    def test_batching_does_not_change_the_stream(self) -> None:
        base = generate_workload(self.CONFIG)
        assert generate_workload(replace(self.CONFIG, txs_per_block=7)) == base

    def test_count_and_fields(self) -> None:
        txs = generate_workload(self.CONFIG)
        assert len(txs) == 600
        for tx in txs:
            assert tx.sender != tx.receiver
            assert 1 <= tenths_from_text(tx.amount) <= MAX_TRANSFER_TENTHS

    def test_seqs_count_up_per_sender(self) -> None:
        txs = generate_workload(self.CONFIG)
        seen: dict[bytes, int] = {}
        for tx in txs:
            assert tx.seq == seen.get(tx.sender, 0)
            seen[tx.sender] = tx.seq + 1

    def test_valid_under_pessimistic_balances(self) -> None:
        """Senders never spend credits, so any partition stays solvent."""
        txs = generate_workload(self.CONFIG)
        spent: dict[bytes, int] = {}
        for tx in txs:
            spent[tx.sender] = spent.get(tx.sender, 0) + tenths_from_text(tx.amount)
        assert all(total <= INITIAL_BALANCE_TENTHS for total in spent.values())

    def test_valid_under_full_ledger_replay(self) -> None:
        txs = generate_workload(self.CONFIG)
        ledger = {
            address: (0, INITIAL_BALANCE_TENTHS)
            for address in account_addresses(5, self.CONFIG.effective_accounts)
        }
        for tx in txs:
            seq, balance = ledger[tx.sender]
            amount = tenths_from_text(tx.amount)
            assert tx.seq == seq and balance >= amount
            ledger[tx.sender] = (seq + 1, balance - amount)
            r_seq, r_balance = ledger[tx.receiver]
            ledger[tx.receiver] = (r_seq, r_balance + amount)

    def test_single_account_cannot_transfer(self) -> None:
        with pytest.raises(ConfigInvalidError):
            generate_workload(SimConfig(num_txs=10, num_accounts=1))

    def test_zero_txs(self) -> None:
        assert generate_workload(SimConfig(num_txs=0)) == []

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(num_txs=3000, seed=8),
            SimConfig(num_txs=2000, num_accounts=50, seed=7),
            SimConfig(num_txs=3000, num_accounts=2, seed=2),  # runs dry: a short stream
        ],
        ids=["seed-8", "seed-7", "two-accounts"],
    )
    def test_stream_matches_the_randrange_reference(self, config: SimConfig) -> None:
        assert generate_workload(config) == reference_workload(config)


def reference_workload(config: SimConfig) -> list[Transaction]:
    """The stream drawn through ``randint`` and ``randrange``, with balances
    and seqs kept by address: what :func:`generate_workload` draws inline."""
    rng = random.Random(config.seed)
    addresses = account_addresses(config.seed, config.effective_accounts)
    balances = {address: INITIAL_BALANCE_TENTHS for address in addresses}
    seqs = {address: 0 for address in addresses}
    txs = []
    for _ in range(config.num_txs):
        amount = rng.randint(1, MAX_TRANSFER_TENTHS)
        for _attempt in range(64):
            sender = addresses[rng.randrange(len(addresses))]
            if balances[sender] >= amount:
                break
        else:
            sender = max(addresses, key=lambda a: (balances[a], a))
            if balances[sender] < amount:
                break
        receiver = sender
        while receiver == sender:
            receiver = addresses[rng.randrange(len(addresses))]
        txs.append(Transaction(sender, receiver, text_from_tenths(amount), seqs[sender]))
        seqs[sender] += 1
        balances[sender] -= amount
    return txs


class TestRunExperiment:
    CONFIG = SimConfig(num_txs=400, num_shards=4, seed=9)

    def test_processes_everything(self) -> None:
        report = run_experiment(self.CONFIG)
        assert report.txs_processed == 400
        assert sum(report.per_shard_loads) == 400
        assert len(report.per_shard_loads) == 4
        assert report.windows == 1
        assert report.tx_per_second_effective > 0

    def test_two_runs_identical(self) -> None:
        first = run_experiment(self.CONFIG)
        second = run_experiment(self.CONFIG)
        assert first.final_state_root == second.final_state_root
        assert first.per_shard_loads == second.per_shard_loads
        assert first.txs_processed == second.txs_processed

    def test_seed_changes_the_root(self) -> None:
        first = run_experiment(self.CONFIG)
        other = run_experiment(replace(self.CONFIG, seed=10))
        assert first.final_state_root != other.final_state_root

    def test_parallelism_does_not_change_the_root(self) -> None:
        serial = run_experiment(self.CONFIG)
        parallel = run_experiment(replace(self.CONFIG, parallelism=2))
        assert parallel.final_state_root == serial.final_state_root
        assert parallel.per_shard_loads == serial.per_shard_loads

    def test_big_block_root_is_pinned(self) -> None:
        """10,000 transfers in one block on one shard, the benchmark's
        ``sim-bigblock`` run at seed 8, keep their state root."""
        config = SimConfig(
            num_txs=10000, num_shards=1, num_nodes=8, parallelism=1, seed=8
        )
        assert run_experiment(config).final_state_root.hex() == (
            "5ff5245406d16ef51bc2792589af74757c6b3ddb4632cd59402826653354b98b"
        )

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "num_txs,num_shards,size,expected_windows",
        [(600, 4, 50, 4), (3000, 16, 70, 5)],
        ids=["4-shards-50-per-block", "16-shards-70-per-block"],
    )
    def test_root_matches_an_integer_replay(
        self, num_txs: int, num_shards: int, size: int, expected_windows: int, parallelism: int
    ) -> None:
        """Several windows on several shards, with cross-shard credits, some
        of them to a shard after its own last window: the root is that of
        each account's funded version plus one version per window that
        changed it, replayed in integers and built from scratch."""
        config = SimConfig(
            num_txs=num_txs,
            num_shards=num_shards,
            num_nodes=64,
            txs_per_block=size,
            seed=3,
            parallelism=parallelism,
        )
        addresses = account_addresses(config.seed, config.effective_accounts)
        home = {address: shard_of(address, num_shards) for address in addresses}
        windows: dict[int, list[list[Transaction]]] = {i: [] for i in range(num_shards)}
        for tx in generate_workload(config):
            shard = windows[home[tx.sender]]
            if not shard or len(shard[-1]) == size:
                shard.append([])
            shard[-1].append(tx)

        state = {address: (0, INITIAL_BALANCE_TENTHS) for address in addresses}
        store = MemoryKvStore()

        def append(address: bytes, prev: Optional[bytes]) -> Optional[bytes]:
            seq, tenths = state[address]
            document = AccountState(str(seq), text_from_tenths(tenths)).to_json_bytes()
            return version_append(store, document, prev)

        versions = {address: append(address, None) for address in addresses}
        late: set[tuple[int, int]] = set()  # (shard, window) credited after its own windows
        for w in range(max(len(shard) for shard in windows.values())):
            start = dict(state)
            incoming: list[tuple[bytes, int]] = []
            for i in range(num_shards):
                for tx in windows[i][w] if w < len(windows[i]) else []:
                    seq, tenths = state[tx.sender]
                    amount = tenths_from_text(tx.amount)
                    assert tx.seq == seq and amount <= tenths
                    state[tx.sender] = (seq + 1, tenths - amount)
                    if home[tx.receiver] == i:
                        r_seq, r_tenths = state[tx.receiver]
                        state[tx.receiver] = (r_seq, r_tenths + amount)
                    else:
                        incoming.append((tx.receiver, amount))
            assert incoming
            for receiver, amount in incoming:
                r_seq, r_tenths = state[receiver]
                state[receiver] = (r_seq, r_tenths + amount)
                if w >= len(windows[home[receiver]]):
                    late.add((home[receiver], w))
            for address in addresses:
                if state[address] != start[address]:
                    versions[address] = append(address, versions[address])
        assert late

        trie = Trie(MemoryKvStore())
        for address, version in versions.items():
            trie = trie.insert(address, version)
        report = run_experiment(config)
        assert report.windows == expected_windows
        assert report.final_state_root == trie.commit()

    def test_windows_follow_block_size(self) -> None:
        report = run_experiment(
            replace(self.CONFIG, num_shards=1, num_nodes=8, txs_per_block=50)
        )
        assert report.windows == 8  # 400 txs / 50 per block

    def test_rate_is_the_throughput_formula(self) -> None:
        config = replace(self.CONFIG, txs_per_block=60)
        report = run_experiment(config)
        assert report.windows > 1
        assert report.tx_per_second_effective == effective_throughput(
            report.txs_processed, report.wall_seconds, config.consensus_delay_s, report.windows
        )

    def test_zero_txs(self) -> None:
        report = run_experiment(SimConfig(num_txs=0))
        assert report.txs_processed == 0
        assert report.tx_per_second_effective == 0.0
        assert report.windows == 0

    def test_invalid_config_refused(self) -> None:
        with pytest.raises(ConfigInvalidError):
            run_experiment(SimConfig(num_shards=3))

    def test_json_lines(self) -> None:
        report = run_experiment(self.CONFIG)
        lines = report.json_lines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["shards"] == 4
        assert doc["txs"] == 400
        assert doc["seconds"] >= 0
        assert doc["tps"] == round(report.tx_per_second_effective, 2)

    def test_text_mentions_the_root(self) -> None:
        report = run_experiment(self.CONFIG)
        assert report.final_state_root.hex() in report.text()


class TestScaling:
    CONFIG = SimConfig(num_txs=300, num_shards=1, num_nodes=8, seed=3)

    def test_series_shape(self) -> None:
        series = scaling_series(self.CONFIG, [1, 2, 4])
        assert [shards for shards, _ in series] == [1, 2, 4]
        assert all(tps > 0 for _, tps in series)

    def test_run_scaling_attaches_series(self) -> None:
        report = run_scaling(self.CONFIG, [1, 2])
        assert len(report.scaling_series) == 2
        lines = report.json_lines()
        assert [json.loads(l)["shards"] for l in lines] == [1, 2]


class FakePool:
    """A stand-in for ``ProcessPoolExecutor`` that records each pool's
    worker count and maps in this process, so no worker is started."""

    made: list[int] = []

    def __init__(self, max_workers: int) -> None:
        FakePool.made.append(max_workers)

    def __enter__(self) -> "FakePool":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def map(self, func, items):
        return map(func, items)


class TestWorkerCount:
    """``run_experiment`` alone decides how many workers a run gets: at
    most ``parallelism``, one per shard job and one per core."""

    CONFIG = SimConfig(num_txs=400, num_shards=4, num_nodes=8, seed=3)

    @pytest.fixture()
    def pools(self, monkeypatch) -> list[int]:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "made", [])
        return FakePool.made

    @pytest.mark.parametrize(
        "parallelism,cores,expected",
        [(1000, 2, [2]), (1000, 8, [4]), (3, 8, [3]), (1000, 1, []), (1000, None, []), (1, 8, [])],
        ids=["cores", "jobs", "parallelism", "one-core", "unknown-cores", "serial"],
    )
    def test_capped(self, pools, monkeypatch, parallelism, cores, expected) -> None:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        serial = run_experiment(self.CONFIG)
        report = run_experiment(replace(self.CONFIG, parallelism=parallelism))
        assert pools == expected
        assert report.final_state_root == serial.final_state_root

    def test_scaling_series_leaves_the_cap_to_run_experiment(self, pools, monkeypatch) -> None:
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        scaling_series(replace(self.CONFIG, num_shards=1), [1, 2, 4])
        assert pools == [2, 2]
