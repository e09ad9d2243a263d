"""Acceptance gate: nine criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
stream; without ``-s`` they appear in the captured-output section.
Criteria with runtime budgets fail when the budget is exceeded.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import replace

import pytest

from sschain.chain import Chain, Transaction, default_producer, tenths_from_text
from sschain.encoding import (
    hash256,
    hp_decode,
    hp_encode,
    rlp_decode,
    rlp_encode,
)
from sschain.errors import CorruptError, NotFoundError, SSChainError
from sschain.merkle_dag import (
    AccountState,
    DagNode,
    dag_build_directory,
    dag_get,
    version_put,
    version_root,
)
from sschain.mpt import Trie
from sschain.shard_dht import (
    NodeIdentity,
    ShardTable,
    assign_key,
    shard_of,
)
from sschain.simulator import (
    INITIAL_BALANCE_TENTHS,
    SimConfig,
    account_addresses,
    effective_throughput,
    generate_workload,
    run_experiment,
    scaling_series,
)
from sschain.store import MemoryKvStore

from test_chain import block_bytes, block_from_bytes
from test_encoding import HP_VECTORS, RLP_VECTORS


def criterion(number: int, budget_s: float | None = None):
    """Wrap a criterion body: time it, print one verdict line, enforce budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                elapsed = time.perf_counter() - started
                reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                print(f"ACCEPTANCE {number} FAIL {reason} [{elapsed:.1f}s]")
                raise
            elapsed = time.perf_counter() - started
            if budget_s is not None and elapsed >= budget_s:
                print(
                    f"ACCEPTANCE {number} FAIL runtime {elapsed:.1f}s "
                    f"over the {budget_s:.0f}s budget"
                )
                raise AssertionError(
                    f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
                )
            print(f"ACCEPTANCE {number} PASS {detail} [{elapsed:.1f}s]")

        return run

    return wrap


@criterion(1, budget_s=5.0)
def test_criterion_1_codec_vectors() -> str:
    assert len(RLP_VECTORS) >= 20
    for item, expected_hex in RLP_VECTORS:
        assert rlp_encode(item).hex() == expected_hex
        assert rlp_decode(bytes.fromhex(expected_hex)) == item

    assert len(HP_VECTORS) >= 10
    for nibbles, is_leaf, expected_hex in HP_VECTORS:
        assert hp_encode(nibbles, is_leaf).hex() == expected_hex
        assert hp_decode(bytes.fromhex(expected_hex)) == (nibbles, is_leaf)

    rng = random.Random(1)

    def random_item(depth: int):
        if depth == 0 or rng.random() < 0.6:
            return rng.randbytes(rng.randrange(12))
        return [random_item(depth - 1) for _ in range(rng.randrange(4))]

    rounds = 10_000
    for _ in range(rounds):
        item = random_item(3)
        assert rlp_decode(rlp_encode(item)) == item
    return (
        f"{len(RLP_VECTORS)} list-codec vectors, {len(HP_VECTORS)} path-codec "
        f"vectors, {rounds} round trips"
    )


@criterion(2)
def test_criterion_2_hash_anchor() -> str:
    expected = "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683"
    assert hash256(b"6").hex() == expected
    return "hash256(\"6\") matches the published anchor exactly"


@criterion(3, budget_s=60.0)
def test_criterion_3_trie_properties() -> str:
    rng = random.Random(3)
    pairs = {rng.randbytes(rng.randint(4, 24)): rng.randbytes(16) for _ in range(1100)}
    pairs = dict(itertools.islice(pairs.items(), 1000))
    assert len(pairs) == 1000
    items = list(pairs.items())

    store = MemoryKvStore()
    baseline_trie = Trie(store)
    for key, value in items:
        baseline_trie = baseline_trie.insert(key, value)
    baseline = baseline_trie.commit()
    for _ in range(99):
        rng.shuffle(items)
        trie = Trie(MemoryKvStore())
        for key, value in items:
            trie = trie.insert(key, value)
        assert trie.commit() == baseline

    reopened = Trie(store, baseline)
    for key, value in pairs.items():
        assert reopened.get(key) == value
    absent = 0
    while absent < 1000:
        key = rng.randbytes(rng.randint(4, 24))
        if key in pairs:
            continue
        with pytest.raises(NotFoundError):
            reopened.get(key)
        absent += 1

    big_store = MemoryKvStore()
    big = Trie(big_store)
    for i in range(10_000):
        big = big.insert(hash256(f"k{i}".encode()), hash256(f"v{i}".encode()))
    old_root = big.commit()
    updated = Trie(big_store, old_root).insert(hash256(b"k137"), b"replacement")
    before = len(big_store)
    updated.commit()
    created = len(big_store) - before
    assert created <= 66, f"single update created {created} nodes"
    return (
        "100 insertion orders share one root; map oracle holds on 1000 present "
        f"and 1000 absent keys; single update created {created} <= 66 nodes"
    )


@criterion(4)
def test_criterion_4_dag_properties() -> str:
    store = MemoryKvStore()
    files = [(f"account-{i}.json", AccountState(str(i), f"{i}.0").to_json_bytes())
             for i in range(4)]
    root = dag_build_directory(store, files)
    before = {link.name: link.cid for link in dag_get(store, root).links}

    updated = dict(files)
    updated["account-0.json"] = AccountState("9", "9.0").to_json_bytes()
    updated["account-2.json"] = AccountState("8", "8.0").to_json_bytes()
    root_after = dag_build_directory(store, list(updated.items()))
    after = {link.name: link.cid for link in dag_get(store, root_after).links}
    changed = {name for name in before if before[name] != after[name]}
    assert changed == {"account-0.json", "account-2.json"}
    assert root_after != root

    tamper_store = MemoryKvStore()
    small_root = dag_build_directory(tamper_store, files[:2])
    flips = detected = 0
    for key in list(tamper_store._entries):
        original = tamper_store._entries[key]
        for byte_index in range(len(original)):
            for bit in range(8):
                mutated = bytearray(original)
                mutated[byte_index] ^= 1 << bit
                tamper_store._entries[key] = bytes(mutated)
                flips += 1
                try:
                    dag_get(tamper_store, key)
                except CorruptError:
                    detected += 1
        tamper_store._entries[key] = original
    assert detected == flips

    history_store = MemoryKvStore()
    dir_cid = dag_build_directory(history_store, files)
    head = version_put(history_store, dir_cid)
    snapshots = [(head, {name: payload for name, payload in files})]
    for i in range(1, 10):
        contents = dict(snapshots[-1][1])
        contents["account-1.json"] = AccountState(str(i), f"{i}.5").to_json_bytes()
        dir_cid = dag_build_directory(history_store, list(contents.items()))
        head = version_put(history_store, dir_cid, prev=head)
        snapshots.append((head, contents))
    for version, expected_contents in snapshots:
        node = dag_get(history_store, version_root(history_store, version))
        got = {
            link.name: dag_get(history_store, link.cid).data for link in node.links
        }
        assert got == expected_contents
    return (
        f"2-of-4 update changed exactly 2 links; {detected}/{flips} bit flips "
        "detected; 10 versions replay bit-exactly"
    )


@criterion(5, budget_s=60.0)
def test_criterion_5_shard_distribution() -> str:
    rng = random.Random(5)
    num_shards = 1024
    counts = [0] * num_shards
    total = 1_000_000
    for _ in range(total):
        counts[shard_of(rng.randbytes(20), num_shards)] += 1
    mean = total / num_shards
    ratio = max(counts) / mean
    assert ratio <= 1.15, f"max/mean load ratio {ratio:.4f}"

    table = ShardTable(1)
    for i in range(8):
        table.node_join(NodeIdentity.derive(hash256(f"member-{i}".encode()), 1))
    writer = NodeIdentity.derive(hash256(b"writer"), 1, book=True, authority=True)
    for i in range(100):
        table.shard_update(writer, rng.randbytes(20), AccountState("0", "1.0"))

    def owners() -> dict[bytes, bytes]:
        ring = list(table.members.values())
        return {
            key: assign_key(ring, int.from_bytes(key, "big")).node_id
            for key in table.store(0).named_keys()
        }

    before = owners()
    moves = table.node_join(NodeIdentity.derive(hash256(b"member-late"), 1))
    after = owners()
    expected = {
        key: (before[key], after[key])
        for key in before
        if before[key] != after[key]
    }
    assert {m.key: (m.src, m.dst) for m in moves} == expected
    return (
        f"1024-shard load ratio {ratio:.4f} <= 1.15 over 10^6 addresses; "
        f"join migration matches brute force ({len(expected)} keys moved)"
    )


@criterion(6)
def test_criterion_6_chain_properties() -> str:
    config = SimConfig(num_txs=10_000, num_accounts=100, seed=6)
    workload = generate_workload(config)
    assert len(workload) == 10_000
    addresses = account_addresses(config.seed, 100)

    table = ShardTable(4)
    producer = default_producer(4)
    initial = INITIAL_BALANCE_TENTHS
    for address in addresses:
        table.shard_update(producer, address, AccountState("0", f"{initial // 10}.0"))
    chain = Chain(table, producer)

    ledger = {address: (0, initial) for address in addresses}
    snapshots = [(chain.head.header.state_root, dict(ledger))]
    total = initial * len(addresses)
    per_block = 500
    for start in range(0, len(workload), per_block):
        block_txs = workload[start : start + per_block]
        block = chain.apply_block(block_txs)
        assert len(block.txs) == len(block_txs)
        assert chain.last_rejected == ()
        for tx in block_txs:
            seq, balance = ledger[tx.sender]
            amount = tenths_from_text(tx.amount)
            ledger[tx.sender] = (seq + 1, balance - amount)
            r_seq, r_balance = ledger[tx.receiver]
            ledger[tx.receiver] = (r_seq, r_balance + amount)
        balances = {
            address: tenths_from_text(chain.query_account(address).balance)
            for address in addresses
        }
        assert sum(balances.values()) == total, "balance total drifted"
        for address, (seq, balance) in ledger.items():
            state = chain.query_account(address)
            assert (int(state.seq_number), tenths_from_text(state.balance)) == (
                seq,
                balance,
            )
        snapshots.append((chain.head.header.state_root, dict(ledger)))

    for root, snapshot in snapshots:
        for address in addresses:
            state = chain.query_account(address, at_root=root)
            seq, balance = snapshot[address]
            assert (int(state.seq_number), tenths_from_text(state.balance)) == (
                seq,
                balance,
            )

    # mutation rejection: exhaustive over a dedicated small chain, plus a
    # random sample over one full-size block from the big run
    small_table = ShardTable(1)
    for address in addresses[:4]:
        small_table.shard_update(
            producer, address, AccountState("0", f"{initial // 10}.0")
        )
    small_chain = Chain(small_table, producer)
    small_chain.apply_block(
        [
            Transaction(addresses[0], addresses[1], "3.0", 0),
            Transaction(addresses[2], addresses[3], "1.5", 0),
        ]
    )
    small_chain.apply_block([Transaction(addresses[1], addresses[2], "2.0", 0)])

    def rejects(target_chain: Chain, raw: bytes, index: int) -> bool:
        mutated = bytearray(raw)
        mutated[index] ^= 0x01
        try:
            candidate = block_from_bytes(bytes(mutated))
            return not target_chain.validate_block(candidate)
        except SSChainError:
            return True

    exhaustive = 0
    for block in small_chain.blocks[1:]:
        raw = block_bytes(block)
        assert small_chain.validate_block(block)
        for index in range(len(raw)):
            assert rejects(small_chain, raw, index), f"mutation at byte {index} passed"
            exhaustive += 1

    sample_block = chain.blocks[len(chain.blocks) // 2]
    assert chain.validate_block(sample_block)
    raw = block_bytes(sample_block)
    sample_rng = random.Random(66)
    sampled = 200
    for index in sample_rng.sample(range(len(raw)), sampled):
        assert rejects(chain, raw, index), f"sampled mutation at byte {index} passed"
    return (
        "conservation and snapshot equality held over 10^4 transfers and 20 "
        f"blocks; {exhaustive} exhaustive + {sampled} sampled single-byte "
        "mutations all rejected"
    )


@criterion(7)
def test_criterion_7_throughput_formula() -> str:
    value = effective_throughput(500_000, 5, 10, 1)
    assert value == pytest.approx(500_000 / 15)
    assert round(value) == 33_333
    return f"effective_throughput(500000, 5, 10, 1) = {value:,.2f} ~ 33,333 tx/s"


@criterion(8, budget_s=300.0)
def test_criterion_8_scaling() -> str:
    cores = os.cpu_count() or 1
    config = SimConfig(
        num_txs=100_000, num_shards=1, num_nodes=64, seed=8, txs_per_block=0
    )
    series = scaling_series(config, [1, 4, 16, 64])
    tps = dict(series)
    summary = ", ".join(f"S={shards}: {rate:,.0f} tx/s" for shards, rate in series)
    if cores >= 4:
        for (_, lower), (_, higher) in zip(series, series[1:]):
            assert higher >= lower, f"throughput regressed: {summary}"
        pivot = min(cores, 4)
        assert tps[pivot] >= 2 * tps[1], (
            f"speedup at S={pivot} is {tps[pivot] / tps[1]:.2f}x < 2x: {summary}"
        )
        return f"monotone with >=2x speedup at S={pivot} ({summary})"
    return (
        f"series measured on a {cores}-core host ({summary}); the monotone and "
        "2x-speedup assertions apply on >=4-core machines only"
    )


@criterion(9)
def test_criterion_9_determinism() -> str:
    config = SimConfig(num_txs=2_000, num_shards=4, num_nodes=8, seed=9)
    stream_a = generate_workload(config)
    stream_b = generate_workload(config)
    assert [tx.to_rlp_item() for tx in stream_a] == [
        tx.to_rlp_item() for tx in stream_b
    ]
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.final_state_root == second.final_state_root
    assert first.per_shard_loads == second.per_shard_loads
    parallel = run_experiment(replace(config, parallelism=2))
    assert parallel.final_state_root == first.final_state_root
    return (
        "final state root "
        f"{first.final_state_root.hex()[:16]}... and the 2000-tx stream are "
        "byte-identical across runs (and worker counts)"
    )
