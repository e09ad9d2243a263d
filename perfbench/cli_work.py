"""CLI workload: a file-backed chain driven one command at a time.

``chain init`` funds the accounts, then every height runs one ``chain
apply`` of a few transfers followed by one ``chain query`` of a random
account. Each command runs ``sschain.cli.main`` in a forked child of this
process, which has already imported ``sschain``, so no state survives
between commands other than the workspace on disk, as with real CLI use.
Per-command cost grows with height, because every command loads the whole
exported chain. The gated metrics time each command by the child's user
CPU time (see ``common.child_user_seconds`` for why); the ``cli.*`` latencies
are wall times.

Correctness: a library ``Chain`` on in-memory stores replays the same
blocks; the root the CLI prints must equal the library root at every
height, and every query must print the library's account document.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass

from sschain import cli
from sschain.chain import Chain, Transaction, default_producer, text_from_tenths
from sschain.encoding import hash256
from sschain.merkle_dag import AccountState
from sschain.shard_dht import ShardTable

from common import Outcome, forked, fresh_python, median, peak_rss_mb
from spans import Tracer, collect, layer_metrics, percentile

WORKLOADS = {
    "cli-chain": dict(
        shards=4,
        accounts=200,
        height=120,
        txs_per_block=4,
        fund_tenths=10000,
        max_amount_tenths=50,
        setups=11,
        cold_queries=15,
    ),
}


@dataclass(frozen=True)
class Plan:
    """The seeded inputs: funded accounts, blocks, and one query per block."""

    shards: int
    funds: list[tuple[bytes, str]]
    blocks: list[list[Transaction]]
    queries: list[bytes]

    def init_argv(self, ws) -> list[str]:
        argv = ["--store", str(ws), "chain", "init", "--shards", str(self.shards)]
        for address, amount in self.funds:
            argv += ["--fund", f"{address.hex()}={amount}"]
        return argv

    @staticmethod
    def apply_argv(ws, txs: list[Transaction]) -> list[str]:
        argv = ["--store", str(ws), "chain", "apply"]
        for tx in txs:
            argv += ["--tx", f"{tx.sender.hex()}:{tx.receiver.hex()}:{tx.amount}:{tx.seq}"]
        return argv

    @staticmethod
    def query_argv(ws, address: bytes) -> list[str]:
        return ["--store", str(ws), "chain", "query", address.hex()]


def make_plan(seed: int, p: dict) -> Plan:
    """Valid transfers only: a sender is picked only while it can pay."""
    rng = random.Random(seed)
    addresses = [hash256(f"cli-{seed}-{i}".encode())[:20] for i in range(p["accounts"])]
    balance = {a: p["fund_tenths"] for a in addresses}
    seq = {a: 0 for a in addresses}
    blocks, queries = [], []
    for _ in range(p["height"]):
        txs = []
        for _ in range(p["txs_per_block"]):
            amount = rng.randint(1, p["max_amount_tenths"])
            sender = rng.choice([a for a in addresses if balance[a] >= amount])
            receiver = rng.choice([a for a in addresses if a != sender])
            txs.append(Transaction(sender, receiver, text_from_tenths(amount), seq[sender]))
            seq[sender] += 1
            balance[sender] -= amount
            balance[receiver] += amount
        blocks.append(txs)
        queries.append(rng.choice(addresses))
    funds = [(a, text_from_tenths(p["fund_tenths"])) for a in addresses]
    return Plan(p["shards"], funds, blocks, queries)


@dataclass
class Expected:
    genesis: str
    roots: list[str]
    states: list[bytes]


def replay(plan: Plan) -> Expected:
    """The library's view of the same inputs, on in-memory stores."""
    table = ShardTable(plan.shards)
    producer = default_producer(plan.shards)
    for address, amount in plan.funds:
        table.shard_update(producer, address, AccountState("0", amount))
    chain = Chain(table, producer)
    roots, states = [], []
    for txs, address in zip(plan.blocks, plan.queries):
        roots.append(chain.apply_block(txs).header.state_root.hex())
        states.append(chain.query_account(address).to_json_bytes())
    return Expected(chain.genesis_root.hex(), roots, states)


@dataclass
class Session:
    """One pass from genesis to the final height."""

    apply_s: list[float]
    query_s: list[float]
    apply_cpu: list[float]
    query_cpu: list[float]
    roots: list[str]
    states: list[bytes]
    wall: float
    disk_bytes: int


def run_session(plan: Plan, template, ws, out: Outcome, before_exit=None) -> Session:
    shutil.copytree(template, ws)
    apply_s, query_s, apply_cpu, query_cpu, roots, states = [], [], [], [], [], []
    started = time.perf_counter()
    for height, (txs, address) in enumerate(zip(plan.blocks, plan.queries), start=1):
        code, text, wall, user = forked(
            lambda: cli.main(plan.apply_argv(ws, txs)), before_exit
        )
        apply_s.append(wall)
        apply_cpu.append(user)
        fields = text.decode(errors="replace").split()
        ok = code == 0 and fields[:2] == ["block", str(height)]
        ok = ok and fields[4:] == ["accepted", str(len(txs)), "rejected", "0"]
        out.check(ok, f"apply at height {height}: exit {code}, output {text[:200]!r}")
        roots.append(fields[3] if len(fields) > 3 else "")
        code, text, wall, user = forked(
            lambda: cli.main(plan.query_argv(ws, address)), before_exit
        )
        query_s.append(wall)
        query_cpu.append(user)
        out.check(code == 0, f"query at height {height}: exit {code}")
        states.append(text)
    wall = time.perf_counter() - started
    disk = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(ws) for f in files
    )
    return Session(apply_s, query_s, apply_cpu, query_cpu, roots, states, wall, disk)


def verify(session: Session, expected: Expected, out: Outcome) -> None:
    for height, (got, want) in enumerate(zip(session.roots, expected.roots), start=1):
        out.check(got == want, f"height {height}: CLI root {got}, library root {want}")
    for height, (got, want) in enumerate(zip(session.states, expected.states), start=1):
        out.check(got == want, f"height {height}: CLI query printed {got[:80]!r}")


def setup(plan: Plan, p: dict, ctx, out: Outcome):
    """Set-up is ``chain init``, repeated, each in a forked child like every
    other command; its time is the mean user CPU time of the children. The
    first initialised workspace is the template every session copies."""
    times, roots = [], []
    for k in range(p["setups"]):
        ws = ctx.work_dir / f"init-{k}"
        code, text, _, user = forked(lambda: cli.main(plan.init_argv(ws)))
        out.check(code == 0, f"chain init exited {code}")
        times.append(user)
        roots.append(text.decode(errors="replace").split()[-1:])
    out.metric("setup_s", sum(times) / len(times), len(times))
    return ctx.work_dir / "init-0", roots


def run(name: str, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    p = WORKLOADS[name]
    out = Outcome()
    plan = make_plan(seed, p)
    template, init_roots = setup(plan, p, ctx, out)
    started = time.perf_counter()
    sessions = [run_session(plan, template, ctx.work_dir / "s0", out)]
    while not trace and time.perf_counter() - started + sessions[0].wall <= seconds:
        sessions.append(run_session(plan, template, ctx.work_dir / f"s{len(sessions)}", out))
    checked = sessions + ([_traced(plan, template, ctx, out, sessions[0])] if trace else [])

    expected = replay(plan)
    for roots in init_roots:
        out.check(roots == [expected.genesis], f"chain init printed root {roots}")
    for session in checked:
        verify(session, expected, out)

    applies = [s for session in sessions for s in session.apply_s]
    queries = [s for session in sessions for s in session.query_s]
    # Totals over every command of every session: the kernel splits a
    # child's CPU time into user and system time by sampling at clock
    # ticks, so the user time of one 40 ms command can be off by half,
    # while the sum over hundreds of commands is not.
    apply_cpu = sum(s for session in sessions for s in session.apply_cpu)
    query_cpu = sum(s for session in sessions for s in session.query_cpu)
    transfers = len(sessions) * sum(len(txs) for txs in plan.blocks)
    out.metric("tps", transfers / apply_cpu, len(applies))
    out.metric("op_ms", (apply_cpu + query_cpu) * 1000.0 / len(applies), len(applies))
    out.metric("peak_rss_mb", peak_rss_mb())
    cli_metrics = {
        "cli.apply.ms_p50": percentile(applies, 50) * 1000.0,
        "cli.apply.ms_p95": percentile(applies, 95) * 1000.0,
        "cli.query.ms_p50": percentile(queries, 50) * 1000.0,
        "cli.query.ms_p95": percentile(queries, 95) * 1000.0,
        "cli.disk_bytes_per_tx": sessions[0].disk_bytes / sum(len(b) for b in plan.blocks),
    }
    out.samples.update({"cli.apply.ms": len(applies), "cli.query.ms": len(queries)})
    out.report.extend(f"{k} {v:.4f}" for k, v in cli_metrics.items())
    if trace:
        cli_metrics["cli.cold_query.ms"] = _cold_query_ms(plan, p, ctx, expected, out)
        out.layers.update(cli_metrics)
    return out


def _traced(plan: Plan, template, ctx, out: Outcome, base: Session) -> Session:
    tracer = Tracer(ctx.trace_dir, ctx.run_id)
    tracer.install()
    try:
        session = run_session(plan, template, ctx.work_dir / "traced", out, tracer.spill)
    finally:
        tracer.uninstall()
    out.layers.update(layer_metrics(collect(ctx.trace_dir, ctx.run_id)))
    out.layers["trace.overhead_ratio"] = session.wall / base.wall
    return session


def _cold_query_ms(plan: Plan, p: dict, ctx, expected: Expected, out: Outcome) -> float:
    """``chain query`` at the final height from a fresh interpreter,
    start-up and import included."""
    argv = ["-m", "sschain.cli", *plan.query_argv(ctx.work_dir / "s0", plan.queries[-1])]
    walls = []
    for _ in range(p["cold_queries"]):
        code, text, wall = fresh_python(argv)
        out.check(code == 0 and text == expected.states[-1], f"cold query exit {code}")
        walls.append(wall)
    out.samples["cli.cold_query.ms"] = len(walls)
    return median(walls) * 1000.0
