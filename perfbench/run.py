"""sschain benchmark: one named workload from one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-bigblock --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced unit of the workload as the overhead
baseline, then one unit with every traced ``sschain`` function wrapped,
and reports the per-layer metrics. Both check the program's outputs.
The metric names, units and bounds are in ``BENCHMARK.json``; what each
layer metric is expected to move is in ``perfbench/README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it records the
run: core count, Python version, commit, seed, workload parameters,
sample counts and the load model. Every load is a closed loop with one
client, and one process is busy at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def load_sschain() -> None:
    """Import the package from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import sschain
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import sschain from {SRC}: {exc}")
    if SRC not in Path(sschain.__file__).resolve().parents:
        sys.exit(f"perfbench: sschain imported from {sschain.__file__}, not {SRC}")


class Context:
    """Where a run keeps its files, all inside the checkout."""

    def __init__(self, workload: str, seed: int):
        self.run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        self.work_dir = STATE / "work" / self.run_id
        self.trace_dir = STATE / "trace" / workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_sschain()
    sys.path.insert(0, str(HERE))
    import cli_work
    import sim_work
    from common import LOAD_MODEL, git_commit

    modules = {name: mod for mod in (sim_work, cli_work) for name in mod.WORKLOADS}
    if args.workload not in modules:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(modules)}")
    module = modules[args.workload]
    ctx = Context(args.workload, args.seed)
    if args.trace:
        shutil.rmtree(ctx.trace_dir, ignore_errors=True)
    ctx.work_dir.mkdir(parents=True)
    try:
        out = module.run(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)

    if args.trace:
        metrics = {
            m["name"]: {"value": float(out.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": module.WORKLOADS[args.workload],
        "samples": out.samples,
        "load_model": LOAD_MODEL,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "failed_frac": out.failed / max(out.attempted, 1),
    }
    for line in out.report:
        print(line)
    print("info " + json.dumps(info, sort_keys=True))
    for problem in out.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
