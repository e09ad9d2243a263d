"""Helpers shared by the workloads: results, clocks, child processes."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOAD_MODEL = "closed loop, one client"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempted operation; a false ``ok`` counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def metric(self, name: str, value: float, samples: int | None = None) -> None:
        """Record an end-to-end metric and, for a timing, its sample count."""
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_user_seconds(call):
    """Run ``call()``; return (its result, user CPU seconds of the child
    processes it waited for).

    Child processes are timed by their user CPU time, not by the wall
    clock. On the ext4 disk (mounted with ``discard``) this benchmark was
    tuned on, the system time of file creation and rewriting swung by a
    factor of three to sixteen from one minute to the next: creating the
    ~900 files of a ``chain init`` cost between 0.05 and 0.8 s, and the
    median ``chain apply`` at height 120 spent 15 to 51 ms in the kernel
    against 35 to 51 ms of user time. User time moves only with
    the host's CPU speed, as any pure-Python work there does.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    result = call()
    return result, resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before


def fresh_python(args: list[str], timeout: float = 60.0) -> tuple[int, bytes, float]:
    """Run ``python args`` in a new interpreter that imports ``sschain``
    from this checkout; return (exit code, stdout, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - started


def forked(func, before_exit=None) -> tuple[int, bytes, float, float]:
    """Run ``func()`` in a forked child whose stdout is captured.

    The child inherits the already imported modules, so the wall time
    covers fork, the call and process exit, not interpreter start-up.
    ``func`` returns the exit code; ``before_exit`` runs in the child
    after it. Returns (exit code, stdout, wall seconds, the child's user
    CPU seconds).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(read_fd)
            os.dup2(write_fd, 1)
            os.close(write_fd)
            sys.stdout = open(1, "w", closefd=False)
            code = func()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                if before_exit is not None:
                    before_exit()
            finally:
                os._exit(code if isinstance(code, int) else 70)
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while chunk := pipe.read(65536):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return os.waitstatus_to_exitcode(status), b"".join(chunks), wall, usage.ru_utime


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
