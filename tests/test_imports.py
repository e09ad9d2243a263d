"""Which modules an import loads, each checked in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sschain

POOL = {"multiprocessing", "concurrent.futures.process"}


def loaded_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement`` runs in a new
    interpreter that finds this checkout's package first."""
    env = dict(os.environ, PYTHONPATH=str(Path(sschain.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_package_loads_no_submodule() -> None:
    assert {m for m in loaded_after("import sschain") if m.startswith("sschain.")} == set()


@pytest.mark.parametrize(
    "module,absent",
    [
        ("sschain.cli", {"sschain.simulator", *POOL}),
        ("sschain.simulator", POOL),
        ("sschain.store", {"dataclasses"}),
    ],
)
def test_module_leaves_the_pool_unloaded(module: str, absent: set[str]) -> None:
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert loaded & absent == set()
