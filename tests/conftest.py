"""Shared workload builders and a fresh-interpreter runner for the test suite."""

import os
import random
import subprocess
import sys
from pathlib import Path

import fairmesh
from fairmesh.core import Packet


def make_workload(
    seed: int,
    n_flows: int = 3,
    n_packets: int = 40,
    max_size: int = 16,
    spread: int = 400,
) -> list[Packet]:
    """Seeded random arrival schedule across n_flows."""
    rng = random.Random(seed)
    pkts = []
    for i in range(n_packets):
        pkts.append(
            Packet(
                id=i,
                flow=rng.randrange(n_flows),
                size=rng.randint(1, max_size),
                inject_time=rng.randrange(spread),
            )
        )
    return pkts


def backlogged_workload(
    seed: int,
    n_flows: int = 2,
    packets_per_flow: int = 50,
    max_size: int = 16,
) -> list[Packet]:
    """All packets present at time zero, so every flow stays backlogged."""
    rng = random.Random(seed)
    pkts = []
    pid = 0
    for f in range(n_flows):
        for _ in range(packets_per_flow):
            pkts.append(Packet(id=pid, flow=f, size=rng.randint(1, max_size)))
            pid += 1
    return pkts


def fresh_python(script: str, *args: str, cwd=None) -> str:
    """The stdout of `script`, run with `args` in a fresh interpreter that
    imports this checkout's fairmesh."""
    src = str(Path(fairmesh.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout
