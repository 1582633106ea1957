"""The determinism contract on the benchmark's pinned reports: at seed 0,
the first chunks of every workload render the CSV bytes whose sha256
prefixes perfbench/pins.json holds, and satisfy the report invariants.

The benchmark's modules are imported read-only from perfbench/."""

import sys
from pathlib import Path

import pytest

import randaolab

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 0
CHUNKS = range(16)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_0_chunks_match_their_pins(workload):
    pins = checks.load_pins()
    assert pins["seed"] == SEED
    chunks = []
    for k in CHUNKS:
        cfg = workloads.load_chunk(randaolab, workload, SEED, k)
        chunks.append((k, cfg, workloads.run_chunk(randaolab, cfg)))
    assert checks.check_reports(pins, workload, SEED, chunks) == []
