"""Workload definitions shared by run.py and its child interpreters.

A workload is a scenario file under ``scenarios/``.  One run of a
workload is a sequence of chunks: chunk k is that scenario with
``rng_seed = seed * 2**20 + k``, run through ``load_scenario`` ->
``run_scenario`` -> ``emit(..., "csv")``.  The scenario file fixes the
epochs per chunk, so every chunk's report is a pure function of
(workload, seed, k).
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
SCENARIO_DIR = BENCH_DIR / "scenarios"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("classic-default", "sss-prevented", "sss-collusion", "sss-partial")

CHUNKS_PER_SEED = 2**20
MAX_SEED = (2**64 - 1) // CHUNKS_PER_SEED - 1


class SourceMissing(RuntimeError):
    """The checkout has no randaolab sources next to the benchmark."""


def import_randaolab():
    """Import randaolab from this checkout's ``src/``, never from an
    installed copy, so the benchmark measures the tree it sits in."""
    package = SRC_DIR / "randaolab" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"no randaolab sources at {package.parent}")
    sys.path.insert(0, str(SRC_DIR))
    import randaolab

    if Path(randaolab.__file__).resolve() != package:
        raise SourceMissing(
            f"randaolab imported from {randaolab.__file__}, not {package}"
        )
    return randaolab


def scenario_path(workload: str) -> Path:
    return SCENARIO_DIR / f"{workload}.ini"


def chunk_seed(seed: int, k: int) -> int:
    return seed * CHUNKS_PER_SEED + k


def load_chunk(randaolab, workload: str, seed: int, k: int):
    return randaolab.load_scenario(
        str(scenario_path(workload)), {"rng_seed": chunk_seed(seed, k)}
    )


def run_chunk(randaolab, cfg) -> str:
    """The measured unit of work: simulate the chunk and render its
    CSV report."""
    buffer = io.StringIO()
    randaolab.emit(randaolab.run_scenario(cfg, workers=1), "csv", buffer)
    return buffer.getvalue()


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()
