"""Child interpreter for the measurements that need a fresh process.

    python3 perfbench/child.py setup WORKLOAD
        Import randaolab (with its CLI) and load the workload's scenario;
        print the seconds that took, and the median of three reference
        passes run afterwards.
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS
        Run chunks 0, 1, ... of the workload until SECONDS have passed
        (at least one chunk), each followed by a reference pass; print
        each chunk's wall time and CSV report, the reference pass times
        (one before the first chunk, then one after each chunk) and the
        peak resident memory of this process.

Output is one JSON object on stdout.  run.py starts these one at a
time and checks what they print.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from hashlib import sha256

import workloads

REFERENCE_ITERATIONS = 3000
REFERENCE_MODULUS = 2**256 + 297


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload: str) -> dict:
    start = time.perf_counter()
    randaolab = workloads.import_randaolab()
    import randaolab.cli  # noqa: F401  -- every CLI call pays this import

    randaolab.load_scenario(str(workloads.scenario_path(workload)))
    setup_s = time.perf_counter() - start
    references = sorted(reference_seconds() for _ in range(3))
    return {"setup_s": setup_s, "reference_s": references[1]}


def reference_seconds() -> float:
    """Time one pass of a fixed stdlib loop shaped like the simulation's
    work (sha256 of short inputs, 257-bit modular products, dict
    updates).  It never calls randaolab, so it measures the machine's
    current speed and nothing the program under test can change."""
    start = time.perf_counter()
    h = bytes(32)
    acc = 1
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        h = sha256(h + i.to_bytes(8, "little")).digest()
        acc = acc * (int.from_bytes(h, "big") | 1) % REFERENCE_MODULUS
        table[h[:2]] = i
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float) -> dict:
    randaolab = workloads.import_randaolab()
    chunks = []
    references = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        cfg = workloads.load_chunk(randaolab, workload, seed, k)
        wall = time.perf_counter()
        report = workloads.run_chunk(randaolab, cfg)
        wall = time.perf_counter() - wall
        references.append(reference_seconds())
        chunks.append([k, cfg.epochs, wall, report])
        k += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "chunks": chunks,
        "references": references,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        result = setup(argv[1])
    elif len(argv) == 4 and argv[0] == "measure":
        result = measure(argv[1], int(argv[2]), float(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except workloads.SourceMissing as exc:
        print(f"child: {exc}", file=sys.stderr)
        sys.exit(2)
