"""Regenerate pins.json: the sha256 of each workload's chunk reports at
seed 0, for chunks 0 .. CHUNKS-1, each kept to its first DIGITS hex
digits (enough to tell any two reports apart).

    python3 perfbench/pin.py

Run it only on a commit whose report bytes are known good: the pins are
how later commits prove that an optimisation left reports unchanged.
"""

from __future__ import annotations

import json

import checks
import workloads

SEED = 0
CHUNKS = 256
DIGITS = 16


def main() -> None:
    randaolab = workloads.import_randaolab()
    pins = {"seed": SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        pins["workloads"][workload] = [
            workloads.digest(
                workloads.run_chunk(
                    randaolab, workloads.load_chunk(randaolab, workload, SEED, k)
                )
            )[:DIGITS]
            for k in range(CHUNKS)
        ]
        print(workload, "pinned", CHUNKS, "chunks", flush=True)
    with open(checks.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
