"""randaolab benchmark: Monte Carlo throughput, set-up cost and memory
per workload, plus a traced per-module profile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, both modes

--trace 0 (end to end, untraced):
    norm_epochs_per_s  median over chunks of epochs / (run_scenario +
                  emit) wall time, at nominal machine speed.  Chunks run
                  back to back for S seconds in one fresh interpreter,
                  with a fixed stdlib reference pass
                  (child.reference_seconds) before the first chunk and
                  after each; a chunk's time is multiplied by
                  REFERENCE_NOMINAL_S / (mean of the passes around it).
                  On a shared 2-core box the raw wall time of one and the
                  same run swings by 15-30 % from run to run, and the
                  reference pass tracks that swing.  The raw figure is
                  printed as epochs_per_s.
    setup_s       median over SETUP_REPEATS fresh interpreters of the
                  time to import randaolab (and its CLI) and load the
                  workload's scenario file, rescaled the same way by
                  reference passes run in that interpreter afterwards;
                  the raw figure is printed as raw setup_s.
    peak_rss_mb   peak resident memory of the measuring interpreter.
--trace 1 (per layer): the micro layer table, then the first
    max(1, S // 2) chunks, each run untraced and then again with every
    public randaolab function wrapped (see tracer.py); spans are written
    to perfbench/out/.  The work is fixed by S and the seed, so counts
    repeat exactly.

Every chunk report is checked (pinned sha256 at seed 0, invariants at
any seed) and a few epochs are audited against the slow oracle
(checks.py).  Any failure makes ``correct`` false and the exit code 1.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import workloads
from micro import micro_table
from tracer import (
    CALLS,
    FAILED,
    GRINDERS,
    INCLUSIVE_NS,
    SELF_NS,
    TRACED_MODULES,
    Tracer,
)

SETUP_REPEATS = 7
CHILD = str(workloads.BENCH_DIR / "child.py")
# A run must end within 180 s; no child may outlive that.
CHILD_TIMEOUT_S = 150

# The reference pass's typical time on the 2-core box the benchmark was
# defined on; norm_epochs_per_s reads as epochs/s at that speed.
REFERENCE_NOMINAL_S = 0.008

END_TO_END_UNITS = {
    "norm_epochs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_child(*args: str, timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=workloads.REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {completed.returncode}: "
            f"{completed.stderr.strip()}"
        )
    return json.loads(completed.stdout)


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def run_end_to_end(randaolab, workload: str, seed: int, seconds: float):
    setups = [
        run_child("setup", workload, timeout=CHILD_TIMEOUT_S)
        for _ in range(SETUP_REPEATS)
    ]
    raw_setup = [s["setup_s"] for s in setups]
    measured = run_child(
        "measure", workload, str(seed), str(seconds), timeout=CHILD_TIMEOUT_S
    )
    chunks = measured["chunks"]
    references = measured["references"]
    checked = [
        (k, workloads.load_chunk(randaolab, workload, seed, k), report)
        for k, _, _, report in chunks
    ]
    failures = checks.check_reports(checks.load_pins(), workload, seed, checked)
    audited, audit_failures = checks.audit(randaolab, workload, seed)

    # Each chunk's wall time rescaled to nominal machine speed by the
    # reference passes run just before and just after it.
    norm_rates = [
        epochs * (references[i] + references[i + 1]) / 2
        / (wall * REFERENCE_NOMINAL_S)
        for i, (_, epochs, wall, _) in enumerate(chunks)
    ]
    walls_ms = [wall * 1e3 for _, _, wall, _ in chunks]
    epochs = sum(c[1] for c in chunks)
    wall_s = sum(c[2] for c in chunks)
    high = high_percentile(walls_ms)
    info = [
        f"chunks {len(chunks)}, epochs {epochs}, wall {wall_s:.3f} s",
        f"chunk wall ms: median {statistics.median(walls_ms):.3f}"
        + (f" p{high[0]} {high[1]:.3f}" if high else "")
        + f" max {max(walls_ms):.3f} (n={len(chunks)})",
        f"reference pass ms: median {statistics.median(references) * 1e3:.3f}"
        f" min {min(references) * 1e3:.3f} max {max(references) * 1e3:.3f}"
        f" (n={len(references)}, nominal {REFERENCE_NOMINAL_S * 1e3:g})",
        f"raw setup_s samples: {' '.join(f'{s:.4f}' for s in raw_setup)}",
        f"raw setup_s {statistics.median(raw_setup)!r} s",
        f"epochs_per_s {epochs / wall_s!r} 1/s",
    ]
    metrics = {
        "norm_epochs_per_s": statistics.median(norm_rates),
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_NOMINAL_S / s["reference_s"]
            for s in setups
        ),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    units = dict(END_TO_END_UNITS)
    return metrics, units, len(checked) + audited, failures + audit_failures, info


def _timed_chunk(randaolab, workload: str, seed: int, k: int):
    start = time.perf_counter_ns()
    cfg = workloads.load_chunk(randaolab, workload, seed, k)
    report = workloads.run_chunk(randaolab, cfg)
    return (k, cfg, report), time.perf_counter_ns() - start


def run_traced(randaolab, workload: str, seed: int, seconds: float):
    micro = micro_table(randaolab, seed)
    count = max(1, int(seconds) // 2)
    tracer = Tracer()
    plain, traced = [], []
    plain_ns = traced_ns = 0
    # Each chunk runs untraced and then traced, so a slow spell of the
    # machine lands on both sides of trace.overhead.
    for k in range(count):
        chunk, ns = _timed_chunk(randaolab, workload, seed, k)
        plain.append(chunk)
        plain_ns += ns
        tracer.install(randaolab)
        try:
            chunk, ns = _timed_chunk(randaolab, workload, seed, k)
        finally:
            tracer.uninstall()
        traced.append(chunk)
        traced_ns += ns

    failures = checks.check_reports(checks.load_pins(), workload, seed, plain)
    for (k, _, before), (_, _, after) in zip(plain, traced):
        if before != after:
            failures.append(f"chunk {k}: traced report differs from untraced")
    audited, audit_failures = checks.audit(randaolab, workload, seed)

    epochs = sum(cfg.epochs for _, cfg, _ in plain)
    sss_epochs = epochs if plain[0][1].protocol == "sss" else 0
    spans_path = workloads.OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(
        spans_path,
        {"workload": workload, "seed": seed, "chunks": count,
         "epochs": epochs, "wall_ns": traced_ns},
    )
    metrics, units = layer_metrics(
        tracer, traced_ns, plain_ns, epochs, sss_epochs, micro
    )
    attempted = 2 * len(plain) + audited
    failures += audit_failures
    metrics["report_error_rate"] = len(failures) / attempted
    units["report_error_rate"] = "ratio"
    info = [
        f"traced pass: chunks {count}, epochs {epochs}, "
        f"untraced {plain_ns / 1e9:.3f} s, traced {traced_ns / 1e9:.3f} s, "
        f"spans {len(tracer.spans)} -> {spans_path.relative_to(workloads.REPO_ROOT)}",
        "self share by module: " + ", ".join(
            f"{m} {metrics[f'{m}.self_share']:.3f}" for m in TRACED_MODULES
        ),
    ]
    return metrics, units, attempted, failures, info


def layer_metrics(tracer, wall_ns, plain_ns, epochs, sss_epochs, micro):
    """Per-layer metrics from one traced pass.  Times in seconds are
    totals over the pass; ``.us`` and ``.s`` are per call; shares are
    of the traced wall time."""
    stats = tracer.stats
    empty = [0, 0, 0, 0]

    def get(name):
        return stats.get(name, empty)

    def calls(name):
        return get(name)[CALLS]

    def per_call(name, scale):
        c = calls(name)
        return get(name)[INCLUSIVE_NS] / c / scale if c else 0.0

    def self_s(*names):
        return sum(get(n)[SELF_NS] for n in names) / 1e9

    def share(name):
        return get(name)[INCLUSIVE_NS] / wall_ns

    def self_share(*names):
        return sum(get(n)[SELF_NS] for n in names) / wall_ns

    def per(count, base):
        return count / base if base else 0.0

    masks = sum(tracer.masks.values())
    grind_ns = sum(get(g)[INCLUSIVE_NS] for g in GRINDERS)
    reveals = sss_epochs * 32  # every sss proposer distributes shares
    m = {
        "harness.build_registry.calls": (calls("harness.build_registry"), "count"),
        "harness.build_registry.us": (per_call("harness.build_registry", 1e3), "us"),
        "harness.assign_attacker.us": (per_call("harness.assign_attacker", 1e3), "us"),
        "harness.trial.self_s": (self_s(
            "harness.classic_trial", "harness.classic_trial_detail",
            "harness.sss_trial", "harness.sss_trial_detail"), "s"),
        "harness.run_scenario.self_s": (self_s(
            "harness.run_scenario", "harness.run_classic", "harness.run_sss"), "s"),
        "harness.emit.s": (per_call("harness.emit", 1e9), "s"),
        "randao.select_proposers.calls": (calls("randao.select_proposers"), "count"),
        "randao.select_proposers.us": (per_call("randao.select_proposers", 1e3), "us"),
        "randao.select_proposers.self_s": (self_s("randao.select_proposers"), "s"),
        "randao.derive_seed.calls": (calls("randao.derive_seed"), "count"),
        "randao.derive_seed.us": (per_call("randao.derive_seed", 1e3), "us"),
        "randao.compute_reveal.calls": (calls("randao.compute_reveal"), "count"),
        "randao.post_reveal.self_share": (
            self_share("randao.EpochState.post_reveal"), "ratio"),
        "adversary.best_strategy.calls": (calls("adversary.best_strategy"), "count"),
        "adversary.best_strategy.self_share": (
            self_share("adversary.best_strategy"), "ratio"),
        "adversary.masks": (tracer.masks.get("adversary.best_strategy", 0), "count"),
        "grind.us_per_mask": (grind_ns / masks / 1e3 if masks else 0.0, "us"),
        "threshold_randao.distribute_shares.self_share": (
            self_share("threshold_randao.distribute_shares"), "ratio"),
        "threshold_randao.run_reveal_phase.calls": (
            calls("threshold_randao.run_reveal_phase"), "count"),
        "threshold_randao.run_reveal_phase.self_share": (
            self_share("threshold_randao.run_reveal_phase"), "ratio"),
        "threshold_randao.adversary_flip_set.per_epoch": (
            per(calls("threshold_randao.adversary_flip_set"), sss_epochs), "ratio"),
        "threshold_randao.best_flip_strategy.self_share": (
            self_share("threshold_randao.best_flip_strategy"), "ratio"),
        "threshold_randao.masks": (
            tracer.masks.get("threshold_randao.best_flip_strategy", 0), "count"),
        "threshold_randao.apply_flip_strategy.self_share": (
            self_share("threshold_randao.apply_flip_strategy"), "ratio"),
        "threshold_randao.recover_all.calls": (
            calls("threshold_randao.recover_all"), "count"),
        "threshold_randao.recover_all.self_share": (
            self_share("threshold_randao.recover_all"), "ratio"),
        "shamir.split_element.calls": (calls("shamir.split_element"), "count"),
        "shamir.split_element.share": (share("shamir.split_element"), "ratio"),
        "shamir.recover.calls": (calls("shamir.recover"), "count"),
        "shamir.recover.share": (share("shamir.recover"), "ratio"),
        "shamir.recover.failed": (get("shamir.recover")[FAILED], "count"),
        "shamir.recover.per_reveal": (per(calls("shamir.recover"), reveals), "ratio"),
        "field.interpolate_at_zero.calls": (
            calls("field.PrimeField.interpolate_at_zero"), "count"),
        "field.interpolate_at_zero.share": (
            share("field.PrimeField.interpolate_at_zero"), "ratio"),
        "field.eval_at.calls": (calls("field.PrimeField.eval_at"), "count"),
        "field.eval_at.self_share": (self_share("field.PrimeField.eval_at"), "ratio"),
        "field.batch_inv.calls": (calls("field.PrimeField.batch_inv"), "count"),
        "scenario.load_scenario.s": (per_call("scenario.load_scenario", 1e9), "s"),
    }
    for module in TRACED_MODULES:
        names = [n for n in stats if n.startswith(module + ".")]
        m[f"{module}.self_share"] = (self_share(*names), "ratio")
    m["trace.overhead"] = (wall_ns / plain_ns - 1, "ratio")
    m["trace.epochs"] = (epochs, "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    for name, value in micro.items():
        m[name] = (value, "us")
    return {k: v for k, (v, _) in m.items()}, {k: u for k, (_, u) in m.items()}


def git_commit() -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = workloads.REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads.WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= workloads.MAX_SEED:
        parser.error(f"--seed must be in [0, {workloads.MAX_SEED}]")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"# commit {git_commit()}")
    print(f"# python {platform.python_version()}, cpu_count {os.cpu_count()}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    try:
        randaolab = workloads.import_randaolab()
    except workloads.SourceMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]

    attempted = 0
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for workload, trace in runs:
        run = run_traced if trace else run_end_to_end
        values, units, tried, failed, info = run(
            randaolab, workload, args.seed, args.seconds
        )
        print(f"== {workload} seed {args.seed} trace {trace}")
        for line in info:
            print(f"   {line}")
        for message in failed:
            print(f"   FAILED {message}")
        if not trace:
            print(f"   report_error_rate {len(failed) / tried!r} ratio")
        for name, value in values.items():
            print(f"   {name} {value!r} {units[name]}")
            key = name if len(runs) == 1 else f"{workload}:{trace}:{name}"
            metrics[key] = {"value": value, "unit": units[name]}
        attempted += tried
        failures += [f"{workload}: {f}" for f in failed]

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
