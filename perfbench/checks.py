"""Correctness checks on what the benchmark measured.

Report check: at the pinned seed, chunk k's CSV must hash to the pin
taken from the seed commit (pins.json); every report, pinned or not,
must satisfy the invariants below.

Oracle audit: for the first few epochs of chunk 0, every withhold mask
is re-scored through the slow path (adversary.evaluate_strategy, or
threshold_randao.evaluate_flip_strategy, which re-runs the whole reveal
phase and recovery per mask), and the fast grinder's chosen mask and
payoffs must match, ties going to the smallest mask.
"""

from __future__ import annotations

import csv
import io
import json

import workloads

PINS_PATH = workloads.BENCH_DIR / "pins.json"

# Audited epochs per workload, taken from the start of chunk 0.
AUDIT_EPOCHS = {
    "classic-default": 16,
    "sss-prevented": 4,
    "sss-collusion": 2,
    "sss-partial": 3,
}
# Flip sets wider than this are audited on their lowest slots only (the
# grinder run again with that budget), keeping the slow path at 2^6
# reveal phases per audited epoch.
AUDIT_MAX_WIDTH = 6


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned_digest(pins: dict, workload: str, seed: int, k: int):
    """The pinned sha256 prefix of chunk k's report, or None if chunk k
    is not pinned."""
    if seed != pins["seed"]:
        return None
    digests = pins["workloads"][workload]
    return digests[k] if k < len(digests) else None


def report_problems(workload: str, cfg, report: str) -> list[str]:
    """Invariants every chunk report must satisfy, at any seed."""
    rows = list(csv.DictReader(io.StringIO(report)))
    if len(rows) != 1:
        return [f"expected one report row, got {len(rows)}"]
    row = rows[0]
    problems = []
    epochs = int(row["epochs"])
    if epochs != cfg.epochs or int(row["rng_seed"]) != cfg.rng_seed:
        problems.append("report is for another scenario")
    cases = sum(
        int(row[c])
        for c in ("cases_prevented", "cases_broken", "cases_collusion")
    )
    if cases != (epochs if cfg.protocol == "sss" else 0):
        problems.append(f"case counts sum to {cases} over {epochs} epochs")
    histogram = row["strategy_histogram"]
    withheld = sum(int(p.split(":")[1]) for p in histogram.split(";"))
    if withheld != epochs:
        problems.append(f"strategy histogram counts {withheld} epochs")
    failure_rate = float(row["recovery_failure_rate"])
    if not 0.0 <= failure_rate <= 1.0:
        problems.append(f"recovery failure rate {failure_rate}")
    if workload == "sss-prevented" and (
        float(row["mean_decision_width"]) != 0.0 or failure_rate != 0.0
    ):
        problems.append("sss-prevented shows a flip set or a failed recovery")
    return problems


def check_reports(pins, workload, seed, chunks) -> list[str]:
    """chunks: (k, cfg, report) triples.  One message per bad chunk."""
    failures = []
    for k, cfg, report in chunks:
        problems = report_problems(workload, cfg, report)
        pin = pinned_digest(pins, workload, seed, k)
        if pin is not None and not workloads.digest(report).startswith(pin):
            problems.append("sha256 differs from the pinned digest")
        if problems:
            failures.append(f"chunk {k}: " + "; ".join(problems))
    return failures


def _outcome_problems(outcome, payoffs: list[int]) -> list[str]:
    best = max(payoffs)
    expected = payoffs.index(best)  # smallest mask among the ties
    problems = []
    if outcome.chosen.withhold_mask != expected:
        problems.append(
            f"chose mask {outcome.chosen.withhold_mask}, oracle says {expected}"
        )
    if outcome.payoff != best or outcome.honest_payoff != payoffs[0]:
        problems.append(
            f"payoffs {outcome.payoff}/{outcome.honest_payoff}, oracle says "
            f"{best}/{payoffs[0]}"
        )
    if outcome.payoff < outcome.honest_payoff:
        problems.append("payoff below the honest payoff")
    return problems


def audit_epoch(randaolab, cfg, index: int) -> list[str]:
    from randaolab import adversary, harness, threshold_randao
    from randaolab.adversary import Strategy

    if cfg.protocol == "classic":
        detail = harness.classic_trial_detail(cfg, index)
        width = detail.outcome.chosen.width
        payoffs = [
            adversary.evaluate_strategy(
                detail.state, Strategy(mask, width), detail.profile,
                detail.registry,
            )
            for mask in range(1 << width)
        ]
        return _outcome_problems(detail.outcome, payoffs)

    detail = harness.sss_trial_detail(cfg, index)
    sss_cfg = randaolab.SssConfig(
        cfg.sss_threshold_n, threshold_randao.SHARES_PER_SECRET
    )
    flip_slots = detail.flip_slots
    outcome = detail.outcome
    if len(flip_slots) > AUDIT_MAX_WIDTH:
        flip_slots = flip_slots[:AUDIT_MAX_WIDTH]
        outcome = threshold_randao.best_flip_strategy(
            detail.observed, detail.profile, sss_cfg, detail.registry,
            cap=AUDIT_MAX_WIDTH, max_flips=AUDIT_MAX_WIDTH,
        )
    width = len(flip_slots)
    payoffs = [
        threshold_randao.evaluate_flip_strategy(
            detail.observed, detail.profile, sss_cfg, detail.registry,
            Strategy(mask, width), flip_slots=flip_slots,
        )
        for mask in range(1 << width)
    ]
    return _outcome_problems(outcome, payoffs)


def audit(randaolab, workload: str, seed: int) -> tuple[int, list[str]]:
    """Audit the first epochs of chunk 0; returns (epochs audited,
    one message per epoch that disagrees with the oracle)."""
    cfg = workloads.load_chunk(randaolab, workload, seed, 0)
    count = min(cfg.epochs, AUDIT_EPOCHS[workload])
    failures = []
    for index in range(count):
        problems = audit_epoch(randaolab, cfg, index)
        if problems:
            failures.append(f"audit epoch {index}: " + "; ".join(problems))
    return count, failures
