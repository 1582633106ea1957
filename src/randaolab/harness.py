"""Monte Carlo drivers for both protocols, metrics aggregation, and
deterministic CSV/JSON emission.

Every trial draws its own RNG stream from sha256(rng_seed, trial
index), and all aggregation runs over exact integers (plus exactly
rounded fsum for stake fractions), so serial and parallel runs of the
same scenario produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .adversary import (
    AttackerProfile,
    AttackOutcome,
    best_strategy,
    grind,
    grind_inputs,
    tail_decision_slots,
)
from .randao import (
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    EpochState,
    Validator,
    compute_reveal,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from .scenario import ConfigError, ScenarioConfig, parse_balance_model
from .shamir import SssConfig
from .threshold_randao import (
    RecoveryOutcome,
    RevealPhaseState,
    SecurityCase,
    classify_security_case,
    distribute_shares,
    flip_reveals,
    run_reveal_phase,
)


class EmitError(RuntimeError):
    """I/O failure while writing a report, with path context."""


def trial_rng(rng_seed: int, index: int) -> random.Random:
    """Independent, reproducible stream for one trial."""
    digest = sha256(
        b"randaolab.trial"
        + rng_seed.to_bytes(8, "little")
        + index.to_bytes(8, "little")
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def build_registry(cfg: ScenarioConfig, rng: random.Random) -> list[Validator]:
    model, arg = parse_balance_model(cfg.balance_model)
    validators = []
    for i in range(cfg.validator_count):
        key = rng.randbytes(32)
        if model == "uniform":
            balance = MAX_EFFECTIVE_BALANCE
        elif model == "pareto":
            # Heavy tail scaled into [MAX/32, MAX].
            draw = rng.paretovariate(arg)
            balance = min(
                MAX_EFFECTIVE_BALANCE,
                int(draw * (MAX_EFFECTIVE_BALANCE // 32)),
            )
        else:
            balance = arg[i]
        validators.append(Validator(i, key, balance))
    return validators


def assign_attacker(
    cfg: ScenarioConfig, registry: Sequence[Validator]
) -> AttackerProfile:
    """Mark validators 0, 1, ... until the controlled balance reaches
    the target fraction; the achieved fraction is reported, not the
    target."""
    total = sum(v.effective_balance for v in registry)
    target = cfg.attacker_stake_fraction
    controlled = []
    held = 0
    for v in registry:
        if total and held / total >= target:
            break
        controlled.append(v.index)
        held += v.effective_balance
    if target == 0.0:
        controlled = []
    return AttackerProfile.from_registry(registry, controlled)


class ClassicTrialDetail(NamedTuple):
    registry: list[Validator]
    profile: AttackerProfile
    assignment_seed: bytes
    state: EpochState
    decision_slots: list[int]
    outcome: AttackOutcome


class SssTrialDetail(NamedTuple):
    registry: list[Validator]
    profile: AttackerProfile
    assignment_seed: bytes
    reveals: list[bytes]
    observed: RevealPhaseState
    flip_slots: list[int]
    outcome: AttackOutcome
    mask0_reveals: list[Optional[bytes]]
    recovery: RecoveryOutcome
    case: SecurityCase
    h_slots: int


class TrialRow(NamedTuple):
    """Slim per-trial record; everything the aggregator needs."""

    payoff: int
    honest_payoff: int
    decision_width: int
    withheld: int
    joined_slots: int
    attacker_proposer_slots: int
    case_label: str
    unrecoverable_slots: int
    distributed_slots: int
    stake_fraction: float


def _common_draws(cfg: ScenarioConfig, index: int):
    """Shared prefix of every trial: registry, attacker, this epoch's
    proposer schedule, and the honest participation set.  Identical for
    classic and sss at the same (rng_seed, index), which is what makes
    cross-protocol comparisons paired."""
    rng = trial_rng(cfg.rng_seed, index)
    registry = build_registry(cfg, rng)
    profile = assign_attacker(cfg, registry)
    assignment_seed = rng.randbytes(32)
    proposers = select_proposers(assignment_seed, registry)
    honest_proposer_validators = sorted(
        set(proposers) - profile.controlled
    )
    participating = frozenset(
        v
        for v in honest_proposer_validators
        if rng.random() < cfg.participation_rate
    )
    return rng, registry, profile, assignment_seed, proposers, participating


def classic_trial_detail(cfg: ScenarioConfig, index: int) -> ClassicTrialDetail:
    """One classic epoch: honest reveals posted, attacker grinds its
    tail withhold mask.  participation_rate here is the probability an
    honest proposer shows up at all (absent proposer = no reveal)."""
    _, registry, profile, assignment_seed, proposers, participating = (
        _common_draws(cfg, index)
    )
    state = EpochState(index, proposers)
    for slot, validator_index in enumerate(proposers):
        if (
            validator_index in participating
            or validator_index in profile.controlled
        ):
            state.post_reveal(
                slot, compute_reveal(registry[validator_index], index)
            )
    outcome = best_strategy(
        state,
        profile,
        registry,
        cap=cfg.strategy_cap,
        tail_limit=cfg.tail_limit,
    )
    decision = tail_decision_slots(state, profile, cfg.tail_limit)
    return ClassicTrialDetail(
        registry, profile, assignment_seed, state, decision, outcome
    )


def classic_trial(cfg: ScenarioConfig, index: int) -> TrialRow:
    detail = classic_trial_detail(cfg, index)
    posted = sum(1 for r in detail.state.posted if r is not None)
    attacker_slots_now = sum(
        1
        for v in detail.state.proposer_by_slot
        if v in detail.profile.controlled
    )
    return TrialRow(
        payoff=detail.outcome.payoff,
        honest_payoff=detail.outcome.honest_payoff,
        decision_width=len(detail.decision_slots),
        withheld=detail.outcome.chosen.withheld_count,
        joined_slots=posted,
        attacker_proposer_slots=attacker_slots_now,
        case_label="",
        unrecoverable_slots=0,
        distributed_slots=0,
        stake_fraction=detail.profile.stake_fraction,
    )


def sss_trial_detail(cfg: ScenarioConfig, index: int) -> SssTrialDetail:
    """One threshold-sharing epoch: full distribution, honest reveal
    phase, one recovery pass, the rushing adversary grinding its
    suppression mask, and classification.  The chosen mask leaves its
    withheld flip slots unrecovered; every other slot is as under
    mask 0."""
    rng, registry, profile, assignment_seed, proposers, participating = (
        _common_draws(cfg, index)
    )
    sss_cfg = SssConfig(cfg.sss_threshold_n, SLOTS_PER_EPOCH - 1)
    reveals = [
        compute_reveal(registry[validator], index) for validator in proposers
    ]
    envelopes = []
    for slot in range(SLOTS_PER_EPOCH):
        envelopes.extend(
            distribute_shares(slot, reveals[slot], sss_cfg, proposers, rng)
        )
    adversary_validators = frozenset(proposers) & profile.controlled
    observed = run_reveal_phase(
        envelopes,
        participating,
        None,
        adversary_participants=adversary_validators,
        proposer_by_slot=proposers,
        epoch=index,
    )
    h_slots = sum(1 for v in proposers if v in profile.controlled)
    mask0_reveals, flip_slots = flip_reveals(
        observed, profile, sss_cfg, cfg.strategy_cap
    )
    outcome = grind(
        *grind_inputs(mask0_reveals, flip_slots),
        index,
        registry,
        profile.controlled,
    )
    withheld = set(outcome.chosen.withheld(flip_slots))
    per_slot = tuple(
        None if slot in withheld else reveal
        for slot, reveal in enumerate(mask0_reveals)
    )
    mix = mix_reveals(per_slot)
    recovery = RecoveryOutcome(
        per_slot=per_slot,
        mix=mix,
        seed=derive_seed(mix, index),
        broken=observed.t < cfg.sss_threshold_n,
    )
    case = classify_security_case(observed.t, h_slots, cfg.sss_threshold_n)
    return SssTrialDetail(
        registry,
        profile,
        assignment_seed,
        reveals,
        observed,
        flip_slots,
        outcome,
        mask0_reveals,
        recovery,
        case,
        h_slots,
    )


def sss_trial(cfg: ScenarioConfig, index: int) -> TrialRow:
    detail = sss_trial_detail(cfg, index)
    payoff = detail.outcome.payoff
    honest = detail.outcome.honest_payoff
    if detail.recovery.broken and cfg.broken_seed_fallback:
        # Previous seed reused verbatim: the attacker gets whatever the
        # unbiased schedule would give, no grinding surface.
        payoff = honest = sum(
            1
            for v in select_proposers(detail.assignment_seed, detail.registry)
            if v in detail.profile.controlled
        )
    unrecoverable = sum(1 for r in detail.recovery.per_slot if r is None)
    return TrialRow(
        payoff=payoff,
        honest_payoff=honest,
        decision_width=len(detail.flip_slots),
        withheld=detail.outcome.chosen.withheld_count,
        joined_slots=detail.observed.t,
        attacker_proposer_slots=detail.h_slots,
        case_label=detail.case.value,
        unrecoverable_slots=unrecoverable,
        distributed_slots=len(
            frozenset(e.origin_slot for e in detail.observed.envelopes)
        ),
        stake_fraction=detail.profile.stake_fraction,
    )


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate over one scenario's trials; floats appear only here,
    derived from exact sums, so reports are reproducible bit for bit."""

    scenario: ScenarioConfig
    mean_attacker_slots: float
    fair_share: float
    bias_gain: float
    std_error: float
    recovery_failure_rate: float
    cases_prevented: int
    cases_broken: int
    cases_collusion: int
    strategy_histogram: str
    mean_decision_width: float
    mean_joined_slots: float
    mean_attacker_proposer_slots: float
    achieved_stake_fraction: float

    @property
    def case_histogram(self) -> dict[str, int]:
        return {
            "prevented": self.cases_prevented,
            "broken": self.cases_broken,
            "collusion": self.cases_collusion,
        }


def _histogram_text(counter: Counter) -> str:
    return ";".join(f"{k}:{counter[k]}" for k in sorted(counter))


def _aggregate(cfg: ScenarioConfig, rows: Sequence[TrialRow]) -> MetricsReport:
    epochs = len(rows)
    payoff_sum = sum(r.payoff for r in rows)
    payoff_sumsq = sum(r.payoff * r.payoff for r in rows)
    mean = payoff_sum / epochs
    if epochs > 1:
        variance = (payoff_sumsq - payoff_sum * payoff_sum / epochs) / (
            epochs - 1
        )
        std_error = math.sqrt(max(variance, 0.0) / epochs)
    else:
        std_error = 0.0
    achieved = math.fsum(r.stake_fraction for r in rows) / epochs
    fair_share = SLOTS_PER_EPOCH * achieved
    distributed_total = sum(r.distributed_slots for r in rows)
    unrecoverable_total = sum(r.unrecoverable_slots for r in rows)
    failure_rate = (
        unrecoverable_total / distributed_total if distributed_total else 0.0
    )
    cases = Counter(r.case_label for r in rows if r.case_label)
    strategies = Counter(r.withheld for r in rows)
    return MetricsReport(
        scenario=cfg,
        mean_attacker_slots=mean,
        fair_share=fair_share,
        bias_gain=mean - fair_share,
        std_error=std_error,
        recovery_failure_rate=failure_rate,
        cases_prevented=cases.get("prevented", 0),
        cases_broken=cases.get("broken", 0),
        cases_collusion=cases.get("collusion", 0),
        strategy_histogram=_histogram_text(strategies),
        mean_decision_width=sum(r.decision_width for r in rows) / epochs,
        mean_joined_slots=sum(r.joined_slots for r in rows) / epochs,
        mean_attacker_proposer_slots=sum(
            r.attacker_proposer_slots for r in rows
        )
        / epochs,
        achieved_stake_fraction=achieved,
    )


def _trial_rows(cfg: ScenarioConfig, workers: int) -> list[TrialRow]:
    trial = sss_trial if cfg.protocol == "sss" else classic_trial
    workers = min(workers, cfg.epochs, os.cpu_count() or 1)
    if workers <= 1:
        return [trial(cfg, i) for i in range(cfg.epochs)]
    chunk = max(1, cfg.epochs // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(partial(trial, cfg), range(cfg.epochs), chunksize=chunk)
        )


def run_classic(cfg: ScenarioConfig, workers: int = 1) -> MetricsReport:
    if cfg.protocol != "classic":
        raise ConfigError("run_classic needs protocol = classic")
    return _aggregate(cfg, _trial_rows(cfg, workers))


def run_sss(cfg: ScenarioConfig, workers: int = 1) -> MetricsReport:
    if cfg.protocol != "sss":
        raise ConfigError("run_sss needs protocol = sss")
    return _aggregate(cfg, _trial_rows(cfg, workers))


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> MetricsReport:
    return run_sss(cfg, workers) if cfg.protocol == "sss" else run_classic(
        cfg, workers
    )


def sweep(
    base: ScenarioConfig,
    axes: Sequence[tuple[str, list]],
    workers: int = 1,
) -> list[MetricsReport]:
    """One report per grid cell, row-major (later axes vary fastest)."""
    from .scenario import grid_cells

    return [run_scenario(cell, workers) for cell in grid_cells(base, axes)]


SCENARIO_COLUMNS = (
    "validator_count",
    "balance_model",
    "attacker_stake_fraction",
    "protocol",
    "sss_threshold_n",
    "participation_rate",
    "epochs",
    "rng_seed",
    "strategy_cap",
    "tail_limit",
    "broken_seed_fallback",
)

METRIC_COLUMNS = (
    "mean_attacker_slots",
    "fair_share",
    "bias_gain",
    "std_error",
    "recovery_failure_rate",
    "cases_prevented",
    "cases_broken",
    "cases_collusion",
    "strategy_histogram",
    "mean_decision_width",
    "mean_joined_slots",
    "mean_attacker_proposer_slots",
    "achieved_stake_fraction",
)

COLUMNS = SCENARIO_COLUMNS + METRIC_COLUMNS


def report_row(report: MetricsReport) -> dict[str, object]:
    """Flat row, scenario parameters first, stable column order."""
    row: dict[str, object] = {}
    for name in SCENARIO_COLUMNS:
        row[name] = getattr(report.scenario, name)
    for name in METRIC_COLUMNS:
        row[name] = getattr(report, name)
    return row


def _cell_text(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(
    reports: Union[MetricsReport, Sequence[MetricsReport]],
    fmt: str,
    destination,
) -> None:
    """Write reports as CSV (header + rows, LF, UTF-8) or JSON (array
    of flat objects with the same field names and order)."""
    if isinstance(reports, MetricsReport):
        reports = [reports]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    rows = [report_row(r) for r in reports]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_cell_text(row[name]) for name in COLUMNS])
        payload = buffer.getvalue()
    else:
        payload = json.dumps(rows, indent=2) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
        return
    path = Path(destination)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        raise EmitError(f"cannot write report to {path}: {exc}") from exc
