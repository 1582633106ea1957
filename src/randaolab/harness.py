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
import math
import os
import random
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache, partial
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .adversary import (
    AttackerProfile,
    AttackOutcome,
    best_strategy,
    grind,
    grind_inputs,
    strategy_budget,
)
from .randao import (
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    EpochState,
    Registry,
    select_proposers,
)
from .scenario import (
    SCENARIO_FIELDS,
    ConfigError,
    ScenarioConfig,
    grid_cells,
    parse_balance_model,
)

if TYPE_CHECKING:
    from .threshold_randao import RevealPhaseState


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


# Scenarios whose shared columns are kept at once.  A sweep runs its
# cells one after another, so it needs one entry at a time.
SCENARIO_CACHE_SIZE = 16


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _shared(balance_model: str, validator_count: int) -> Optional[Registry]:
    """What every trial of a scenario shares: for uniform and explicit
    balances, a validated registry of them under zero keys; None for
    pareto, whose trials each draw their own balances."""
    model, balances = parse_balance_model(balance_model)
    if model == "pareto":
        return None
    if model == "uniform":
        balances = [MAX_EFFECTIVE_BALANCE] * validator_count
    return Registry(bytes(32 * validator_count), balances)


def build_registry(cfg: ScenarioConfig, rng: random.Random) -> Registry:
    shared = _shared(cfg.balance_model, cfg.validator_count)
    count = cfg.validator_count
    if shared is not None:
        # One draw of every key leaves the RNG where one draw per
        # validator would, with the same bytes.
        return shared.with_keys(rng.randbytes(32 * count))
    _, shape = parse_balance_model(cfg.balance_model)
    keys = []
    balances = []
    unit = MAX_EFFECTIVE_BALANCE // 32
    for _ in range(count):
        keys.append(rng.randbytes(32))
        # Heavy tail scaled into [MAX/32, MAX].
        draw = rng.paretovariate(shape)
        balances.append(min(MAX_EFFECTIVE_BALANCE, int(draw * unit)))
    return Registry(b"".join(keys), balances)


def assign_attacker(
    cfg: ScenarioConfig, registry: Registry
) -> AttackerProfile:
    """Mark validators 0, 1, ... until the controlled balance reaches
    the target fraction; the achieved fraction is reported, not the
    target."""
    balances = registry.balances
    total = sum(balances)
    held = count = 0
    for balance in balances:
        if held / total >= cfg.attacker_stake_fraction:
            break
        held += balance
        count += 1
    return AttackerProfile(frozenset(range(count)), held / total)


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _shared_attacker(
    balance_model: str, validator_count: int, stake: float
) -> Optional[AttackerProfile]:
    """assign_attacker on the scenario's shared balance column, the
    profile of every trial of a uniform or explicit scenario; None for
    pareto, whose trials each assign their own."""
    registry = _shared(balance_model, validator_count)
    if registry is None:
        return None
    cfg = ScenarioConfig(
        validator_count=validator_count,
        balance_model=balance_model,
        attacker_stake_fraction=stake,
    )
    return assign_attacker(cfg, registry)


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
    stake_fraction: float


class ClassicTrialDetail(NamedTuple):
    registry: Registry
    profile: AttackerProfile
    state: EpochState
    decision_slots: list[int]
    outcome: AttackOutcome
    row: TrialRow


class SssTrialDetail(NamedTuple):
    registry: Registry
    profile: AttackerProfile
    observed: RevealPhaseState
    flip_slots: list[int]
    outcome: AttackOutcome  # the grinder's; `row` applies the fallback
    mask0_reveals: list[Optional[bytes]]
    per_slot: tuple[Optional[bytes], ...]
    row: TrialRow


def _common_draws(cfg: ScenarioConfig, index: int):
    """Shared prefix of every trial: registry, attacker, this epoch's
    proposer schedule, and the honest participation set.  Identical for
    classic and sss at the same (rng_seed, index), which is what makes
    cross-protocol comparisons paired."""
    rng = trial_rng(cfg.rng_seed, index)
    registry = build_registry(cfg, rng)
    profile = _shared_attacker(
        cfg.balance_model, cfg.validator_count, cfg.attacker_stake_fraction
    ) or assign_attacker(cfg, registry)
    proposers = select_proposers(rng.randbytes(32), registry)
    honest_proposer_validators = sorted(
        set(proposers) - profile.controlled
    )
    rate = cfg.participation_rate
    participating = frozenset(
        v for v in honest_proposer_validators if rng.random() < rate
    )
    return rng, registry, profile, proposers, participating


def classic_trial_detail(cfg: ScenarioConfig, index: int) -> ClassicTrialDetail:
    """One classic epoch: honest reveals posted, attacker grinds its
    tail withhold mask over the last min(tail_limit, strategy_cap) tail
    slots.  participation_rate here is the probability an honest
    proposer shows up at all (absent proposer = no reveal)."""
    _, registry, profile, proposers, participating = _common_draws(
        cfg, index
    )
    # Read once: a record's field is a descriptor call on every read.
    controlled = profile.controlled
    posted = [
        reveal if v in participating or v in controlled else None
        for v, reveal in zip(proposers, registry.reveals(proposers, index))
    ]
    state = EpochState(index, proposers, posted)
    budget = strategy_budget(cfg.strategy_cap, cfg.tail_limit)
    outcome = best_strategy(state, profile, registry, budget)
    # The grindable tail is a run of last slots, so the mask's width
    # names them.
    width = outcome.chosen.width
    decision = list(range(SLOTS_PER_EPOCH - width, SLOTS_PER_EPOCH))
    row = TrialRow(
        payoff=outcome.payoff,
        honest_payoff=outcome.honest_payoff,
        decision_width=width,
        withheld=outcome.chosen.withheld_count,
        joined_slots=sum(1 for r in posted if r is not None),
        attacker_proposer_slots=sum(1 for v in proposers if v in controlled),
        case_label="",
        unrecoverable_slots=0,
        stake_fraction=profile.stake_fraction,
    )
    return ClassicTrialDetail(registry, profile, state, decision, outcome, row)


def classic_trial(cfg: ScenarioConfig, index: int) -> TrialRow:
    return classic_trial_detail(cfg, index).row


def sss_trial_detail(cfg: ScenarioConfig, index: int) -> SssTrialDetail:
    """One threshold-sharing epoch: full distribution, honest reveal
    phase, the rushing adversary grinding its suppression mask, and
    classification.  Share counts say which origins recover under
    mask 0 (mask0_recovery); they recover the reveals their proposers
    split, so nothing is interpolated.  The chosen mask leaves its
    withheld flip slots unrecovered; every other slot is as under
    mask 0."""
    # Imported here: a classic run never loads the share layer.
    from .shamir import SssConfig
    from .threshold_randao import (
        SHARES_PER_SECRET,
        classify_security_case,
        distribute_shares,
        mask0_recovery,
        run_reveal_phase,
    )

    rng, registry, profile, proposers, participating = _common_draws(
        cfg, index
    )
    sss_cfg = SssConfig(cfg.sss_threshold_n, SHARES_PER_SECRET)
    reveals = registry.reveals(proposers, index)
    shares = [distribute_shares(r, sss_cfg, rng) for r in reveals]
    controlled = profile.controlled
    adversary_validators = frozenset(proposers) & controlled
    observed = run_reveal_phase(
        shares,
        participating,
        adversary_participants=adversary_validators,
        proposer_by_slot=proposers,
        epoch=index,
    )
    h_slots = sum(1 for v in proposers if v in controlled)
    recovered, flip_slots = mask0_recovery(observed, sss_cfg)
    flip_slots = flip_slots[: cfg.strategy_cap]
    mask0_reveals = [
        reveal if slot in recovered else None
        for slot, reveal in enumerate(reveals)
    ]
    outcome = grind(
        *grind_inputs(mask0_reveals, flip_slots),
        index,
        registry,
        controlled,
    )
    withheld = set(outcome.chosen.withheld(flip_slots))
    per_slot = tuple(
        None if slot in withheld else reveal
        for slot, reveal in enumerate(mask0_reveals)
    )
    case = classify_security_case(observed.t, h_slots, cfg.sss_threshold_n)
    payoff, honest = outcome.payoff, outcome.honest_payoff
    if case == "broken" and cfg.broken_seed_fallback:
        # Previous seed reused verbatim: the attacker gets its slots in
        # the unbiased schedule, no grinding surface.  That seed drew
        # this epoch's own schedule, so those slots are h_slots.
        payoff = honest = h_slots
    row = TrialRow(
        payoff=payoff,
        honest_payoff=honest,
        decision_width=len(flip_slots),
        withheld=outcome.chosen.withheld_count,
        joined_slots=observed.t,
        attacker_proposer_slots=h_slots,
        case_label=case,
        unrecoverable_slots=sum(1 for r in per_slot if r is None),
        stake_fraction=profile.stake_fraction,
    )
    return SssTrialDetail(
        registry, profile, observed, flip_slots, outcome, mask0_reveals,
        per_slot, row,
    )


def sss_trial(cfg: ScenarioConfig, index: int) -> TrialRow:
    return sss_trial_detail(cfg, index).row


class MetricsReport(NamedTuple):
    """Aggregate over one scenario's trials; floats appear only here,
    derived from exact sums, so reports are reproducible bit for bit.
    The fields after `scenario` are the report's metric columns, in
    order."""

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
    # Every sss slot distributes; a classic row has none unrecoverable.
    failure_rate = sum(r.unrecoverable_slots for r in rows) / (
        SLOTS_PER_EPOCH * epochs
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


def _run_cells(
    cells: Sequence[ScenarioConfig], workers: int
) -> list[MetricsReport]:
    """One report per cell, in order.  With workers > 1, one process
    pool, cut to the largest cell's epoch count and to the CPU count,
    serves every cell; cells still run one after another, so memory
    holds one cell's rows at a time."""
    largest = max((cfg.epochs for cfg in cells), default=1)
    workers = min(workers, largest, os.cpu_count() or 1)
    pool = None
    if workers > 1:
        # Imported here: a serial run never loads the process machinery.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    reports = []
    with pool or nullcontext():
        for cfg in cells:
            trial = sss_trial if cfg.protocol == "sss" else classic_trial
            epochs = range(cfg.epochs)
            if pool:
                chunk = max(1, cfg.epochs // (workers * 4))
                rows = pool.map(partial(trial, cfg), epochs, chunksize=chunk)
            else:
                rows = (trial(cfg, i) for i in epochs)
            reports.append(_aggregate(cfg, list(rows)))
    return reports


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> MetricsReport:
    return _run_cells([cfg], workers)[0]


def sweep(
    base: ScenarioConfig,
    axes: Sequence[tuple[str, list]],
    workers: int = 1,
) -> list[MetricsReport]:
    """One report per grid cell, row-major (later axes vary fastest)."""
    return _run_cells(grid_cells(base, axes), workers)


METRIC_COLUMNS = MetricsReport._fields[1:]

COLUMNS = SCENARIO_FIELDS + METRIC_COLUMNS


def report_row(report: MetricsReport) -> dict[str, object]:
    """Flat row, scenario parameters first, stable column order."""
    return dict(zip(COLUMNS, (*report.scenario, *report[1:])))


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
        import json

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
