"""Monte Carlo harness: per-trial determinism, registry/attacker setup,
aggregation exactness, serial/parallel equivalence, and report emission."""

import concurrent.futures
import csv
import importlib
import io
import json
from collections import Counter

import pytest

from randaolab import harness, randao, shamir, threshold_randao
from randaolab.field import PrimeField
from randaolab.harness import (
    COLUMNS,
    EmitError,
    MetricsReport,
    assign_attacker,
    build_registry,
    classic_trial,
    classic_trial_detail,
    emit,
    report_row,
    run_scenario,
    sss_trial,
    sss_trial_detail,
    sweep,
    trial_rng,
)
from randaolab.randao import (
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    select_proposers,
)
from randaolab.scenario import (
    ConfigError,
    ScenarioConfig,
    parse_balance_model,
)
from randaolab.shamir import SssConfig
from randaolab.threshold_randao import recover_all


def small(**changes):
    merged = dict(epochs=4, validator_count=40, rng_seed=1)
    merged.update(changes)
    return ScenarioConfig(**merged)


# -- trial streams -----------------------------------------------------------

def test_trial_rng_reproducible_and_independent():
    a = [trial_rng(5, 7).random() for _ in range(3)]
    b = [trial_rng(5, 7).random() for _ in range(3)]
    assert a == b
    assert trial_rng(5, 8).random() != trial_rng(5, 7).random()
    assert trial_rng(6, 7).random() != trial_rng(5, 7).random()


# -- registry and attacker ----------------------------------------------------

def test_build_registry_uniform():
    cfg = ScenarioConfig(validator_count=50, epochs=1)
    registry = build_registry(cfg, trial_rng(0, 0))
    assert len(registry) == 50
    assert all(v.effective_balance == MAX_EFFECTIVE_BALANCE for v in registry)
    assert len({v.secret_key for v in registry}) == 50
    assert [v.index for v in registry] == list(range(50))


def test_build_registry_pareto_bounds():
    cfg = ScenarioConfig(
        validator_count=50, balance_model="pareto:1.2", epochs=1
    )
    registry = build_registry(cfg, trial_rng(0, 0))
    floor = MAX_EFFECTIVE_BALANCE // 32
    assert all(
        floor <= v.effective_balance <= MAX_EFFECTIVE_BALANCE
        for v in registry
    )
    assert any(v.effective_balance < MAX_EFFECTIVE_BALANCE for v in registry)


def test_build_registry_explicit():
    cfg = ScenarioConfig(
        validator_count=3,
        balance_model=f"explicit:5,{MAX_EFFECTIVE_BALANCE},17",
        epochs=1,
    )
    registry = build_registry(cfg, trial_rng(0, 0))
    assert [v.effective_balance for v in registry] == [
        5, MAX_EFFECTIVE_BALANCE, 17,
    ]


def _per_validator_registry(cfg, rng):
    """The registry build as one draw per validator: a key, then for
    pareto a balance draw."""
    model, arg = parse_balance_model(cfg.balance_model)
    out = []
    for i in range(cfg.validator_count):
        key = rng.randbytes(32)
        if model == "uniform":
            balance = MAX_EFFECTIVE_BALANCE
        elif model == "pareto":
            balance = min(
                MAX_EFFECTIVE_BALANCE,
                int(rng.paretovariate(arg) * (MAX_EFFECTIVE_BALANCE // 32)),
            )
        else:
            balance = arg[i]
        out.append((i, key, balance))
    return out


@pytest.mark.parametrize(
    "changes",
    [
        {"validator_count": 1},
        {"validator_count": 7},
        {"validator_count": 200},
        {"validator_count": 60, "balance_model": "pareto:1.5"},
        {"validator_count": 3,
         "balance_model": f"explicit:5,{MAX_EFFECTIVE_BALANCE},17"},
    ],
)
def test_build_registry_matches_per_validator_draws(changes):
    cfg = ScenarioConfig(epochs=1, **changes)
    for index in range(3):
        rng, oracle_rng = trial_rng(4, index), trial_rng(4, index)
        registry = build_registry(cfg, rng)
        expected = _per_validator_registry(cfg, oracle_rng)
        assert [
            (v.index, v.secret_key, v.effective_balance) for v in registry
        ] == expected
        assert rng.getstate() == oracle_rng.getstate()


def test_assign_attacker_uniform_prefix():
    cfg = ScenarioConfig(validator_count=200, attacker_stake_fraction=0.3,
                         epochs=1)
    registry = build_registry(cfg, trial_rng(0, 0))
    profile = assign_attacker(cfg, registry)
    assert profile.controlled == frozenset(range(60))
    assert profile.stake_fraction == 0.3


def test_assign_attacker_zero_stake():
    cfg = ScenarioConfig(attacker_stake_fraction=0.0, epochs=1)
    registry = build_registry(cfg, trial_rng(0, 0))
    profile = assign_attacker(cfg, registry)
    assert profile.controlled == frozenset()
    assert profile.stake_fraction == 0.0


def test_assign_attacker_skewed_balances():
    # One whale holds half the stake; a 0.4 target stops after it.
    half = 16 * 10**9
    cfg = ScenarioConfig(
        validator_count=3,
        balance_model=f"explicit:{MAX_EFFECTIVE_BALANCE},{half},{half}",
        attacker_stake_fraction=0.4,
        epochs=1,
    )
    registry = build_registry(cfg, trial_rng(0, 0))
    profile = assign_attacker(cfg, registry)
    assert profile.controlled == frozenset({0})
    assert profile.stake_fraction == 0.5


@pytest.mark.parametrize("target", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "changes",
    [
        {"validator_count": 50},
        {"validator_count": 60, "balance_model": "pareto:1.5"},
        {"validator_count": 3,
         "balance_model": f"explicit:5,{MAX_EFFECTIVE_BALANCE},17"},
    ],
)
def test_assign_attacker_matches_from_registry(changes, target):
    # The profile is a prefix of validators and its stake is their share
    # of the registry's balance column.
    cfg = ScenarioConfig(epochs=1, attacker_stake_fraction=target, **changes)
    for index in range(3):
        registry = build_registry(cfg, trial_rng(2, index))
        profile = assign_attacker(cfg, registry)
        count = len(profile.controlled)
        assert profile.controlled == frozenset(range(count))
        balances = registry.balances
        held = sum(balances[i] for i in profile.controlled)
        assert profile.stake_fraction == held / sum(balances)
    assert (profile.controlled == frozenset()) == (target == 0.0)
    assert (len(profile.controlled) == len(registry)) == (target == 1.0)


# -- per-scenario columns -----------------------------------------------------

@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of validated Validators and of limit columns built, from a
    cold per-scenario cache."""
    counts = {"validators": 0, "limits": 0}
    check_validator = randao.Validator.__new__
    balance_limits = randao.balance_limits

    def counting_validator(cls, *args):
        counts["validators"] += 1
        return check_validator(cls, *args)

    def counting_limits(balances):
        counts["limits"] += 1
        return balance_limits(balances)

    monkeypatch.setattr(randao.Validator, "__new__", counting_validator)
    monkeypatch.setattr(randao, "balance_limits", counting_limits)
    harness._shared.cache_clear()
    return counts


@pytest.mark.parametrize("trial", [classic_trial, sss_trial])
def test_trials_share_their_scenarios_limits(construction_counts, trial):
    cfg = ScenarioConfig(protocol=trial.__name__.split("_")[0],
                         validator_count=200, epochs=4, rng_seed=3)
    trial(cfg, 0)
    assert construction_counts["limits"] == 1
    for index in range(1, 4):
        construction_counts["validators"] = 0
        trial(cfg, index)
        # One Validator view per proposer at most, never the registry.
        assert construction_counts["validators"] <= SLOTS_PER_EPOCH
    assert construction_counts["limits"] == 1


# The cryptographic recovery and the per-validator reveal view, which
# only the oracles use.
ORACLE_ONLY = (
    (shamir, "recover"),
    (randao, "compute_reveal"),
    (PrimeField, "interpolate_at_zero"),
    (randao.Registry, "__getitem__"),
)


@pytest.fixture
def oracle_calls(monkeypatch):
    """Calls of ORACLE_ONLY, wherever the package binds them."""
    calls = Counter()
    modules = [
        importlib.import_module(f"randaolab.{name}")
        for name in ("adversary", "cli", "field", "harness", "randao",
                     "scenario", "shamir", "threshold_randao")
    ]
    for owner, name in ORACLE_ONLY:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_trials_leave_recovery_to_the_oracle(oracle_calls):
    # sss epochs with flip sets cut at the cap, collusion among them,
    # and classic tails below full participation.
    cells = [
        small(protocol="sss", participation_rate=0.5, sss_threshold_n=8,
              strategy_cap=3, epochs=6),
        small(protocol="sss", participation_rate=0.1, sss_threshold_n=4,
              attacker_stake_fraction=0.3, strategy_cap=3),
        small(attacker_stake_fraction=0.5, participation_rate=0.7,
              epochs=6),
    ]
    reports = [run_scenario(cfg) for cfg in cells]
    assert sum(r.cases_collusion for r in reports) > 0
    assert sum(r.mean_decision_width for r in reports) > 0
    assert oracle_calls == Counter()
    # The oracle path is counted.
    detail = sss_trial_detail(cells[0], 0)
    recover_all(detail.observed, SssConfig(8, 31))
    randao.compute_reveal(detail.registry[0], 0)
    assert set(oracle_calls) == {name for _, name in ORACLE_ONLY}


def test_sss_trials_run_one_reveal_phase_and_read_no_broadcast(monkeypatch):
    # A trial reads t and the share counts from the phase's inputs; only
    # the oracle (recover_all) derives the broadcast.
    calls = Counter()
    run_reveal_phase = threshold_randao.run_reveal_phase
    broadcast = threshold_randao.RevealPhaseState.broadcast

    def counting_phase(*args, **kwargs):
        calls["run_reveal_phase"] += 1
        return run_reveal_phase(*args, **kwargs)

    def counting_broadcast(state):
        calls["broadcast"] += 1
        return broadcast.fget(state)

    monkeypatch.setattr(threshold_randao, "run_reveal_phase", counting_phase)
    monkeypatch.setattr(threshold_randao.RevealPhaseState, "broadcast",
                        property(counting_broadcast))
    cfg = small(protocol="sss", participation_rate=0.5, sss_threshold_n=8,
                strategy_cap=3)
    assert run_scenario(cfg).mean_decision_width > 0
    assert calls == Counter(run_reveal_phase=cfg.epochs)
    # The oracle path is counted.
    recover_all(sss_trial_detail(cfg, 0).observed, SssConfig(8, 31))
    assert calls["broadcast"] == 1


def test_shared_columns_are_keyed_on_balance_model_and_count():
    def columns(cfg):
        registry = build_registry(cfg, trial_rng(cfg.rng_seed, 0))
        return registry.balances, registry.limits

    base = ScenarioConfig(validator_count=40, epochs=1, rng_seed=1)
    first = columns(base)
    for same in (base.replace(rng_seed=2),
                 base.replace(attacker_stake_fraction=0.6)):
        assert all(a is b for a, b in zip(first, columns(same)))
    explicit = base.replace(
        balance_model="explicit:" + ",".join([str(MAX_EFFECTIVE_BALANCE)] * 40)
    )
    for other in (base.replace(validator_count=41), explicit):
        assert not any(a is b for a, b in zip(first, columns(other)))
    assert columns(explicit) == first
    # Pareto balances are drawn per trial, so nothing is shared.
    pareto = base.replace(balance_model="pareto:1.5")
    assert columns(pareto)[0] is not columns(pareto.replace(rng_seed=2))[0]


def test_shared_cache_stays_bounded():
    harness._shared.cache_clear()
    bound = harness.SCENARIO_CACHE_SIZE
    for count in range(1, bound + 6):
        build_registry(ScenarioConfig(validator_count=count, epochs=1),
                       trial_rng(0, 0))
        assert harness._shared.cache_info().currsize <= bound
    assert harness._shared.cache_info().currsize == bound


@pytest.fixture
def attacker_calls(monkeypatch):
    """The (balance_model, validator_count, stake) of every
    assign_attacker call the harness makes, from a cold per-scenario
    attacker cache."""
    calls = Counter()
    assign = harness.assign_attacker

    def counting(cfg, registry):
        calls[scenario_key(cfg)] += 1
        return assign(cfg, registry)

    monkeypatch.setattr(harness, "assign_attacker", counting)
    harness._shared_attacker.cache_clear()
    return calls


def scenario_key(cfg):
    return (cfg.balance_model, cfg.validator_count,
            cfg.attacker_stake_fraction)


EXPLICIT_40 = "explicit:" + ",".join(
    str(MAX_EFFECTIVE_BALANCE // d) for d in (1, 2, 3, 5) * 10
)


def test_trials_assign_the_attacker_once_per_scenario(attacker_calls):
    shared = [
        small(),
        small(rng_seed=9, epochs=6),
        small(protocol="sss", participation_rate=0.5),
        small(attacker_stake_fraction=0.6),
        small(balance_model=EXPLICIT_40),
        small(balance_model=EXPLICIT_40, rng_seed=2, protocol="sss"),
    ]
    pareto = [small(balance_model="pareto:1.5"),
              small(balance_model="pareto:1.5", rng_seed=2)]
    for cfg in shared + pareto:
        run_scenario(cfg)
    assert attacker_calls == Counter(
        {scenario_key(cfg): 1 for cfg in shared}
    ) + Counter({scenario_key(pareto[0]): sum(cfg.epochs for cfg in pareto)})
    # The shared profile is the one a per-trial call would give.
    for cfg in shared + pareto:
        for index in range(cfg.epochs):
            _, registry, profile, *_ = harness._common_draws(cfg, index)
            assert profile == assign_attacker(cfg, registry)


def test_shared_attacker_cache_stays_bounded():
    harness._shared_attacker.cache_clear()
    bound = harness.SCENARIO_CACHE_SIZE
    for step in range(bound + 6):
        cfg = small(attacker_stake_fraction=step / 40, epochs=1)
        classic_trial(cfg, 0)
        assert harness._shared_attacker.cache_info().currsize <= bound
    assert harness._shared_attacker.cache_info().currsize == bound


# -- classic trials ------------------------------------------------------------

def test_classic_trial_rows_are_deterministic_and_bounded():
    cfg = small(attacker_stake_fraction=0.3, participation_rate=0.9,
                epochs=20, rng_seed=3)
    rows = [classic_trial(cfg, i) for i in range(cfg.epochs)]
    again = [classic_trial(cfg, i) for i in range(cfg.epochs)]
    assert rows == again
    for row in rows:
        assert row.payoff >= row.honest_payoff >= 0
        assert 0 <= row.withheld <= row.decision_width <= 32
        assert 0 <= row.joined_slots <= 32
        assert row.case_label == ""
    # No classic slot distributes shares, so none fails to recover.
    assert run_scenario(cfg).recovery_failure_rate == 0.0


def test_classic_zero_attacker_has_zero_bias():
    report = run_scenario(small(attacker_stake_fraction=0.0, epochs=6))
    assert report.mean_attacker_slots == 0.0
    assert report.fair_share == 0.0
    assert report.bias_gain == 0.0
    assert report.std_error == 0.0
    assert report.strategy_histogram == "0:6"
    assert report.mean_decision_width == 0.0


def test_classic_attacker_always_posts_its_reveals():
    # participation_rate gates honest proposers only; every attacker
    # slot still carries a reveal.
    cfg = small(attacker_stake_fraction=0.3, participation_rate=0.0,
                epochs=1, rng_seed=5)
    detail = classic_trial_detail(cfg, 0)
    for slot, validator in enumerate(detail.state.proposer_by_slot):
        posted = detail.state.posted[slot] is not None
        assert posted == (validator in detail.profile.controlled)


def test_tail_limit_widens_monotonically():
    cfg = small(attacker_stake_fraction=0.3, epochs=60, rng_seed=11,
                strategy_cap=12)
    means = []
    for limit in range(5):
        report = run_scenario(cfg.replace(tail_limit=limit))
        means.append(report.mean_attacker_slots)
    assert means == sorted(means)
    assert means[0] < means[-1]  # some epoch has a usable tail


def test_classic_trials_grind_through_best_strategy(monkeypatch):
    # The harness calls the library grinder through its module global,
    # which the benchmark's tracer rebinds to count grinds and masks.
    calls = []
    grind = harness.best_strategy

    def counting(state, profile, registry, cap):
        calls.append(cap)
        return grind(state, profile, registry, cap)

    monkeypatch.setattr(harness, "best_strategy", counting)
    cfg = small(attacker_stake_fraction=0.5, tail_limit=2, epochs=5)
    run_scenario(cfg)
    assert calls == [min(cfg.strategy_cap, 2)] * 5


# -- sss trials ----------------------------------------------------------------

def test_sss_full_participation_small_run():
    cfg = small(protocol="sss", attacker_stake_fraction=0.3, epochs=3)
    report = run_scenario(cfg)
    assert report.cases_prevented == 3
    assert report.cases_broken == report.cases_collusion == 0
    assert report.recovery_failure_rate == 0.0
    assert report.mean_decision_width == 0.0
    assert report.bias_gain == report.mean_attacker_slots - report.fair_share


def test_prevented_epochs_carry_bias_below_full_participation():
    # "Prevented" (t >= n, h < n) only rules out early reads.  Honest
    # shares alone reach n for every origin when t - h - 1 >= n; below
    # that, a prevented epoch can have a flip set and gain slots.
    cfg = ScenarioConfig(protocol="sss", validator_count=40,
                         attacker_stake_fraction=0.2, participation_rate=0.7,
                         sss_threshold_n=16, strategy_cap=8, rng_seed=5)
    rows = [sss_trial(cfg, index) for index in range(10)]
    assert {row.case_label for row in rows} == {"prevented"}
    flipped = {
        index: (row.decision_width, row.payoff - row.honest_payoff)
        for index, row in enumerate(rows)
        if row.decision_width
    }
    assert flipped == {0: (8, 4), 3: (8, 7), 4: (8, 7), 8: (8, 2)}
    for index, row in enumerate(rows):
        if row.joined_slots - row.attacker_proposer_slots - 1 >= 16:
            assert index not in flipped


def test_sss_rows_pair_with_classic_draws():
    # Same (seed, index) gives both protocols the same registry,
    # attacker, proposer schedule, and participation set.
    cfg_c = small(attacker_stake_fraction=0.3, epochs=1, rng_seed=9)
    cfg_s = cfg_c.replace(protocol="sss")
    classic = classic_trial_detail(cfg_c, 0)
    sss = sss_trial_detail(cfg_s, 0)
    assert classic.registry.keys == sss.registry.keys
    assert classic.registry.balances == sss.registry.balances
    assert classic.profile == sss.profile
    assert classic.state.proposer_by_slot == sss.observed.proposer_by_slot


def test_sss_forced_breakdown_counts():
    cfg = small(protocol="sss", attacker_stake_fraction=0.3,
                participation_rate=0.0, sss_threshold_n=31, epochs=3)
    report = run_scenario(cfg)
    assert report.cases_broken == 3
    assert report.recovery_failure_rate == 1.0
    assert report.mean_decision_width == 0.0


def test_broken_seed_fallback_reuses_prior_seed():
    cfg = small(protocol="sss", attacker_stake_fraction=0.3,
                participation_rate=0.0, sss_threshold_n=31, epochs=3,
                broken_seed_fallback=True)
    for index in range(cfg.epochs):
        row = sss_trial(cfg, index)
        detail = sss_trial_detail(cfg, index)
        # The seed this epoch's schedule was drawn from: the trial's
        # draw right after the registry's keys.
        rng = trial_rng(cfg.rng_seed, index)
        build_registry(cfg, rng)
        seed = rng.randbytes(32)
        expected = sum(
            1
            for v in select_proposers(seed, detail.registry)
            if v in detail.profile.controlled
        )
        assert row.payoff == row.honest_payoff == expected


def test_broken_seed_fallback_touches_only_broken_epochs():
    # Epochs of all three cases: the fallback pins a broken epoch's
    # payoff to its own schedule and leaves every other row as it was.
    off = ScenarioConfig(
        validator_count=60, attacker_stake_fraction=0.3, protocol="sss",
        participation_rate=0.3, sss_threshold_n=12, strategy_cap=6,
        epochs=12, rng_seed=4,
    )
    on = off.replace(broken_seed_fallback=True)
    cases = Counter()
    for index in range(off.epochs):
        row, plain = sss_trial(on, index), sss_trial(off, index)
        cases[row.case_label] += 1
        if row.case_label == "broken":
            assert row.payoff == row.honest_payoff
            assert row.payoff == row.attacker_proposer_slots
        else:
            assert row == plain
    assert cases == {"prevented": 10, "broken": 1, "collusion": 1}


# -- aggregation ----------------------------------------------------------------

def test_strategy_histogram_sums_to_epochs():
    report = run_scenario(small(attacker_stake_fraction=0.3, epochs=12,
                                rng_seed=2))
    total = sum(
        int(part.split(":")[1])
        for part in report.strategy_histogram.split(";")
    )
    assert total == 12
    cases = (report.cases_prevented, report.cases_broken,
             report.cases_collusion)
    assert cases == (0, 0, 0)  # classic is unlabeled


def test_case_histogram_sums_to_epochs_for_sss():
    report = run_scenario(small(protocol="sss", attacker_stake_fraction=0.3,
                                participation_rate=0.5, epochs=5))
    assert sum((report.cases_prevented, report.cases_broken,
                report.cases_collusion)) == 5


def test_single_epoch_has_zero_std_error():
    report = run_scenario(small(epochs=1))
    assert report.std_error == 0.0


def test_serial_and_parallel_reports_identical():
    cfg_c = small(attacker_stake_fraction=0.3, epochs=10, rng_seed=4)
    assert run_scenario(cfg_c) == run_scenario(cfg_c, workers=2)
    cfg_s = small(protocol="sss", attacker_stake_fraction=0.3, epochs=6,
                  rng_seed=4)
    assert run_scenario(cfg_s) == run_scenario(cfg_s, workers=2)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps the process pool for one that runs the trials in this
    process; returns the size asked of each pool opened."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", RecordingPool
    )
    return requested


@pytest.mark.parametrize(
    "workers, cpus, epochs, expected",
    [
        (64, 8, 3, 3),  # epoch count
        (64, 2, 10, 2),  # cpu count
        (3, 8, 10, 3),  # as asked
        (5, None, 10, None),  # cpu count unknown: serial
        (8, 4, 1, None),  # one epoch: serial
    ],
)
def test_trial_rows_clamp_workers(monkeypatch, pool_sizes, workers, cpus,
                                  epochs, expected):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = small(epochs=epochs)
    assert run_scenario(cfg, workers=workers) == run_scenario(cfg)
    assert pool_sizes == ([] if expected is None else [expected])


def test_failure_rate_monotone_in_threshold():
    # Same seed at participation 0.6 and no attacker: the broadcast
    # counts per origin are identical across thresholds, so raising n
    # can only lose origins.
    base = small(protocol="sss", attacker_stake_fraction=0.0,
                 participation_rate=0.6, epochs=15, rng_seed=6)
    rates = [
        run_scenario(base.replace(sss_threshold_n=n)).recovery_failure_rate
        for n in (8, 16, 24)
    ]
    assert rates == sorted(rates)


# -- report rows and emission -----------------------------------------------------

def test_report_row_order_matches_columns():
    report = run_scenario(small(epochs=2))
    row = report_row(report)
    assert list(row) == list(COLUMNS)
    assert row["protocol"] == "classic"
    assert row["epochs"] == 2
    assert row["mean_attacker_slots"] == report.mean_attacker_slots


# The report's columns are part of its bytes: scenario fields, then
# metrics, each in this order.
CSV_HEADER = (
    "validator_count,balance_model,attacker_stake_fraction,protocol,"
    "sss_threshold_n,participation_rate,epochs,rng_seed,strategy_cap,"
    "tail_limit,broken_seed_fallback,mean_attacker_slots,fair_share,"
    "bias_gain,std_error,recovery_failure_rate,cases_prevented,"
    "cases_broken,cases_collusion,strategy_histogram,mean_decision_width,"
    "mean_joined_slots,mean_attacker_proposer_slots,achieved_stake_fraction"
)


def test_csv_header_and_scenario_defaults_are_pinned():
    assert ScenarioConfig()._asdict() == dict(
        validator_count=200, balance_model="uniform",
        attacker_stake_fraction=0.3, protocol="classic", sss_threshold_n=16,
        participation_rate=1.0, epochs=1000, rng_seed=0, strategy_cap=12,
        tail_limit=None, broken_seed_fallback=False,
    )
    metrics = (9.5, 9.6, -0.1, 0.25, 0.0, 0, 0, 0, "0:4", 0.0, 32.0, 9.5, 0.3)
    buffer = io.StringIO()
    emit(MetricsReport(ScenarioConfig(), *metrics), "csv", buffer)
    # The row's text also pins each default's type (1.0, not 1).
    assert buffer.getvalue().splitlines() == [
        CSV_HEADER,
        "200,uniform,0.3,classic,16,1.0,1000,0,12,none,false,"
        "9.5,9.6,-0.1,0.25,0.0,0,0,0,0:4,0.0,32.0,9.5,0.3",
    ]


def test_emit_csv_round_trip():
    report = run_scenario(small(attacker_stake_fraction=0.3, epochs=5))
    buffer = io.StringIO()
    emit(report, "csv", buffer)
    text = buffer.getvalue()
    assert text.endswith("\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(COLUMNS)
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["protocol"] == "classic"
    assert record["tail_limit"] == "none"
    assert record["broken_seed_fallback"] == "false"
    assert float(record["mean_attacker_slots"]) == report.mean_attacker_slots
    assert float(record["std_error"]) == report.std_error
    assert int(record["cases_prevented"]) == 0


def test_emit_csv_empty_report_list():
    buffer = io.StringIO()
    emit([], "csv", buffer)
    lines = buffer.getvalue().splitlines()
    assert lines == [",".join(COLUMNS)]


def test_emit_json_types():
    report = run_scenario(small(protocol="sss", epochs=2,
                                attacker_stake_fraction=0.3))
    buffer = io.StringIO()
    emit([report], "json", buffer)
    payload = json.loads(buffer.getvalue())
    assert isinstance(payload, list) and len(payload) == 1
    record = payload[0]
    assert list(record) == list(COLUMNS)
    assert record["tail_limit"] is None
    assert record["broken_seed_fallback"] is False
    assert isinstance(record["mean_attacker_slots"], float)
    assert record["cases_prevented"] == 2


def test_emit_is_deterministic():
    report = run_scenario(small(attacker_stake_fraction=0.3, epochs=3))
    first, second = io.StringIO(), io.StringIO()
    emit(report, "csv", first)
    emit(report, "csv", second)
    assert first.getvalue() == second.getvalue()


def test_int_and_float_fractions_emit_equal_bytes():
    # ScenarioConfig(attacker_stake_fraction=0) equals and hashes as the
    # float form, so by the determinism contract it prints the same
    # report, in CSV and in JSON.
    forms = [
        small(epochs=2, attacker_stake_fraction=zero, participation_rate=one)
        for zero, one in ((0, 1), (0.0, 1.0))
    ]
    assert forms[0] == forms[1] and hash(forms[0]) == hash(forms[1])
    for fmt in ("csv", "json"):
        texts = []
        for cfg in forms:
            buffer = io.StringIO()
            emit(run_scenario(cfg), fmt, buffer)
            texts.append(buffer.getvalue())
        assert texts[0] == texts[1], fmt


def test_emit_to_path_and_errors(tmp_path):
    report = run_scenario(small(epochs=1))
    out = tmp_path / "report.json"
    emit(report, "json", str(out))
    assert json.loads(out.read_text())[0]["epochs"] == 1
    with pytest.raises(EmitError):
        emit(report, "csv", str(tmp_path / "missing" / "report.csv"))
    with pytest.raises(ConfigError):
        emit(report, "tsv", io.StringIO())


# -- sweep -------------------------------------------------------------------------

def test_sweep_single_cell_equals_run_scenario():
    base = small(attacker_stake_fraction=0.3, epochs=3)
    reports = sweep(base, [("rng_seed", [base.rng_seed])])
    assert reports == [run_scenario(base)]


def test_sweep_opens_one_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    base = small(attacker_stake_fraction=0.3, epochs=3)
    axes = [("rng_seed", [1, 2, 3])]
    reports = sweep(base, axes, workers=2)
    assert pool_sizes == [2]
    assert reports == sweep(base, axes)


def test_sweep_pool_is_cut_to_the_largest_cell(monkeypatch, pool_sizes):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    sweep(small(), [("epochs", [1, 3, 2])], workers=8)
    assert pool_sizes == [3]


def test_parallel_sweep_matches_serial():
    base = small(attacker_stake_fraction=0.3, epochs=3)
    axes = [("protocol", ["classic", "sss"]), ("rng_seed", [1, 2])]
    assert sweep(base, axes, workers=2) == sweep(base, axes)


def test_sweep_grid_order_and_size():
    base = small(epochs=2)
    reports = sweep(
        base,
        [("attacker_stake_fraction", [0.0, 0.3]), ("rng_seed", [1, 2])],
    )
    assert len(reports) == 4
    assert [
        (r.scenario.attacker_stake_fraction, r.scenario.rng_seed)
        for r in reports
    ] == [(0.0, 1), (0.0, 2), (0.3, 1), (0.3, 2)]
