"""Monte Carlo harness: per-trial determinism, registry/attacker setup,
aggregation exactness, serial/parallel equivalence, and report emission."""

import csv
import io
import json

import pytest

from randaolab import harness
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
    run_classic,
    run_scenario,
    run_sss,
    sss_trial,
    sss_trial_detail,
    sweep,
    trial_rng,
)
from randaolab.randao import MAX_EFFECTIVE_BALANCE, select_proposers
from randaolab.scenario import ConfigError, ScenarioConfig


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
        assert row.distributed_slots == 0


def test_classic_zero_attacker_has_zero_bias():
    report = run_classic(small(attacker_stake_fraction=0.0, epochs=6))
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
        report = run_classic(cfg.replace(tail_limit=limit))
        means.append(report.mean_attacker_slots)
    assert means == sorted(means)
    assert means[0] < means[-1]  # some epoch has a usable tail


# -- sss trials ----------------------------------------------------------------

def test_sss_full_participation_small_run():
    cfg = small(protocol="sss", attacker_stake_fraction=0.3, epochs=3)
    report = run_sss(cfg)
    assert report.cases_prevented == 3
    assert report.cases_broken == report.cases_collusion == 0
    assert report.recovery_failure_rate == 0.0
    assert report.mean_decision_width == 0.0
    assert report.bias_gain == report.mean_attacker_slots - report.fair_share


def test_sss_rows_pair_with_classic_draws():
    # Same (seed, index) gives both protocols the same registry,
    # attacker, proposer schedule, and participation set.
    cfg_c = small(attacker_stake_fraction=0.3, epochs=1, rng_seed=9)
    cfg_s = cfg_c.replace(protocol="sss")
    classic = classic_trial_detail(cfg_c, 0)
    sss = sss_trial_detail(cfg_s, 0)
    assert classic.registry == sss.registry
    assert classic.profile == sss.profile
    assert classic.assignment_seed == sss.assignment_seed
    assert classic.state.proposer_by_slot == sss.observed.proposer_by_slot


def test_sss_forced_breakdown_counts():
    cfg = small(protocol="sss", attacker_stake_fraction=0.3,
                participation_rate=0.0, sss_threshold_n=31, epochs=3)
    report = run_sss(cfg)
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
        expected = sum(
            1
            for v in select_proposers(detail.assignment_seed, detail.registry)
            if v in detail.profile.controlled
        )
        assert row.payoff == row.honest_payoff == expected


def test_run_protocol_guards():
    with pytest.raises(ConfigError):
        run_classic(small(protocol="sss"))
    with pytest.raises(ConfigError):
        run_sss(small())


# -- aggregation ----------------------------------------------------------------

def test_strategy_histogram_sums_to_epochs():
    report = run_classic(small(attacker_stake_fraction=0.3, epochs=12,
                               rng_seed=2))
    total = sum(
        int(part.split(":")[1])
        for part in report.strategy_histogram.split(";")
    )
    assert total == 12
    assert sum(report.case_histogram.values()) == 0  # classic is unlabeled


def test_case_histogram_sums_to_epochs_for_sss():
    report = run_sss(small(protocol="sss", attacker_stake_fraction=0.3,
                           participation_rate=0.5, epochs=5))
    assert sum(report.case_histogram.values()) == 5


def test_single_epoch_has_zero_std_error():
    report = run_classic(small(epochs=1))
    assert report.std_error == 0.0


def test_serial_and_parallel_reports_identical():
    cfg_c = small(attacker_stake_fraction=0.3, epochs=10, rng_seed=4)
    assert run_classic(cfg_c) == run_classic(cfg_c, workers=2)
    cfg_s = small(protocol="sss", attacker_stake_fraction=0.3, epochs=6,
                  rng_seed=4)
    assert run_sss(cfg_s) == run_sss(cfg_s, workers=2)


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
def test_trial_rows_clamp_workers(monkeypatch, workers, cpus, epochs,
                                  expected):
    requested = []

    class RecordingPool:
        """Runs the trials in this process; records the pool size."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = small(epochs=epochs)
    assert run_classic(cfg, workers=workers) == run_classic(cfg)
    assert requested == ([] if expected is None else [expected])


def test_failure_rate_monotone_in_threshold():
    # Same seed at participation 0.6 and no attacker: the broadcast
    # counts per origin are identical across thresholds, so raising n
    # can only lose origins.
    base = small(protocol="sss", attacker_stake_fraction=0.0,
                 participation_rate=0.6, epochs=15, rng_seed=6)
    rates = [
        run_sss(base.replace(sss_threshold_n=n)).recovery_failure_rate
        for n in (8, 16, 24)
    ]
    assert rates == sorted(rates)


# -- report rows and emission -----------------------------------------------------

def test_report_row_order_matches_columns():
    report = run_classic(small(epochs=2))
    row = report_row(report)
    assert list(row) == list(COLUMNS)
    assert row["protocol"] == "classic"
    assert row["epochs"] == 2
    assert row["mean_attacker_slots"] == report.mean_attacker_slots


def test_emit_csv_round_trip():
    report = run_classic(small(attacker_stake_fraction=0.3, epochs=5))
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
    report = run_sss(small(protocol="sss", epochs=2,
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
    report = run_classic(small(attacker_stake_fraction=0.3, epochs=3))
    first, second = io.StringIO(), io.StringIO()
    emit(report, "csv", first)
    emit(report, "csv", second)
    assert first.getvalue() == second.getvalue()


def test_emit_to_path_and_errors(tmp_path):
    report = run_classic(small(epochs=1))
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
