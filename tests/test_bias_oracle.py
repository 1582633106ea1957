"""The classic beacon's bias against its closed form.

With uniform balances every slot's proposer is the attacker's with
probability q, its validator share, independently of the others.  The
tail of attacker slots that ends the epoch has length h with
P(h) = q^h (1 - q) for h < 32 and q^32 for h = 32.  The attacker grinds
the last w = min(h, cap, tail_limit) of them: 2^w masks, each giving an
independent Binomial(32, q) count in epoch+2, of which it keeps the
largest.  Hence

    E[payoff] = sum_h P(h) sum_{c < 32} (1 - F(c)^(2^w)),

with F the Binomial(32, q) CDF.  run_scenario's mean must lie within
4 standard errors of it.  With other balances, a slot's proposer is the
attacker's with probability q = sum of its acceptance limits
floor(256 b / MAX) over the sum of all of them, not its balance share.

The sss beacon at full participation has every one of the 32 proposers
join, h ~ Binomial(32, q) of them the attacker's.  An epoch is
collusion exactly when h >= n, so the collusion fraction must lie
within 4 standard errors of P(Binomial(32, q) >= n).  Every other epoch
is prevented, and for n <= 16 each of its origins keeps at least
31 - h >= n honest shares, so the attacker has nothing to flip and
gains nothing.

Below full participation the flip set of each sss epoch follows from
its slot types alone.  With h attacker slots and t joined proposers, an
origin whose proposer is the attacker's, present or absent gets t-h,
t-h-1 or t-h honest shares, and the attacker holds h-1, h or h more.
The origin is a flip slot when honest < n <= honest + held, and the
trial's decision_width is the flip count, cut at the strategy cap.
"""

from math import comb, sqrt
from typing import Optional

import pytest

from randaolab.harness import _common_draws, run_scenario, sss_trial
from randaolab.randao import MAX_EFFECTIVE_BALANCE, SLOTS_PER_EPOCH
from randaolab.scenario import ScenarioConfig


def binomial_pmf(q: float) -> list[float]:
    slots = SLOTS_PER_EPOCH
    return [comb(slots, c) * q**c * (1 - q) ** (slots - c)
            for c in range(slots + 1)]


def expected_payoff(q: float, cap: int, tail_limit: Optional[int]) -> float:
    slots = SLOTS_PER_EPOCH
    cdf = []
    total = 0.0
    for p in binomial_pmf(q):
        total += p
        cdf.append(total)
    expected = 0.0
    for h in range(slots + 1):
        p_tail = q**h * (1 - q) if h < slots else q**slots
        w = min(h, cap, slots if tail_limit is None else tail_limit)
        expected += p_tail * sum(1 - cdf[c] ** (1 << w) for c in range(slots))
    return expected


def test_expected_payoff_without_grinding_is_the_fair_share():
    for q in (0.0, 0.3, 0.5, 1.0):
        assert expected_payoff(q, 0, None) == pytest.approx(32 * q)
    # One more mask can only help.
    assert expected_payoff(0.3, 1, None) > 32 * 0.3


# At 3000 epochs each cell's mean lies 9 to 25 standard errors above
# the fair share 32q, so a grinder that stopped grinding would fail.
@pytest.mark.parametrize("cap, tail_limit", [(2, None), (8, None), (8, 1)])
@pytest.mark.parametrize("stake", [0.3, 0.5])
def test_classic_bias_matches_the_closed_form(stake, cap, tail_limit):
    cfg = ScenarioConfig(
        validator_count=40, attacker_stake_fraction=stake, epochs=3000,
        strategy_cap=cap, tail_limit=tail_limit, rng_seed=17,
    )
    report = run_scenario(cfg)
    expected = expected_payoff(report.achieved_stake_fraction, cap, tail_limit)
    z = (report.mean_attacker_slots - expected) / report.std_error
    assert abs(z) <= 4, (report.mean_attacker_slots, expected, z)


# The attacker holds 35 validators at 17 MAX/256 - 1, acceptance limit
# 16, against 5 at MAX: its balance share 0.3173 overstates its limit
# share 0.3043.  At rng_seed 17 the limit share reads z = -0.04 and the
# balance share z = -9.57.
def test_classic_bias_follows_the_quantised_weights():
    small = 17 * MAX_EFFECTIVE_BALANCE // 256 - 1
    balances = [small] * 35 + [MAX_EFFECTIVE_BALANCE] * 5
    cfg = ScenarioConfig(
        validator_count=40, attacker_stake_fraction=0.31, epochs=3000,
        strategy_cap=8, rng_seed=17,
        balance_model="explicit:" + ",".join(map(str, balances)),
    )
    _, registry, profile, *_ = _common_draws(cfg, 0)
    assert sorted(profile.controlled) == list(range(35))
    limits = registry.limits
    q = sum(limits[i] for i in profile.controlled) / sum(limits)
    report = run_scenario(cfg)

    def z(share):
        expected = expected_payoff(share, cfg.strategy_cap, None)
        return (report.mean_attacker_slots - expected) / report.std_error

    assert abs(z(q)) <= 4, (q, z(q))
    assert abs(z(report.achieved_stake_fraction)) > 4


# 600 epochs of 200 validators at rng_seed 17: the three cells read
# z = +0.78, -0.82 and -0.54.
@pytest.mark.parametrize("stake, n", [(0.3, 12), (0.5, 16), (0.2, 8)])
def test_sss_collusion_fraction_matches_the_binomial_tail(stake, n):
    cfg = ScenarioConfig(
        protocol="sss", attacker_stake_fraction=stake, sss_threshold_n=n,
        participation_rate=1.0, strategy_cap=2, epochs=600, rng_seed=17,
    )
    rows = [sss_trial(cfg, index) for index in range(cfg.epochs)]
    q = rows[0].stake_fraction
    assert all(row.stake_fraction == q for row in rows)
    expected = sum(binomial_pmf(q)[n:])
    collusion = sum(row.case_label == "collusion" for row in rows)
    z = (collusion / cfg.epochs - expected) / sqrt(
        expected * (1 - expected) / cfg.epochs
    )
    assert abs(z) <= 4, (collusion, expected, z)
    prevented = [row for row in rows if row.case_label == "prevented"]
    assert len(prevented) + collusion == cfg.epochs
    for row in prevented:
        assert row.decision_width == 0
        assert row.payoff == row.honest_payoff


def test_sss_collusion_at_full_participation_has_no_lever():
    # Every share is distributed before the epoch, so a collusion epoch
    # gives the adversary early reads but no withholding lever: its only
    # lever is the flip set, empty while t - h - 1 >= n: at t = 32 and
    # n = 8, while h <= 23.
    cfg = ScenarioConfig(
        protocol="sss", attacker_stake_fraction=0.4, sss_threshold_n=8,
        participation_rate=1.0, epochs=20, rng_seed=7,
    )
    report = run_scenario(cfg)
    assert report.cases_collusion > cfg.epochs // 2
    assert report.cases_broken == 0
    assert report.mean_decision_width == 0.0
    assert report.strategy_histogram == f"0:{cfg.epochs}"


def oracle_decision_width(cfg: ScenarioConfig, index: int) -> int:
    """The flip count of trial `index` from its slot types, capped."""
    _, _, profile, proposers, participating = _common_draws(cfg, index)
    attacker = [v in profile.controlled for v in proposers]
    present = [v in participating for v in proposers]
    h = sum(attacker)
    t = h + sum(present)
    n = cfg.sss_threshold_n
    flips = 0
    for is_attacker, is_present in zip(attacker, present):
        if is_attacker:
            honest, held = t - h, h - 1
        elif is_present:
            honest, held = t - h - 1, h
        else:
            honest, held = t - h, h
        flips += honest < n <= honest + held
    return min(cfg.strategy_cap, flips)


SSS_PARTIAL = ScenarioConfig(
    protocol="sss", validator_count=40, epochs=20, rng_seed=23,
)


def assert_widths_follow_the_slot_types(cfg: ScenarioConfig) -> None:
    for index in range(cfg.epochs):
        assert sss_trial(cfg, index).decision_width == (
            oracle_decision_width(cfg, index)
        ), (cfg, index)


# 20 epochs a cell at rng_seed 23.  The oracle reads 0 in most epochs,
# the full cap in most n = 16 epochs below participation 0.9, and 8
# flip slots under cap 12 in 5 epochs at n = 8.
@pytest.mark.parametrize("participation", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("stake", [0.2, 0.3])
def test_sss_decision_width_follows_the_slot_types(stake, participation):
    for n in (4, 8, 16):
        for cap in (4, 12):
            assert_widths_follow_the_slot_types(SSS_PARTIAL.replace(
                attacker_stake_fraction=stake,
                participation_rate=participation,
                sss_threshold_n=n,
                strategy_cap=cap,
            ))


# Pareto balances; and n = 24, where t = 24 joins in two epochs (only
# the 8 absent origins flip) and t = 23 in three (none flips), which
# pins the upper bound n <= honest + held that the grid above never
# reaches under its caps.
@pytest.mark.parametrize("changes", [
    dict(validator_count=60, balance_model="pareto:1.5",
         attacker_stake_fraction=0.3, participation_rate=0.6,
         sss_threshold_n=12, strategy_cap=8),
    dict(attacker_stake_fraction=0.3, participation_rate=0.7,
         sss_threshold_n=24, strategy_cap=12),
], ids=["pareto", "n24"])
def test_sss_decision_width_follows_the_slot_types_at_the_edges(changes):
    assert_widths_follow_the_slot_types(SSS_PARTIAL.replace(**changes))
