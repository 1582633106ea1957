"""Withholding attack: tail suffix extraction, the strategy record,
payoff evaluation against a from-scratch oracle, argmax and ties, and
the number of selections a grind runs."""

import random
from hashlib import sha256

import pytest

from randaolab import adversary
from randaolab.adversary import (
    DEFAULT_STRATEGY_CAP,
    AttackerProfile,
    AttackOutcome,
    Strategy,
    best_strategy,
    evaluate_strategy,
    grind,
    mask_payoffs,
    tail_decision_slots,
)
from randaolab.harness import assign_attacker
from randaolab.randao import (
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    EpochState,
    Registry,
    compute_reveal,
    derive_seed,
    select_proposers,
)
from randaolab.scenario import ScenarioConfig


def make_registry(count):
    keys = b"".join(
        sha256(b"adv" + i.to_bytes(4, "big")).digest() for i in range(count)
    )
    return Registry(keys, [MAX_EFFECTIVE_BALANCE] * count)


def make_epoch(proposers, registry, epoch=0, absent=()):
    state = EpochState(epoch, tuple(proposers))
    for slot, validator in enumerate(proposers):
        if slot in absent:
            continue
        state.post_reveal(slot, compute_reveal(registry[validator], epoch))
    return state


def profile_of(registry, controlled):
    held = sum(registry.balances[i] for i in controlled)
    return AttackerProfile(
        frozenset(controlled), held / sum(registry.balances)
    )


def test_profile_from_registry():
    registry = make_registry(10)
    cfg = ScenarioConfig(validator_count=10, attacker_stake_fraction=0.3)
    p = assign_attacker(cfg, registry)
    assert p.controlled == frozenset({0, 1, 2})
    assert p.stake_fraction == pytest.approx(0.3)
    with pytest.raises(ValueError):
        AttackerProfile(frozenset(), 1.5)


def test_strategy_validation_and_helpers():
    s = Strategy(0b101, 3)
    assert s.withheld_count == 2
    assert s.withheld([10, 20, 30]) == [10, 30]
    with pytest.raises(ValueError):
        Strategy(4, 2)
    with pytest.raises(ValueError):
        s.withheld([10, 20])
    with pytest.raises(ValueError):
        AttackOutcome(Strategy(0, 0), 3, 5)


def test_tail_decision_slots_cases():
    registry = make_registry(40)
    attacker = profile_of(registry, [0, 1])
    honest = [10] * SLOTS_PER_EPOCH

    epoch = make_epoch(honest, registry)
    assert tail_decision_slots(epoch, attacker) == []

    schedule = honest[:]
    schedule[30], schedule[31] = 0, 1
    epoch = make_epoch(schedule, registry)
    assert tail_decision_slots(epoch, attacker) == [30, 31]

    schedule = honest[:]
    schedule[29], schedule[31] = 0, 1  # slot 30 honest: suffix breaks
    epoch = make_epoch(schedule, registry)
    assert tail_decision_slots(epoch, attacker) == [31]

    schedule = [0] * SLOTS_PER_EPOCH  # everything attacker-held
    epoch = make_epoch(schedule, registry)
    assert tail_decision_slots(epoch, attacker) == list(range(32))


def _oracle_payoff(epoch, withheld_slots, attacker, registry):
    """From-scratch recomputation: mix, seed, selection, count."""
    mix = b"\x00" * 32
    for slot, reveal in enumerate(epoch.posted):
        if reveal is None or slot in withheld_slots:
            continue
        mix = bytes(a ^ b for a, b in zip(mix, reveal))
    seed = derive_seed(mix, epoch.epoch)
    return sum(
        1
        for idx in select_proposers(seed, registry)
        if idx in attacker.controlled
    )


def test_evaluate_zero_mask_is_honest():
    registry = make_registry(30)
    attacker = profile_of(registry, range(9))
    schedule = [i % 30 for i in range(32)]
    epoch = make_epoch(schedule, registry)
    h = len(tail_decision_slots(epoch, attacker))
    assert evaluate_strategy(epoch, Strategy(0, h), attacker, registry) == (
        _oracle_payoff(epoch, set(), attacker, registry)
    )


def test_evaluate_rejects_width_mismatch_and_missing_reveal():
    registry = make_registry(20)
    attacker = profile_of(registry, [0])
    schedule = [5] * 31 + [0]
    epoch = make_epoch(schedule, registry)
    with pytest.raises(ValueError):
        evaluate_strategy(epoch, Strategy(0, 3), attacker, registry)
    hollow = make_epoch(schedule, registry, absent=(31,))
    with pytest.raises(ValueError):
        evaluate_strategy(hollow, Strategy(1, 1), attacker, registry)


def test_full_enumeration_matches_bruteforce_oracle_h3():
    registry = make_registry(25)
    attacker = profile_of(registry, [1, 2, 3])
    schedule = [7] * 29 + [1, 2, 3]
    epoch = make_epoch(schedule, registry, epoch=4)
    decision = tail_decision_slots(epoch, attacker)
    assert decision == [29, 30, 31]
    payoffs = [
        evaluate_strategy(epoch, Strategy(mask, 3), attacker, registry)
        for mask in range(8)
    ]
    expected = [
        _oracle_payoff(
            epoch,
            {s for i, s in enumerate(decision) if mask >> i & 1},
            attacker,
            registry,
        )
        for mask in range(8)
    ]
    assert payoffs == expected

    outcome = best_strategy(epoch, attacker, registry)
    assert outcome.payoff == max(expected)
    assert outcome.honest_payoff == expected[0]
    assert outcome.chosen.withhold_mask == expected.index(max(expected))


def test_best_strategy_h0_returns_honest():
    registry = make_registry(16)
    attacker = profile_of(registry, [3])
    epoch = make_epoch([5] * 32, registry)
    outcome = best_strategy(epoch, attacker, registry)
    assert outcome.chosen == Strategy(0, 0)
    assert outcome.payoff == outcome.honest_payoff


def test_best_strategy_cap():
    # A 32-slot tail is cut to its last `cap` slots, as the harness
    # cuts it to min(strategy_cap, tail_limit), instead of failing.
    registry = make_registry(8)
    attacker = profile_of(registry, range(8))
    epoch = make_epoch([0] * 32, registry)
    outcome = best_strategy(epoch, attacker, registry, cap=8)
    assert outcome.chosen.width == 8
    assert outcome == best_strategy(
        epoch, attacker, registry, cap=min(DEFAULT_STRATEGY_CAP, 8)
    )
    assert best_strategy(
        epoch, attacker, registry, cap=min(8, 3)
    ).chosen.width == 3
    assert best_strategy(epoch, attacker, registry, cap=0).chosen.width == 0
    with pytest.raises(ValueError, match="cap"):
        best_strategy(epoch, attacker, registry, cap=-1)


def test_best_strategy_tie_goes_to_smallest_mask():
    # Validator 0 proposes both tail slots, so its reveal appears twice:
    # withholding either one alone yields the same mix, forcing a tie
    # between masks 01 and 10.
    registry = make_registry(12)
    attacker = profile_of(registry, [0])
    schedule = [(i % 11) + 1 for i in range(30)] + [0, 0]
    epoch = make_epoch(schedule, registry)
    assert tail_decision_slots(epoch, attacker) == [30, 31]
    payoffs = [
        evaluate_strategy(epoch, Strategy(mask, 2), attacker, registry)
        for mask in range(4)
    ]
    assert payoffs[1] == payoffs[2]
    outcome = best_strategy(epoch, attacker, registry)
    assert outcome.payoff == max(payoffs)
    assert outcome.chosen.withhold_mask == payoffs.index(max(payoffs))


def test_best_strategy_matches_exhaustive_argmax_random_cases():
    registry = make_registry(20)
    rng = random.Random(11)
    for trial in range(12):
        controlled = rng.sample(range(20), 6)
        attacker = profile_of(registry, controlled)
        schedule = [rng.randrange(20) for _ in range(29)]
        schedule += [rng.choice(controlled) for _ in range(3)]
        epoch = make_epoch(schedule, registry, epoch=trial)
        decision = tail_decision_slots(epoch, attacker)
        h = len(decision)
        outcome = best_strategy(epoch, attacker, registry)
        assert outcome.chosen.width == h
        payoffs = [
            evaluate_strategy(epoch, Strategy(m, h), attacker, registry)
            for m in range(1 << h)
        ]
        assert outcome.payoff == max(payoffs)
        assert outcome.chosen.withhold_mask == payoffs.index(max(payoffs))
        assert outcome.payoff >= outcome.honest_payoff


def test_tail_limit_restricts_and_nests():
    registry = make_registry(10)
    attacker = profile_of(registry, [0, 1, 2, 3])
    schedule = [7] * 28 + [0, 1, 2, 3]
    epoch = make_epoch(schedule, registry)
    payoffs = []
    for limit in range(5):
        outcome = best_strategy(
            epoch, attacker, registry, cap=min(DEFAULT_STRATEGY_CAP, limit)
        )
        assert outcome.chosen.width == min(limit, 4)
        payoffs.append(outcome.payoff)
    # Strategy spaces nest as the window grows, so payoffs cannot drop.
    assert payoffs == sorted(payoffs)
    assert best_strategy(
        epoch, attacker, registry, cap=min(DEFAULT_STRATEGY_CAP, 0)
    ).payoff == best_strategy(
        epoch, attacker, registry, cap=min(DEFAULT_STRATEGY_CAP, 0)
    ).honest_payoff


@pytest.fixture
def selections(monkeypatch):
    """Every proposer-selection run the grinder makes, one entry each."""
    calls = []
    select = adversary._selection

    def counted(*args):
        calls.append(args)
        return select(*args)

    monkeypatch.setattr(adversary, "_selection", counted)
    return calls


TOGGLES = [int.from_bytes(sha256(b"tog%d" % i).digest(), "big")
           for i in range(5)]


def test_grind_scores_each_distinct_mix_once(selections):
    a, b, c = TOGGLES[:3]
    registry = make_registry(8)
    controlled = frozenset({0, 3, 5})
    grind(11, [a, b, a, c, b], 2, registry, controlled)
    assert len(selections) == 2**3
    selections.clear()
    payoffs = list(mask_payoffs(11, [a, b, a, c, b], 2, registry, controlled))
    assert len(payoffs) == len(selections) == 32


@pytest.mark.parametrize("width", range(6))
def test_grind_scores_every_mask_of_distinct_toggles(selections, width):
    grind(11, TOGGLES[:width], 2, make_registry(8), frozenset({0, 3, 5}))
    assert len(selections) == 2**width
