"""The grinding kernel and the one-pass sss trial against the slow
reveal-phase oracle, field by field, on a small grid that covers the
three security cases, a flip set cut at the cap, the broken-seed
fallback, pareto balances and classic runs with a tail_limit or a tail
cut at the cap; grind's pruned scan against every mask counted in full,
also on the benchmark's sss-partial registry shape and on toggles that
repeat;
the library grinders against the trials where the cap cuts; and a
column registry against the Registry rebuilt from its Validator
views."""

from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.adversary import (
    Strategy,
    best_strategy,
    evaluate_strategy,
    grind,
    grind_inputs,
    mask_payoffs,
    strategy_budget,
    tail_decision_slots,
)
from randaolab.harness import (
    build_registry,
    classic_trial,
    classic_trial_detail,
    sss_trial,
    sss_trial_detail,
    trial_rng,
)
from randaolab.randao import (
    MAX_EFFECTIVE_BALANCE,
    Registry,
    SelectionError,
    select_proposers,
)
from randaolab.scenario import ScenarioConfig
from randaolab.shamir import SssConfig
from randaolab.threshold_randao import (
    SHARES_PER_SECRET,
    apply_flip_strategy,
    best_flip_strategy,
    evaluate_flip_strategy,
    mask0_recovery,
    recover_all,
)

SSS = ScenarioConfig(protocol="sss", validator_count=40, epochs=2)
CLASSIC = ScenarioConfig(validator_count=40, epochs=3)

GRID = {
    "prevented": SSS.replace(attacker_stake_fraction=0.1, rng_seed=1),
    "broken": SSS.replace(participation_rate=0.2, rng_seed=2),
    "broken-fallback": SSS.replace(
        participation_rate=0.2, rng_seed=2, broken_seed_fallback=True
    ),
    "collusion-capped": SSS.replace(
        sss_threshold_n=4, participation_rate=0.1, strategy_cap=3
    ),
    "sss-pareto": SSS.replace(
        validator_count=60, balance_model="pareto:1.5", sss_threshold_n=12,
        attacker_stake_fraction=0.25, participation_rate=0.3,
        strategy_cap=4, epochs=3, rng_seed=5,
    ),
    "classic": CLASSIC.replace(attacker_stake_fraction=0.7, rng_seed=1),
    "classic-tail-limit": CLASSIC.replace(
        attacker_stake_fraction=0.7, rng_seed=1, tail_limit=1
    ),
    # Tails of 2, 5 and 7 slots against a budget of one: cut, as by
    # tail_limit=1, to the last tail slot.
    "classic-cap": CLASSIC.replace(
        attacker_stake_fraction=0.7, rng_seed=1, strategy_cap=1
    ),
    "classic-pareto-tail-limit": CLASSIC.replace(
        validator_count=60, balance_model="pareto:1.5",
        attacker_stake_fraction=0.6, rng_seed=5, tail_limit=2,
    ),
}

# TrialRow tuples of every grid epoch, as the two-pass sss trial and the
# per-protocol grinding loops produced them before the single kernel,
# less the dropped `distributed_slots` column.
EXPECTED_ROWS = {
    "prevented": [
        (1, 1, 0, 0, 32, 5, "prevented", 0, 0.1),
        (2, 2, 0, 0, 32, 3, "prevented", 0, 0.1),
    ],
    "broken": [
        (17, 17, 0, 0, 14, 10, "broken", 32, 0.3),
        (14, 14, 0, 0, 12, 9, "broken", 32, 0.3),
    ],
    "broken-fallback": [
        (10, 10, 0, 0, 14, 10, "broken", 32, 0.3),
        (9, 9, 0, 0, 12, 9, "broken", 32, 0.3),
    ],
    "collusion-capped": [
        (14, 8, 3, 3, 8, 8, "collusion", 3, 0.3),
        (14, 14, 3, 0, 5, 5, "collusion", 0, 0.3),
    ],
    "sss-pareto": [
        (11, 9, 4, 2, 12, 10, "prevented", 14, 0.28725996059924286),
        (15, 13, 4, 1, 17, 16, "collusion", 1, 0.3948572748626346),
        (14, 4, 4, 2, 19, 13, "collusion", 2, 0.2599316483120623),
    ],
    "classic": [
        (26, 26, 2, 0, 32, 26, "", 0, 0.7),
        (28, 24, 5, 4, 32, 25, "", 0, 0.7),
        (27, 24, 7, 4, 32, 24, "", 0, 0.7),
    ],
    "classic-tail-limit": [
        (26, 26, 1, 0, 32, 26, "", 0, 0.7),
        (24, 24, 1, 0, 32, 25, "", 0, 0.7),
        (24, 24, 1, 0, 32, 24, "", 0, 0.7),
    ],
    "classic-pareto-tail-limit": [
        (21, 21, 2, 0, 32, 19, "", 0, 0.607441603936727),
        (26, 23, 2, 1, 32, 26, "", 0, 0.7492317256831594),
        (23, 15, 2, 2, 32, 24, "", 0, 0.6214699496221436),
    ],
}
EXPECTED_ROWS["classic-cap"] = EXPECTED_ROWS["classic-tail-limit"]


def _all_trials(protocol):
    return [
        (name, cfg, index)
        for name, cfg in GRID.items()
        if cfg.protocol == protocol
        for index in range(cfg.epochs)
    ]


@pytest.mark.parametrize("name", GRID)
def test_trial_rows_unchanged(name):
    cfg = GRID[name]
    trial = sss_trial if cfg.protocol == "sss" else classic_trial
    rows = [tuple(trial(cfg, index)) for index in range(cfg.epochs)]
    assert rows == EXPECTED_ROWS[name]


def test_classic_mask_payoffs_match_evaluate_strategy():
    cut_tails = 0
    for _, cfg, index in _all_trials("classic"):
        detail = classic_trial_detail(cfg, index)
        full = tail_decision_slots(detail.state, detail.profile)
        width = len(detail.decision_slots)
        assert width == min(
            len(full), strategy_budget(cfg.strategy_cap, cfg.tail_limit)
        )
        assert detail.decision_slots == full[len(full) - width:]
        cut_tails += width < len(full)
        oracle = [
            evaluate_strategy(
                detail.state, Strategy(mask, width), detail.profile,
                detail.registry,
            )
            for mask in range(1 << width)
        ]
        fast = mask_payoffs(
            *grind_inputs(detail.state.posted, detail.decision_slots),
            index, detail.registry, detail.profile.controlled,
        )
        assert list(fast) == oracle
        assert detail.outcome.honest_payoff == oracle[0]
        assert detail.outcome.payoff == max(oracle)
        assert detail.outcome.chosen.withhold_mask == oracle.index(
            max(oracle)
        )
    assert cut_tails >= 1


def test_cut_tail_outcome_is_the_argmax_of_evaluate_strategy():
    # strategy_cap=1 cuts each epoch's tail to its last slot; the
    # strategy is scored over that slot, the one the trial grinds.
    cfg = ScenarioConfig(
        validator_count=40, attacker_stake_fraction=0.7, rng_seed=1,
        strategy_cap=1, epochs=3,
    )
    tails = []
    for index in range(cfg.epochs):
        detail = classic_trial_detail(cfg, index)
        tails.append(len(tail_decision_slots(detail.state, detail.profile)))
        width = detail.outcome.chosen.width
        payoffs = [
            evaluate_strategy(
                detail.state, Strategy(mask, width), detail.profile,
                detail.registry,
            )
            for mask in range(1 << width)
        ]
        assert detail.outcome.chosen.withhold_mask == payoffs.index(
            max(payoffs)
        )
        assert detail.outcome.payoff == max(payoffs)
    assert tails == [2, 5, 7]


def test_sss_trial_matches_reveal_phase_oracle():
    cases = set()
    capped = 0
    for _, cfg, index in _all_trials("sss"):
        detail = sss_trial_detail(cfg, index)
        sss_cfg = SssConfig(cfg.sss_threshold_n, SHARES_PER_SECRET)
        cases.add(detail.row.case_label)
        _, flips = mask0_recovery(detail.observed, sss_cfg)
        flippable = set(flips)
        assert detail.flip_slots == sorted(flippable)[: cfg.strategy_cap]
        capped += len(flippable) > cfg.strategy_cap
        width = len(detail.flip_slots)
        oracle = [
            evaluate_flip_strategy(
                detail.observed, detail.profile, sss_cfg, detail.registry,
                Strategy(mask, width), detail.flip_slots,
            )
            for mask in range(1 << width)
        ]
        fast = mask_payoffs(
            *grind_inputs(detail.mask0_reveals, detail.flip_slots),
            index, detail.registry, detail.profile.controlled,
        )
        assert list(fast) == oracle
        assert detail.outcome.chosen.withhold_mask == oracle.index(
            max(oracle)
        )

        expected = recover_all(
            apply_flip_strategy(
                detail.observed, sss_cfg, detail.outcome.chosen,
                detail.flip_slots,
            ),
            sss_cfg,
        )
        assert detail.per_slot == expected
        n = cfg.sss_threshold_n
        assert (detail.row.case_label == "broken") == (detail.observed.t < n)
    assert cases == {"prevented", "broken", "collusion"}
    assert capped >= 1


# Grid entries whose every epoch has a decision set wider than its cap.
OVER_CAP = ("collusion-capped", "sss-pareto", "classic-cap")


@pytest.mark.parametrize("name", OVER_CAP)
def test_library_grinders_cut_as_the_trials_do(name):
    # best_strategy and best_flip_strategy take the trial's budget and
    # grind the same cut decision set instead of failing.
    cfg = GRID[name]
    for index in range(cfg.epochs):
        if cfg.protocol == "sss":
            detail = sss_trial_detail(cfg, index)
            sss_cfg = SssConfig(cfg.sss_threshold_n, SHARES_PER_SECRET)
            _, full = mask0_recovery(detail.observed, sss_cfg)
            outcome = best_flip_strategy(
                detail.observed, detail.profile, sss_cfg, detail.registry,
                cap=cfg.strategy_cap,
            )
        else:
            detail = classic_trial_detail(cfg, index)
            full = tail_decision_slots(detail.state, detail.profile)
            outcome = best_strategy(
                detail.state, detail.profile, detail.registry,
                cap=strategy_budget(cfg.strategy_cap, cfg.tail_limit),
            )
        assert len(full) > cfg.strategy_cap == outcome.chosen.width
        assert outcome == detail.outcome


def _grind_matches_full_scan(grind_args):
    """grind against the argmax of every mask counted in full: first
    argmax, its count, and mask 0's count."""
    payoffs = list(mask_payoffs(*grind_args))
    outcome = grind(*grind_args)
    best = max(payoffs)
    assert outcome.chosen == Strategy(payoffs.index(best), len(grind_args[1]))
    assert outcome.payoff == best
    assert outcome.honest_payoff == payoffs[0]
    return payoffs


# Grinder inputs with no pinned rows: the benchmark's sss-partial shape,
# 200 pareto validators whose selection rejects about 9 draws in 10;
# both epochs grind 2^8 masks, one prevented and one collusion.  And
# sss-collusion's shape on 40 validators: epoch 0's 12 flip slots have 9
# proposers (validator 17 holds three, validator 22 two), so grind
# scores 2^9 masks and puts the winner's bits back on 12.
GRIND_ONLY = {
    "sss-partial": SSS.replace(
        validator_count=200, balance_model="pareto:1.5", sss_threshold_n=12,
        attacker_stake_fraction=0.25, participation_rate=0.3,
        strategy_cap=8, rng_seed=1,
    ),
    "sss-collusion": SSS.replace(
        sss_threshold_n=4, participation_rate=0.1, strategy_cap=12,
        rng_seed=0, epochs=1,
    ),
}


@pytest.mark.parametrize("name", [*GRID, *GRIND_ONLY])
def test_grind_matches_mask_payoffs(name):
    cfg = GRID.get(name) or GRIND_ONLY[name]
    repeated = False
    for index in range(cfg.epochs):
        if cfg.protocol == "sss":
            detail = sss_trial_detail(cfg, index)
            inputs = grind_inputs(detail.mask0_reveals, detail.flip_slots)
        else:
            detail = classic_trial_detail(cfg, index)
            inputs = grind_inputs(detail.state.posted, detail.decision_slots)
        repeated |= len(set(inputs[1])) < len(inputs[1])
        _grind_matches_full_scan(
            (*inputs, index, detail.registry, detail.profile.controlled)
        )
    # The collusion cell keeps a repeated reveal on the grinder's path.
    assert repeated or name != "sss-collusion"


def _tie_registry(count):
    """`count` full-balance validators, every other one controlled."""
    keys = b"".join(sha256(b"rep%d" % i).digest() for i in range(count))
    registry = Registry(keys, [MAX_EFFECTIVE_BALANCE] * count)
    return registry, frozenset(range(0, count, 2))


# Toggles drawn from at most three values, so most lists repeat one and
# grind scores fewer masks than the full scan.
@settings(max_examples=80, deadline=None)
@given(
    pool=st.lists(st.integers(0, 2**256 - 1), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), max_size=7),
    base_mix=st.integers(0, 2**256 - 1),
    epoch=st.integers(0, 2**20),
)
def test_grind_matches_mask_payoffs_on_repeated_toggles(
    pool, picks, base_mix, epoch
):
    toggles = [pool[i % len(pool)] for i in picks]
    registry, controlled = _tie_registry(4)
    _grind_matches_full_scan(
        (base_mix, toggles, epoch, registry, controlled)
    )


A, B, C = (int.from_bytes(sha256(b"toggle%d" % i).digest(), "big")
           for i in range(3))


@pytest.mark.parametrize(
    "toggles",
    [[A, 0, B, 0], [A, B, A ^ B], [A, B, C, A ^ B, A], [A, A, B, C, C],
     [A, B, C, A]],
    ids=["zero", "dependent-triple", "dependent-and-repeat", "repeated-ends",
         "first-repeats-last"],
)
def test_grind_matches_mask_payoffs_on_fixed_repeats(toggles):
    # A dependent triple has three distinct toggles: its masks {A, B}
    # and {A ^ B} give one mix, yet neither toggle is collapsed.
    registry, controlled = _tie_registry(6)
    for epoch in range(8):
        _grind_matches_full_scan(
            (epoch, toggles, epoch, registry, controlled)
        )


# Two to four validators, about half of them controlled: most masks tie
# with another, so the tie rule and the pruning floor are exercised.
@settings(max_examples=80, deadline=None)
@given(
    balances=st.lists(
        st.integers(MAX_EFFECTIVE_BALANCE // 4, MAX_EFFECTIVE_BALANCE),
        min_size=2, max_size=4,
    ),
    base_mix=st.integers(0, 2**256 - 1),
    toggles=st.lists(st.integers(0, 2**256 - 1), max_size=6),
    epoch=st.integers(0, 2**20),
)
def test_grind_matches_mask_payoffs_on_tie_heavy_registries(
    balances, base_mix, toggles, epoch
):
    count = len(balances)
    keys = b"".join(sha256(b"tie%d" % i).digest() for i in range(count))
    registry = Registry(keys, balances)
    controlled = frozenset(range(0, len(registry), 2))
    _grind_matches_full_scan(
        (base_mix, toggles, epoch, registry, controlled)
    )


def test_grind_raises_on_a_starved_registry():
    # Every balance below MAX/256: no candidate is ever accepted.
    keys = b"".join(sha256(b"s%d" % i).digest() for i in range(3))
    registry = Registry(keys, [MAX_EFFECTIVE_BALANCE // 256 - 1] * 3)
    with pytest.raises(SelectionError):
        grind(7, [1, 2], 0, registry, frozenset({0}))


@pytest.mark.parametrize(
    "balance_model",
    ["pareto:1.5", "explicit:" + ",".join(
        str(MAX_EFFECTIVE_BALANCE // d) for d in (1, 2, 3, 5, 8, 13, 200) * 4
    )],
    ids=["pareto", "explicit"],
)
def test_registry_and_validator_list_select_and_grind_alike(balance_model):
    cfg = ScenarioConfig(
        validator_count=28, balance_model=balance_model, epochs=1
    )
    registry = build_registry(cfg, trial_rng(6, 0))
    validators = list(registry)
    assert isinstance(registry, Registry)
    rebuilt = Registry(
        b"".join(v.secret_key for v in validators),
        [v.effective_balance for v in validators],
    )
    assert type(validators) is list
    assert rebuilt.keys == registry.keys
    assert rebuilt.balances == registry.balances
    assert [v.index for v in validators] == list(range(len(registry)))
    controlled = frozenset(range(0, len(registry), 3))
    toggles = [int.from_bytes(sha256(b"t%d" % i).digest(), "big")
               for i in range(4)]
    for epoch in range(3):
        seed = sha256(b"r%d" % epoch).digest()
        assert select_proposers(seed, registry) == select_proposers(
            seed, rebuilt
        )
        args = (int.from_bytes(seed, "big"), toggles, epoch)
        assert grind(*args, registry, controlled) == grind(
            *args, rebuilt, controlled
        )
        assert list(mask_payoffs(*args, registry, controlled)) == list(
            mask_payoffs(*args, rebuilt, controlled)
        )
