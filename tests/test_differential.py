"""The grinding kernel and the one-pass sss trial against the slow
reveal-phase oracle, field by field, on a small grid that covers the
three security cases, a flip set cut at the cap, the broken-seed
fallback, pareto balances and classic runs with a tail_limit."""

import pytest

from randaolab.adversary import (
    Strategy,
    evaluate_strategy,
    grind_inputs,
    mask_payoffs,
    tail_decision_slots,
)
from randaolab.harness import (
    classic_trial,
    classic_trial_detail,
    sss_trial,
    sss_trial_detail,
)
from randaolab.scenario import ScenarioConfig
from randaolab.shamir import SssConfig
from randaolab.threshold_randao import (
    SHARES_PER_SECRET,
    adversary_flip_set,
    apply_flip_strategy,
    evaluate_flip_strategy,
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
    "classic-pareto-tail-limit": CLASSIC.replace(
        validator_count=60, balance_model="pareto:1.5",
        attacker_stake_fraction=0.6, rng_seed=5, tail_limit=2,
    ),
}

# TrialRow tuples of every grid epoch, as the two-pass sss trial and the
# per-protocol grinding loops produced them before the single kernel.
EXPECTED_ROWS = {
    "prevented": [
        (1, 1, 0, 0, 32, 5, "prevented", 0, 32, 0.1),
        (2, 2, 0, 0, 32, 3, "prevented", 0, 32, 0.1),
    ],
    "broken": [
        (17, 17, 0, 0, 14, 10, "broken", 32, 32, 0.3),
        (14, 14, 0, 0, 12, 9, "broken", 32, 32, 0.3),
    ],
    "broken-fallback": [
        (10, 10, 0, 0, 14, 10, "broken", 32, 32, 0.3),
        (9, 9, 0, 0, 12, 9, "broken", 32, 32, 0.3),
    ],
    "collusion-capped": [
        (14, 8, 3, 3, 8, 8, "collusion", 3, 32, 0.3),
        (14, 14, 3, 0, 5, 5, "collusion", 0, 32, 0.3),
    ],
    "sss-pareto": [
        (11, 9, 4, 2, 12, 10, "prevented", 14, 32, 0.28725996059924286),
        (15, 13, 4, 1, 17, 16, "collusion", 1, 32, 0.3948572748626346),
        (14, 4, 4, 2, 19, 13, "collusion", 2, 32, 0.2599316483120623),
    ],
    "classic": [
        (26, 26, 2, 0, 32, 26, "", 0, 0, 0.7),
        (28, 24, 5, 4, 32, 25, "", 0, 0, 0.7),
        (27, 24, 7, 4, 32, 24, "", 0, 0, 0.7),
    ],
    "classic-tail-limit": [
        (26, 26, 1, 0, 32, 26, "", 0, 0, 0.7),
        (24, 24, 1, 0, 32, 25, "", 0, 0, 0.7),
        (24, 24, 1, 0, 32, 24, "", 0, 0, 0.7),
    ],
    "classic-pareto-tail-limit": [
        (21, 21, 2, 0, 32, 19, "", 0, 0, 0.607441603936727),
        (26, 23, 2, 1, 32, 26, "", 0, 0, 0.7492317256831594),
        (23, 15, 2, 2, 32, 24, "", 0, 0, 0.6214699496221436),
    ],
}


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
        assert detail.decision_slots == full[len(full) - width:]
        cut_tails += width < len(full)
        # A mask over the last `width` tail slots is the same mask
        # shifted past the slots the tail_limit leaves out.
        shift = len(full) - width
        oracle = [
            evaluate_strategy(
                detail.state, Strategy(mask << shift, len(full)),
                detail.profile, detail.registry,
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


def test_sss_trial_matches_reveal_phase_oracle():
    cases = set()
    capped = 0
    for _, cfg, index in _all_trials("sss"):
        detail = sss_trial_detail(cfg, index)
        sss_cfg = SssConfig(cfg.sss_threshold_n, SHARES_PER_SECRET)
        cases.add(detail.case.value)
        flippable = adversary_flip_set(
            detail.observed, detail.profile, sss_cfg
        )
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
                detail.observed, detail.profile, sss_cfg,
                detail.outcome.chosen, detail.flip_slots,
            ),
            sss_cfg,
        )
        assert detail.recovery.per_slot == expected.per_slot
        assert detail.recovery.mix == expected.mix
        assert detail.recovery.seed == expected.seed
        assert detail.recovery.broken == expected.broken
    assert cases == {"prevented", "broken", "collusion"}
    assert capped >= 1
