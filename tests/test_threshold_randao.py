"""Threshold-shared reveals: distribution fan-out, reveal phase with a
rushing adversary, recovery, the (t, h, n) classifier, flip sets, and
the suppression-strategy grind against a full brute-force oracle."""

import random
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.adversary import AttackerProfile, Strategy
from randaolab.field import FIELD_256, SharePoint
from randaolab.randao import (
    MAX_EFFECTIVE_BALANCE,
    EpochState,
    Registry,
    compute_reveal,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from randaolab.shamir import SssConfig, recover, split_element
from randaolab.threshold_randao import (
    apply_flip_strategy,
    best_flip_strategy,
    classify_security_case,
    distribute_shares,
    evaluate_flip_strategy,
    mask0_recovery,
    recover_all,
    run_reveal_phase,
)


def make_registry(count):
    keys = b"".join(
        sha256(b"tr" + i.to_bytes(4, "big")).digest() for i in range(count)
    )
    return Registry(keys, [MAX_EFFECTIVE_BALANCE] * count)


REGISTRY32 = make_registry(32)
IDENTITY = tuple(range(32))  # slot s proposed by validator s
REVEALS = [compute_reveal(REGISTRY32[s], 0) for s in range(32)]


def full_shares(cfg, rng=None, reveals=None):
    rng = rng or random.Random(0)
    reveals = reveals or REVEALS
    return [distribute_shares(r, cfg, rng) for r in reveals]


def holder_slot(origin, x):
    # The seal rule: origin o's shares go to the other 31 slots in
    # ascending order at x = 1..31.
    return x - 1 if x <= origin else x


def phase(
    shares,
    honest,
    adversary=(),
    proposers=IDENTITY,
    epoch=0,
):
    return run_reveal_phase(
        shares,
        honest,
        adversary_participants=adversary,
        proposer_by_slot=proposers,
        epoch=epoch,
    )


# -- distribution -----------------------------------------------------------

def test_distribute_fans_out_to_all_other_slots():
    cfg = SssConfig(16, 31)
    points = distribute_shares(REVEALS[5], cfg, random.Random(1))
    assert [p.x for p in points] == list(range(1, 32))
    assert sorted(holder_slot(5, p.x) for p in points) == [
        s for s in range(32) if s != 5
    ]


def test_distribute_requires_m_31_and_full_schedule():
    with pytest.raises(ValueError):
        distribute_shares(REVEALS[0], SssConfig(4, 30), random.Random(1))
    # The schedule, which names each share's holder, is checked where
    # the shares are read: a 31-slot schedule leaves one slot unheld.
    shares = full_shares(SssConfig(4, 31))
    with pytest.raises(ValueError, match="one proposer per slot"):
        phase(shares, set(range(32)), proposers=IDENTITY[:31])


def test_distributed_shares_recover_reveal():
    cfg = SssConfig(7, 31)
    points = distribute_shares(REVEALS[9], cfg, random.Random(2))
    subset = random.Random(3).sample(points, 7)
    assert recover(subset, cfg) == REVEALS[9]


def test_duplicate_proposer_receives_distinct_indices():
    # Validator 7 proposes slots 0..15 and holds one share of origin
    # 16 per slot, each at its own x, and broadcasts all 16.
    proposers = tuple([7] * 16 + [9] * 16)
    cfg = SssConfig(4, 31)
    state = phase(full_shares(cfg), {7}, proposers=proposers)
    assert [p.x for p in state.broadcast[16]] == list(range(1, 17))
    # Origin 0 sends to slots 1..15 only: 15 shares at distinct x.
    assert [p.x for p in state.broadcast[0]] == list(range(1, 16))


# -- reveal phase -----------------------------------------------------------

def test_full_honest_participation_floods_every_origin():
    cfg = SssConfig(16, 31)
    state = phase(full_shares(cfg), set(range(32)))
    assert state.t == 32
    assert [len(points) for points in state.broadcast] == [31] * 32
    for origin, row in enumerate(state.shares):
        assert [p.x for p in row] == list(range(1, 32))
        assert state.broadcast[origin] == row


def test_empty_participation_yields_nothing():
    cfg = SssConfig(16, 31)
    state = phase(full_shares(cfg), set())
    assert state.t == 0
    assert state.broadcast == ((),) * 32
    outcome = recover_all(state, cfg)
    assert outcome == (None,) * 32
    assert mix_reveals(outcome) == b"\x00" * 32
    assert state.t < cfg.threshold_n


def test_share_index_is_bijection_per_origin():
    # With one honest participant, the proposer of slot r, each other
    # origin broadcasts exactly the share sealed to r: x = r + 1 below
    # the origin, x = r above it, so each origin's x = 1..31 go one to
    # one to the other 31 slots.
    shares = full_shares(SssConfig(4, 31))
    for r in range(32):
        state = phase(shares, {r})
        for origin, row in enumerate(shares):
            if origin == r:
                assert state.broadcast[origin] == ()
                continue
            x = r + 1 if r < origin else r
            assert state.broadcast[origin] == (row[x - 1],)
            assert row[x - 1].x == x


def test_share_index_validation():
    cfg = SssConfig(4, 31)
    shares = full_shares(cfg)
    y = shares[0][0].y
    for x in (32, 40):
        bad = list(shares)
        bad[3] = shares[3] + [SharePoint(x, y)]
        with pytest.raises(ValueError, match="1..31"):
            phase(bad, set(range(32)))
    # A point built without its checks, at x = 0, is rejected too.
    bad = list(shares)
    bad[3] = [shares[3][0]._replace(x=0)]
    with pytest.raises(ValueError, match="1..31"):
        phase(bad, set(range(32)))
    with pytest.raises(ValueError, match="one row of shares per slot"):
        phase(shares[:31], set(range(32)))


def test_reveal_phase_rejects_overlapping_sets():
    shares = full_shares(SssConfig(4, 31))
    with pytest.raises(ValueError, match="both honest and adversarial"):
        phase(shares, {1, 2}, adversary={2, 3})


def test_reveal_phase_rejects_two_shares_at_one_origin_and_x():
    # A second split of origin 0 puts a different point at each of its
    # x; recovery could not pick between them.
    cfg = SssConfig(4, 31)
    shares = full_shares(cfg)
    shares[0] = shares[0] + distribute_shares(
        REVEALS[0], cfg, random.Random(99)
    )
    with pytest.raises(ValueError, match="ascend strictly"):
        phase(shares, set(range(32)))


def test_reveal_phase_rejects_shuffled_and_repeated_shares():
    # A row is read as distributed: x strictly ascending, so a shuffled
    # row or a repeated point is rejected, while a row with some points
    # dropped is read as is.
    shares = full_shares(SssConfig(4, 31))
    rng = random.Random(5)
    shuffled = list(shares[2])
    while [p.x for p in shuffled] == list(range(1, 32)):
        rng.shuffle(shuffled)
    thinned = shares[2][::3]
    for row in (
        shuffled,
        shares[2] + shares[2][-1:],
        thinned[:4] + thinned[3:],
        shares[2][1:2] + shares[2][:1],
    ):
        bad = list(shares)
        bad[2] = row
        with pytest.raises(ValueError, match="ascend strictly"):
            phase(bad, set(range(32)))
    kept = list(shares)
    kept[2] = thinned
    state = phase(kept, set(range(32)))
    assert state.shares[2] == tuple(thinned)
    assert state.broadcast[2] == tuple(thinned)
    assert state.released == frozenset()


def test_release_is_planned_on_the_honest_only_view():
    # Re-applying a strategy to a state that already holds the
    # adversary's release plans the same release: the plan reads only
    # the honest broadcasts, as a rushing adversary observes them.
    cfg = SssConfig(4, 31)
    state = phase(full_shares(cfg), {0, 1, 2}, adversary={31})
    profile = attacker_profile({31})
    flips = mask0_recovery(state, cfg)[1]
    for mask in (0, 0b101):
        strategy = Strategy(mask, len(flips))
        once = apply_flip_strategy(state, cfg, strategy)
        assert apply_flip_strategy(once, cfg, strategy) == once
        assert apply_flip_strategy(once, cfg, strategy, flips) == once
        # The planners ignore the release too (a cap of 8 keeps the
        # grind small).
        assert mask0_recovery(once, cfg) == mask0_recovery(state, cfg)
        assert best_flip_strategy(
            once, profile, cfg, REGISTRY32, cap=8
        ) == best_flip_strategy(state, profile, cfg, REGISTRY32, cap=8)
    topped_up = apply_flip_strategy(state, cfg, Strategy(0, len(flips)))
    # Each of origins 3..30 gets one held share on top of its three.
    assert [len(p) for p in topped_up.broadcast] == (
        [2] * 3 + [4] * 28 + [3]
    )


def test_t_counts_distributed_and_participating_slots():
    cfg = SssConfig(4, 31)
    # Slot 3 never distributes; its proposer participates anyway.
    shares = [
        [] if slot == 3 else distribute_shares(
            REVEALS[slot], cfg, random.Random(slot)
        )
        for slot in range(32)
    ]
    state = phase(shares, {1, 2, 3, 4}, adversary={9})
    # Participating slots: 1, 2, 3, 4, 9; slot 3 did not distribute.
    assert state.t == 4


def test_duplicate_proposer_t_counts_slots():
    proposers = tuple([7] * 30 + [8, 9])
    cfg = SssConfig(4, 31)
    reveals = [compute_reveal(REGISTRY32[p], 0) for p in proposers]
    shares = full_shares(cfg, reveals=reveals)
    state = phase(shares, {7, 9}, proposers=proposers)
    assert state.t == 31  # validator 7's 30 slots + validator 9's slot


# -- recovery ----------------------------------------------------------------

def test_recover_all_equals_classic_mix_under_full_honesty():
    cfg = SssConfig(16, 31)
    state = phase(full_shares(cfg), set(range(32)))
    outcome = recover_all(state, cfg)
    assert outcome == tuple(REVEALS)
    classic = EpochState(0, IDENTITY)
    for slot in range(32):
        classic.post_reveal(slot, REVEALS[slot])
    assert mix_reveals(outcome) == classic.mix
    assert state.t >= cfg.threshold_n


def test_slot_below_threshold_is_absent_from_mix():
    n = 16
    cfg = SssConfig(n, 31)
    shares = full_shares(cfg)
    # Drop enough of origin 4's shares that only n-1 remain broadcast.
    shares[4] = shares[4][31 - (n - 1):]
    state = phase(shares, set(range(32)))
    assert recover_all(state, cfg) == (*REVEALS[:4], None, *REVEALS[5:])


def corrupt_origin_state(cfg):
    shares = full_shares(cfg)
    # Origin 0 "commits" a value outside the 32-byte image; its shares
    # are mutually consistent yet cannot decode to a reveal.
    shares[0] = split_element(
        FIELD_256.element(2**256 + 5), SssConfig(2, 31), random.Random(8)
    )
    return phase(shares, set(range(32)))


def test_corrupt_origin_downgraded_to_unrecoverable():
    cfg = SssConfig(2, 31)
    outcome = recover_all(corrupt_origin_state(cfg), cfg)
    assert outcome[0] is None
    assert outcome[1] == REVEALS[1]


def test_best_flip_strategy_scores_a_corrupt_origin_as_absent():
    # Share counts take origin 0 as recovered; only recover_all decodes,
    # and the grinder scores mask 0 on the seed recover_all derives.
    cfg = SssConfig(2, 31)
    state = corrupt_origin_state(cfg)
    profile = attacker_profile(range(16))
    recovered, flips = mask0_recovery(state, cfg)
    assert recovered == frozenset(range(32)) and flips == []
    oracle = recover_all(state, cfg)
    assert oracle == (None, *REVEALS[1:])
    seed = derive_seed(mix_reveals(oracle), state.epoch)
    outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
    assert outcome.chosen == Strategy(0, 0)
    assert outcome.honest_payoff == sum(
        1 for v in select_proposers(seed, REGISTRY32) if v < 16
    )


def test_missing_distribution_marks_slot_unrecoverable():
    cfg = SssConfig(2, 31)
    shares = full_shares(cfg)
    shares[11] = []
    state = phase(shares, set(range(32)))
    outcome = recover_all(state, cfg)
    assert outcome[11] is None
    assert state.t == 31  # t only counts slots that distributed


# -- classifier ---------------------------------------------------------------

def test_classifier_frozen_cases():
    assert classify_security_case(20, 3, 16) == "prevented"
    assert classify_security_case(10, 0, 16) == "broken"
    assert classify_security_case(20, 18, 16) == "collusion"


def test_classifier_matches_condition_table_exhaustively():
    for n in (1, 4, 16, 31):
        for t in range(33):
            for h in range(t + 1):
                case = classify_security_case(t, h, n)
                if t < n:
                    assert case == "broken"
                elif h < n:
                    assert case == "prevented"
                else:
                    assert case == "collusion"


def test_classifier_domain_errors():
    with pytest.raises(ValueError):
        classify_security_case(5, 6, 4)  # h > t
    with pytest.raises(ValueError):
        classify_security_case(33, 0, 4)
    with pytest.raises(ValueError):
        classify_security_case(-1, 0, 4)
    with pytest.raises(ValueError):
        classify_security_case(5, 2, 0)


# -- flip set and suppression grind -------------------------------------------

def attacker_profile(controlled):
    # Every balance is equal, so the stake is the controlled share.
    return AttackerProfile(frozenset(controlled), len(controlled) / 32)


def test_flip_set_empty_under_full_participation():
    cfg = SssConfig(16, 31)
    controlled = {30, 31}
    honest = set(range(32)) - controlled
    state = phase(full_shares(cfg), honest, adversary=controlled)
    profile = attacker_profile(controlled)
    assert set(mask0_recovery(state, cfg)[1]) == set()


def test_flip_set_counting_edge():
    # Exactly n-1 honest shares per origin, adversary holds one more.
    n = 4
    cfg = SssConfig(n, 31)
    shares = full_shares(cfg)
    honest = {0, 1, 2}  # origins inside get n-2 honest shares, others n-1
    controlled = {31}
    state = phase(shares, honest, adversary=controlled)
    flips = set(mask0_recovery(state, cfg)[1])
    # Origins 0..2 have 2 honest shares + 1 adversary share < n: stuck.
    # Origins 3..30 have 3 honest + 1 adversary = n: flippable.
    # Origin 31 gets 3 honest shares and no adversary share (no self).
    assert flips == set(range(3, 31))


def test_an_absent_adversary_holds_nothing_to_release():
    # Validator 31 is the attacker's but not in the reveal phase: its
    # shares cannot be released, so nothing is flippable and mask 0
    # leaves the transcript as it is.
    cfg = SssConfig(4, 31)
    state = phase(full_shares(cfg), {0, 1, 2})
    profile = attacker_profile({31})
    assert mask0_recovery(state, cfg) == (frozenset(), [])
    assert apply_flip_strategy(state, cfg, Strategy(0, 0)) == state
    outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
    assert outcome.chosen == Strategy(0, 0)


def test_flip_decision_slots_order_and_budget():
    n = 4
    cfg = SssConfig(n, 31)
    state = phase(full_shares(cfg), {0, 1, 2}, adversary={31})
    profile = attacker_profile({31})
    # Origins 3..30 recover only as topped-up flip slots; 0..2 and 31
    # fall short of n even with the adversary's shares.
    recovered, flips = mask0_recovery(state, cfg)
    assert flips == list(range(3, 31))
    assert recovered == frozenset(flips)
    cut = best_flip_strategy(state, profile, cfg, REGISTRY32, max_flips=5)
    assert cut.chosen.width == 5
    with pytest.raises(ValueError):
        best_flip_strategy(state, profile, cfg, REGISTRY32, max_flips=-1)


def test_best_flip_empty_set_is_exactly_honest():
    cfg = SssConfig(16, 31)
    controlled = {30, 31}
    honest = set(range(32)) - controlled
    state = phase(full_shares(cfg), honest, adversary=controlled)
    outcome = best_flip_strategy(
        state, attacker_profile(controlled), cfg, REGISTRY32
    )
    assert outcome.chosen == Strategy(0, 0)
    assert outcome.payoff == outcome.honest_payoff


def test_best_flip_matches_bruteforce_oracle():
    # With exactly n honest participants, only their own origins land at
    # n-1 honest shares, so the flip set is those four slots; the oracle
    # replays every subset through the full reveal + recovery path.
    n = 4
    cfg = SssConfig(n, 31)
    shares = full_shares(cfg)
    controlled = {29, 30, 31}
    profile = attacker_profile(controlled)
    honest = {3, 4, 5, 6}
    state = phase(shares, honest, adversary=controlled)
    flips = mask0_recovery(state, cfg)[1]
    assert flips == [3, 4, 5, 6]
    width = len(flips)

    payoffs = [
        evaluate_flip_strategy(
            state, profile, cfg, REGISTRY32, Strategy(mask, width), flips
        )
        for mask in range(1 << width)
    ]
    outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
    assert outcome.payoff == max(payoffs)
    assert outcome.chosen.withhold_mask == payoffs.index(max(payoffs))
    assert outcome.honest_payoff == payoffs[0]
    assert outcome.payoff >= outcome.honest_payoff


def test_best_flip_cap_and_budget():
    n = 4
    cfg = SssConfig(n, 31)
    state = phase(full_shares(cfg), {0, 1, 2}, adversary={31})
    profile = attacker_profile({31})
    # The flip set is cut to its lowest min(cap, max_flips) slots, as
    # the harness cuts it, instead of failing.
    assert len(set(mask0_recovery(state, cfg)[1])) > 8
    capped = best_flip_strategy(state, profile, cfg, REGISTRY32, cap=8)
    assert capped.chosen.width == 8
    assert capped == best_flip_strategy(
        state, profile, cfg, REGISTRY32, max_flips=8
    )
    bounded = best_flip_strategy(
        state, profile, cfg, REGISTRY32, cap=8, max_flips=6
    )
    assert bounded.chosen.width == 6
    assert bounded.payoff >= bounded.honest_payoff
    with pytest.raises(ValueError, match="cap"):
        best_flip_strategy(state, profile, cfg, REGISTRY32, cap=-1)


def test_budget_truncation_releases_out_of_budget_origins():
    # With max_flips=0 the adversary grinds nothing; mask 0 must mean
    # full honest release, so every flippable origin still recovers.
    n = 4
    cfg = SssConfig(n, 31)
    state = phase(full_shares(cfg), {0, 1, 2}, adversary={31})
    profile = attacker_profile({31})
    outcome = best_flip_strategy(
        state, profile, cfg, REGISTRY32, max_flips=0
    )
    final = apply_flip_strategy(state, cfg, outcome.chosen, flip_slots=[])
    recovered = recover_all(final, cfg)
    for origin in range(3, 31):
        assert recovered[origin] == REVEALS[origin]
    honest_only = recover_all(state, cfg)
    assert all(honest_only[o] is None for o in range(3, 31))


def test_apply_flip_strategy_realizes_chosen_mask():
    n = 4
    cfg = SssConfig(n, 31)
    shares = full_shares(cfg)
    controlled = {29, 30, 31}
    profile = attacker_profile(controlled)
    state = phase(shares, {3, 4, 5, 6}, adversary=controlled)
    flips = mask0_recovery(state, cfg)[1]
    outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
    final = apply_flip_strategy(state, cfg, outcome.chosen, flips)
    recovery = recover_all(final, cfg)
    suppressed = set(outcome.chosen.withheld(flips))
    for origin in flips:
        if origin in suppressed:
            assert recovery[origin] is None
        else:
            assert recovery[origin] == REVEALS[origin]
    # Recomputing the payoff through the real path agrees.
    seed = derive_seed(mix_reveals(recovery), state.epoch)
    count = sum(
        1 for idx in select_proposers(seed, REGISTRY32) if idx in controlled
    )
    assert count == outcome.payoff


def test_share_conservation_through_attack():
    n = 4
    cfg = SssConfig(n, 31)
    shares = full_shares(cfg)
    controlled = {29, 30, 31}
    profile = attacker_profile(controlled)
    state = phase(shares, {3, 4, 5, 6}, adversary=controlled)
    outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
    final = apply_flip_strategy(state, cfg, outcome.chosen)
    distributed = {
        (origin, point)
        for origin, row in enumerate(shares)
        for point in row
    }
    assert all(
        (origin, point) in distributed
        for origin, points in enumerate(final.broadcast)
        for point in points
    )


def test_prevention_theorem_randomized():
    # Whenever every origin clears n honest shares, the flip set is
    # empty and grinding changes nothing, exactly.
    cfg = SssConfig(8, 31)
    rng = random.Random(42)
    for trial in range(5):
        controlled = set(rng.sample(range(32), 6))
        honest = set(range(32)) - controlled
        state = phase(full_shares(cfg, random.Random(trial)), honest,
                      adversary=controlled)
        profile = attacker_profile(controlled)
        assert set(mask0_recovery(state, cfg)[1]) == set()
        outcome = best_flip_strategy(state, profile, cfg, REGISTRY32)
        assert outcome.payoff == outcome.honest_payoff
        assert outcome.chosen == Strategy(0, 0)


# -- the slot-type share-count rule --------------------------------------------

ATTACKER, PRESENT, ABSENT = "attacker", "present", "absent"


@settings(max_examples=40, deadline=None)
@given(
    types=st.lists(
        st.sampled_from([ATTACKER, PRESENT, ABSENT]), min_size=12,
        max_size=12,
    ),
    proposers=st.lists(st.integers(0, 11), min_size=32, max_size=32),
    n=st.integers(1, 31),
    seed=st.integers(0, 2**32),
)
def test_share_counts_follow_the_slot_types(types, proposers, n, seed):
    # Every slot distributes.  An origin of each slot type gets t-h,
    # t-h-1 or t-h honest shares and the attacker holds h-1, h or h of
    # its shares, whatever validator proposes which slots.
    cfg = SssConfig(n, 31)
    proposers = tuple(proposers)
    reveals = [compute_reveal(REGISTRY32[v], 0) for v in proposers]
    controlled = {v for v in range(12) if types[v] == ATTACKER}
    present = {v for v in range(12) if types[v] == PRESENT}
    state = phase(
        full_shares(cfg, random.Random(seed), reveals),
        present, adversary=controlled & set(proposers),
        proposers=proposers,
    )
    profile = attacker_profile(controlled)
    slot_type = [types[v] for v in proposers]
    h = slot_type.count(ATTACKER)
    t = h + slot_type.count(PRESENT)
    assert state.t == t
    honest = {ATTACKER: t - h, PRESENT: t - h - 1, ABSENT: t - h}
    held = {ATTACKER: h - 1, PRESENT: h, ABSENT: h}

    flips, recovered = [], set()
    for origin, kind in enumerate(slot_type):
        assert len(state.broadcast[origin]) == honest[kind]
        assert sum(
            1
            for p in state.shares[origin]
            if proposers[holder_slot(origin, p.x)] in controlled
        ) == held[kind]
        if honest[kind] >= n:
            recovered.add(origin)
        elif n <= honest[kind] + held[kind]:
            flips.append(origin)
            recovered.add(origin)

    assert mask0_recovery(state, cfg) == (frozenset(recovered), flips)
    # The cryptographic path recovers the same origins, to their reveals.
    final = apply_flip_strategy(state, cfg, Strategy(0, len(flips)), flips)
    assert recover_all(final, cfg) == tuple(
        reveals[o] if o in recovered else None for o in range(32)
    )


def test_planned_release_is_valid_input_to_the_phase():
    # apply_flip_strategy is the one place a release is made, so its
    # plan is checked here against the seal rule: over random
    # schedules, participation sets and masks, each released (origin,
    # x) was distributed, is held by an adversarial proposer and tops
    # up a flip slot the strategy keeps, and the plan changes nothing
    # but the release.
    rng = random.Random(27)
    shares = {n: full_shares(SssConfig(n, 31), random.Random(n))
              for n in (4, 8, 16)}
    planned = 0
    for epoch in range(40):
        n = rng.choice(sorted(shares))
        cfg = SssConfig(n, 31)
        proposers = tuple(rng.randrange(12) for _ in range(32))
        types = [rng.choice((ATTACKER, PRESENT, ABSENT)) for _ in range(12)]
        state = phase(
            shares[n],
            {v for v in range(12) if types[v] == PRESENT},
            adversary={v for v in range(12) if types[v] == ATTACKER},
            proposers=proposers,
            epoch=epoch,
        )
        flips = mask0_recovery(state, cfg)[1]
        strategy = Strategy(rng.randrange(1 << len(flips)), len(flips))
        final = apply_flip_strategy(state, cfg, strategy, flips)
        assert state.released == frozenset()
        kept = set(flips) - set(strategy.withheld(flips))
        for origin, x in final.released:
            assert x in {p.x for p in state.shares[origin]}
            assert proposers[holder_slot(origin, x)] in state.adversarial
            assert origin in kept
        assert final._replace(released=state.released) == state
        planned += bool(final.released)
    assert planned >= 10
