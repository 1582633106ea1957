"""Beacon core: reveals and seeds against raw-hash oracles, mix
algebra, proposer selection, and the epoch ledger."""

import random
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from randaolab import randao
from randaolab.randao import (
    DOMAIN_BEACON_PROPOSER,
    DOMAIN_RANDAO,
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    EpochState,
    ProtocolError,
    Registry,
    SelectionError,
    Validator,
    compute_reveal,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from randaolab.adversary import grind
from randaolab.harness import build_registry, trial_rng
from randaolab.scenario import ScenarioConfig


def make_validator(index, seed=0, balance=MAX_EFFECTIVE_BALANCE):
    key = sha256(b"key" + bytes([index % 256]) + seed.to_bytes(4, "big"))
    return Validator(index, key.digest(), balance)


def xor_bytes(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def registry_of(validators):
    """The Registry of `validators`' keys and balances, in order."""
    return Registry(
        b"".join(v.secret_key for v in validators),
        [v.effective_balance for v in validators],
    )


def make_registry(count, balance=MAX_EFFECTIVE_BALANCE):
    return registry_of(
        [make_validator(i, balance=balance) for i in range(count)]
    )


def test_constants():
    assert SLOTS_PER_EPOCH == 32
    assert DOMAIN_RANDAO == bytes([2, 0, 0, 0])
    assert DOMAIN_BEACON_PROPOSER == bytes([0, 0, 0, 0])


def test_validator_validation():
    with pytest.raises(ValueError):
        Validator(0, b"short", 1)
    with pytest.raises(ValueError):
        Validator(0, b"\x00" * 32, 0)
    with pytest.raises(ValueError):
        Validator(0, b"\x00" * 32, MAX_EFFECTIVE_BALANCE + 1)
    with pytest.raises(ValueError):
        Validator(-1, b"\x00" * 32, 1)


# -- reveals and seeds against the raw hash ------------------------------

def test_compute_reveal_matches_hash_oracle():
    v = make_validator(3)
    epoch = 11
    expected = sha256(
        v.secret_key + epoch.to_bytes(8, "little") + b"\x02\x00\x00\x00"
    ).digest()
    assert compute_reveal(v, epoch) == expected


def test_compute_reveal_determinism_and_distinctness():
    a, b = make_validator(0), make_validator(1)
    assert compute_reveal(a, 5) == compute_reveal(a, 5)
    assert compute_reveal(a, 5) != compute_reveal(b, 5)
    assert compute_reveal(a, 5) != compute_reveal(a, 6)
    with pytest.raises(ValueError):
        compute_reveal(a, -1)


def test_registry_reveal_reads_the_key_column():
    validators = [make_validator(i) for i in range(4)]
    registry = registry_of(validators)
    for epoch in (0, 7, 2**40):
        for v in validators:
            assert registry.reveals([v.index], epoch)[0] == compute_reveal(
                v, epoch
            )
    assert registry.reveals([-1], 3)[0] == compute_reveal(validators[3], 3)
    with pytest.raises(IndexError):
        registry.reveals([4], 0)
    with pytest.raises(ValueError):
        registry.reveals([0], -1)


def test_registry_reveals_are_one_pass_of_compute_reveal():
    validators = [make_validator(i) for i in range(5)]
    registry = registry_of(validators)
    indices = (4, 0, 2, 2, -1, -5)
    for epoch in (0, 7, 2**40):
        assert registry.reveals(indices, epoch) == [
            compute_reveal(validators[i], epoch) for i in indices
        ]
    assert registry.reveals((), 3) == []
    for bad in ((0, 5), (-6,), (5, -6)):
        with pytest.raises(IndexError):
            registry.reveals(bad, 0)
    with pytest.raises(ValueError):
        registry.reveals((0, 1), -1)


def test_derive_seed_matches_hash_oracle():
    mix = sha256(b"mix").digest()
    epoch = 9
    expected = sha256(
        b"\x00\x00\x00\x00" + epoch.to_bytes(8, "little") + mix
    ).digest()
    assert derive_seed(mix, epoch) == expected


def test_derive_seed_sensitivity():
    mix = bytearray(sha256(b"m").digest())
    base = derive_seed(bytes(mix), 4)
    mix[7] ^= 1
    assert derive_seed(bytes(mix), 4) != base
    assert derive_seed(sha256(b"m").digest(), 5) != base
    with pytest.raises(ValueError):
        derive_seed(b"\x00" * 31, 4)
    with pytest.raises(ValueError):
        derive_seed(b"\x00" * 32, -1)


# -- mix algebra ----------------------------------------------------------

def test_mix_empty_and_identity():
    assert mix_reveals([None] * 32) == b"\x00" * 32
    r = sha256(b"r").digest()
    posted = [None] * 32
    posted[13] = r
    assert mix_reveals(posted) == r


def test_mix_two_known_reveals():
    a, b = sha256(b"a").digest(), sha256(b"b").digest()
    assert mix_reveals([a, b]) == xor_bytes(a, b)


def test_mix_reveals_rejects_wrong_length():
    with pytest.raises(ValueError):
        mix_reveals([b"\x00" * 31])
    with pytest.raises(ValueError):
        mix_reveals([None, b"\x00" * 32, b"\x00" * 33])


@given(data=st.data())
@settings(max_examples=30)
def test_mix_order_independent_and_withhold_delta(data):
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**32))
    rng = random.Random(rng_seed)
    posted = [
        rng.randbytes(32) if rng.random() < 0.7 else None
        for _ in range(SLOTS_PER_EPOCH)
    ]
    full = mix_reveals(posted)
    shuffled = posted[:]
    rng.shuffle(shuffled)
    assert mix_reveals(shuffled) == full
    present = [i for i, r in enumerate(posted) if r is not None]
    if present:
        k = rng.choice(present)
        without = posted[:]
        without[k] = None
        assert mix_reveals(without) == xor_bytes(full, posted[k])


# -- proposer selection ----------------------------------------------------

def test_select_single_validator():
    registry = make_registry(1)
    seed = sha256(b"s").digest()
    assert select_proposers(seed, registry) == (0,) * 32


def test_select_full_balance_matches_first_candidate_oracle():
    registry = make_registry(7)
    seed = sha256(b"seed").digest()
    expected = tuple(
        int.from_bytes(
            sha256(
                seed + s.to_bytes(8, "little") + (0).to_bytes(8, "little")
            ).digest()[:8],
            "big",
        )
        % 7
        for s in range(32)
    )
    assert select_proposers(seed, registry) == expected


def test_select_is_deterministic_and_in_range():
    registry = make_registry(13, balance=MAX_EFFECTIVE_BALANCE // 2)
    seed = sha256(b"q").digest()
    first = select_proposers(seed, registry)
    assert select_proposers(seed, registry) == first
    assert all(0 <= idx < 13 for idx in first)


def test_select_validation_and_degenerate_registry():
    with pytest.raises(ValueError):
        select_proposers(b"\x00" * 31, make_registry(2))
    with pytest.raises(ValueError):
        select_proposers(b"\x00" * 32, Registry(b"", []))
    # 1 unit of balance can never pass the acceptance test.
    starved = make_registry(3, balance=1)
    with pytest.raises(SelectionError):
        select_proposers(sha256(b"x").digest(), starved)


def test_selection_weights_by_balance():
    # One validator at half balance, one at full: acceptance odds 1:2.
    registry = registry_of([
        make_validator(0, balance=MAX_EFFECTIVE_BALANCE // 2),
        make_validator(1, balance=MAX_EFFECTIVE_BALANCE),
    ])
    counts = [0, 0]
    trials = 400
    for i in range(trials):
        for idx in select_proposers(sha256(b"w%d" % i).digest(), registry):
            counts[idx] += 1
    total = 32 * trials
    frequency = counts[1] / total
    # 3 sigma around 2/3 for a binomial with N = 12,800.
    sigma = (2 / 9 / total) ** 0.5
    assert abs(frequency - 2 / 3) <= 3 * sigma


# -- the registry as columns -----------------------------------------------

def test_registry_is_a_validated_validator_sequence():
    validators = [
        make_validator(i, balance=b)
        for i, b in enumerate(
            [1, MAX_EFFECTIVE_BALANCE // 2, MAX_EFFECTIVE_BALANCE]
        )
    ]
    registry = registry_of(validators)
    assert len(registry) == 3
    assert list(registry) == validators
    assert registry[1] == validators[1] and registry[-1] == validators[2]
    with pytest.raises(IndexError):
        registry[3]
    with pytest.raises(IndexError):
        registry[-4]
    assert registry.keys == b"".join(v.secret_key for v in validators)
    assert registry.balances == (1, MAX_EFFECTIVE_BALANCE // 2,
                                 MAX_EFFECTIVE_BALANCE)
    assert registry.limits == (0, 128, 256)
    rekeyed = registry.with_keys(bytes(96))
    assert rekeyed.balances is registry.balances
    assert rekeyed.limits is registry.limits
    assert rekeyed[0].secret_key == bytes(32)


@pytest.mark.parametrize(
    "keys, balances, message",
    [
        (b"", [], "non-empty"),
        (bytes(31), [MAX_EFFECTIVE_BALANCE], "secret key"),
        (bytes(33), [MAX_EFFECTIVE_BALANCE], "secret key"),
        (bytes(32), [MAX_EFFECTIVE_BALANCE] * 2, "secret key"),
        (bytes(64), [1, 0], "balance out of range"),
        (bytes(64), [MAX_EFFECTIVE_BALANCE + 1, 1], "balance out of range"),
    ],
    ids=["empty", "short-key", "long-key", "too-few-keys", "balance-0",
         "balance-max+1"],
)
def test_registry_rejects_bad_columns(keys, balances, message):
    with pytest.raises(ValueError, match=message):
        Registry(keys, balances)


def test_registry_with_keys_checks_their_length():
    registry = Registry(bytes(64), [1, MAX_EFFECTIVE_BALANCE])
    for keys in (bytes(32), bytes(65)):
        with pytest.raises(ValueError):
            registry.with_keys(keys)


# -- selection against the spec formula -------------------------------------

def spec_draws(seed, registry, try_limit=10_000):
    """Literal spec selection: try `counter` of a slot hashes
    seed || slot || counter and accepts candidate c when
    (digest[8] + 1) * MAX <= 256 * balance(c), within `try_limit`
    tries.  One (proposer, tries used) pair per slot in slot order,
    ending at (None, try_limit) for the first slot that accepts none."""
    out = []
    for slot in range(32):
        for counter in range(try_limit):
            digest = sha256(
                seed + slot.to_bytes(8, "little")
                + counter.to_bytes(8, "little")
            ).digest()
            candidate = int.from_bytes(digest[:8], "big") % len(registry)
            balance = registry[candidate].effective_balance
            if (digest[8] + 1) * MAX_EFFECTIVE_BALANCE <= 256 * balance:
                out.append((candidate, counter + 1))
                break
        else:
            out.append((None, try_limit))
            break
    return out


def spec_select(seed, registry, try_limit=10_000):
    """The proposers of spec_draws, in slot order; SelectionError when
    a slot accepts none."""
    proposers = tuple(
        candidate for candidate, _ in spec_draws(seed, registry, try_limit)
    )
    if None in proposers:
        raise SelectionError(f"slot {len(proposers) - 1} starved")
    return proposers


def spec_count(proposers, marked, floor=-1):
    """Marked proposers in slot order, up to and including the slot
    whose proposer is the (32 - floor)-th unmarked one."""
    count = unmarked = 0
    for candidate in proposers:
        if marked[candidate]:
            count += 1
        else:
            unmarked += 1
            if unmarked == SLOTS_PER_EPOCH - floor:
                break
    return count


UNIT = MAX_EFFECTIVE_BALANCE // 256  # the smallest selectable balance
BOUNDARY_BALANCES = sorted(
    b
    for k in (1, 2, 3, 17, 64, 128, 200, 255, 256)
    for b in (k * UNIT - 1, k * UNIT, k * UNIT + 1)
    if 1 <= b <= MAX_EFFECTIVE_BALANCE
) + [1]


def test_acceptance_limits_match_the_spec_test():
    registry = registry_of([
        make_validator(i, balance=b) for i, b in enumerate(BOUNDARY_BALANCES)
    ])
    limits = registry.limits
    for v, limit in zip(registry, limits):
        for d in range(256):
            assert (d < limit) == (
                (d + 1) * MAX_EFFECTIVE_BALANCE <= 256 * v.effective_balance
            ), (v.effective_balance, d)


def _pareto_registry(index, count=60):
    cfg = ScenarioConfig(
        validator_count=count, balance_model="pareto:1.5", epochs=1
    )
    return build_registry(cfg, trial_rng(3, index))


# A slot's tries that the selection's retry table covers; later tries
# pack their suffix.
TABLE_TRIES = randao._RETRY_TABLE_TRIES


@pytest.mark.parametrize(
    "registry, past_table",
    [
        (_pareto_registry(0), True),
        (_pareto_registry(1), True),
        # As many validators as the sss-partial benchmark workload.
        (_pareto_registry(0, count=200), True),
        (registry_of([make_validator(i, balance=b)
                      for i, b in enumerate(BOUNDARY_BALANCES)]), False),
        # One selectable validator among many that never pass.
        (registry_of([make_validator(0, balance=8 * UNIT)]
                     + [make_validator(i, balance=UNIT - 1)
                        for i in range(1, 4)]), True),
    ],
    ids=["pareto-0", "pareto-1", "pareto-200", "boundary", "one-selectable"],
)
def test_select_matches_spec_oracle(registry, past_table):
    limits = registry.limits
    marked = [index % 3 == 0 for index in range(len(registry))]
    slots_past_table = 0
    for i in range(40):
        seed = sha256(b"spec%d" % i).digest()
        draws = spec_draws(seed, registry)
        expected = tuple(candidate for candidate, _ in draws)
        slots_past_table += sum(tries > TABLE_TRIES for _, tries in draws)
        assert select_proposers(seed, registry) == expected
        assert randao._selection(seed, limits, marked, -1)[0] == spec_count(
            expected, marked
        )
    # Every case meant to reach the packed tries past the retry table
    # does, so that path is held to the spec too.
    assert (slots_past_table > 0) == past_table


# One selectable validator among four, accepted on about 1 try in 128.
RETRY_REGISTRY = registry_of([make_validator(0, balance=8 * UNIT)] + [
    make_validator(i, balance=UNIT - 1) for i in range(1, 4)
])
# A budget one try short of the 358 that slot 0 of SLOT0_SEEDS[358]
# needs, more than any other slot under that seed.
RETRY_TRIES = 357
# Seeds under which RETRY_REGISTRY's slot 0 first accepts a candidate on
# try t, for each t a budget below can stop one try short of or reach:
# both sides of the retry table's end, and 358.
SLOT0_SEEDS = {
    tries: sha256(b"retry%d" % label).digest()
    for tries, label in [(1, 306), (2, 20), (3, 174), (63, 93), (64, 82),
                         (65, 104), (66, 121), (358, 13)]
}


def test_slot0_seeds_need_their_tries():
    assert TABLE_TRIES == 64
    for tries, seed in SLOT0_SEEDS.items():
        assert spec_draws(seed, RETRY_REGISTRY)[0][1] == tries


def test_selection_gives_up_after_exactly_the_try_limit(monkeypatch):
    # A slot that accepts no candidate within the budget raises after
    # exactly that many tries, whether the budget ends inside the retry
    # table or past it; a slot that accepts on the budget's last try
    # keeps that candidate.
    registry = RETRY_REGISTRY
    limits = registry.limits
    marked = [True, False, True, False]
    for try_limit in (1, 2, TABLE_TRIES - 1, TABLE_TRIES, TABLE_TRIES + 1,
                      RETRY_TRIES, RETRY_TRIES + 1):
        monkeypatch.setattr(randao, "_SELECTION_TRY_LIMIT", try_limit)
        for seed in SLOT0_SEEDS.values():
            draws = spec_draws(seed, registry, try_limit)
            expected = tuple(candidate for candidate, _ in draws)
            if None in expected:
                message = f"slot {len(draws) - 1} after {try_limit} tries$"
                with pytest.raises(SelectionError, match=message):
                    select_proposers(seed, registry)
                with pytest.raises(SelectionError, match=message):
                    randao._selection(seed, limits, marked, -1)
            else:
                assert select_proposers(seed, registry) == expected
                assert randao._selection(seed, limits, marked, -1)[0] == (
                    spec_count(expected, marked)
                )


@pytest.fixture
def packed_suffixes(monkeypatch):
    """Every suffix the selection packs, with an empty retry table, so
    building a table row counts too."""
    packed = []
    pack = randao._TRY_SUFFIX

    def counted(slot, counter):
        packed.append((slot, counter))
        return pack(slot, counter)

    monkeypatch.setattr(randao, "_TRY_SUFFIX", counted)
    monkeypatch.setattr(
        randao, "_RETRY_SUFFIXES", [None] * SLOTS_PER_EPOCH
    )
    return packed


def test_full_balance_selection_stays_on_the_first_try(packed_suffixes):
    # Every limit is 256, so every first try is accepted: no retry
    # table row is built and no suffix is packed, by the schedule or
    # by the grinder.
    registry = registry_of([make_validator(i) for i in range(50)])
    seed = sha256(b"first").digest()
    select_proposers(seed, registry)
    toggles = [int.from_bytes(sha256(b"t%d" % i).digest(), "big")
               for i in range(6)]
    grind(5, toggles, 3, registry, frozenset(range(0, 50, 4)))
    assert packed_suffixes == []
    assert randao._RETRY_SUFFIXES == [None] * SLOTS_PER_EPOCH
    # The stand-in is the one the selection reads: a rejecting registry
    # builds table rows through it.
    select_proposers(seed, _pareto_registry(0))
    assert packed_suffixes
    built = [row for row in randao._RETRY_SUFFIXES if row is not None]
    assert built and all(len(row) == TABLE_TRIES - 1 for row in built)


def test_all_zero_limit_registry_starves_both():
    registry = registry_of(
        [make_validator(i, balance=UNIT - 1) for i in range(3)]
    )
    assert registry.limits == (0, 0, 0)
    seed = sha256(b"starved").digest()
    with pytest.raises(SelectionError):
        spec_select(seed, registry)
    with pytest.raises(SelectionError):
        select_proposers(seed, registry)
    with pytest.raises(SelectionError):
        randao._selection(seed, registry.limits, [True] * 3, -1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    balances=st.lists(
        st.integers(min_value=UNIT, max_value=MAX_EFFECTIVE_BALANCE),
        min_size=1, max_size=8,
    ),
    marks=st.lists(st.booleans(), min_size=8, max_size=8),
    floor=st.integers(min_value=-1, max_value=SLOTS_PER_EPOCH + 1),
)
def test_count_selected_is_exact_above_its_floor(seed, balances, marks, floor):
    registry = registry_of(
        [make_validator(i, balance=b) for i, b in enumerate(balances)]
    )
    marked = marks[: len(registry)]
    exact = sum(1 for c in select_proposers(seed, registry) if marked[c])
    limits = registry.limits
    got = randao._selection(seed, limits, marked, floor)[0]
    if exact > floor:
        assert got == exact
    else:
        assert got <= floor


@pytest.mark.parametrize(
    "registry",
    [
        _pareto_registry(0),
        registry_of([make_validator(i, balance=b)
                     for i, b in enumerate(BOUNDARY_BALANCES)]),
    ],
    ids=["pareto-0", "boundary"],
)
def test_count_selected_stops_where_the_floor_is_out_of_reach(registry):
    # At or below its floor, the count stops at the slot that brings the
    # unmarked proposers to 32 - floor; above it, every slot counts.
    limits = registry.limits
    marked = [index % 3 == 0 for index in range(len(registry))]
    cut_short = 0
    for i in range(20):
        seed = sha256(b"floor%d" % i).digest()
        proposers = spec_select(seed, registry)
        exact = spec_count(proposers, marked)
        for floor in range(-1, SLOTS_PER_EPOCH):
            expected = spec_count(proposers, marked, floor)
            got = randao._selection(seed, limits, marked, floor)[0]
            assert got == expected
            cut_short += expected < exact
    assert cut_short >= 100


# -- epoch state ------------------------------------------------------------

def test_epoch_state_mix_invariant_and_single_post():
    state = EpochState(0, (0,) * 32)
    r1, r2 = sha256(b"1").digest(), sha256(b"2").digest()
    state.post_reveal(4, r1)
    state.post_reveal(9, r2)
    assert mix_reveals(state.posted) == xor_bytes(r1, r2)
    with pytest.raises(ProtocolError):
        state.post_reveal(4, r1)
    with pytest.raises(ValueError):
        state.post_reveal(32, r1)
    with pytest.raises(ValueError):
        state.post_reveal(5, b"\x00" * 31)


def test_epoch_state_validation():
    with pytest.raises(ValueError):
        EpochState(0, (0,) * 31)
    with pytest.raises(ValueError):
        EpochState(-1, (0,) * 32)


# -- mix to epoch+2 schedule ------------------------------------------------

def test_pipeline_mix_change_changes_proposers():
    # Over random reveal sets, flipping the epoch-0 mix reshuffles the
    # epoch-2 schedule essentially always.
    registry = make_registry(50)
    changed = 0
    trials = 25
    for i in range(trials):
        rng = random.Random(i)
        e0 = EpochState(0, (0,) * 32)
        for slot in range(SLOTS_PER_EPOCH):
            e0.post_reveal(slot, rng.randbytes(32))
        mix = mix_reveals(e0.posted)
        baseline = select_proposers(derive_seed(mix, 0), registry)
        flipped_mix = xor_bytes(mix, b"\x01" + b"\x00" * 31)
        flipped = select_proposers(derive_seed(flipped_mix, 0), registry)
        if flipped != baseline:
            changed += 1
    assert changed == trials
