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
    # Equal columns, equal registries; one key or balance apart, not.
    assert registry == Registry(registry.keys, list(registry.balances))
    assert registry != Registry(bytes(96), registry.balances)
    assert registry != Registry(registry.keys, (2,) + registry.balances[1:])
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

def spec_select(seed, registry, try_limit=10_000):
    """Literal spec selection: try `counter` of a slot hashes
    seed || slot || counter and accepts candidate c when
    (digest[8] + 1) * MAX <= 256 * balance(c), within `try_limit`
    tries."""
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
                out.append(candidate)
                break
        else:
            raise SelectionError(f"slot {slot} starved")
    return tuple(out)


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


def _pareto_registry(index):
    cfg = ScenarioConfig(
        validator_count=60, balance_model="pareto:1.5", epochs=1
    )
    return build_registry(cfg, trial_rng(3, index))


@pytest.mark.parametrize(
    "registry",
    [
        _pareto_registry(0),
        _pareto_registry(1),
        registry_of([make_validator(i, balance=b)
                     for i, b in enumerate(BOUNDARY_BALANCES)]),
        # One selectable validator among many that never pass.
        registry_of([make_validator(0, balance=8 * UNIT)]
                    + [make_validator(i, balance=UNIT - 1)
                       for i in range(1, 4)]),
    ],
    ids=["pareto-0", "pareto-1", "boundary", "one-selectable"],
)
def test_select_matches_spec_oracle(registry):
    limits = registry.limits
    marked = [index % 3 == 0 for index in range(len(registry))]
    for i in range(40):
        seed = sha256(b"spec%d" % i).digest()
        expected = spec_select(seed, registry)
        assert select_proposers(seed, registry) == expected
        assert randao._selection(seed, limits, marked, -1)[0] == spec_count(
            expected, marked
        )


# One selectable validator among four, accepted on about 1 try in 128.
# Under this seed slot 0 needs more tries than any other slot: its
# candidate is first accepted on try RETRY_TRIES + 1.
RETRY_REGISTRY = registry_of([make_validator(0, balance=8 * UNIT)] + [
    make_validator(i, balance=UNIT - 1) for i in range(1, 4)
])
RETRY_SEED = sha256(b"retry13").digest()
RETRY_TRIES = 357


def test_selection_gives_up_after_exactly_the_try_limit(monkeypatch):
    registry, seed, k = RETRY_REGISTRY, RETRY_SEED, RETRY_TRIES
    with pytest.raises(SelectionError, match="slot 0 "):
        spec_select(seed, registry, try_limit=k)
    expected = spec_select(seed, registry, try_limit=k + 1)
    limits = registry.limits
    marked = [True, False, True, False]
    monkeypatch.setattr(randao, "_SELECTION_TRY_LIMIT", k)
    with pytest.raises(SelectionError, match=f"slot 0 after {k} tries"):
        select_proposers(seed, registry)
    with pytest.raises(SelectionError, match=f"slot 0 after {k} tries"):
        randao._selection(seed, limits, marked, -1)
    monkeypatch.setattr(randao, "_SELECTION_TRY_LIMIT", k + 1)
    assert select_proposers(seed, registry) == expected
    assert randao._selection(seed, limits, marked, -1)[0] == spec_count(
        expected, marked
    )


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
    assert state.mix == xor_bytes(r1, r2)
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
        baseline = select_proposers(derive_seed(e0.mix, 0), registry)
        flipped_mix = xor_bytes(e0.mix, b"\x01" + b"\x00" * 31)
        flipped = select_proposers(derive_seed(flipped_mix, 0), registry)
        if flipped != baseline:
            changed += 1
    assert changed == trials
