"""Last-revealer attack: tail decision slots, the 2^h withhold strategy
space, and grinding for the mask that maximizes attacker proposer slots
two epochs later.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .randao import (
    SLOTS_PER_EPOCH,
    EpochState,
    Registry,
    _seed_hasher,
    _selection,
    derive_seed,
    mix_reveals,
    select_proposers,
)

DEFAULT_STRATEGY_CAP = 20


class _AttackerProfileFields(NamedTuple):
    controlled: frozenset[int]
    stake_fraction: float


class AttackerProfile(_AttackerProfileFields):
    """Validators under one coordinating adversary."""

    __slots__ = ()

    def __new__(
        cls, controlled: frozenset[int], stake_fraction: float
    ) -> "AttackerProfile":
        if not 0.0 <= stake_fraction <= 1.0:
            raise ValueError("stake fraction must be in [0, 1]")
        return super().__new__(cls, controlled, stake_fraction)


class _StrategyFields(NamedTuple):
    withhold_mask: int
    width: int


class Strategy(_StrategyFields):
    """Withhold mask over an ordered list of decision slots.

    Bit i (LSB first) set means the i-th decision slot pretends to be
    absent; the all-zeros mask is honest behavior.
    """

    __slots__ = ()

    def __new__(cls, withhold_mask: int, width: int) -> "Strategy":
        if width < 0:
            raise ValueError("width must be >= 0")
        if not 0 <= withhold_mask < (1 << width):
            raise ValueError("mask wider than the decision slot list")
        return super().__new__(cls, withhold_mask, width)

    @property
    def withheld_count(self) -> int:
        return self.withhold_mask.bit_count()

    def withheld(self, decision_slots: Sequence[int]) -> list[int]:
        if len(decision_slots) != self.width:
            raise ValueError("decision slot list does not match width")
        return [
            s
            for i, s in enumerate(decision_slots)
            if self.withhold_mask >> i & 1
        ]


class _AttackOutcomeFields(NamedTuple):
    chosen: Strategy
    payoff: int
    honest_payoff: int


class AttackOutcome(_AttackOutcomeFields):
    """The chosen strategy, its payoff and honest play's payoff."""

    __slots__ = ()

    def __new__(
        cls, chosen: Strategy, payoff: int, honest_payoff: int
    ) -> "AttackOutcome":
        if payoff < honest_payoff:
            raise ValueError("chosen payoff below the honest baseline")
        return super().__new__(cls, chosen, payoff, honest_payoff)


def tail_decision_slots(
    epoch: EpochState,
    attacker: AttackerProfile,
    tail_limit: Optional[int] = None,
) -> list[int]:
    """Maximal suffix of slots whose proposers are all attacker-controlled.

    Only the tail is grindable: by the time those slots arrive, every
    earlier reveal is public, so the attacker can evaluate each of its
    2^h withhold patterns against the final mix.  tail_limit keeps only
    the last `tail_limit` of those slots (a weaker adversary used in
    budget sweeps); None means the full tail.
    """
    if tail_limit is not None and tail_limit < 0:
        raise ValueError("tail_limit must be >= 0")
    proposers, controlled = epoch.proposer_by_slot, attacker.controlled
    slots: list[int] = []
    for slot in range(SLOTS_PER_EPOCH - 1, -1, -1):
        if proposers[slot] not in controlled:
            break
        slots.append(slot)
    slots = slots[:tail_limit]
    slots.reverse()
    return slots


def evaluate_strategy(
    epoch: EpochState,
    strategy: Strategy,
    attacker: AttackerProfile,
    registry: Registry,
) -> int:
    """Attacker proposer slots two epochs later if `strategy` is played.

    The mask applies to the last `strategy.width` tail decision slots,
    the slots best_strategy grinds under that budget; every other
    posted reveal stays as posted.
    """
    decision_slots = tail_decision_slots(epoch, attacker, strategy.width)
    if strategy.width > len(decision_slots):
        raise ValueError(
            f"strategy width {strategy.width} exceeds "
            f"h={len(decision_slots)}"
        )
    withheld = set(strategy.withheld(decision_slots))
    for slot in decision_slots:
        if epoch.posted[slot] is None:
            raise ValueError(
                f"decision slot {slot} has no posted reveal to withhold"
            )
    mix = b"\x00" * 32
    for slot, reveal in enumerate(epoch.posted):
        if reveal is not None and slot not in withheld:
            mix = bytes(a ^ b for a, b in zip(mix, reveal))
    seed = derive_seed(mix, epoch.epoch)
    return sum(
        1
        for idx in select_proposers(seed, registry)
        if idx in attacker.controlled
    )


def grind_inputs(
    reveals: Sequence[Optional[bytes]], slots: Sequence[int]
) -> tuple[int, list[int]]:
    """The XOR of every present reveal, and the reveals of `slots`: the
    base mix and the toggles of mask_payoffs."""
    base_mix = int.from_bytes(mix_reveals(reveals), "big")
    for slot in slots:
        if reveals[slot] is None:
            raise ValueError(f"decision slot {slot} has no reveal to toggle")
    return base_mix, [int.from_bytes(reveals[s], "big") for s in slots]


def _mask_seeds(
    base_mix: int, toggles: Sequence[int], epoch: int
) -> Iterator[bytes]:
    """The epoch+2 selection seed of every mask over `toggles`, in
    ascending mask order.

    Bit i of a mask XORs toggles[i] into base_mix, so mask 0 is honest
    play.  Going from mask - 1 to mask flips the lowest set bit of mask
    and every bit below it: one XOR with a prefix fold of the toggles.
    Each seed is derive_seed(mix, epoch), hashed onto one copy of the
    epoch's seed prefix.
    """
    prefix = []
    fold = 0
    for toggle in toggles:
        fold ^= toggle
        prefix.append(fold)
    fresh = _seed_hasher(epoch).copy
    mix = base_mix
    for mask in range(1 << len(toggles)):
        if mask:
            mix ^= prefix[(mask & -mask).bit_length() - 1]
        hasher = fresh()
        hasher.update(mix.to_bytes(32, "big"))
        yield hasher.digest()


@lru_cache(maxsize=16)
def _controlled_flags(controlled: frozenset[int], count: int) -> bytes:
    """One flag per validator index below `count`: 1 if controlled.
    A scenario's trials share one attacker set, so they share these."""
    return bytes(index in controlled for index in range(count))


def _selection_tables(
    registry: Registry, controlled: frozenset[int]
) -> tuple[Sequence[int], bytes]:
    """What _selection needs of the registry to count the attacker's
    proposers: its acceptance limits and a controlled flag per index.
    A Registry is non-empty and the flags are as many as its limits,
    and _mask_seeds gives 32-byte seeds, so the grinder calls
    _selection unchecked."""
    return registry.limits, _controlled_flags(
        frozenset(controlled), len(registry)
    )


def mask_payoffs(
    base_mix: int,
    toggles: Sequence[int],
    epoch: int,
    registry: Registry,
    controlled: frozenset[int],
) -> Iterator[int]:
    """Attacker proposer slots two epochs later for every mask over
    `toggles`, in ascending mask order, each counted in full (see
    _mask_seeds for the mask encoding)."""
    limits, marked = _selection_tables(registry, controlled)
    for seed in _mask_seeds(base_mix, toggles, epoch):
        yield _selection(seed, limits, marked, -1)[0]


def grind(
    base_mix: int,
    toggles: Sequence[int],
    epoch: int,
    registry: Registry,
    controlled: frozenset[int],
) -> AttackOutcome:
    """Best of the 2^len(toggles) masks of mask_payoffs; ties go to the
    smallest mask value.

    A reveal does not depend on the slot, so a validator with two
    decision slots gives two equal toggles.  Only the masks over the
    distinct toggles, in order of first appearance, are scored, and the
    winner's bit i is put back where distinct toggle i first appears.
    This is exact: each mask has one over first appearances with the
    same mix and no larger value, and putting the bits back keeps mask
    order, so the smallest winner maps to the smallest winning mask.

    Mask 0 is counted in full, so honest_payoff is exact.  Every later
    mask is counted against the best count so far as its floor: only a
    strictly larger count wins, so a mask is dropped as soon as its
    remaining slots cannot lift it above that floor, and the winner's
    count is always complete.
    """
    distinct = list(dict.fromkeys(toggles))
    limits, marked = _selection_tables(registry, controlled)
    seeds = _mask_seeds(base_mix, distinct, epoch)
    honest = best = _selection(next(seeds), limits, marked, -1)[0]
    best_mask = 0
    for mask, seed in enumerate(seeds, 1):
        payoff = _selection(seed, limits, marked, best)[0]
        if payoff > best:
            best, best_mask = payoff, mask
    if len(distinct) < len(toggles):
        best_mask = sum(
            1 << toggles.index(toggle)
            for i, toggle in enumerate(distinct)
            if best_mask >> i & 1
        )
    return AttackOutcome(Strategy(best_mask, len(toggles)), best, honest)


def strategy_budget(cap: int, limit: Optional[int] = None) -> int:
    """How many decision slots a grinder keeps: at most `cap`, and at
    most `limit` when one is given.  Both protocols cut a wider
    decision set to this width rather than fail."""
    if cap < 0 or (limit is not None and limit < 0):
        raise ValueError("cap and limit must be >= 0")
    return cap if limit is None else min(cap, limit)


def best_strategy(
    epoch: EpochState,
    attacker: AttackerProfile,
    registry: Registry,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> AttackOutcome:
    """Grind all withhold masks over the last `cap` tail decision slots
    (see tail_decision_slots); ties go to the smallest mask value."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return grind(
        *grind_inputs(epoch.posted, tail_decision_slots(epoch, attacker, cap)),
        epoch.epoch,
        registry,
        attacker.controlled,
    )
