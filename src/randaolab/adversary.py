"""Last-revealer attack: tail decision slots, the 2^h withhold strategy
space, and grinding for the mask that maximizes attacker proposer slots
two epochs later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .randao import (
    SLOTS_PER_EPOCH,
    EpochState,
    Validator,
    derive_seed,
    select_proposers,
)

DEFAULT_STRATEGY_CAP = 20


class StrategyCapExceeded(RuntimeError):
    """The strategy space 2^h is larger than the configured budget."""


@dataclass(frozen=True)
class AttackerProfile:
    """Validators under one coordinating adversary."""

    controlled: frozenset[int]
    stake_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.stake_fraction <= 1.0:
            raise ValueError("stake fraction must be in [0, 1]")

    @classmethod
    def from_registry(
        cls, registry: Sequence[Validator], controlled: Sequence[int]
    ) -> "AttackerProfile":
        indices = frozenset(controlled)
        total = sum(v.effective_balance for v in registry)
        if any(i < 0 or i >= len(registry) for i in indices):
            raise ValueError("controlled index outside registry")
        held = sum(registry[i].effective_balance for i in indices)
        return cls(indices, held / total if total else 0.0)


@dataclass(frozen=True)
class Strategy:
    """Withhold mask over an ordered list of decision slots.

    Bit i (LSB first) set means the i-th decision slot pretends to be
    absent; the all-zeros mask is honest behavior.
    """

    withhold_mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if not 0 <= self.withhold_mask < (1 << self.width):
            raise ValueError("mask wider than the decision slot list")

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


@dataclass(frozen=True)
class AttackOutcome:
    chosen: Strategy
    payoff: int
    honest_payoff: int

    def __post_init__(self) -> None:
        if self.payoff < self.honest_payoff:
            raise ValueError("chosen payoff below the honest baseline")


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
    slots: list[int] = []
    for slot in range(SLOTS_PER_EPOCH - 1, -1, -1):
        if epoch.proposer_by_slot[slot] not in attacker.controlled:
            break
        slots.append(slot)
    slots = slots[:tail_limit]
    slots.reverse()
    return slots


def enumerate_strategies(
    h: int, cap: int = DEFAULT_STRATEGY_CAP
) -> list[Strategy]:
    """All 2^h masks in ascending numeric order."""
    if h < 0:
        raise ValueError("h must be >= 0")
    if h > cap:
        raise StrategyCapExceeded(f"2^{h} strategies exceed cap 2^{cap}")
    return [Strategy(mask, h) for mask in range(1 << h)]


def _attacker_slot_count(
    seed: bytes, attacker: AttackerProfile, registry: Sequence[Validator]
) -> int:
    return sum(
        1
        for idx in select_proposers(seed, registry)
        if idx in attacker.controlled
    )


def evaluate_strategy(
    epoch: EpochState,
    strategy: Strategy,
    attacker: AttackerProfile,
    registry: Sequence[Validator],
) -> int:
    """Attacker proposer slots two epochs later if `strategy` is played.

    The mask applies to tail_decision_slots(epoch, attacker); every
    other posted reveal stays as posted.
    """
    decision_slots = tail_decision_slots(epoch, attacker)
    if strategy.width != len(decision_slots):
        raise ValueError(
            f"strategy width {strategy.width} does not match "
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
    return _attacker_slot_count(seed, attacker, registry)


def grind_inputs(
    reveals: Sequence[Optional[bytes]], slots: Sequence[int]
) -> tuple[int, list[int]]:
    """The XOR of every present reveal, and the reveals of `slots`: the
    base mix and the toggles of mask_payoffs."""
    base_mix = 0
    for reveal in reveals:
        if reveal is not None:
            base_mix ^= int.from_bytes(reveal, "big")
    for slot in slots:
        if reveals[slot] is None:
            raise ValueError(f"decision slot {slot} has no reveal to toggle")
    return base_mix, [int.from_bytes(reveals[s], "big") for s in slots]


def mask_payoffs(
    base_mix: int,
    toggles: Sequence[int],
    epoch: int,
    registry: Sequence[Validator],
    controlled: frozenset[int],
) -> Iterator[int]:
    """Attacker proposer slots two epochs later for every mask over
    `toggles`, in ascending mask order.

    Bit i of a mask XORs toggles[i] into base_mix, so mask 0 is honest
    play.  Going from mask - 1 to mask flips the lowest set bit of mask
    and every bit below it: one XOR with a prefix fold of the toggles.
    """
    prefix = []
    fold = 0
    for toggle in toggles:
        fold ^= toggle
        prefix.append(fold)
    mix = base_mix
    for mask in range(1 << len(toggles)):
        if mask:
            mix ^= prefix[(mask & -mask).bit_length() - 1]
        seed = derive_seed(mix.to_bytes(32, "big"), epoch)
        yield sum(
            1 for idx in select_proposers(seed, registry) if idx in controlled
        )


def grind(
    base_mix: int,
    toggles: Sequence[int],
    epoch: int,
    registry: Sequence[Validator],
    controlled: frozenset[int],
) -> AttackOutcome:
    """Best of the 2^len(toggles) masks of mask_payoffs; ties go to the
    smallest mask value."""
    payoffs = list(
        mask_payoffs(base_mix, toggles, epoch, registry, controlled)
    )
    best = max(payoffs)
    return AttackOutcome(
        Strategy(payoffs.index(best), len(toggles)), best, payoffs[0]
    )


def best_strategy(
    epoch: EpochState,
    attacker: AttackerProfile,
    registry: Sequence[Validator],
    cap: int = DEFAULT_STRATEGY_CAP,
    tail_limit: Optional[int] = None,
) -> AttackOutcome:
    """Grind all 2^h withhold masks over the tail decision slots (cut to
    tail_limit, see tail_decision_slots); ties go to the smallest mask
    value."""
    decision_slots = tail_decision_slots(epoch, attacker, tail_limit)
    h = len(decision_slots)
    if h > cap:
        raise StrategyCapExceeded(f"2^{h} strategies exceed cap 2^{cap}")
    return grind(
        *grind_inputs(epoch.posted, decision_slots),
        epoch.epoch,
        registry,
        attacker.controlled,
    )
