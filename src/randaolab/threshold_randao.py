"""Threshold-shared reveals: distribution, reveal phase, recovery, the
(t, h, n) security-case classifier, and the share-suppression attack.

Each slot's proposer splits its reveal into 31 shares, one per other
slot, sealed to that slot's proposer.  After the epoch, participants
broadcast the shares they hold; any n shares recover a reveal, fewer
leave the slot unrecoverable (it enters the mix as absent).  Encryption
is modelled as access control: an envelope is readable only by its
sealed_to validator until the reveal phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .adversary import (
    DEFAULT_STRATEGY_CAP,
    AttackerProfile,
    AttackOutcome,
    Strategy,
    StrategyCapExceeded,
    grind,
    grind_inputs,
)
from .field import FIELD_256, PrimeField, SharePoint
from .randao import (
    SLOTS_PER_EPOCH,
    Validator,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from .shamir import (
    CorruptShares,
    Entropy,
    InsufficientShares,
    SssConfig,
    SYSTEM_ENTROPY,
    encode_share,
    decode_share,
    recover,
    split_element,
)

SHARES_PER_SECRET = 31

# origin_slot (1) + recipient_slot (1) + share wire form (34).
ENVELOPE_WIRE_BYTES = 36


class SecurityCase(enum.Enum):
    PREVENTED = "prevented"
    BROKEN = "broken"
    COLLUSION = "collusion"


def share_index(origin_slot: int, recipient_slot: int) -> int:
    """Order-preserving bijection of the 31 non-origin slots onto 1..31."""
    if not 0 <= origin_slot < SLOTS_PER_EPOCH:
        raise ValueError("origin slot out of range")
    if not 0 <= recipient_slot < SLOTS_PER_EPOCH:
        raise ValueError("recipient slot out of range")
    if recipient_slot == origin_slot:
        raise ValueError("origin does not receive its own share")
    if recipient_slot < origin_slot:
        return recipient_slot + 1
    return recipient_slot


@dataclass(frozen=True)
class ShareEnvelope:
    """One share of origin_slot's reveal, sealed to the proposer of
    recipient_slot."""

    origin_slot: int
    recipient_slot: int
    point: SharePoint
    sealed_to: int

    def __post_init__(self) -> None:
        if self.point.x != share_index(self.origin_slot, self.recipient_slot):
            raise ValueError("share index does not match recipient slot")
        if self.sealed_to < 0:
            raise ValueError("sealed_to must be a validator index")


@dataclass(frozen=True)
class RevealPhaseState:
    """Everything observable once the reveal phase closes.

    broadcast entries are (origin_slot, point, revealer); participants
    are the validator indices present in the reveal phase (honest
    participants plus the adversary's); t counts slots whose proposer
    both distributed and participates.
    """

    epoch: int
    proposer_by_slot: tuple[int, ...]
    envelopes: tuple[ShareEnvelope, ...]
    participants: frozenset[int]
    broadcast: frozenset[tuple[int, SharePoint, int]]
    t: int


@dataclass(frozen=True)
class RecoveryOutcome:
    """per_slot holds the recovered 32-byte reveal or None; mix and seed
    treat None as an absent proposer; broken marks t < n epochs."""

    per_slot: tuple[Optional[bytes], ...]
    mix: bytes
    seed: bytes
    broken: bool


def distribute_shares(
    slot: int,
    reveal: bytes,
    config: SssConfig,
    proposers: Sequence[int],
    entropy: Entropy = SYSTEM_ENTROPY,
    field: PrimeField = FIELD_256,
) -> list[ShareEnvelope]:
    """Split one slot's reveal into 31 envelopes, one per other slot.

    A validator proposing several other slots receives one envelope per
    slot, each with a distinct share index.
    """
    if config.share_count_m != SHARES_PER_SECRET:
        raise ValueError(
            f"distribution needs m = {SHARES_PER_SECRET}, got "
            f"{config.share_count_m}"
        )
    if len(proposers) != SLOTS_PER_EPOCH:
        raise ValueError("need one proposer per slot")
    recipients = [s for s in range(SLOTS_PER_EPOCH) if s != slot]
    x_coords = [share_index(slot, r) for r in recipients]
    points = split_element(
        field.element(field.embed32(reveal)),
        config,
        entropy,
        x_coords=x_coords,
    )
    return [
        ShareEnvelope(slot, r, p, proposers[r])
        for r, p in zip(recipients, points)
    ]


AdversaryDecision = Callable[[RevealPhaseState], Iterable[ShareEnvelope]]


def run_reveal_phase(
    envelopes: Iterable[ShareEnvelope],
    honest_participants: Iterable[int],
    adversary_decision: Optional[AdversaryDecision] = None,
    *,
    adversary_participants: Iterable[int] = (),
    proposer_by_slot: Sequence[int],
    epoch: int,
) -> RevealPhaseState:
    """Simultaneous honest broadcast, then the adversary's move.

    Honest participants broadcast every share sealed to them.  The
    adversary observes the complete honest broadcast set first (rushing
    model) and then chooses which of its held envelopes to release;
    adversary participants count as present even when they release
    nothing, since they did distribute and show up.
    """
    envs = tuple(envelopes)
    honest = frozenset(honest_participants)
    adversarial = frozenset(adversary_participants)
    if honest & adversarial:
        raise ValueError("a validator cannot be both honest and adversarial")

    held_by = {}
    for e in envs:
        held_by.setdefault(e.sealed_to, []).append(e)

    participants = honest | adversarial
    distributed = frozenset(e.origin_slot for e in envs)
    t = sum(
        1
        for slot in range(SLOTS_PER_EPOCH)
        if slot in distributed and proposer_by_slot[slot] in participants
    )

    honest_broadcast = frozenset(
        (e.origin_slot, e.point, e.sealed_to)
        for e in envs
        if e.sealed_to in honest
    )
    observed = RevealPhaseState(
        epoch=epoch,
        proposer_by_slot=tuple(proposer_by_slot),
        envelopes=envs,
        participants=participants,
        broadcast=honest_broadcast,
        t=t,
    )
    if adversary_decision is None:
        return observed

    released = list(adversary_decision(observed))
    env_set = set(envs)
    for e in released:
        if e not in env_set:
            raise ValueError("adversary released a share never distributed")
        if e.sealed_to not in adversarial:
            raise ValueError("adversary released a share it does not hold")
    broadcast = honest_broadcast | frozenset(
        (e.origin_slot, e.point, e.sealed_to) for e in released
    )
    return RevealPhaseState(
        epoch=epoch,
        proposer_by_slot=tuple(proposer_by_slot),
        envelopes=envs,
        participants=participants,
        broadcast=broadcast,
        t=t,
    )


def recover_all(state: RevealPhaseState, config: SssConfig) -> RecoveryOutcome:
    """Recover every slot with >= n broadcast shares; the rest are
    treated as absent proposers (zero contribution to the mix)."""
    by_origin: dict[int, list[SharePoint]] = {}
    for origin, point, _ in state.broadcast:
        by_origin.setdefault(origin, []).append(point)
    distributed = frozenset(e.origin_slot for e in state.envelopes)

    per_slot: list[Optional[bytes]] = []
    for slot in range(SLOTS_PER_EPOCH):
        if slot not in distributed:
            per_slot.append(None)
            continue
        try:
            per_slot.append(recover(by_origin.get(slot, []), config))
        except (InsufficientShares, CorruptShares):
            per_slot.append(None)
    mix = mix_reveals(per_slot)
    return RecoveryOutcome(
        per_slot=tuple(per_slot),
        mix=mix,
        seed=derive_seed(mix, state.epoch),
        broken=state.t < config.threshold_n,
    )


def classify_security_case(t: int, h: int, n: int) -> SecurityCase:
    """Place an epoch in the prevention / breakdown / collusion regime.

    With t joined proposers the honest side holds t-ish shares of every
    secret; n of them recover it.  Fewer than n joined: nothing is
    recoverable.  At least n joined but fewer than n dishonest: the
    adversary can neither learn secrets early nor block recovery.  n or
    more dishonest: the adversary alone can recover, so it regains a
    withholding lever.
    """
    if n < 1:
        raise ValueError("threshold must be >= 1")
    if not 0 <= h <= t <= SLOTS_PER_EPOCH:
        raise ValueError("need 0 <= h <= t <= 32")
    if t < n:
        return SecurityCase.BROKEN
    if h < n:
        return SecurityCase.PREVENTED
    return SecurityCase.COLLUSION


def _held_by_adversary(
    state: RevealPhaseState, attacker: AttackerProfile
) -> dict[int, list[ShareEnvelope]]:
    held: dict[int, list[ShareEnvelope]] = {}
    for e in state.envelopes:
        if e.sealed_to in attacker.controlled:
            held.setdefault(e.origin_slot, []).append(e)
    return held


def _honest_counts(state: RevealPhaseState) -> dict[int, int]:
    counts: dict[int, int] = {}
    for origin, _, revealer in state.broadcast:
        if revealer not in state.participants:
            raise ValueError("broadcast from a non-participant")
        counts[origin] = counts.get(origin, 0) + 1
    return counts


def adversary_flip_set(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
) -> set[int]:
    """Origin slots whose recoverability the adversary controls: honest
    shares alone fall short of n, honest plus adversary-held reach it.

    The state must be the honest-only view (before any adversary
    release), i.e. what a rushing adversary observes.
    """
    held = _held_by_adversary(state, attacker)
    honest = _honest_counts(state)
    n = config.threshold_n
    flippable = set()
    for origin in frozenset(e.origin_slot for e in state.envelopes):
        have = honest.get(origin, 0)
        if have < n <= have + len(held.get(origin, [])):
            flippable.add(origin)
    return flippable


def flip_decision_slots(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    max_flips: Optional[int] = None,
) -> list[int]:
    """Ordered flip set; max_flips keeps only the lowest slots (a
    bounded grinding budget, used when the full set is too large)."""
    slots = sorted(adversary_flip_set(state, attacker, config))
    if max_flips is not None:
        if max_flips < 0:
            raise ValueError("max_flips must be >= 0")
        slots = slots[:max_flips]
    return slots


def _release_plan(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    strategy: Strategy,
    flip_slots: Sequence[int],
) -> list[ShareEnvelope]:
    """Envelopes the adversary releases under `strategy`.

    Withheld flip slots get nothing; every other flippable origin —
    non-withheld flip slots and any flippable origin outside the
    (possibly budget-truncated) flip_slots list — is topped up to n
    with the adversary's lowest-x held shares.  Mask 0 therefore
    reproduces honest behavior exactly.
    """
    held = _held_by_adversary(state, attacker)
    honest = _honest_counts(state)
    withheld = set(strategy.withheld(flip_slots))
    released = []
    for origin in sorted(adversary_flip_set(state, attacker, config)):
        if origin in withheld:
            continue
        need = config.threshold_n - honest.get(origin, 0)
        contributions = sorted(held.get(origin, []), key=lambda e: e.point.x)
        released.extend(contributions[:need])
    return released


def apply_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    strategy: Strategy,
    flip_slots: Optional[Sequence[int]] = None,
) -> RevealPhaseState:
    """Re-run the reveal phase with the adversary playing `strategy`
    over `flip_slots` (default: the full ordered flip set)."""
    if flip_slots is None:
        flip_slots = flip_decision_slots(state, attacker, config)
    honest = state.participants - attacker.controlled
    return run_reveal_phase(
        state.envelopes,
        honest,
        lambda observed: _release_plan(
            observed, attacker, config, strategy, flip_slots
        ),
        adversary_participants=state.participants & attacker.controlled,
        proposer_by_slot=state.proposer_by_slot,
        epoch=state.epoch,
    )


def evaluate_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    registry: Sequence[Validator],
    strategy: Strategy,
    flip_slots: Optional[Sequence[int]] = None,
) -> int:
    """Attacker proposer slots two epochs later if `strategy` is played,
    computed through the full reveal-phase / recovery path."""
    final = apply_flip_strategy(state, attacker, config, strategy, flip_slots)
    recovery = recover_all(final, config)
    return sum(
        1
        for idx in select_proposers(recovery.seed, registry)
        if idx in attacker.controlled
    )


def flip_reveals(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    max_flips: Optional[int] = None,
) -> tuple[list[Optional[bytes]], list[int]]:
    """Per-slot reveals when the adversary plays mask 0, and the ordered
    flip set cut to its `max_flips` lowest slots.

    Origins with >= n honest shares recover from those.  Flippable
    origins recover from their honest shares plus the adversary's
    lowest-x top-up (see _release_plan); every other origin stays
    absent.  Each origin is recovered once; a mask then only toggles
    flip slots' reveals out of the mix.
    """
    if max_flips is not None and max_flips < 0:
        raise ValueError("max_flips must be >= 0")
    flippable = adversary_flip_set(state, attacker, config)
    held = _held_by_adversary(state, attacker)
    by_origin: dict[int, list[SharePoint]] = {}
    for origin, point, _ in state.broadcast:
        by_origin.setdefault(origin, []).append(point)
    n = config.threshold_n
    reveals: list[Optional[bytes]] = []
    for slot in range(SLOTS_PER_EPOCH):
        points = by_origin.get(slot, [])
        if slot in flippable:
            top_up = sorted(held[slot], key=lambda e: e.point.x)
            points = points + [e.point for e in top_up[: n - len(points)]]
        reveals.append(recover(points, config) if len(points) >= n else None)
    return reveals, sorted(flippable)[:max_flips]


def best_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    registry: Sequence[Validator],
    cap: int = DEFAULT_STRATEGY_CAP,
    max_flips: Optional[int] = None,
) -> AttackOutcome:
    """Grind all 2^|F| suppression subsets; ties go to the smallest mask.

    Slots outside the flip set are out of the adversary's hands: origins
    with >= n honest shares recover regardless, the rest stay absent
    regardless, and flippable origins beyond the max_flips budget are
    released as under mask 0.  Mask bit i suppresses flip slot i.
    """
    reveals, flip_slots = flip_reveals(state, attacker, config, max_flips)
    width = len(flip_slots)
    if width > cap:
        raise StrategyCapExceeded(
            f"2^{width} flip strategies exceed cap 2^{cap}"
        )
    return grind(
        *grind_inputs(reveals, flip_slots),
        state.epoch,
        registry,
        attacker.controlled,
    )


def encode_envelope(envelope: ShareEnvelope) -> bytes:
    """origin_slot, recipient_slot, then the 34-byte share wire form."""
    return (
        bytes([envelope.origin_slot, envelope.recipient_slot])
        + encode_share(envelope.point)
    )


def decode_envelope(
    blob: bytes,
    proposer_by_slot: Sequence[int],
    field: PrimeField = FIELD_256,
) -> ShareEnvelope:
    if len(blob) != ENVELOPE_WIRE_BYTES:
        raise ValueError(
            f"expected {ENVELOPE_WIRE_BYTES} bytes, got {len(blob)}"
        )
    origin, recipient = blob[0], blob[1]
    return ShareEnvelope(
        origin,
        recipient,
        decode_share(blob[2:], field),
        proposer_by_slot[recipient],
    )
