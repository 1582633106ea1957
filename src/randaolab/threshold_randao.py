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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .adversary import (
    DEFAULT_STRATEGY_CAP,
    AttackerProfile,
    AttackOutcome,
    Strategy,
    grind,
    grind_inputs,
    strategy_budget,
)
from .field import FIELD_256, SharePoint
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
    recover,
    split_element,
)

SHARES_PER_SECRET = 31


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
    # share_index maps the recipients, in ascending order, onto the
    # x = 1..31 that split_element shares at.
    recipients = [s for s in range(SLOTS_PER_EPOCH) if s != slot]
    points = split_element(
        FIELD_256.element(FIELD_256.embed32(reveal)), config, entropy
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
    return replace(
        observed,
        broadcast=honest_broadcast
        | frozenset((e.origin_slot, e.point, e.sealed_to) for e in released),
    )


def recover_all(state: RevealPhaseState, config: SssConfig) -> RecoveryOutcome:
    """Recover every slot with >= n broadcast shares; the rest are
    treated as absent proposers (zero contribution to the mix)."""
    by_origin: dict[int, list[SharePoint]] = {}
    for origin, point, _ in state.broadcast:
        by_origin.setdefault(origin, []).append(point)

    per_slot: list[Optional[bytes]] = []
    for slot in range(SLOTS_PER_EPOCH):
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

    With t joined proposers, h of them the adversary's, each origin
    gets t-h or t-h-1 honest shares; n shares recover it.  Fewer than n
    joined: nothing is recoverable.  At least n joined but fewer than n
    dishonest: the adversary cannot learn a secret early.  It can still
    block recovery unless t-h-1 >= n, since an origin short of n honest
    shares that its held shares top up is a flip slot: a "prevented"
    epoch can carry bias below full participation.  n or more
    dishonest: the adversary alone can recover, so it regains a
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


class _OriginTable(NamedTuple):
    """Per-origin view of the honest-only reveal phase."""

    honest: dict[int, list[SharePoint]]  # broadcast points
    held: dict[int, list[ShareEnvelope]]  # adversary-held, ascending x
    flip: list[int]  # ascending flip set


def _origin_table(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
) -> _OriginTable:
    honest: dict[int, list[SharePoint]] = {}
    for origin, point, revealer in state.broadcast:
        if revealer not in state.participants:
            raise ValueError("broadcast from a non-participant")
        honest.setdefault(origin, []).append(point)
    held: dict[int, list[ShareEnvelope]] = {}
    for e in state.envelopes:
        if e.sealed_to in attacker.controlled:
            held.setdefault(e.origin_slot, []).append(e)
    n = config.threshold_n
    flip = []
    for origin in sorted(held):
        held[origin].sort(key=lambda e: e.point.x)
        have = len(honest.get(origin, ()))
        if have < n <= have + len(held[origin]):
            flip.append(origin)
    return _OriginTable(honest, held, flip)


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
    return set(_origin_table(state, attacker, config).flip)


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
    table = _origin_table(state, attacker, config)
    withheld = set(strategy.withheld(flip_slots))
    released = []
    for origin in table.flip:
        if origin not in withheld:
            need = config.threshold_n - len(table.honest.get(origin, ()))
            released.extend(table.held[origin][:need])
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
        flip_slots = _origin_table(state, attacker, config).flip
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


def mask0_recovery(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
) -> tuple[frozenset[int], list[int]]:
    """The origins that recover when the adversary plays mask 0, and
    the ascending flip set, from share counts alone.

    An origin recovers from >= n honest shares, or as a flip slot the
    adversary tops up to n (see _release_plan); every other origin stays
    absent.  Nothing is interpolated, so every origin is taken to have
    split its reveal honestly; recover_all is the oracle that decodes.
    """
    table = _origin_table(state, attacker, config)
    n = config.threshold_n
    recovered = frozenset(table.flip).union(
        origin for origin, points in table.honest.items() if len(points) >= n
    )
    return recovered, table.flip


def best_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    registry: Sequence[Validator],
    cap: int = DEFAULT_STRATEGY_CAP,
    max_flips: Optional[int] = None,
) -> AttackOutcome:
    """Grind every suppression subset of the lowest min(cap, max_flips)
    flip slots; ties go to the smallest mask.

    Slots outside the flip set are out of the adversary's hands: origins
    with >= n honest shares recover regardless, the rest stay absent
    regardless, and flippable origins beyond the budget are released as
    under mask 0.  Mask bit i suppresses flip slot i.  The reveals a
    mask toggles are those recover_all decodes under mask 0.
    """
    flip_slots = _origin_table(state, attacker, config).flip[
        : strategy_budget(cap, max_flips)
    ]
    mask0 = apply_flip_strategy(
        state, attacker, config, Strategy(0, len(flip_slots)), flip_slots
    )
    return grind(
        *grind_inputs(recover_all(mask0, config).per_slot, flip_slots),
        state.epoch,
        registry,
        attacker.controlled,
    )
