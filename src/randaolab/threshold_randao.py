"""Threshold-shared reveals: distribution, reveal phase, recovery, the
(t, h, n) security-case classifier, and the share-suppression attack.

Each slot's proposer splits its reveal into 31 shares, one per other
slot, sealed to that slot's proposer.  After the epoch, participants
broadcast the shares they hold; any n shares recover a reveal, fewer
leave the slot unrecoverable (it enters the mix as absent).  Encryption
is modelled as access control: an envelope is readable only by the
proposer of its recipient slot, read from the schedule, until the
reveal phase.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

from .adversary import (
    DEFAULT_STRATEGY_CAP,
    AttackerProfile,
    AttackOutcome,
    Strategy,
    grind,
    grind_inputs,
    strategy_budget,
)
from .field import SharePoint
from .randao import (
    SLOTS_PER_EPOCH,
    Registry,
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
    split,
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


class _ShareEnvelopeFields(NamedTuple):
    origin_slot: int
    recipient_slot: int
    point: SharePoint


class ShareEnvelope(_ShareEnvelopeFields):
    """One share of origin_slot's reveal, sealed to the proposer of
    recipient_slot."""

    __slots__ = ()

    def __new__(
        cls, origin_slot: int, recipient_slot: int, point: SharePoint
    ) -> "ShareEnvelope":
        if point.x != share_index(origin_slot, recipient_slot):
            raise ValueError("share index does not match recipient slot")
        return tuple.__new__(cls, (origin_slot, recipient_slot, point))


class RevealPhaseState(NamedTuple):
    """Everything observable once the reveal phase closes, per origin.

    shares[o] holds origin o's envelopes in ascending share index
    (empty if o never distributed) and broadcast[o] the points of those
    broadcast; participants are the validator indices present in the
    reveal phase (honest participants plus the adversary's); t counts
    slots whose proposer both distributed and participates.
    """

    epoch: int
    proposer_by_slot: tuple[int, ...]
    shares: tuple[tuple[ShareEnvelope, ...], ...]
    participants: frozenset[int]
    broadcast: tuple[tuple[SharePoint, ...], ...]
    t: int


class RecoveryOutcome(NamedTuple):
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
    entropy: Entropy = SYSTEM_ENTROPY,
) -> list[ShareEnvelope]:
    """Split one slot's reveal into 31 envelopes, one per other slot.

    A validator proposing several other slots holds one envelope per
    slot, each with a distinct share index.
    """
    if config.share_count_m != SHARES_PER_SECRET:
        raise ValueError(
            f"distribution needs m = {SHARES_PER_SECRET}, got "
            f"{config.share_count_m}"
        )
    # share_index maps the recipients, in ascending order, onto the
    # x = 1..31 that split shares at.
    recipients = [s for s in range(SLOTS_PER_EPOCH) if s != slot]
    return [
        ShareEnvelope(slot, r, p)
        for r, p in zip(recipients, split(reveal, config, entropy))
    ]


def run_reveal_phase(
    envelopes: Iterable[ShareEnvelope],
    honest_participants: Iterable[int],
    released: Iterable[ShareEnvelope] = (),
    *,
    adversary_participants: Iterable[int] = (),
    proposer_by_slot: Sequence[int],
    epoch: int,
) -> RevealPhaseState:
    """Simultaneous honest broadcast plus the adversary's release.

    An envelope is held by the proposer of its recipient slot in
    `proposer_by_slot`, one validator per slot.  Honest participants
    broadcast every share they hold; the adversary broadcasts the held
    envelopes in `released`, chosen after observing the honest
    broadcast (rushing model; apply_flip_strategy plans it).  Adversary
    participants count as present even when they release nothing, since
    they did distribute and show up.  An envelope listed twice is read
    once; two different envelopes at one (origin, share index) are
    rejected.
    """
    proposer_by_slot = tuple(proposer_by_slot)
    if len(proposer_by_slot) != SLOTS_PER_EPOCH:
        raise ValueError("need one proposer per slot")
    honest = frozenset(honest_participants)
    adversarial = frozenset(adversary_participants)
    if honest & adversarial:
        raise ValueError("a validator cannot be both honest and adversarial")
    # Per slot: whether its proposer, who holds the shares sent to that
    # slot, is an honest participant or the adversary's.
    honest_slot = [v in honest for v in proposer_by_slot]
    adversarial_slot = [v in adversarial for v in proposer_by_slot]

    # grid[o][r]: origin o's envelope for recipient slot r.  share_index
    # maps r onto x in order and one to one, so r keys and orders a row
    # as x would, and it is one field read where x is two.
    grid: list[list[Optional[ShareEnvelope]]] = [
        [None] * SLOTS_PER_EPOCH for _ in range(SLOTS_PER_EPOCH)
    ]
    for e in envelopes:
        row = grid[e.origin_slot]
        r = e.recipient_slot
        if row[r] is None:
            row[r] = e
        elif row[r] != e:
            raise ValueError("two different envelopes at one share index")
    revealed: set[tuple[int, int]] = set()
    for e in released:
        origin, r, _ = e
        if grid[origin][r] != e:
            raise ValueError("adversary released a share never distributed")
        if not adversarial_slot[r]:
            raise ValueError("adversary released a share it does not hold")
        revealed.add((origin, r))

    shares = tuple(tuple(e for e in row if e is not None) for row in grid)
    participants = honest | adversarial
    return RevealPhaseState(
        epoch=epoch,
        proposer_by_slot=proposer_by_slot,
        shares=shares,
        participants=participants,
        broadcast=tuple(
            tuple(
                e.point
                for e in row
                if honest_slot[e.recipient_slot]
                or (origin, e.recipient_slot) in revealed
            )
            for origin, row in enumerate(shares)
        ),
        t=sum(
            1
            for slot, row in enumerate(shares)
            if row and proposer_by_slot[slot] in participants
        ),
    )


def recover_all(state: RevealPhaseState, config: SssConfig) -> RecoveryOutcome:
    """Recover every slot with >= n broadcast shares; the rest are
    treated as absent proposers (zero contribution to the mix)."""
    per_slot: list[Optional[bytes]] = []
    for points in state.broadcast:
        try:
            per_slot.append(recover(points, config))
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
    dishonest: the adversary cannot learn a secret early.  n or more
    dishonest: it can read every secret early.  Either way, with every
    share distributed before the epoch, its only lever is the flip
    set: an origin short of n honest shares that its held shares top
    up.  That rule is the same in every case and leaves nothing to flip
    once t-h-1 >= n; below full participation a "prevented" epoch can
    carry bias, and at full participation a "collusion" one need not.
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


def _origin_table(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
) -> tuple[list[tuple[ShareEnvelope, ...]], list[int]]:
    """Adversary-held envelopes per origin, in ascending x, and the
    ascending flip set of the honest-only view `state`."""
    controlled = attacker.controlled
    mine = [v in controlled for v in state.proposer_by_slot]
    held = [
        tuple(e for e in row if mine[e.recipient_slot])
        for row in state.shares
    ]
    n = config.threshold_n
    flip = [
        origin
        for origin, (points, mine) in enumerate(zip(state.broadcast, held))
        if len(points) < n <= len(points) + len(mine)
    ]
    return held, flip


def apply_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    strategy: Strategy,
    flip_slots: Optional[Sequence[int]] = None,
) -> RevealPhaseState:
    """Re-run the reveal phase with the adversary playing `strategy`
    over `flip_slots` (default: the full ordered flip set).

    The release is planned on the honest-only view of `state`, which is
    what a rushing adversary observes.  Withheld flip slots get nothing;
    every other flippable origin — non-withheld flip slots and any
    flippable origin outside the (possibly budget-truncated) flip_slots
    list — is topped up to n with the adversary's lowest-x held shares.
    Mask 0 therefore reproduces honest behavior exactly.
    """
    phase = partial(
        run_reveal_phase,
        [e for row in state.shares for e in row],
        state.participants - attacker.controlled,
        adversary_participants=state.participants & attacker.controlled,
        proposer_by_slot=state.proposer_by_slot,
        epoch=state.epoch,
    )
    observed = phase()
    held, flip = _origin_table(observed, attacker, config)
    if flip_slots is None:
        flip_slots = flip
    withheld = set(strategy.withheld(flip_slots))
    return phase(
        e
        for origin in flip
        if origin not in withheld
        for e in held[origin][
            : config.threshold_n - len(observed.broadcast[origin])
        ]
    )


def evaluate_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    registry: Registry,
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
    adversary tops up to n (see apply_flip_strategy); every other origin
    stays absent.  Nothing is interpolated, so every origin is taken to
    have split its reveal honestly; recover_all is the oracle that
    decodes.
    """
    _, flip = _origin_table(state, attacker, config)
    n = config.threshold_n
    recovered = frozenset(flip).union(
        origin
        for origin, points in enumerate(state.broadcast)
        if len(points) >= n
    )
    return recovered, flip


def best_flip_strategy(
    state: RevealPhaseState,
    attacker: AttackerProfile,
    config: SssConfig,
    registry: Registry,
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
    _, flip = _origin_table(state, attacker, config)
    flip_slots = flip[: strategy_budget(cap, max_flips)]
    mask0 = apply_flip_strategy(
        state, attacker, config, Strategy(0, len(flip_slots)), flip_slots
    )
    return grind(
        *grind_inputs(recover_all(mask0, config).per_slot, flip_slots),
        state.epoch,
        registry,
        attacker.controlled,
    )
