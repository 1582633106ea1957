"""Threshold-shared reveals: distribution, reveal phase, recovery, the
(t, h, n) security-case classifier, and the share-suppression attack.

Each slot's proposer splits its reveal into 31 shares, one per other
slot, sealed to that slot's proposer.  After the epoch, participants
broadcast the shares they hold; any n shares recover a reveal, fewer
leave the slot unrecoverable (it enters the mix as absent).  Encryption
is modelled as access control: origin o's share at x is readable only
by the proposer of slot `_RECIPIENTS[o][x - 1]`, read from the
schedule, until the reveal phase.
"""

from __future__ import annotations

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

# _RECIPIENTS[o][x - 1]: the slot whose proposer holds origin o's share
# at x, the 31 other slots in ascending order.
_RECIPIENTS = tuple(
    tuple(s for s in range(SLOTS_PER_EPOCH) if s != origin)
    for origin in range(SLOTS_PER_EPOCH)
)
_ALL_X = list(range(1, SHARES_PER_SECRET + 1))


def _holder_slots(origin: int, row: Sequence[SharePoint]) -> Sequence[int]:
    """The slot holding each of origin's points; row ascends in x, each
    x once, so a full row is held by _RECIPIENTS[origin] in order."""
    recipients = _RECIPIENTS[origin]
    if len(row) == SHARES_PER_SECRET:
        return recipients
    return [recipients[p.x - 1] for p in row]


class RevealPhaseState(NamedTuple):
    """Everything observable once the reveal phase closes, per origin.

    shares[o] holds origin o's points in ascending x (empty if o never
    distributed); honest and adversarial are the validators present in
    the reveal phase on each side; released holds the (origin, x) of
    each share the adversary releases, empty as run_reveal_phase
    returns it and planned by apply_flip_strategy; t counts slots whose
    proposer both distributed and participates.
    """

    epoch: int
    proposer_by_slot: tuple[int, ...]
    shares: tuple[tuple[SharePoint, ...], ...]
    honest: frozenset[int]
    adversarial: frozenset[int]
    released: frozenset[tuple[int, int]]
    t: int

    @property
    def broadcast(self) -> tuple[tuple[SharePoint, ...], ...]:
        """Per origin, the points broadcast: those an honest participant
        holds, plus the adversary's release."""
        heard = [v in self.honest for v in self.proposer_by_slot]
        released = self.released
        return tuple(
            tuple(
                p
                for p, r in zip(row, _holder_slots(origin, row))
                if heard[r] or (origin, p.x) in released
            )
            for origin, row in enumerate(self.shares)
        )


def distribute_shares(
    reveal: bytes,
    config: SssConfig,
    entropy: Entropy = SYSTEM_ENTROPY,
) -> list[SharePoint]:
    """Split one slot's reveal into 31 shares at x = 1..31, one per
    other slot (see _RECIPIENTS).

    A validator proposing several other slots holds one share per slot,
    each at a distinct x.
    """
    if config.share_count_m != SHARES_PER_SECRET:
        raise ValueError(
            f"distribution needs m = {SHARES_PER_SECRET}, got "
            f"{config.share_count_m}"
        )
    return split(reveal, config, entropy)


def run_reveal_phase(
    shares: Sequence[Iterable[SharePoint]],
    honest_participants: Iterable[int],
    *,
    adversary_participants: Iterable[int] = (),
    proposer_by_slot: Sequence[int],
    epoch: int,
) -> RevealPhaseState:
    """Simultaneous honest broadcast over the shares as distributed.

    shares[o] lists origin o's points, x strictly ascending within
    1..31: a row as distribute_shares returns it, or one with some
    points dropped.  The point at x is held by the proposer of slot
    _RECIPIENTS[o][x - 1] in `proposer_by_slot`, one validator per
    slot.  Honest participants broadcast every share they hold.  The
    state's release is empty: apply_flip_strategy plans it from this
    honest-only view, as a rushing adversary observes it.  Adversary
    participants count as present even when they release nothing,
    since they did distribute and show up.
    """
    proposer_by_slot = tuple(proposer_by_slot)
    if len(proposer_by_slot) != SLOTS_PER_EPOCH:
        raise ValueError("need one proposer per slot")
    if len(shares) != SLOTS_PER_EPOCH:
        raise ValueError("need one row of shares per slot")
    honest = frozenset(honest_participants)
    adversarial = frozenset(adversary_participants)
    if honest & adversarial:
        raise ValueError("a validator cannot be both honest and adversarial")

    rows = []
    for points in shares:
        row = tuple(points)
        xs = [p.x for p in row]
        if xs != _ALL_X and any(
            a >= b for a, b in zip([0, *xs], [*xs, SHARES_PER_SECRET + 1])
        ):
            raise ValueError(
                f"a row's x must ascend strictly within 1..{SHARES_PER_SECRET}"
            )
        rows.append(row)

    return RevealPhaseState(
        epoch=epoch,
        proposer_by_slot=proposer_by_slot,
        shares=tuple(rows),
        honest=honest,
        adversarial=adversarial,
        released=frozenset(),
        t=sum(
            1
            for v, row in zip(proposer_by_slot, rows)
            if row and (v in honest or v in adversarial)
        ),
    )


def recover_all(
    state: RevealPhaseState, config: SssConfig
) -> tuple[Optional[bytes], ...]:
    """Per slot, the reveal decoded from its broadcast shares, or None
    where fewer than n arrive or they do not decode; mix_reveals counts
    a None as an absent proposer."""
    per_slot: list[Optional[bytes]] = []
    for points in state.broadcast:
        try:
            per_slot.append(recover(points, config))
        except (InsufficientShares, CorruptShares):
            per_slot.append(None)
    return tuple(per_slot)


def classify_security_case(t: int, h: int, n: int) -> str:
    """Place an epoch in the prevention / breakdown / collusion regime:
    "prevented", "broken" or "collusion", the label a report counts.

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
        return "broken"
    if h < n:
        return "prevented"
    return "collusion"


def _origin_table(
    state: RevealPhaseState, config: SssConfig
) -> tuple[list[list[int]], list[int], list[int]]:
    """Per origin, the x's of the points the adversary's participants
    hold, ascending, and the count of honest shares, and the ascending
    flip set.  Read from the honest-only view of `state`, which is what
    a rushing adversary observes: the release is never read."""
    mine = [v in state.adversarial for v in state.proposer_by_slot]
    heard = [v in state.honest for v in state.proposer_by_slot]
    held: list[list[int]] = []
    honest_count: list[int] = []
    for origin, row in enumerate(state.shares):
        slots = _holder_slots(origin, row)
        held.append([p.x for p, r in zip(row, slots) if mine[r]])
        honest_count.append(sum(map(heard.__getitem__, slots)))
    n = config.threshold_n
    flip = [
        origin
        for origin, (count, xs) in enumerate(zip(honest_count, held))
        if count < n <= count + len(xs)
    ]
    return held, honest_count, flip


def apply_flip_strategy(
    state: RevealPhaseState,
    config: SssConfig,
    strategy: Strategy,
    flip_slots: Optional[Sequence[int]] = None,
) -> RevealPhaseState:
    """`state` with the adversary's release replaced by the one
    `strategy` plays over `flip_slots` (default: the full ordered flip
    set).  This is the one place a release is made; it holds only
    shares the adversary's participants hold.

    Withheld flip slots get nothing; every other flippable origin —
    non-withheld flip slots and any flippable origin outside the
    (possibly budget-truncated) flip_slots list — is topped up to n
    with the adversary's lowest-x held shares.  Mask 0 therefore
    reproduces honest behavior exactly.
    """
    held, honest_count, flip = _origin_table(state, config)
    if flip_slots is None:
        flip_slots = flip
    withheld = set(strategy.withheld(flip_slots))
    n = config.threshold_n
    return state._replace(
        released=frozenset(
            (origin, x)
            for origin in flip
            if origin not in withheld
            for x in held[origin][: n - honest_count[origin]]
        )
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
    final = apply_flip_strategy(state, config, strategy, flip_slots)
    seed = derive_seed(mix_reveals(recover_all(final, config)), state.epoch)
    return sum(
        1
        for idx in select_proposers(seed, registry)
        if idx in attacker.controlled
    )


def mask0_recovery(
    state: RevealPhaseState, config: SssConfig
) -> tuple[frozenset[int], list[int]]:
    """The origins that recover when the adversary plays mask 0, and
    the ascending flip set, from share counts alone.

    Shares are counted on the honest-only view of `state`, as
    apply_flip_strategy plans.  An origin recovers from >= n honest
    shares, or as a flip slot the adversary tops up to n; every other
    origin stays absent.  Nothing is interpolated, so every origin is
    taken to have split its reveal honestly; recover_all is the oracle
    that decodes.
    """
    _, honest_count, flip = _origin_table(state, config)
    n = config.threshold_n
    recovered = frozenset(flip).union(
        origin for origin, count in enumerate(honest_count) if count >= n
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
    flip = _origin_table(state, config)[2]
    flip_slots = flip[: strategy_budget(cap, max_flips)]
    mask0 = apply_flip_strategy(
        state, config, Strategy(0, len(flip_slots)), flip_slots
    )
    return grind(
        *grind_inputs(recover_all(mask0, config), flip_slots),
        state.epoch,
        registry,
        attacker.controlled,
    )
