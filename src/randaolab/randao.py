"""Commit-free randomness beacon: per-slot reveals, XOR accumulator,
seed derivation, balance-weighted proposer selection, epoch ledger.

Reveals are modelled as sha256(secret_key || epoch || domain) rather
than BLS signatures; everything downstream only needs a deterministic,
unique-per-(validator, epoch), unpredictable-without-the-key value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from hashlib import sha256
from typing import Optional, Sequence

SLOTS_PER_EPOCH = 32
MAX_EFFECTIVE_BALANCE = 32 * 10**9

DOMAIN_RANDAO = bytes([2, 0, 0, 0])
DOMAIN_BEACON_PROPOSER = bytes([0, 0, 0, 0])

# Acceptance-sampling retry budget per slot; exceeding it means the
# registry is broken (e.g. all balances zero), not bad luck.
_SELECTION_TRY_LIMIT = 10_000


class ProtocolError(RuntimeError):
    """Ledger misuse: a slot posting twice."""


class SelectionError(RuntimeError):
    """Proposer sampling failed to accept a candidate within the
    retry budget; indicates a degenerate registry."""


def _le64(n: int) -> bytes:
    return n.to_bytes(8, "little")


@dataclass(frozen=True)
class Validator:
    index: int
    secret_key: bytes
    effective_balance: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if len(self.secret_key) != 32:
            raise ValueError("secret key must be 32 bytes")
        if not 1 <= self.effective_balance <= MAX_EFFECTIVE_BALANCE:
            raise ValueError("effective balance out of range")


def compute_reveal(validator: Validator, epoch: int) -> bytes:
    """Deterministic per-(validator, epoch) 32-byte reveal."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return sha256(
        validator.secret_key + _le64(epoch) + DOMAIN_RANDAO
    ).digest()


def mix_reveals(posted: Sequence[Optional[bytes]]) -> bytes:
    """XOR-fold the posted reveals; missing entries contribute nothing
    (equivalently, they enter as 32 zero bytes)."""
    acc = 0
    for r in posted:
        if r is not None:
            if len(r) != 32:
                raise ValueError("reveals must be 32 bytes")
            acc ^= int.from_bytes(r, "big")
    return acc.to_bytes(32, "big")


def derive_seed(mix: bytes, epoch: int) -> bytes:
    """Seed for proposer selection, bound to its epoch and domain."""
    if len(mix) != 32:
        raise ValueError("mix must be 32 bytes")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return sha256(DOMAIN_BEACON_PROPOSER + _le64(epoch) + mix).digest()


def select_proposers(
    seed: bytes, registry: Sequence[Validator]
) -> tuple[int, ...]:
    """One proposer index per slot, balance-weighted by acceptance
    sampling: a uniformly drawn candidate is kept with probability
    effective_balance / MAX_EFFECTIVE_BALANCE (quantized to 1/256)."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    if not registry:
        raise ValueError("registry must be non-empty")
    count = len(registry)
    out = []
    for slot in range(SLOTS_PER_EPOCH):
        prefix = seed + _le64(slot)
        for counter in range(_SELECTION_TRY_LIMIT):
            digest = sha256(prefix + _le64(counter)).digest()
            candidate = int.from_bytes(digest[:8], "big") % count
            balance = registry[candidate].effective_balance
            if (digest[8] + 1) * MAX_EFFECTIVE_BALANCE <= 256 * balance:
                out.append(candidate)
                break
        else:
            raise SelectionError(
                f"no candidate accepted for slot {slot} after "
                f"{_SELECTION_TRY_LIMIT} tries"
            )
    return tuple(out)


@dataclass
class EpochState:
    """Per-epoch ledger: proposer schedule and posted reveals."""

    epoch: int
    proposer_by_slot: tuple[int, ...]
    posted: list[Optional[bytes]] = dataclass_field(
        default_factory=lambda: [None] * SLOTS_PER_EPOCH
    )

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        if len(self.proposer_by_slot) != SLOTS_PER_EPOCH:
            raise ValueError(
                f"need {SLOTS_PER_EPOCH} proposers, got "
                f"{len(self.proposer_by_slot)}"
            )
        if len(self.posted) != SLOTS_PER_EPOCH:
            raise ValueError("posted must have one entry per slot")

    @property
    def mix(self) -> bytes:
        """XOR of the posted reveals."""
        return mix_reveals(self.posted)

    def post_reveal(self, slot: int, value: bytes) -> None:
        """Record a reveal.  A slot can post at most once; withholding
        is modelled by never posting."""
        if not 0 <= slot < SLOTS_PER_EPOCH:
            raise ValueError("slot out of range")
        if len(value) != 32:
            raise ValueError("reveal must be 32 bytes")
        if self.posted[slot] is not None:
            raise ProtocolError(f"slot {slot} already posted")
        self.posted[slot] = value
