"""Commit-free randomness beacon: per-slot reveals, XOR accumulator,
seed derivation, balance-weighted proposer selection, epoch ledger.

Reveals are modelled as sha256(secret_key || epoch || domain) rather
than BLS signatures; everything downstream only needs a deterministic,
unique-per-(validator, epoch), unpredictable-without-the-key value.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from hashlib import sha256
from typing import NamedTuple, Optional

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


class _ValidatorFields(NamedTuple):
    index: int
    secret_key: bytes
    effective_balance: int


class Validator(_ValidatorFields):
    __slots__ = ()

    def __new__(
        cls, index: int, secret_key: bytes, effective_balance: int
    ) -> "Validator":
        if index < 0:
            raise ValueError("index must be >= 0")
        if len(secret_key) != 32:
            raise ValueError("secret key must be 32 bytes")
        if not 1 <= effective_balance <= MAX_EFFECTIVE_BALANCE:
            raise ValueError("effective balance out of range")
        return super().__new__(cls, index, secret_key, effective_balance)


def _reveals(keys: bytes, starts: Iterable[int], epoch: int) -> list[bytes]:
    """sha256(key || le64(epoch) || DOMAIN_RANDAO) for the 32-byte key
    at each start offset of `keys`, with the suffix built once."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    suffix = _le64(epoch) + DOMAIN_RANDAO
    return [sha256(keys[s : s + 32] + suffix).digest() for s in starts]


def compute_reveal(validator: Validator, epoch: int) -> bytes:
    """Deterministic per-(validator, epoch) 32-byte reveal."""
    return _reveals(validator.secret_key, (0,), epoch)[0]


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


def _seed_hasher(epoch: int):
    """A sha256 fed DOMAIN_BEACON_PROPOSER || le64(epoch): what every
    seed of the epoch hashes before its mix."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return sha256(DOMAIN_BEACON_PROPOSER + _le64(epoch))


def derive_seed(mix: bytes, epoch: int) -> bytes:
    """Seed for proposer selection, bound to its epoch and domain."""
    if len(mix) != 32:
        raise ValueError("mix must be 32 bytes")
    hasher = _seed_hasher(epoch)
    hasher.update(mix)
    return hasher.digest()


def balance_limits(balances: Iterable[int]) -> tuple[int, ...]:
    """Per balance, 256 * balance // MAX_EFFECTIVE_BALANCE.

    A candidate drawn with acceptance byte d passes the spec's test
    (d + 1) * MAX_EFFECTIVE_BALANCE <= 256 * balance exactly when
    d < its limit; a limit of 0 (balance below MAX / 256) never passes.
    """
    return tuple([256 * b // MAX_EFFECTIVE_BALANCE for b in balances])


class Registry(Sequence[Validator]):
    """The validator set as validated columns: `keys` (the secret keys
    concatenated, 32 bytes each), `balances` and their acceptance
    `limits` (see balance_limits), all indexed by validator index.

    It is the one validator-set type the library's functions take.  The
    columns are checked and the limits computed once, when the registry
    is built.  `registry.reveals(indices, epoch)` reads the
    validators' reveals straight from the key column; `registry[i]` is a
    validated Validator view.
    """

    __slots__ = ("keys", "balances", "limits")

    def __init__(self, keys: bytes, balances: Sequence[int]) -> None:
        balances = tuple(balances)
        if not balances:
            raise ValueError("registry must be non-empty")
        if not 1 <= min(balances) <= max(balances) <= MAX_EFFECTIVE_BALANCE:
            raise ValueError("effective balance out of range")
        self.balances = balances
        self.limits = balance_limits(balances)
        self.keys = self._checked_keys(keys)

    def with_keys(self, keys: bytes) -> "Registry":
        """This registry's balance and limit columns under other keys;
        only the keys' length is checked."""
        other = object.__new__(type(self))
        other.balances = self.balances
        other.limits = self.limits
        other.keys = self._checked_keys(keys)
        return other

    def _checked_keys(self, keys: bytes) -> bytes:
        if len(keys) != 32 * len(self.balances):
            raise ValueError("secret key must be 32 bytes")
        return keys

    def __len__(self) -> int:
        return len(self.balances)

    def __getitem__(self, index: int) -> Validator:
        count = len(self.balances)
        if not -count <= index < count:
            raise IndexError("validator index out of range")
        index %= count
        key = self.keys[32 * index : 32 * index + 32]
        return Validator(index, key, self.balances[index])

    def reveals(self, indices: Sequence[int], epoch: int) -> list[bytes]:
        """[compute_reveal(self[i], epoch) for i in indices], in one pass
        over the key column and without the views."""
        count = len(self.balances)
        if indices and not -count <= min(indices) <= max(indices) < count:
            raise IndexError("validator index out of range")
        return _reveals(self.keys, [32 * (i % count) for i in indices], epoch)


# Hash suffix of a slot's try: slot and counter, little-endian.
_TRY_SUFFIX = struct.Struct("<QQ").pack
# Each slot's first try, counter 0.
_FIRST_TRY_SUFFIX = tuple(
    _TRY_SUFFIX(slot, 0) for slot in range(SLOTS_PER_EPOCH)
)
# Tries per slot that need no packing: after the first, the suffixes of
# counters 1 .. _RETRY_TABLE_TRIES - 1 come from _RETRY_SUFFIXES[slot],
# a row built on the slot's first rejection and kept for later seeds.
_RETRY_TABLE_TRIES = 64
_RETRY_SUFFIXES: list[Optional[tuple[bytes, ...]]] = [None] * SLOTS_PER_EPOCH
# A try's digest read as (big-endian candidate draw, acceptance byte).
_DRAW = struct.Struct(">QB").unpack_from


def _packed_retry(
    fresh, slot: int, size: int, limits: Sequence[int], try_limit: int
) -> int:
    """The candidate accepted on one of the slot's tries past the retry
    table, each with its suffix packed; SelectionError when try
    `try_limit` is reached and rejected first."""
    for counter in range(_RETRY_TABLE_TRIES, try_limit):
        hasher = fresh()
        hasher.update(_TRY_SUFFIX(slot, counter))
        draw, byte = _DRAW(hasher.digest())
        candidate = draw % size
        if byte < limits[candidate]:
            return candidate
    raise SelectionError(
        f"no candidate accepted for slot {slot} after {try_limit} tries"
    )


def _selection(
    seed: bytes, limits: Sequence[int], marked: Sequence[bool], floor: int
) -> tuple[int, list[int]]:
    """The selection loop: the number of marked proposers and the
    proposer indices, in slot order.

    Try `counter` of a slot hashes seed || slot || counter; the first 8
    digest bytes pick the candidate and byte 8 is its acceptance draw.
    Each slot's first try runs inline; a registry whose limits are all
    256 never rejects one, so it builds no retry table row and packs no
    suffix.  A rejected slot's retries take their suffixes from its row
    of the retry table, and _packed_retry packs those past it.  A slot
    raises SelectionError after exactly _SELECTION_TRY_LIMIT tries, a
    limit read at each call and kept when it is shorter than the table.

    The loop stops after the slot whose unmarked proposer brings the
    unmarked count to 32 - floor (at the first unmarked one when floor
    is 32 or more); floor = -1 selects every slot.
    """
    size = len(limits)
    try_limit = _SELECTION_TRY_LIMIT
    retry_table = _RETRY_SUFFIXES
    fresh = sha256(seed).copy
    proposers: list[int] = []
    count = 0
    misses = SLOTS_PER_EPOCH - floor
    for slot, suffix in enumerate(_FIRST_TRY_SUFFIX):
        hasher = fresh()
        hasher.update(suffix)
        draw, byte = _DRAW(hasher.digest())
        candidate = draw % size
        if byte >= limits[candidate]:
            retries = retry_table[slot]
            if retries is None:
                retries = retry_table[slot] = tuple(
                    _TRY_SUFFIX(slot, counter)
                    for counter in range(1, _RETRY_TABLE_TRIES)
                )
            if try_limit < _RETRY_TABLE_TRIES:
                retries = retries[: try_limit - 1]
            for suffix in retries:
                hasher = fresh()
                hasher.update(suffix)
                draw, byte = _DRAW(hasher.digest())
                candidate = draw % size
                if byte < limits[candidate]:
                    break
            else:
                candidate = _packed_retry(
                    fresh, slot, size, limits, try_limit
                )
        proposers.append(candidate)
        if marked[candidate]:
            count += 1
        else:
            misses -= 1
            if misses <= 0:
                break
    return count, proposers


def select_proposers(seed: bytes, registry: Registry) -> tuple[int, ...]:
    """One proposer index per slot, balance-weighted by acceptance
    sampling: a uniformly drawn candidate is kept with probability
    effective_balance / MAX_EFFECTIVE_BALANCE (quantized to 1/256)."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    limits = registry.limits
    # Nothing marked; floor -1 selects every slot.
    return tuple(_selection(seed, limits, bytes(len(limits)), -1)[1])


class _EpochStateFields(NamedTuple):
    epoch: int
    proposer_by_slot: tuple[int, ...]
    posted: Optional[list[Optional[bytes]]] = None


class EpochState(_EpochStateFields):
    """Per-epoch ledger: proposer schedule and posted reveals.  The
    fields are fixed; `posted` is a list that post_reveal fills, a fresh
    one of 32 Nones when none is given."""

    __slots__ = ()

    def __new__(
        cls,
        epoch: int,
        proposer_by_slot: tuple[int, ...],
        posted: Optional[list[Optional[bytes]]] = None,
    ) -> "EpochState":
        if posted is None:
            posted = [None] * SLOTS_PER_EPOCH
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        if len(proposer_by_slot) != SLOTS_PER_EPOCH:
            raise ValueError(
                f"need {SLOTS_PER_EPOCH} proposers, got "
                f"{len(proposer_by_slot)}"
            )
        if len(posted) != SLOTS_PER_EPOCH:
            raise ValueError("posted must have one entry per slot")
        return super().__new__(cls, epoch, proposer_by_slot, posted)

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
