"""Shamir threshold sharing of 32-byte secrets.

split() hides a secret in the constant term of a random degree n-1
polynomial and hands out m evaluations; any n of them recover the
secret exactly, any fewer reveal nothing (secrecy_probe demonstrates
the "nothing": every candidate secret stays consistent).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .field import (
    ELEMENT_BYTES,
    FIELD_256,
    SECRET_BYTES,
    FieldElement,
    PrimeField,
    SharePoint,
)

# Wire form: 1-byte x index followed by the fixed-width element encoding.
SHARE_WIRE_BYTES = 1 + ELEMENT_BYTES


class InsufficientShares(Exception):
    """Fewer shares than the threshold; recovery is information-
    theoretically impossible, not merely difficult."""


class CorruptShares(Exception):
    """Shares decoded to a value outside the 32-byte secret image,
    which cannot happen if they came from an honest split."""


class Entropy(Protocol):
    def randrange(self, stop: int) -> int: ...


class _SystemEntropy:
    def randrange(self, stop: int) -> int:
        return secrets.randbelow(stop)


SYSTEM_ENTROPY = _SystemEntropy()


@dataclass(frozen=True)
class SssConfig:
    """Threshold n out of m shares."""

    threshold_n: int
    share_count_m: int

    def __post_init__(self) -> None:
        if self.threshold_n < 1:
            raise ValueError("threshold must be >= 1")
        if self.share_count_m < self.threshold_n:
            raise ValueError("share count must be >= threshold")


@dataclass(frozen=True)
class Secret:
    """A 32-byte secret together with its field embedding."""

    data: bytes
    field: PrimeField = FIELD_256

    def __post_init__(self) -> None:
        if len(self.data) != SECRET_BYTES:
            raise ValueError(f"secret must be {SECRET_BYTES} bytes")

    @property
    def value(self) -> int:
        return self.field.embed32(self.data)


def _sample_polynomial(
    constant: int, degree: int, field: PrimeField, entropy: Entropy
) -> list[int]:
    coeffs = [constant % field.modulus]
    for _ in range(degree):
        coeffs.append(entropy.randrange(field.modulus))
    return coeffs


def split_element(
    value: FieldElement,
    config: SssConfig,
    entropy: Entropy = SYSTEM_ENTROPY,
    x_coords: Sequence[int] | None = None,
) -> list[SharePoint]:
    """Share an arbitrary field element at x = 1..m (or given x coords)."""
    field = value.field
    if x_coords is None:
        x_coords = range(1, config.share_count_m + 1)
    else:
        if len(x_coords) != config.share_count_m:
            raise ValueError("need exactly m x coordinates")
        if len(set(x % field.modulus for x in x_coords)) != len(x_coords):
            raise ValueError("x coordinates must be distinct mod p")
        if any(x % field.modulus == 0 for x in x_coords):
            raise ValueError("x coordinates must be nonzero mod p")
    coeffs = _sample_polynomial(
        value.value, config.threshold_n - 1, field, entropy
    )
    return [
        SharePoint(x, field.element(field.eval_at(coeffs, x)))
        for x in x_coords
    ]


def split(
    secret: bytes,
    config: SssConfig,
    entropy: Entropy = SYSTEM_ENTROPY,
    field: PrimeField = FIELD_256,
) -> list[SharePoint]:
    """Split a 32-byte secret into m shares, any n of which recover it."""
    return split_element(
        field.element(field.embed32(secret)), config, entropy
    )


def recover_element(
    points: Iterable[SharePoint], config: SssConfig
) -> FieldElement:
    """Interpolate the constant term from at least n shares.

    Uses the n lowest-x shares when more are given; extra shares from an
    honest split are redundant, so the choice cannot change the result.
    """
    pts = sorted(points, key=lambda p: p.x)
    if len(pts) < config.threshold_n:
        raise InsufficientShares(
            f"need {config.threshold_n} shares, got {len(pts)}"
        )
    pts = pts[: config.threshold_n]
    field = pts[0].y.field
    return field.element(
        field.interpolate_at_zero([(p.x, p.y.value) for p in pts])
    )


def recover(points: Iterable[SharePoint], config: SssConfig) -> bytes:
    """Recover the 32-byte secret; CorruptShares if the decoded value
    falls outside the secret image (impossible for honest shares)."""
    value = recover_element(points, config)
    if value.value >= 2**256:
        raise CorruptShares(
            "decoded value exceeds the 32-byte range; shares are inconsistent"
        )
    return value.value.to_bytes(SECRET_BYTES, "big")


def secrecy_probe(
    points: Iterable[SharePoint], config: SssConfig, candidate: int
) -> bool:
    """Is `candidate` (a field value) still a possible secret given the
    observed shares?

    With fewer than n shares the answer is True for every candidate:
    exactly one degree n-1 polynomial matches the shares and hits the
    candidate at zero.  With n or more shares the polynomial is pinned
    down, so exactly one candidate survives.
    """
    pts = sorted(points, key=lambda p: p.x)
    if len(pts) != len(set(p.x for p in pts)):
        raise ValueError("share x coordinates must be distinct")
    if len(pts) < config.threshold_n:
        return True
    field = pts[0].y.field
    if not 0 <= candidate < field.modulus:
        raise ValueError("candidate out of field range")
    base = [(p.x, p.y.value) for p in pts[: config.threshold_n]]
    if field.interpolate_at_zero(base) != candidate:
        return False
    # Overdetermined: the remaining shares must sit on the same polynomial.
    for p in pts[config.threshold_n :]:
        if field.lagrange_eval(base, p.x) != p.y.value:
            return False
    return True


def encode_share(point: SharePoint) -> bytes:
    """1-byte x index plus fixed-width element encoding."""
    if not 1 <= point.x <= 255:
        raise ValueError("share index must fit one byte")
    return bytes([point.x]) + point.y.encode()


def decode_share(blob: bytes, field: PrimeField = FIELD_256) -> SharePoint:
    if len(blob) != SHARE_WIRE_BYTES:
        raise ValueError(
            f"expected {SHARE_WIRE_BYTES} bytes, got {len(blob)}"
        )
    x = blob[0]
    if x == 0:
        raise ValueError("share index must be >= 1")
    return SharePoint(x, field.element(field.decode(blob[1:])))

