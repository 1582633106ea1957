"""Shamir threshold sharing of 32-byte secrets.

split() hides a secret in the constant term of a random degree n-1
polynomial and hands out m evaluations; any n of them recover the
secret exactly, any fewer reveal nothing (secrecy_probe demonstrates
the "nothing": every candidate secret stays consistent).
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Protocol

from .field import (
    FIELD_256,
    SECRET_BYTES,
    FieldElement,
    PrimeField,
    SharePoint,
)


class InsufficientShares(Exception):
    """Fewer shares than the threshold; recovery is information-
    theoretically impossible, not merely difficult."""


class CorruptShares(Exception):
    """Shares decoded to a value outside the 32-byte secret image,
    which cannot happen if they came from an honest split."""


class Entropy(Protocol):
    def randrange(self, stop: int) -> int: ...


# os.urandom behind the Entropy protocol.
SYSTEM_ENTROPY = random.SystemRandom()


class _SssConfigFields(NamedTuple):
    threshold_n: int
    share_count_m: int


class SssConfig(_SssConfigFields):
    """Threshold n out of m shares."""

    __slots__ = ()

    def __new__(cls, threshold_n: int, share_count_m: int) -> "SssConfig":
        if threshold_n < 1:
            raise ValueError("threshold must be >= 1")
        if share_count_m < threshold_n:
            raise ValueError("share count must be >= threshold")
        return super().__new__(cls, threshold_n, share_count_m)


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
) -> list[SharePoint]:
    """Share an arbitrary field element at x = 1..m."""
    field = value.field
    if config.share_count_m >= field.modulus:
        raise ValueError("share count must be below the field modulus")
    coeffs = _sample_polynomial(
        value.value, config.threshold_n - 1, field, entropy
    )
    return [
        SharePoint(x, FieldElement(field.eval_at(coeffs, x), field))
        for x in range(1, config.share_count_m + 1)
    ]


def split(
    secret: bytes,
    config: SssConfig,
    entropy: Entropy = SYSTEM_ENTROPY,
) -> list[SharePoint]:
    """Split a 32-byte secret into m shares, any n of which recover it."""
    return split_element(
        FIELD_256.element(FIELD_256.embed32(secret)), config, entropy
    )


def recover_element(
    points: Iterable[SharePoint], config: SssConfig
) -> FieldElement:
    """Interpolate the constant term from at least n shares.

    Uses the n lowest-x shares when more are given; extra shares from an
    honest split are redundant, so the choice cannot change the result.
    Shares are assumed honest: nothing checks them against one
    polynomial, so an off-polynomial share among the n lowest x changes
    the decoded value.
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
    """Recover the 32-byte secret from an honest split's shares.

    CorruptShares fires only when the decoded value is 2^256 or more; a
    tampered share that decodes below that returns another secret
    (see recover_element)."""
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
    if not pts:
        return True
    field = pts[0].y.field
    xs = {p.x % field.modulus for p in pts}
    if 0 in xs or len(xs) != len(pts):
        raise ValueError("share x coordinates must be nonzero and distinct")
    if not 0 <= candidate < field.modulus:
        raise ValueError("candidate out of field range")
    n = config.threshold_n
    if len(pts) < n:
        return True
    base = [(p.x, p.y.value) for p in pts[:n]]
    if field.interpolate_at_zero(base) != candidate:
        return False
    # A further share is on the base polynomial f iff the polynomial g through
    # it and base[1:] has g(0) = f(0): f - g then has n roots, so f = g.
    return all(
        field.interpolate_at_zero([(p.x, p.y.value)] + base[1:]) == candidate
        for p in pts[n:]
    )
