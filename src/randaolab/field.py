"""Prime-field arithmetic and Lagrange interpolation at zero.

The production field uses the smallest prime above 2**256 so that any
32-byte string embeds injectively as a field element.  The modulus is a
construction parameter: small primes (17, 251, ...) give fields where
exhaustive checks are feasible, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# Smallest prime above 2**256; verified at import by the Miller-Rabin check
# below and independently re-derived in the test suite.
PRIME_256 = 2**256 + 297

# Fixed-width wire size for one field element.  33 bytes because values of
# the production field can exceed 2**256 - 1.
ELEMENT_BYTES = 33

SECRET_BYTES = 32

# Witness set giving a deterministic Miller-Rabin result for all n < 3.3e24;
# for larger n (e.g. PRIME_256) the same bases act as a strong
# probable-prime test, which is adequate for a construction-time guard.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed witness bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic in GF(modulus) over plain ints.

    All methods take and return ints in [0, modulus); callers that want
    wrapped values use element() / FieldElement.
    """

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2 or not is_probable_prime(self.modulus):
            raise ValueError(f"modulus must be prime, got {self.modulus}")

    # -- scalar ops ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.modulus)

    def batch_inv(self, values: Sequence[int]) -> list[int]:
        """Invert many nonzero values with a single modular inversion."""
        m = self.modulus
        prefix = [1] * (len(values) + 1)
        for i, v in enumerate(values):
            if v % m == 0:
                raise ZeroDivisionError("inverse of zero")
            prefix[i + 1] = prefix[i] * v % m
        acc = pow(prefix[-1], -1, m)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = acc * prefix[i] % m
            acc = acc * values[i] % m
        return out

    # -- polynomials -----------------------------------------------------

    def eval_at(self, coefficients: Sequence[int], x: int) -> int:
        """Evaluate a polynomial given low-to-high coefficients (Horner)."""
        m = self.modulus
        acc = 0
        for c in reversed(coefficients):
            acc = (acc * x + c) % m
        return acc

    def interpolate_at_zero(self, points: Sequence[tuple[int, int]]) -> int:
        """Value at x=0 of the unique degree <= len(points)-1 polynomial
        through the given (x, y) points.

        Only the constant term is ever needed, so this evaluates the
        Lagrange basis at zero directly instead of building coefficients.
        """
        if not points:
            raise ValueError("need at least one point")
        m = self.modulus
        xs = [x % m for x, _ in points]
        if 0 in xs:
            raise ValueError("x coordinates must be nonzero")
        if len(set(xs)) != len(xs):
            raise ValueError("x coordinates must be distinct")
        denoms = []
        for i, xi in enumerate(xs):
            d = 1
            for j, xj in enumerate(xs):
                if i != j:
                    d = d * (xj - xi) % m
            denoms.append(d)
        inv_denoms = self.batch_inv(denoms)
        acc = 0
        for i, (xi, (_, y)) in enumerate(zip(xs, points)):
            num = 1
            for j, xj in enumerate(xs):
                if j != i:
                    num = num * xj % m
            acc = (acc + y * num % m * inv_denoms[i]) % m
        return acc

    def lagrange_eval(self, points: Sequence[tuple[int, int]], x: int) -> int:
        """Value at arbitrary x of the interpolating polynomial.

        O(k^2) with one inversion per point; used only for consistency
        probing on small point sets, not in the hot recovery path.
        """
        m = self.modulus
        xs = [px % m for px, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("x coordinates must be distinct")
        x %= m
        for xi, (_, y) in zip(xs, points):
            if xi == x:
                return y % m
        acc = 0
        for i, xi in enumerate(xs):
            term = points[i][1] % m
            for j, xj in enumerate(xs):
                if j != i:
                    term = term * ((x - xj) % m) % m
                    term = term * pow((xi - xj) % m, -1, m) % m
            acc = (acc + term) % m
        return acc

    # -- wrapped values and wire form -------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    def encode(self, value: int) -> bytes:
        """Fixed-width big-endian wire form (ELEMENT_BYTES bytes)."""
        if not 0 <= value < self.modulus:
            raise ValueError("value out of field range")
        return value.to_bytes(ELEMENT_BYTES, "big")

    def decode(self, blob: bytes) -> int:
        if len(blob) != ELEMENT_BYTES:
            raise ValueError(f"expected {ELEMENT_BYTES} bytes, got {len(blob)}")
        value = int.from_bytes(blob, "big")
        if value >= self.modulus:
            raise ValueError("encoded value out of field range")
        return value

    def embed32(self, secret: bytes) -> int:
        """Injective embedding of a 32-byte string as a field element.

        Requires modulus > 2**256 so the map is total and injective.
        """
        if len(secret) != SECRET_BYTES:
            raise ValueError(f"expected {SECRET_BYTES} bytes, got {len(secret)}")
        if self.modulus <= 2**256:
            raise ValueError("field too small to embed 32-byte secrets")
        return int.from_bytes(secret, "big")

    def extract32(self, value: int) -> bytes:
        """Inverse of embed32; the caller handles out-of-image values."""
        if not 0 <= value < self.modulus:
            raise ValueError("value out of field range")
        if value >= 2**256:
            raise ValueError("value outside the 32-byte image")
        return value.to_bytes(SECRET_BYTES, "big")


@dataclass(frozen=True)
class FieldElement:
    """An int bound to its field; shares carry their y values this way."""

    value: int
    field: PrimeField

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.field.modulus:
            raise ValueError("value out of field range")

    def encode(self) -> bytes:
        return self.field.encode(self.value)


@dataclass(frozen=True)
class SharePoint:
    """An evaluation (x, f(x)) with x a small nonzero share index."""

    x: int
    y: FieldElement

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ValueError("share index must be >= 1")


FIELD_256 = PrimeField(PRIME_256)
