"""Prime-field arithmetic and Lagrange interpolation at zero.

The production field uses the smallest prime above 2**256 so that any
32-byte string embeds injectively as a field element.  The modulus is a
construction parameter: small primes (17, 251, ...) give fields where
exhaustive checks are feasible, which the tests rely on.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

# Smallest prime above 2**256; verified at import by the Miller-Rabin check
# below and independently re-derived in the test suite.
PRIME_256 = 2**256 + 297

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


class _PrimeFieldFields(NamedTuple):
    modulus: int


class PrimeField(_PrimeFieldFields):
    """GF(modulus) over plain ints: polynomial evaluation and
    interpolation at zero; scalar arithmetic is plain `% modulus`.

    The methods return ints in [0, modulus); callers that want wrapped
    values use element() / FieldElement.
    """

    __slots__ = ()

    def __new__(cls, modulus: int) -> "PrimeField":
        if modulus < 2 or not is_probable_prime(modulus):
            raise ValueError(f"modulus must be prime, got {modulus}")
        return super().__new__(cls, modulus)

    # -- polynomials ------------------------------------------------------

    def eval_at(self, coefficients: Sequence[int], x: int) -> int:
        """Evaluate a polynomial given low-to-high coefficients (Horner)."""
        acc = 0
        for c in reversed(coefficients):
            acc = acc * x + c
        return acc % self.modulus

    def interpolate_at_zero(self, points: Sequence[tuple[int, int]]) -> int:
        """Value at x=0 of the unique degree <= len(points)-1 polynomial
        through the given (x, y) points.

        Lagrange form at zero: y_i weighted by prod x_j / prod (x_j - x_i)
        over j != i, with one modular inversion per point.
        """
        if not points:
            raise ValueError("need at least one point")
        m = self.modulus
        xs = [x % m for x, _ in points]
        if 0 in xs or len(set(xs)) != len(xs):
            raise ValueError("x coordinates must be nonzero and distinct")
        acc = 0
        for xi, (_, y) in zip(xs, points):
            num = den = 1
            for xj in xs:
                if xj != xi:
                    num *= xj
                    den *= xj - xi
            acc += y * num * pow(den, -1, m)
        return acc % m

    # -- wrapped values and embedding -------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    def embed32(self, secret: bytes) -> int:
        """Injective embedding of a 32-byte string as a field element.

        Requires modulus > 2**256 so the map is total and injective.
        """
        if len(secret) != SECRET_BYTES:
            raise ValueError(f"expected {SECRET_BYTES} bytes, got {len(secret)}")
        if self.modulus <= 2**256:
            raise ValueError("field too small to embed 32-byte secrets")
        return int.from_bytes(secret, "big")


class _FieldElementFields(NamedTuple):
    value: int
    field: PrimeField


class FieldElement(_FieldElementFields):
    """An int bound to its field; shares carry their y values this way."""

    __slots__ = ()

    # Built once per share, as is SharePoint:
    # tuple.__new__ skips the generated __new__'s frame.
    def __new__(cls, value: int, field: PrimeField) -> "FieldElement":
        if not 0 <= value < field.modulus:
            raise ValueError("value out of field range")
        return tuple.__new__(cls, (value, field))


class _SharePointFields(NamedTuple):
    x: int
    y: FieldElement


class SharePoint(_SharePointFields):
    """An evaluation (x, f(x)) with x a small nonzero share index."""

    __slots__ = ()

    def __new__(cls, x: int, y: FieldElement) -> "SharePoint":
        if x < 1:
            raise ValueError("share index must be >= 1")
        return tuple.__new__(cls, (x, y))


FIELD_256 = PrimeField(PRIME_256)
