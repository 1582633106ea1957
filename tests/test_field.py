"""Field arithmetic: frozen small-modulus vectors, algebraic laws,
interpolation against exhaustive and dumb oracles, wire form."""

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.field import (
    ELEMENT_BYTES,
    FIELD_256,
    FieldElement,
    PRIME_256,
    PrimeField,
    SharePoint,
    is_probable_prime,
)

F17 = PrimeField(17)
F251 = PrimeField(251)


# -- frozen vectors ------------------------------------------------------

def test_add_mod_17():
    assert F17.add(9, 12) == 4


def test_inverse_mod_17():
    assert F17.inv(3) == 6
    assert F17.mul(3, F17.inv(3)) == 1


def test_poly_eval_mod_17():
    # f(x) = 3 + 2x at x = 3
    assert F17.eval_at([3, 2], 3) == 9


def test_interpolate_at_zero_mod_17():
    assert F17.interpolate_at_zero([(2, 7), (3, 9)]) == 3


def test_prime_256_value():
    assert PRIME_256 == 2**256 + 297
    assert is_probable_prime(PRIME_256)


def test_prime_256_is_smallest_prime_above_2_256():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(PRIME_256)
    assert sympy.nextprime(2**256) == PRIME_256


def test_is_probable_prime_against_sieve():
    def sieve_primes(limit):
        flags = [True] * limit
        flags[0] = flags[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                for j in range(i * i, limit, i):
                    flags[j] = False
        return [i for i, f in enumerate(flags) if f]

    primes = set(sieve_primes(2000))
    for n in range(2000):
        assert is_probable_prime(n) == (n in primes), n


# -- construction and validation ----------------------------------------

def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_element_range_checked():
    with pytest.raises(ValueError):
        FieldElement(17, F17)
    with pytest.raises(ValueError):
        FieldElement(-1, F17)
    assert F17.element(20).value == 3


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        F17.inv(0)


def test_interpolation_input_validation():
    with pytest.raises(ValueError):
        F17.interpolate_at_zero([])
    with pytest.raises(ValueError):
        F17.interpolate_at_zero([(0, 5)])
    with pytest.raises(ValueError):
        F17.interpolate_at_zero([(2, 5), (2, 6)])
    with pytest.raises(ValueError):
        # distinct as integers but equal mod p
        F17.interpolate_at_zero([(1, 5), (18, 6)])


def test_share_point_validation():
    with pytest.raises(ValueError):
        SharePoint(0, F17.element(3))


# -- algebraic laws ------------------------------------------------------

small_vals = st.integers(min_value=0, max_value=250)


@given(a=small_vals, b=small_vals, c=small_vals)
def test_field_axioms_mod_251(a, b, c):
    f = F251
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@given(a=st.integers(min_value=1, max_value=PRIME_256 - 1))
@settings(max_examples=50)
def test_inverse_production_field(a):
    assert FIELD_256.mul(a, FIELD_256.inv(a)) == 1


@given(values=st.lists(st.integers(min_value=1, max_value=250), min_size=1,
                       max_size=20))
def test_batch_inversion_matches_single(values):
    assert F251.batch_inv(values) == [F251.inv(v) for v in values]


def test_batch_inversion_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        F251.batch_inv([3, 0, 5])


@given(coeffs=st.lists(small_vals, min_size=1, max_size=8), x=small_vals)
def test_horner_against_power_sum(coeffs, x):
    expected = sum(c * pow(x, i, 251) for i, c in enumerate(coeffs)) % 251
    assert F251.eval_at(coeffs, x) == expected


def test_eval_at_zero_is_constant_term():
    assert F251.eval_at([42, 7, 7, 7], 0) == 42


@given(
    coeffs=st.lists(small_vals, min_size=1, max_size=6),
    data=st.data(),
)
def test_interpolation_recovers_constant_term(coeffs, data):
    k = len(coeffs)
    xs = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=250),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    points = [(x, F251.eval_at(coeffs, x)) for x in xs]
    assert F251.interpolate_at_zero(points) == coeffs[0]


@given(
    coeffs=st.lists(small_vals, min_size=1, max_size=5),
    x=small_vals,
    data=st.data(),
)
def test_lagrange_eval_matches_polynomial(coeffs, x, data):
    k = len(coeffs)
    xs = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=250),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    points = [(xi, F251.eval_at(coeffs, xi)) for xi in xs]
    assert F251.lagrange_eval(points, x) == F251.eval_at(coeffs, x)


# -- wire form and embedding ---------------------------------------------

@given(value=st.integers(min_value=0, max_value=PRIME_256 - 1))
@settings(max_examples=50)
def test_encode_decode_round_trip(value):
    blob = FIELD_256.encode(value)
    assert len(blob) == ELEMENT_BYTES
    assert FIELD_256.decode(blob) == value


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        FIELD_256.decode(b"\x00" * 32)
    with pytest.raises(ValueError):
        FIELD_256.decode(FIELD_256.modulus.to_bytes(ELEMENT_BYTES, "big"))
    with pytest.raises(ValueError):
        FIELD_256.encode(PRIME_256)


@given(secret=st.binary(min_size=32, max_size=32))
@settings(max_examples=50)
def test_embed_extract_identity(secret):
    assert FIELD_256.extract32(FIELD_256.embed32(secret)) == secret


def test_embedding_requires_wide_field():
    with pytest.raises(ValueError):
        F251.embed32(b"\x00" * 32)
    with pytest.raises(ValueError):
        FIELD_256.embed32(b"\x00" * 31)
    with pytest.raises(ValueError):
        FIELD_256.extract32(2**256)  # representable but outside the image
