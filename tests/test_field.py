"""Field arithmetic: frozen small-modulus vectors, polynomial
evaluation and interpolation against exact and dumb oracles, embedding."""

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.field import (
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
    with pytest.raises(ValueError):
        F17.interpolate_at_zero([(17, 5)])
    with pytest.raises(ValueError):
        F17.interpolate_at_zero([(1, 5), (17, 6)])
    # A valid set gives one value through any representative of its x's.
    assert F17.interpolate_at_zero([(1, 5), (2, 6)]) == 4
    assert F17.interpolate_at_zero([(18, 5), (2, 6)]) == 4


def test_interpolation_errors_raise_on_every_call_after_caching():
    # A valid call first, then each bad input raises on every repeat:
    # no earlier result may be served in place of the check.
    assert F17.interpolate_at_zero([(1, 5), (2, 6)]) == 4
    for _ in range(3):
        with pytest.raises(ValueError):
            F17.interpolate_at_zero([])
        with pytest.raises(ValueError):
            F17.interpolate_at_zero([(17, 5)])
        with pytest.raises(ValueError):
            F17.interpolate_at_zero([(1, 5), (17, 6)])
        with pytest.raises(ValueError):
            F17.interpolate_at_zero([(1, 5), (18, 6)])
    # The valid set is still served, also through another representative.
    assert F17.interpolate_at_zero([(18, 5), (2, 6)]) == 4


def test_share_point_validation():
    with pytest.raises(ValueError):
        SharePoint(0, F17.element(3))


# -- polynomials --------------------------------------------------------

small_vals = st.integers(min_value=0, max_value=250)


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


# -- kernels against exact and per-step oracles --------------------------
#
# interpolate_at_zero is checked against sympy's interpolation over the
# rationals, reduced mod m; eval_at, which reduces once per Horner pass,
# against a per-step-mod Horner.

FIELDS = st.sampled_from([F17, F251, FIELD_256])


@st.composite
def point_sets(draw):
    """(field, points): nonzero x distinct after reduction, written as any
    representative (x >= m or negative); y anywhere, not just [0, m)."""
    f = draw(FIELDS)
    m = f.modulus
    residues = draw(
        st.lists(
            st.integers(min_value=1, max_value=m - 1),
            min_size=1,
            max_size=min(8, m - 1),
            unique=True,
        )
    )
    xs = [r + m * draw(st.integers(-2, 2)) for r in residues]
    ys = draw(st.lists(st.integers(-3 * m, 3 * m), min_size=len(xs),
                       max_size=len(xs)))
    return f, list(zip(xs, ys))


def rational_value_at_zero(points, modulus):
    """The interpolating polynomial over Q at 0, reduced mod modulus: its
    denominator divides products of x differences, all nonzero mod m."""
    sympy = pytest.importorskip("sympy")
    value = sympy.Rational(sympy.interpolate(points, 0))
    return value.p * pow(value.q, -1, modulus) % modulus


@given(case=point_sets())
@settings(max_examples=200)
def test_interpolate_at_zero_matches_lagrange_eval(case):
    f, points = case
    assert f.interpolate_at_zero(points) == rational_value_at_zero(
        points, f.modulus
    )


def horner_mod_each_step(f, coefficients, x):
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % f.modulus
    return acc


@given(f=FIELDS, data=st.data())
@settings(max_examples=200)
def test_eval_at_matches_per_step_mod_horner(f, data):
    m = f.modulus
    coeffs = data.draw(st.lists(st.integers(-m, 2 * m), max_size=8))
    x = data.draw(st.integers(-3 * m, 3 * m))
    assert f.eval_at(coeffs, x) == horner_mod_each_step(f, coeffs, x)


def test_same_xs_in_two_fields_give_each_fields_answer():
    # f(x) = (x - 1) / 2 through (1, 0), (3, 1): f(0) = -1/2.
    points = [(1, 0), (3, 1)]
    for f in (F17, F251, FIELD_256):
        assert 2 * f.interpolate_at_zero(points) % f.modulus == f.modulus - 1
    answers = {f.interpolate_at_zero(points) for f in (F17, F251, FIELD_256)}
    assert len(answers) == 3


# -- embedding ------------------------------------------------------------

def test_embedding_requires_wide_field():
    with pytest.raises(ValueError):
        F251.embed32(b"\x00" * 32)
    with pytest.raises(ValueError):
        FIELD_256.embed32(b"\x00" * 31)
