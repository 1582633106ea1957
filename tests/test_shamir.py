"""Shamir splitting and recovery: frozen vectors over GF(17), round
trips over the production field, secrecy probing."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from randaolab.field import FIELD_256, PrimeField, SharePoint
from randaolab.shamir import (
    SYSTEM_ENTROPY,
    CorruptShares,
    InsufficientShares,
    SssConfig,
    recover,
    recover_element,
    secrecy_probe,
    split,
    split_element,
)

F17 = PrimeField(17)
F251 = PrimeField(251)


class FixedEntropy:
    """Hands out scripted "random" coefficients."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, stop):
        value = self.values.pop(0)
        assert 0 <= value < stop
        return value


def test_config_validation():
    with pytest.raises(ValueError):
        SssConfig(0, 3)
    with pytest.raises(ValueError):
        SssConfig(4, 3)
    SssConfig(1, 1)


def test_split_frozen_vector_mod_17():
    # f(x) = 3 + 2x over GF(17): shares at x = 1, 2, 3.
    cfg = SssConfig(2, 3)
    shares = split_element(F17.element(3), cfg, FixedEntropy([2]))
    assert [(p.x, p.y.value) for p in shares] == [(1, 5), (2, 7), (3, 9)]


def test_split_rejects_share_count_at_or_above_the_modulus():
    # x = 17 is the secret itself in GF(17), and x = 18 repeats x = 1.
    for m in (17, 20):
        with pytest.raises(ValueError):
            split_element(F17.element(5), SssConfig(3, m), random.Random(0))
    shares = split_element(F17.element(5), SssConfig(3, 16), random.Random(0))
    assert [p.x for p in shares] == list(range(1, 17))


def test_recover_frozen_vector_mod_17():
    cfg = SssConfig(2, 3)
    pts = [SharePoint(1, F17.element(5)), SharePoint(2, F17.element(7)),
           SharePoint(3, F17.element(9))]
    for pair in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
        assert recover_element(pair, cfg).value == 3
    assert recover_element(pts, cfg).value == 3


def test_insufficient_shares():
    cfg = SssConfig(2, 3)
    with pytest.raises(InsufficientShares):
        recover_element([SharePoint(1, F17.element(5))], cfg)
    with pytest.raises(InsufficientShares):
        recover([], cfg)


def test_corrupt_shares_detected():
    # A committed value at or above 2**256 round-trips as a field
    # element but cannot be a 32-byte secret.
    cfg = SssConfig(2, 3)
    shares = split_element(
        FIELD_256.element(2**256), cfg, FixedEntropy([12345])
    )
    with pytest.raises(CorruptShares):
        recover(shares[:2], cfg)


@given(
    secret=st.binary(min_size=32, max_size=32),
    n=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_split_recover_round_trip(secret, n, extra, seed):
    cfg = SssConfig(n, n + extra)
    shares = split(secret, cfg, random.Random(seed))
    rng = random.Random(seed + 1)
    subset = rng.sample(shares, n)
    assert recover(subset, cfg) == secret
    assert recover(shares, cfg) == secret


def test_oversampled_recovery_uses_lowest_x():
    # 33 = not a valid bound; explicit check that extra honest shares
    # do not perturb recovery.
    cfg = SssConfig(3, 10)
    secret = bytes(range(32))
    shares = split(secret, cfg, random.Random(9))
    assert recover(shares[4:], cfg) == secret
    assert recover(list(reversed(shares)), cfg) == secret


def test_tampered_share_changes_recovery():
    cfg = SssConfig(3, 5)
    secret = b"\xAA" * 32
    shares = split(secret, cfg, random.Random(3))
    bad = SharePoint(
        shares[0].x,
        FIELD_256.element(shares[0].y.value + 1),
    )
    result = recover_element([bad, shares[1], shares[2]], cfg)
    assert result.value != FIELD_256.embed32(secret)
    # Nothing checks a share against the dealer's polynomial: at n = 16
    # an off-polynomial share among the 16 lowest x decodes silently to
    # another 32-byte value (CorruptShares fires only at 2^256 or more).
    cfg = SssConfig(16, 31)
    shares = split(secret, cfg, random.Random(3))
    bad = SharePoint(1, FIELD_256.element(shares[0].y.value + 1))
    result = recover([bad, *shares[1:17]], cfg)
    assert len(result) == 32 and result != secret
    assert recover(shares[1:17], cfg) == secret


# -- default (system) entropy -------------------------------------------

def test_default_entropy_split_round_trips():
    cfg = SssConfig(3, 5)
    secret = bytes(range(32))
    shares = split(secret, cfg)
    assert recover(shares[2:], cfg) == secret
    assert recover(shares, cfg) == secret


def test_default_entropy_splits_differ():
    # Two fresh degree-2 polynomials collide with probability ~2^-512.
    cfg = SssConfig(3, 5)
    secret = b"\x5A" * 32
    assert split(secret, cfg) != split(secret, cfg)


def test_default_entropy_rejects_an_empty_range():
    with pytest.raises(ValueError):
        SYSTEM_ENTROPY.randrange(0)


# -- secrecy -------------------------------------------------------------

def test_secrecy_probe_below_threshold_accepts_everything():
    cfg = SssConfig(2, 3)
    shares = split_element(F251.element(77), cfg, random.Random(0))
    for candidate in range(251):
        assert secrecy_probe(shares[:1], cfg, candidate)


def test_secrecy_probe_at_threshold_pins_secret():
    cfg = SssConfig(2, 3)
    shares = split_element(F251.element(77), cfg, random.Random(0))
    survivors = [
        c for c in range(251) if secrecy_probe(shares[:2], cfg, c)
    ]
    assert survivors == [77]


def test_secrecy_probe_overdetermined_consistency():
    cfg = SssConfig(2, 3)
    shares = split_element(F251.element(77), cfg, random.Random(0))
    assert secrecy_probe(shares, cfg, 77)
    # Break the third share: no candidate is consistent any more.
    bad = shares[:2] + [
        SharePoint(shares[2].x,
                   F251.element(shares[2].y.value + 1))
    ]
    survivors = [c for c in range(251) if secrecy_probe(bad, cfg, c)]
    assert survivors == []


def test_secrecy_probe_overdetermined_against_exhaustive_oracle():
    # Oracle: enumerate every polynomial of degree <= n-1 over GF(17)
    # and keep the constant terms of those matching all observed shares.
    # n to n+2 shares, every second set with one share moved off its
    # polynomial.
    f = PrimeField(17)
    rng = random.Random(5)
    sizes = Counter()
    for n in (1, 2, 3):
        cfg = SssConfig(n, n + 2)
        for count in range(n, n + 3):
            for trial in range(5):
                coeffs = [rng.randrange(17) for _ in range(n)]
                xs = rng.sample(range(1, 17), count)
                ys = [f.eval_at(coeffs, x) for x in xs]
                if trial % 2:
                    ys[rng.randrange(count)] += rng.randrange(1, 17)
                pts = [SharePoint(x, f.element(y)) for x, y in zip(xs, ys)]
                oracle = {
                    poly[0]
                    for poly in itertools.product(range(17), repeat=n)
                    if all(f.eval_at(poly, p.x) == p.y.value for p in pts)
                }
                probe = {c for c in range(17) if secrecy_probe(pts, cfg, c)}
                assert probe == oracle, (n, xs, ys)
                sizes[len(oracle)] += 1
    assert sizes[0] > 0 and sizes[1] > 0


def test_secrecy_probe_validation():
    cfg = SssConfig(2, 3)
    shares = split_element(F251.element(5), cfg, random.Random(1))
    with pytest.raises(ValueError):
        secrecy_probe([shares[0], shares[0]], cfg, 5)
    with pytest.raises(ValueError):
        secrecy_probe(shares[:2], cfg, 251)
    with pytest.raises(ValueError):
        secrecy_probe(shares[:1], cfg, 10**100)
    # x coordinates distinct as integers but congruent, or zero, mod 17.
    for xs in ((1, 18), (3, 17)):
        pts = [SharePoint(x, F17.element(x)) for x in xs]
        with pytest.raises(ValueError):
            secrecy_probe(pts, cfg, 5)
        with pytest.raises(ValueError):
            secrecy_probe(pts, SssConfig(3, 3), 5)
