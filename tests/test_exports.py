"""The package's public surface: every exported name resolves, none is
listed twice, and names removed from the library stay removed."""

import importlib
import inspect

import randaolab

MODULES = (
    "adversary",
    "cli",
    "field",
    "harness",
    "randao",
    "scenario",
    "shamir",
    "threshold_randao",
)

# Wire codecs and wrapper types that no caller used.
REMOVED = (
    "ELEMENT_BYTES",
    "ENVELOPE_WIRE_BYTES",
    "Reveal",
    "SECONDS_PER_SLOT",
    "SHARE_WIRE_BYTES",
    "Secret",
    "decode",
    "decode_envelope",
    "decode_share",
    "encode",
    "encode_envelope",
    "encode_share",
    "extract32",
)


def test_all_has_no_duplicates():
    assert len(randaolab.__all__) == len(set(randaolab.__all__))


def test_every_exported_name_resolves():
    missing = [n for n in randaolab.__all__ if not hasattr(randaolab, n)]
    assert missing == []


def test_removed_names_stay_removed():
    owners = [randaolab] + [
        importlib.import_module(f"randaolab.{m}") for m in MODULES
    ]
    owners += [randaolab.PrimeField, randaolab.FieldElement]
    present = [
        (getattr(owner, "__name__", owner), name)
        for owner in owners
        for name in REMOVED
        if hasattr(owner, name)
    ]
    assert present == []


def test_sharing_takes_the_production_field_only():
    for fn in (randaolab.split, randaolab.distribute_shares):
        assert "field" not in inspect.signature(fn).parameters
