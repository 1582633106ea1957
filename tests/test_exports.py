"""The package's public surface: every exported name resolves, none is
listed twice, and names removed from the library stay removed."""

import importlib
import inspect

import randaolab
from randaolab.shamir import split_element

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

# Wire codecs, wrapper types, the unused epoch pipeline, second XOR
# folds, restated name lists that no caller needed, per-protocol
# runners beside run_scenario, the grinders' old over-budget error, a
# list copy of Registry.limits, and the trial's own Lagrange recovery.
REMOVED = (
    "AdversaryDecision",
    "ELEMENT_BYTES",
    "ENVELOPE_WIRE_BYTES",
    "FORMATS",
    "Reveal",
    "SCENARIO_COLUMNS",
    "SECONDS_PER_SLOT",
    "SHARE_WIRE_BYTES",
    "Secret",
    "StrategyCapExceeded",
    "ZERO_MIX",
    "acceptance_limits",
    "advance_pipeline",
    "decode",
    "decode_envelope",
    "decode_share",
    "encode",
    "encode_envelope",
    "encode_share",
    "extract32",
    "finalize",
    "flip_decision_slots",
    "flip_reveals",
    "genesis_seed",
    "run_classic",
    "run_sss",
    "xor32",
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
    owners += [randaolab.EpochState]
    present = [
        (getattr(owner, "__name__", owner), name)
        for owner in owners
        for name in REMOVED
        if hasattr(owner, name)
    ]
    assert present == []


def test_selection_kernel_is_exported():
    # The column registry, whose limits are the grinding kernel's
    # per-registry table, and the kernel's per-seed counter.
    for name in ("Registry", "count_selected"):
        assert name in randaolab.__all__
        assert getattr(randaolab, name) is getattr(randaolab.randao, name)


def test_sharing_takes_the_production_field_only():
    for fn in (randaolab.split, randaolab.distribute_shares):
        assert "field" not in inspect.signature(fn).parameters


def test_split_element_takes_no_x_coords():
    assert "x_coords" not in inspect.signature(split_element).parameters
