"""The package's public surface: every exported name resolves to the
object its defining module holds, none is listed twice, and names
removed from the library stay removed.  The share layer's names resolve
on first access, so these checks also run in a fresh interpreter."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def _top_level_names(module: str) -> set[str]:
    path = Path(randaolab.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_exports_are_the_defining_modules_objects():
    owners = {}
    for module in MODULES:
        for name in _top_level_names(module) & set(randaolab.__all__):
            owners.setdefault(name, []).append(module)
    assert sorted(owners) == sorted(randaolab.__all__)
    mismatched = []
    for name, modules in owners.items():
        owner = importlib.import_module(f"randaolab.{modules[0]}")
        exported = getattr(randaolab, name)
        if len(modules) > 1 or exported is not getattr(owner, name):
            mismatched.append(name)
    assert mismatched == []


def test_dir_lists_every_export():
    assert set(randaolab.__all__) <= set(dir(randaolab))


STAR_IMPORT_SCRIPT = """
import randaolab
names = set(dir(randaolab))
from randaolab import *
from randaolab import threshold_randao
print(threshold_randao.__name__, names >= set(randaolab.__all__),
      [n for n in randaolab.__all__ if n not in globals()])
"""


def test_star_import_and_submodule_import_in_fresh_interpreter():
    src = str(Path(randaolab.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", STAR_IMPORT_SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.split() == [
        "randaolab.threshold_randao", "True", "[]"
    ]


def test_removed_names_stay_removed():
    # hasattr is False only where the lookup raises AttributeError, which
    # the package's __getattr__ must do for every name it does not export.
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
