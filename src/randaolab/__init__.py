"""Randomness-beacon laboratory.

Implements the classic XOR commit-and-reveal beacon with balance-
weighted proposer selection, reproduces the last-revealer grinding
bias, and measures a threshold-secret-sharing variant where withheld
reveals are recovered by the other proposers.
"""

from types import ModuleType as _ModuleType

from .randao import (
    DOMAIN_BEACON_PROPOSER,
    DOMAIN_RANDAO,
    MAX_EFFECTIVE_BALANCE,
    SLOTS_PER_EPOCH,
    EpochState,
    ProtocolError,
    Registry,
    SelectionError,
    Validator,
    compute_reveal,
    derive_seed,
    mix_reveals,
    select_proposers,
)
from .adversary import (
    AttackerProfile,
    AttackOutcome,
    DEFAULT_STRATEGY_CAP,
    Strategy,
    best_strategy,
    evaluate_strategy,
    tail_decision_slots,
)
from .scenario import ConfigError, ScenarioConfig, load_grid, load_scenario
from .harness import (
    EmitError,
    MetricsReport,
    emit,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"

# The share layer, exported but imported on first access (PEP 562): a
# classic run never compiles or executes these modules.
_LAZY = {
    "field": (
        "FIELD_256",
        "FieldElement",
        "PRIME_256",
        "PrimeField",
        "SharePoint",
    ),
    "shamir": (
        "CorruptShares",
        "InsufficientShares",
        "SssConfig",
        "recover",
        "secrecy_probe",
        "split",
    ),
    "threshold_randao": (
        "RevealPhaseState",
        "apply_flip_strategy",
        "best_flip_strategy",
        "classify_security_case",
        "distribute_shares",
        "evaluate_flip_strategy",
        "recover_all",
        "run_reveal_phase",
    ),
}
_LAZY_OWNER = {
    name: module for module, names in _LAZY.items() for name in names
}

# Every public binding above but the submodules, and the lazy names.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY_OWNER)


def __getattr__(name: str):
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_OWNER))
