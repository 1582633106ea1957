"""Randomness-beacon laboratory.

Implements the classic XOR commit-and-reveal beacon with balance-
weighted proposer selection, reproduces the last-revealer grinding
bias, and measures a threshold-secret-sharing variant where withheld
reveals are recovered by the other proposers.
"""

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
    count_selected,
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
    enumerate_strategies,
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
        "RecoveryOutcome",
        "RevealPhaseState",
        "SecurityCase",
        "ShareEnvelope",
        "adversary_flip_set",
        "apply_flip_strategy",
        "best_flip_strategy",
        "classify_security_case",
        "distribute_shares",
        "evaluate_flip_strategy",
        "recover_all",
        "run_reveal_phase",
        "share_index",
    ),
}
_LAZY_OWNER = {
    name: module for module, names in _LAZY.items() for name in names
}

__all__ = [
    "AttackOutcome",
    "AttackerProfile",
    "ConfigError",
    "CorruptShares",
    "DEFAULT_STRATEGY_CAP",
    "DOMAIN_BEACON_PROPOSER",
    "DOMAIN_RANDAO",
    "EmitError",
    "EpochState",
    "FIELD_256",
    "FieldElement",
    "InsufficientShares",
    "MAX_EFFECTIVE_BALANCE",
    "MetricsReport",
    "PRIME_256",
    "PrimeField",
    "ProtocolError",
    "RecoveryOutcome",
    "Registry",
    "RevealPhaseState",
    "ScenarioConfig",
    "SecurityCase",
    "SelectionError",
    "SLOTS_PER_EPOCH",
    "ShareEnvelope",
    "SharePoint",
    "SssConfig",
    "Strategy",
    "Validator",
    "adversary_flip_set",
    "apply_flip_strategy",
    "best_flip_strategy",
    "best_strategy",
    "classify_security_case",
    "compute_reveal",
    "count_selected",
    "derive_seed",
    "distribute_shares",
    "emit",
    "enumerate_strategies",
    "evaluate_flip_strategy",
    "evaluate_strategy",
    "load_grid",
    "load_scenario",
    "mix_reveals",
    "recover",
    "recover_all",
    "run_reveal_phase",
    "run_scenario",
    "secrecy_probe",
    "select_proposers",
    "share_index",
    "split",
    "sweep",
    "tail_decision_slots",
]


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
