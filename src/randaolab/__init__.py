"""Randomness-beacon laboratory.

Implements the classic XOR commit-and-reveal beacon with balance-
weighted proposer selection, reproduces the last-revealer grinding
bias, and measures a threshold-secret-sharing variant where withheld
reveals are recovered by the other proposers.
"""

from .field import (
    FIELD_256,
    FieldElement,
    PRIME_256,
    PrimeField,
    SharePoint,
)
from .shamir import (
    CorruptShares,
    InsufficientShares,
    SssConfig,
    recover,
    secrecy_probe,
    split,
)
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
from .threshold_randao import (
    RecoveryOutcome,
    RevealPhaseState,
    SecurityCase,
    ShareEnvelope,
    adversary_flip_set,
    apply_flip_strategy,
    best_flip_strategy,
    classify_security_case,
    distribute_shares,
    evaluate_flip_strategy,
    recover_all,
    run_reveal_phase,
    share_index,
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
