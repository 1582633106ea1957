"""The twelve records, seven of the classic path and five of the
share layer, are validated, immutable named tuples with pinned field
names, order and repr.  Their checks run in the constructor, also when
the worker pool unpickles them and when `ScenarioConfig.replace` copies
one.  `_replace` builds a record without the checks; here it makes the
bad records that unpickling must reject."""

import pickle

import pytest

from randaolab.adversary import AttackerProfile, AttackOutcome, Strategy
from randaolab.field import FieldElement, PrimeField, SharePoint
from randaolab.harness import MetricsReport
from randaolab.randao import SLOTS_PER_EPOCH, EpochState, Validator
from randaolab.scenario import ConfigError, ScenarioConfig
from randaolab.shamir import SssConfig
from randaolab.threshold_randao import RevealPhaseState

PROPOSERS = tuple(range(SLOTS_PER_EPOCH))
METRICS = (9.5, 9.6, -0.1, 0.25, 0.0, 0, 0, 0, "0:4", 0.0, 32.0, 9.5, 0.3)
F17 = PrimeField(17)
POINT = SharePoint(1, FieldElement(3, F17))

# (record, its field names in order, bad fields, the error they raise;
# None where the record has no checks)
RECORDS = [
    (Validator(3, bytes(32), 10**9),
     ("index", "secret_key", "effective_balance"),
     dict(secret_key=bytes(31)), ValueError),
    (EpochState(5, PROPOSERS),
     ("epoch", "proposer_by_slot", "posted"),
     dict(posted=[None]), ValueError),
    (AttackerProfile(frozenset({1, 2}), 0.25),
     ("controlled", "stake_fraction"),
     dict(stake_fraction=1.5), ValueError),
    (Strategy(1, 2), ("withhold_mask", "width"),
     dict(withhold_mask=4), ValueError),
    (AttackOutcome(Strategy(1, 2), 5, 3),
     ("chosen", "payoff", "honest_payoff"),
     dict(payoff=2), ValueError),
    (ScenarioConfig(epochs=7), (
        "validator_count", "balance_model", "attacker_stake_fraction",
        "protocol", "sss_threshold_n", "participation_rate", "epochs",
        "rng_seed", "strategy_cap", "tail_limit", "broken_seed_fallback",
    ), dict(epochs=0), ConfigError),
    (MetricsReport(ScenarioConfig(), *METRICS), (
        "scenario", "mean_attacker_slots", "fair_share", "bias_gain",
        "std_error", "recovery_failure_rate", "cases_prevented",
        "cases_broken", "cases_collusion", "strategy_histogram",
        "mean_decision_width", "mean_joined_slots",
        "mean_attacker_proposer_slots", "achieved_stake_fraction",
    ), None, None),
    (F17, ("modulus",), dict(modulus=15), ValueError),
    (POINT.y, ("value", "field"), dict(value=17), ValueError),
    (POINT, ("x", "y"), dict(x=0), ValueError),
    (SssConfig(2, 5), ("threshold_n", "share_count_m"),
     dict(threshold_n=0), ValueError),
    (RevealPhaseState(4, PROPOSERS, ((POINT,),) + ((),) * 31,
                      frozenset({7}), frozenset({1}), frozenset({(0, 1)}), 2),
     ("epoch", "proposer_by_slot", "shares", "honest", "adversarial",
      "released", "t"), None, None),
]


@pytest.mark.parametrize(
    "record, fields, bad, error", RECORDS,
    ids=[type(row[0]).__name__ for row in RECORDS],
)
def test_record_is_a_validated_immutable_tuple(record, fields, bad, error):
    name = type(record).__name__
    values = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({values})"

    for attribute in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)

    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record) and clone == record
    if not isinstance(record, EpochState):  # its posted list is mutable
        assert hash(clone) == hash(record)

    if bad is not None:
        unchecked = record._replace(**bad)
        with pytest.raises(error):
            pickle.loads(pickle.dumps(unchecked))
        if isinstance(record, ScenarioConfig):
            with pytest.raises(error):
                record.replace(**bad)


def test_strategy_repr_text():
    assert repr(Strategy(1, 2)) == "Strategy(withhold_mask=1, width=2)"


def test_epoch_states_get_their_own_posted_list():
    first, second = EpochState(0, PROPOSERS), EpochState(0, PROPOSERS)
    assert first.posted == [None] * SLOTS_PER_EPOCH
    assert first.posted is not second.posted


def test_traced_methods_stay_on_the_public_records():
    # perfbench/tracer.py's TRACED_METHODS patches these in the class's
    # own namespace only: moved onto a private field-tuple base, they
    # would go untraced and their call counts would read 0.
    assert {"interpolate_at_zero", "eval_at"} <= set(vars(PrimeField))
    assert "post_reveal" in vars(EpochState)
