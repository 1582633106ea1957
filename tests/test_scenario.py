"""Scenario config: defaults, validation, the INI file format, and
grid expansion for sweeps."""

import math
import random

import pytest

from randaolab.adversary import DEFAULT_STRATEGY_CAP
from randaolab.randao import MAX_EFFECTIVE_BALANCE
from randaolab.scenario import (
    MAX_SWEEP_CELLS,
    MAX_VALIDATORS,
    MIN_PARETO_SHAPE,
    ConfigError,
    ScenarioConfig,
    grid_cells,
    load_grid,
    load_scenario,
    parse_balance_model,
)


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.validator_count == 200
    assert cfg.balance_model == "uniform"
    assert cfg.attacker_stake_fraction == 0.3
    assert cfg.protocol == "classic"
    assert cfg.sss_threshold_n == 16
    assert cfg.participation_rate == 1.0
    assert cfg.epochs == 1000
    assert cfg.rng_seed == 0
    assert cfg.strategy_cap == 12
    assert cfg.tail_limit is None
    assert cfg.broken_seed_fallback is False


@pytest.mark.parametrize(
    "changes",
    [
        {"validator_count": 0},
        {"validator_count": MAX_VALIDATORS + 1},
        {"balance_model": "zipf"},
        {"balance_model": "pareto:abc"},
        {"balance_model": "pareto:-1"},
        {"balance_model": "explicit:"},
        {"balance_model": "explicit:1,2,x"},
        {"balance_model": "explicit:0", "validator_count": 1},
        {"balance_model": "explicit:5,5", "validator_count": 3},
        # Every balance below MAX/256: no validator can ever be selected.
        {"balance_model": "explicit:100000000,100000000",
         "validator_count": 2},
        {"balance_model": f"explicit:{MAX_EFFECTIVE_BALANCE // 256 - 1}",
         "validator_count": 1},
        # One selectable validator among 40: each selection try accepts
        # with chance 1/10240, below 1/512.
        {"balance_model": "explicit:125000000" + ",1" * 39,
         "validator_count": 40},
        {"attacker_stake_fraction": -0.1},
        {"attacker_stake_fraction": 1.5},
        {"protocol": "pos"},
        {"protocol": "sss", "sss_threshold_n": 0},
        {"protocol": "sss", "sss_threshold_n": 32},
        {"participation_rate": -0.2},
        {"participation_rate": 1.01},
        {"epochs": 0},
        {"rng_seed": -1},
        {"rng_seed": 2**64},
        {"strategy_cap": -1},
        {"tail_limit": -3},
        {"strategy_cap": 21},
        # Values of the wrong type, as a library caller might pass them.
        {"rng_seed": 1.5},
        {"rng_seed": True},
        {"epochs": 2.5},
        {"epochs": "2"},
        {"validator_count": 40.0},
        {"validator_count": True},
        {"strategy_cap": 2.5},
        {"strategy_cap": False},
        {"tail_limit": 1.5},
        {"tail_limit": True},
        {"protocol": "sss", "sss_threshold_n": 4.5},
        {"protocol": "sss", "sss_threshold_n": True},
        {"sss_threshold_n": 4.5},
        {"attacker_stake_fraction": True},
        {"attacker_stake_fraction": "0.3"},
        {"participation_rate": False},
        {"participation_rate": None},
        {"broken_seed_fallback": "no"},
        {"broken_seed_fallback": 1},
        {"broken_seed_fallback": None},
        {"protocol": b"classic"},
        {"protocol": None},
        {"balance_model": None},
        {"balance_model": 3},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ConfigError):
        ScenarioConfig(**changes)


def test_validation_accepts_int_fractions_and_no_tail_limit():
    cfg = ScenarioConfig(
        attacker_stake_fraction=0, participation_rate=1, tail_limit=None
    )
    assert cfg.attacker_stake_fraction == 0
    assert cfg.participation_rate == 1
    cfg = ScenarioConfig(tail_limit=0, broken_seed_fallback=True)
    assert cfg.tail_limit == 0 and cfg.broken_seed_fallback is True


def test_one_selectable_explicit_balance_is_enough():
    # MAX/256 is the smallest balance the acceptance test can pass.
    low = MAX_EFFECTIVE_BALANCE // 256
    cfg = ScenarioConfig(
        validator_count=2, balance_model=f"explicit:{low - 1},{low}"
    )
    assert cfg.validator_count == 2


def test_strategy_cap_upper_bound_is_inclusive():
    cfg = ScenarioConfig(strategy_cap=DEFAULT_STRATEGY_CAP)
    assert cfg.strategy_cap == DEFAULT_STRATEGY_CAP == 20


def test_validator_count_upper_bound_is_inclusive():
    # Validation only; no registry of this size is built.
    cfg = ScenarioConfig(validator_count=MAX_VALIDATORS)
    assert cfg.validator_count == MAX_VALIDATORS == 2**20


def test_threshold_unchecked_for_classic():
    # The threshold only matters when the sss protocol is selected.
    cfg = ScenarioConfig(protocol="classic", sss_threshold_n=99)
    assert cfg.sss_threshold_n == 99


def test_balance_model_parsing():
    assert parse_balance_model("uniform") == ("uniform", None)
    assert parse_balance_model("pareto:1.5") == ("pareto", 1.5)
    kind, balances = parse_balance_model("explicit:1,2,3")
    assert kind == "explicit"
    assert balances == [1, 2, 3]
    assert parse_balance_model(
        f"explicit:{MAX_EFFECTIVE_BALANCE}"
    ) == ("explicit", [MAX_EFFECTIVE_BALANCE])
    with pytest.raises(ConfigError):
        parse_balance_model(f"explicit:{MAX_EFFECTIVE_BALANCE + 1}")


class _LargestDraw(random.Random):
    """random() at its largest value, 1 - 2^-53: paretovariate's
    largest draw, 2^(53 / shape)."""

    def random(self):
        return 1 - 2**-53


@pytest.mark.parametrize(
    "shape", [math.nextafter(MIN_PARETO_SHAPE, 1.0), 0.054, 1.5, math.inf]
)
def test_pareto_shapes_above_the_bound_draw_finite_balances(shape):
    model, parsed = parse_balance_model(f"pareto:{shape!r}")
    assert (model, parsed) == ("pareto", shape)
    unit = MAX_EFFECTIVE_BALANCE // 32
    assert math.isfinite(_LargestDraw().paretovariate(shape) * unit)


@pytest.mark.parametrize(
    "shape", ["nan", "-inf", "-1", "0", "1e-300", "0.053",
              repr(MIN_PARETO_SHAPE)],
)
def test_pareto_shapes_at_or_below_the_bound_are_rejected(shape):
    assert 0.053 < MIN_PARETO_SHAPE < 0.054
    with pytest.raises(ConfigError, match="pareto shape must be > 0.0533"):
        parse_balance_model(f"pareto:{shape}")


def test_pareto_largest_draw_overflows_below_the_bound():
    unit = MAX_EFFECTIVE_BALANCE // 32
    assert math.isinf(_LargestDraw().paretovariate(0.053) * unit)


def test_replace_revalidates():
    cfg = ScenarioConfig()
    assert cfg.replace(epochs=5).epochs == 5
    assert cfg.replace(epochs=5) is not cfg
    with pytest.raises(ConfigError):
        cfg.replace(epochs=0)


def test_load_scenario_defaults_without_file():
    assert load_scenario() == ScenarioConfig()


def test_load_scenario_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[scenario]\n"
        "protocol = sss\n"
        "epochs = 50        # inline comment\n"
        "participation_rate = 0.25\n"
        "tail_limit = none\n"
        "broken_seed_fallback = yes\n"
    )
    cfg = load_scenario(str(path))
    assert cfg.protocol == "sss"
    assert cfg.epochs == 50
    assert cfg.participation_rate == 0.25
    assert cfg.tail_limit is None
    assert cfg.broken_seed_fallback is True
    assert cfg.validator_count == 200  # untouched default


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nepochs = 50\nrng_seed = 7\n")
    cfg = load_scenario(str(path), {"epochs": 9})
    assert cfg.epochs == 9
    assert cfg.rng_seed == 7


def test_load_scenario_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nepoch_count = 50\n")
    with pytest.raises(ConfigError, match="unknown scenario key"):
        load_scenario(str(path))
    with pytest.raises(ConfigError, match="unknown scenario key"):
        load_scenario(None, {"epoch_count": 50})


def test_load_scenario_rejects_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[simulation]\nepochs = 50\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_scenario(str(path))


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_scenario("/nonexistent/run.ini")


def test_load_scenario_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xff\xfe[scenario]\nepochs = 5\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_scenario(str(path))
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_grid(str(path))


def test_load_scenario_bad_values(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="bad value for epochs"):
        load_scenario(str(path))
    path.write_text("[scenario]\nbroken_seed_fallback = maybe\n")
    with pytest.raises(ConfigError, match="broken_seed_fallback"):
        load_scenario(str(path))
    path.write_text("no section header\n")
    with pytest.raises(ConfigError, match="cannot parse config file"):
        load_scenario(str(path))


def test_load_grid_axes_in_file_order(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[scenario]\n"
        "epochs = 2\n"
        "[grid]\n"
        "protocol = classic, sss\n"
        "participation_rate = 0.5, 1.0\n"
    )
    base, axes = load_grid(str(path))
    assert base.epochs == 2
    assert axes == [
        ("protocol", ["classic", "sss"]),
        ("participation_rate", [0.5, 1.0]),
    ]


def test_load_grid_requires_grid_section(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text("[scenario]\nepochs = 2\n")
    with pytest.raises(ConfigError, match="grid"):
        load_grid(str(path))


def test_load_grid_cell_cap(tmp_path):
    path = tmp_path / "sweep.ini"
    seeds = ",".join(str(i) for i in range(MAX_SWEEP_CELLS + 1))
    path.write_text(f"[grid]\nrng_seed = {seeds}\n")
    with pytest.raises(ConfigError, match="cap"):
        load_grid(str(path))


def test_grid_cells_row_major():
    base = ScenarioConfig(epochs=1)
    cells = grid_cells(
        base,
        [("protocol", ["classic", "sss"]), ("rng_seed", [1, 2])],
    )
    assert [(c.protocol, c.rng_seed) for c in cells] == [
        ("classic", 1),
        ("classic", 2),
        ("sss", 1),
        ("sss", 2),
    ]
    assert all(c.epochs == 1 for c in cells)


def test_grid_cells_checks_its_size_before_building(monkeypatch):
    built = []
    original = ScenarioConfig.replace

    def counting_replace(self, **changes):
        built.append(changes)
        return original(self, **changes)

    monkeypatch.setattr(ScenarioConfig, "replace", counting_replace)
    axes = [
        ("rng_seed", list(range(10**5))),
        ("epochs", list(range(1, 10**5 + 1))),
    ]
    with pytest.raises(ConfigError, match="cap"):
        grid_cells(ScenarioConfig(), axes)
    assert built == []
    cells = grid_cells(ScenarioConfig(), [("rng_seed", [1, 2])])
    assert len(cells) == len(built) == 2


def test_grid_cells_validates_each_cell():
    with pytest.raises(ConfigError):
        grid_cells(ScenarioConfig(), [("epochs", [1, 0])])
