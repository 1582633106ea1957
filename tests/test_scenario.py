"""Scenario config: defaults, validation, the INI file format, and
grid expansion for sweeps."""

import pytest

from randaolab.adversary import DEFAULT_STRATEGY_CAP
from randaolab.randao import MAX_EFFECTIVE_BALANCE
from randaolab.scenario import (
    MAX_SWEEP_CELLS,
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
        {"balance_model": "zipf"},
        {"balance_model": "pareto:abc"},
        {"balance_model": "pareto:-1"},
        {"balance_model": "explicit:"},
        {"balance_model": "explicit:1,2,x"},
        {"balance_model": "explicit:0", "validator_count": 1},
        {"balance_model": "explicit:5,5", "validator_count": 3},
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
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ConfigError):
        ScenarioConfig(**changes)


def test_strategy_cap_upper_bound_is_inclusive():
    cfg = ScenarioConfig(strategy_cap=DEFAULT_STRATEGY_CAP)
    assert cfg.strategy_cap == DEFAULT_STRATEGY_CAP == 20


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


def test_grid_cells_validates_each_cell():
    with pytest.raises(ConfigError):
        grid_cells(ScenarioConfig(), [("epochs", [1, 0])])
