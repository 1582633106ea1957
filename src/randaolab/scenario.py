"""Scenario configuration: defaults, validation, and the config-file
format (INI syntax via configparser).

A config file has an optional [scenario] section of key = value pairs
and, for sweeps, a [grid] section whose keys map to comma-separated
value lists; the sweep takes the Cartesian product.  The full schema is
documented in the README.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from .adversary import DEFAULT_STRATEGY_CAP
from .randao import MAX_EFFECTIVE_BALANCE, SLOTS_PER_EPOCH


class ConfigError(ValueError):
    """Bad scenario value, unknown key, or unreadable config file."""


PROTOCOLS = ("classic", "sss")
FORMATS = ("csv", "json")

# Grids beyond this are almost certainly a typo'd range.
MAX_SWEEP_CELLS = 4096


def parse_balance_model(spec: str) -> tuple[str, object]:
    """Validate and destructure a balance_model string.

    uniform                  every validator at MAX_EFFECTIVE_BALANCE
    pareto:<shape>           heavy-tailed draws scaled into
                             [MAX/32, MAX], floored to integer units
    explicit:<b1,b2,...>     balances verbatim, one per validator
    """
    if spec == "uniform":
        return ("uniform", None)
    if spec.startswith("pareto:"):
        try:
            shape = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad pareto shape in {spec!r}") from None
        if shape <= 0:
            raise ConfigError("pareto shape must be > 0")
        return ("pareto", shape)
    if spec.startswith("explicit:"):
        body = spec.split(":", 1)[1]
        try:
            balances = [int(b) for b in body.split(",")] if body else []
        except ValueError:
            raise ConfigError(f"bad explicit balance list in {spec!r}") from None
        if not balances:
            raise ConfigError("explicit balance list is empty")
        if any(not 1 <= b <= MAX_EFFECTIVE_BALANCE for b in balances):
            raise ConfigError("explicit balances must be in [1, MAX]")
        return ("explicit", balances)
    raise ConfigError(f"unknown balance model {spec!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario; every run is a pure function of this."""

    validator_count: int = 200
    balance_model: str = "uniform"
    attacker_stake_fraction: float = 0.3
    protocol: str = "classic"
    sss_threshold_n: int = 16
    participation_rate: float = 1.0
    epochs: int = 1000
    rng_seed: int = 0
    strategy_cap: int = 12
    tail_limit: Optional[int] = None
    broken_seed_fallback: bool = False

    def __post_init__(self) -> None:
        if self.validator_count < 1:
            raise ConfigError("validator_count must be >= 1")
        model, arg = parse_balance_model(self.balance_model)
        if model == "explicit" and len(arg) != self.validator_count:
            raise ConfigError(
                "explicit balance list length must equal validator_count"
            )
        if not 0.0 <= self.attacker_stake_fraction <= 1.0:
            raise ConfigError("attacker_stake_fraction must be in [0, 1]")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}")
        if self.protocol == "sss" and not (
            1 <= self.sss_threshold_n <= SLOTS_PER_EPOCH - 1
        ):
            raise ConfigError("sss_threshold_n must be in [1, 31]")
        if not 0.0 <= self.participation_rate <= 1.0:
            raise ConfigError("participation_rate must be in [0, 1]")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigError("rng_seed must be a 64-bit unsigned integer")
        if not 0 <= self.strategy_cap <= DEFAULT_STRATEGY_CAP:
            raise ConfigError(
                f"strategy_cap must be in [0, {DEFAULT_STRATEGY_CAP}]"
            )
        if self.tail_limit is not None and self.tail_limit < 0:
            raise ConfigError("tail_limit must be >= 0")

    def replace(self, **changes: object) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


# Scenario columns in emission order; parsers double as CLI/file readers.
def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_tail_limit(s: str) -> Optional[int]:
    return None if s.strip().lower() == "none" else int(s)


FIELD_PARSERS = {
    "validator_count": int,
    "balance_model": str,
    "attacker_stake_fraction": float,
    "protocol": str,
    "sss_threshold_n": int,
    "participation_rate": float,
    "epochs": int,
    "rng_seed": int,
    "strategy_cap": int,
    "tail_limit": _parse_tail_limit,
    "broken_seed_fallback": _parse_bool,
}

SCENARIO_FIELDS = tuple(FIELD_PARSERS)


def _parse_field(key: str, raw: str) -> object:
    if key not in FIELD_PARSERS:
        raise ConfigError(f"unknown scenario key {key!r}")
    try:
        return FIELD_PARSERS[key](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    for section in parser.sections():
        if section not in ("scenario", "grid"):
            raise ConfigError(f"unknown config section [{section}]")
    return parser


def load_scenario(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Defaults, then the config file's [scenario] section, then any
    overrides (already-typed values, e.g. from CLI flags)."""
    values: dict[str, object] = {}
    if path is not None:
        parser = _read_config(path)
        if parser.has_section("scenario"):
            for key, raw in parser.items("scenario"):
                values[key] = _parse_field(key, raw)
    if overrides:
        for key, value in overrides.items():
            if key not in FIELD_PARSERS:
                raise ConfigError(f"unknown scenario key {key!r}")
            values[key] = value
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_grid(path: str) -> tuple[ScenarioConfig, list[tuple[str, list]]]:
    """Base scenario plus the sweep axes, in file order."""
    parser = _read_config(path)
    base_values: dict[str, object] = {}
    if parser.has_section("scenario"):
        for key, raw in parser.items("scenario"):
            base_values[key] = _parse_field(key, raw)
    try:
        base = ScenarioConfig(**base_values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None

    axes: list[tuple[str, list]] = []
    if parser.has_section("grid"):
        for key, raw in parser.items("grid"):
            values = [
                _parse_field(key, part) for part in raw.split(",")
            ]
            if not values:
                raise ConfigError(f"grid key {key} has no values")
            axes.append((key, values))
    if not axes:
        raise ConfigError("sweep config needs a non-empty [grid] section")
    cells = 1
    for _, values in axes:
        cells *= len(values)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"grid expands to {cells} cells, cap is {MAX_SWEEP_CELLS}"
        )
    return base, axes


def grid_cells(
    base: ScenarioConfig, axes: Sequence[tuple[str, list]]
) -> list[ScenarioConfig]:
    """Cartesian product in row-major order: later axes vary fastest."""
    configs = [base]
    for key, values in axes:
        configs = [
            cfg.replace(**{key: value})
            for cfg in configs
            for value in values
        ]
    if len(configs) > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"grid expands to {len(configs)} cells, cap is {MAX_SWEEP_CELLS}"
        )
    return configs