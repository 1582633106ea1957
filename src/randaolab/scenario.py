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
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .adversary import DEFAULT_STRATEGY_CAP
from .randao import MAX_EFFECTIVE_BALANCE, SLOTS_PER_EPOCH, balance_limits


class ConfigError(ValueError):
    """Bad scenario value, unknown key, or unreadable config file."""


PROTOCOLS = ("classic", "sss")

# Registry size bound, about the active validator set of a large
# proof-of-stake chain.  Every trial builds its own registry, so this
# bounds each trial's set-up work.
MAX_VALIDATORS = 2**20

# Grids beyond this are almost certainly a typo'd range.
MAX_SWEEP_CELLS = 4096

# A pareto balance is draw * MAX/32, with draw = u^(-1/shape) and
# u = 1 - random() >= 2^-53, so draw <= 2^(53/shape).  Above this shape
# (about 0.0533) every scaled draw is a finite float.
MIN_PARETO_SHAPE = 53 / math.log2(
    sys.float_info.max / (MAX_EFFECTIVE_BALANCE // 32)
)


def parse_balance_model(spec: str) -> tuple[str, object]:
    """Validate and destructure a balance_model string.

    uniform                  every validator at MAX_EFFECTIVE_BALANCE
    pareto:<shape>           heavy-tailed draws scaled into
                             [MAX/32, MAX], floored to integer units;
                             shape > MIN_PARETO_SHAPE
    explicit:<b1,b2,...>     balances verbatim, one per validator
    """
    if spec == "uniform":
        return ("uniform", None)
    if spec.startswith("pareto:"):
        try:
            shape = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad pareto shape in {spec!r}") from None
        if not shape > MIN_PARETO_SHAPE:
            raise ConfigError(
                f"pareto shape must be > {MIN_PARETO_SHAPE:.4f}, "
                f"got {shape!r}"
            )
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


# The types each field takes from library callers.  A bool passes only
# as broken_seed_fallback, though it is an int; an int is a valid
# fraction.
_FIELD_TYPES = {
    "validator_count": (int,),
    "balance_model": (str,),
    "attacker_stake_fraction": (int, float),
    "protocol": (str,),
    "sss_threshold_n": (int,),
    "participation_rate": (int, float),
    "epochs": (int,),
    "rng_seed": (int,),
    "strategy_cap": (int,),
    "tail_limit": (int, type(None)),
    "broken_seed_fallback": (bool,),
}


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
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) != (bool in types) or not isinstance(
                value, types
            ):
                expected = " or ".join(t.__name__ for t in types)
                raise ConfigError(
                    f"{name} must be {expected}, got {value!r}"
                )
        if not 1 <= self.validator_count <= MAX_VALIDATORS:
            raise ConfigError(
                f"validator_count must be in [1, {MAX_VALIDATORS}]"
            )
        model, arg = parse_balance_model(self.balance_model)
        if model == "explicit" and len(arg) != self.validator_count:
            raise ConfigError(
                "explicit balance list length must equal validator_count"
            )
        # A selection try accepts with chance sum(limits) / (256 N), the
        # limits as in randao.balance_limits (0 below MAX/256).  From
        # 1/512 up, a slot runs out of its 10000 tries with chance < e^-19.
        if (
            model == "explicit"
            and 2 * sum(balance_limits(arg)) < self.validator_count
        ):
            raise ConfigError(
                "explicit balances leave proposer selection an acceptance "
                "chance below 1/512 per try (a balance below MAX/256 = "
                f"{MAX_EFFECTIVE_BALANCE // 256} is never selected)"
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


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_tail_limit(s: str) -> Optional[int]:
    return None if s.strip().lower() == "none" else int(s)


# Scenario fields in report column order; parsers double as CLI/file
# readers.
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
    # No interpolation: a '%' stays in its value and fails that field's
    # check, instead of raising from configparser while values are read.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    for section in parser.sections():
        if section not in ("scenario", "grid"):
            raise ConfigError(f"unknown config section [{section}]")
    return parser


def _scenario(
    parser: Optional[configparser.ConfigParser],
    overrides: Optional[dict] = None,
) -> ScenarioConfig:
    """Defaults, then the parser's [scenario] section, then any
    overrides (already-typed values, e.g. from CLI flags)."""
    values: dict[str, object] = {}
    if parser is not None and parser.has_section("scenario"):
        for key, raw in parser.items("scenario"):
            values[key] = _parse_field(key, raw)
    for key, value in (overrides or {}).items():
        if key not in FIELD_PARSERS:
            raise ConfigError(f"unknown scenario key {key!r}")
        values[key] = value
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_scenario(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Defaults, then the config file's [scenario] section, then any
    overrides (already-typed values, e.g. from CLI flags)."""
    parser = _read_config(path) if path is not None else None
    return _scenario(parser, overrides)


def load_grid(path: str) -> tuple[ScenarioConfig, list[tuple[str, list]]]:
    """Base scenario plus the sweep axes, in file order."""
    parser = _read_config(path)
    base = _scenario(parser)

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
    _check_grid_size(axes)
    return base, axes


def _check_grid_size(axes: Sequence[tuple[str, list]]) -> None:
    """Reject a grid over MAX_SWEEP_CELLS before any cell is built."""
    cells = math.prod(len(values) for _, values in axes)
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"grid expands to {cells} cells, cap is {MAX_SWEEP_CELLS}"
        )


def grid_cells(
    base: ScenarioConfig, axes: Sequence[tuple[str, list]]
) -> list[ScenarioConfig]:
    """Cartesian product in row-major order: later axes vary fastest."""
    _check_grid_size(axes)
    configs = [base]
    for key, values in axes:
        configs = [
            cfg.replace(**{key: value})
            for cfg in configs
            for value in values
        ]
    return configs