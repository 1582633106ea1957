"""Scenario configuration: defaults, validation, and the config-file
format (INI syntax via configparser).

A config file has an optional [scenario] section of key = value pairs
and, for sweeps, a [grid] section whose keys map to comma-separated
value lists; the sweep takes the Cartesian product.  The full schema is
documented in the README.
"""

from __future__ import annotations

import configparser
import itertools
import math
import sys
from collections import namedtuple
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


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_tail_limit(s: str) -> Optional[int]:
    return None if s.strip().lower() == "none" else int(s)


# The scenario fields in report column order: name -> (default, the
# parser that reads it from a config file or a CLI flag, the types a
# library caller may pass, the inclusive bounds (lo, hi) of its value
# or None).  A bool passes only as broken_seed_fallback, though it is an
# int; an int is a valid fraction; a tail_limit of None skips its bounds.
_FIELDS = {
    "validator_count": (200, int, (int,), (1, MAX_VALIDATORS)),
    "balance_model": ("uniform", str, (str,), None),
    "attacker_stake_fraction": (0.3, float, (int, float), (0, 1)),
    "protocol": ("classic", str, (str,), None),
    "sss_threshold_n": (16, int, (int,), (1, SLOTS_PER_EPOCH - 1)),
    "participation_rate": (1.0, float, (int, float), (0, 1)),
    "epochs": (1000, int, (int,), (1, math.inf)),
    "rng_seed": (0, int, (int,), (0, 2**64 - 1)),
    "strategy_cap": (12, int, (int,), (0, DEFAULT_STRATEGY_CAP)),
    "tail_limit": (None, _parse_tail_limit, (int, type(None)), (0, math.inf)),
    "broken_seed_fallback": (False, _parse_bool, (bool,), None),
}
SCENARIO_FIELDS = tuple(_FIELDS)
FIELD_PARSERS = {name: parse for name, (_, parse, *_) in _FIELDS.items()}


class ScenarioConfig(
    namedtuple(
        "_ScenarioFields",
        SCENARIO_FIELDS,
        defaults=[default for default, *_ in _FIELDS.values()],
    )
):
    """One simulation scenario; every run is a pure function of this."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "ScenarioConfig":
        # The field tuple binds the arguments and fills the defaults;
        # each field's type and bounds are checked on the built record,
        # then the checks that span fields.
        self = super().__new__(cls, *args, **kwargs)
        values = []
        for value, (name, (_, _, types, bounds)) in zip(self, _FIELDS.items()):
            if isinstance(value, bool) != (bool in types) or not isinstance(
                value, types
            ):
                expected = " or ".join(t.__name__ for t in types)
                raise ConfigError(
                    f"{name} must be {expected}, got {value!r}"
                )
            if bounds is not None and value is not None:
                lo, hi = bounds
                if not lo <= value <= hi:  # NaN fails both comparisons
                    raise ConfigError(
                        f"{name} must be >= {lo}" if hi == math.inf
                        else f"{name} must be in [{lo}, {hi}]"
                    )
            # 1 == 1.0 and -0.0 == 0.0: equal configs, equal report bytes.
            if FIELD_PARSERS[name] is float:
                value = float(value) + 0.0
            values.append(value)
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
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}")
        return tuple.__new__(cls, values)

    def replace(self, **changes: object) -> "ScenarioConfig":
        """This scenario with `changes`, checked again (`_replace`
        skips the checks)."""
        return type(self)(**{**self._asdict(), **changes})


def _parse_field(key: str, raw: str) -> object:
    if key not in FIELD_PARSERS:
        raise ConfigError(f"unknown scenario key {key!r}")
    try:
        return FIELD_PARSERS[key](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def _read_config(path: str) -> dict[str, list[tuple[str, str]]]:
    """The file's [scenario] and [grid] (key, raw value) pairs, in file
    order; an absent section has none."""
    # No interpolation: a '%' stays in its value and fails that field's
    # check, instead of raising from configparser while values are read.
    # No header can name the default section "" ("[]" is no header), so
    # [DEFAULT] is an unknown section, not keys added to every section.
    parser = configparser.ConfigParser(
        default_section="", inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    sections: dict[str, list[tuple[str, str]]] = {"scenario": [], "grid": []}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        sections[section] = parser.items(section)
    return sections


def _scenario(
    section: Sequence[tuple[str, str]], overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Defaults, then the [scenario] pairs, then any overrides."""
    values = {key: _parse_field(key, raw) for key, raw in section}
    for key, value in (overrides or {}).items():
        if key not in FIELD_PARSERS:
            raise ConfigError(f"unknown scenario key {key!r}")
        values[key] = value
    return ScenarioConfig(**values)


def load_scenario(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Defaults, then the config file's [scenario] section, then any
    overrides (already-typed values, e.g. from CLI flags).  A [grid]
    with any key is refused, not ignored: only a sweep reads it."""
    config = _read_config(path) if path is not None else {"scenario": ()}
    if config.get("grid"):
        raise ConfigError("[grid] is read only by sweep, not by this command")
    return _scenario(config["scenario"], overrides)


def load_grid(path: str) -> tuple[ScenarioConfig, list[tuple[str, list]]]:
    """Base scenario plus the sweep axes, in file order."""
    config = _read_config(path)
    base = _scenario(config["scenario"])
    scenario_keys = {key for key, _ in config["scenario"]}
    axes = []
    for key, raw in config["grid"]:
        if key in scenario_keys:
            raise ConfigError(f"{key} is set in both [scenario] and [grid]")
        parts = raw.split(",")
        if key == "balance_model" and "explicit:" in raw and any(
            part.strip().isdigit() for part in parts
        ):
            raise ConfigError(
                "balance_model: a [grid] value is split at commas, so an "
                "explicit: list of more than one balance belongs in [scenario]"
            )
        axes.append((key, [_parse_field(key, part) for part in parts]))
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
    """Cartesian product in row-major order, later axes varying fastest:
    each cell is `base` with all its axis values, checked whole."""
    _check_grid_size(axes)
    keys = [key for key, _ in axes]
    return [
        base.replace(**dict(zip(keys, cell)))
        for cell in itertools.product(*(values for _, values in axes))
    ]
