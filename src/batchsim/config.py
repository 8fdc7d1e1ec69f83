"""Config document parsing and field-level validation.

The on-disk format is a flat INI document with four sections, one key
per line, so every plant parameter stays independently settable:

    [plant]   physical parameters of the heating subsystem
    [costs]   unit costs: raw, energy, wear, output
    [wear]    t_nominal and alpha of the wear law
    [sweep]   control range, direction, criterion, stop flag, budget

Parsing is fail-closed: unknown sections or keys are rejected, and every
field is checked against its constraint with the offending field named
in the error.
"""

from __future__ import annotations

import configparser
import math
from typing import NamedTuple, get_type_hints

from .blocks import InvalidRange, enumerate_scan_values
from .econ import BUILTIN_CRITERIA
from .plant import PlantConfig, UnitCosts, feasible_control_range


class ParseError(Exception):
    """Document is not well-formed."""


class ValidationError(Exception):
    """A field violates its constraint; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


DEFAULT_CRITERION = "efficiency"
DEFAULT_TICK_BUDGET = 2_000_000


class SweepConfig(NamedTuple):
    """Scan settings for the control range."""

    k_min: float
    k_max: float
    k_step: float
    direction: str = "ascending"
    criterion: str = DEFAULT_CRITERION
    stop_on_boundary: bool = True
    tick_budget: int = DEFAULT_TICK_BUDGET

    def direction_code(self) -> int:
        return 1 if self.direction == "descending" else 0


def _to_float(field: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(field, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(field, "must be finite")
    return value


def _to_int(field: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(field, f"not an integer: {raw!r}") from None


def _to_bool(field: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValidationError(field, f"not a boolean: {raw!r}") from None


# Key converters by field type, as reportio's column codecs.
_CONVERTERS = {float: _to_float, int: _to_int, bool: _to_bool,
               str: lambda field, raw: raw.strip()}


def _keys(cls) -> dict[str, object]:
    """Converter of each scalar field of ``cls``, in declaration order."""
    return {name: _CONVERTERS[kind]
            for name, kind in get_type_hints(cls).items()
            if kind in _CONVERTERS}


# One key per scalar record field: [plant] holds the PlantConfig fields but
# the wear_* ones, which [wear] holds unprefixed; [costs] is UnitCosts.
_PLANT_KEYS = _keys(PlantConfig)
_SCHEMA = {
    "plant": {name: convert for name, convert in _PLANT_KEYS.items()
              if not name.startswith("wear_")},
    "costs": _keys(UnitCosts),
    "wear": {name.removeprefix("wear_"): convert
             for name, convert in _PLANT_KEYS.items()
             if name.startswith("wear_")},
    "sweep": _keys(SweepConfig),
}

# Sweep keys that fall back to SweepConfig defaults when omitted.
_SWEEP_OPTIONAL = set(SweepConfig._field_defaults)


# Each check states the valid range, so NaN (which fails every
# comparison) and infinities are rejected along with out-of-range values.
def _require_positive(field: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValidationError(field, f"must be finite and > 0, got {value:g}")


def validate_plant_config(cfg: PlantConfig) -> None:
    """Check plant invariants, naming the offending field."""
    _require_positive("batch_volume", cfg.batch_volume)
    _require_positive("fill_rate", cfg.fill_rate)
    _require_positive("release_intensity", cfg.release_intensity)
    _require_positive("heat_capacity", cfg.heat_capacity)
    _require_positive("heater_nominal_power", cfg.heater_nominal_power)
    if not 0.0 <= cfg.loss_coeff < math.inf:
        raise ValidationError("loss_coeff", "must be finite and >= 0")
    if not 0.0 < cfg.heater_efficiency <= 1.0:
        raise ValidationError("heater_efficiency", "must be in (0, 1]")
    if not math.isfinite(cfg.ambient_temp):
        raise ValidationError("ambient_temp", "must be finite")
    if not cfg.ambient_temp < cfg.setpoint < math.inf:
        raise ValidationError(
            "setpoint", f"must be finite and exceed ambient_temp "
            f"({cfg.ambient_temp:g}), got {cfg.setpoint:g}")
    # Products of finite fields can still underflow or overflow.
    p_eta = cfg.heater_nominal_power * cfg.heater_efficiency
    if not p_eta > 0.0:
        raise ValidationError(
            "heater_efficiency", f"heater_nominal_power * heater_efficiency "
            f"must be > 0, got {p_eta:g}")
    floor = feasible_control_range(cfg)
    if not floor < math.inf:  # also false for NaN
        raise ValidationError(
            "setpoint", f"{cfg.setpoint:g} gives the feasible control floor "
            f"{floor:g}, which is not finite")
    _require_positive("t_nominal", cfg.wear_t_nominal)
    if not 0.0 <= cfg.wear_alpha < math.inf:
        raise ValidationError("alpha", "must be finite and >= 0")
    _require_positive("raw", cfg.unit_costs.raw)
    _require_positive("energy", cfg.unit_costs.energy)
    _require_positive("wear", cfg.unit_costs.wear)
    _require_positive("output", cfg.unit_costs.output)


def validate_sweep_config(sweep: SweepConfig) -> None:
    """Check sweep invariants, naming the offending field."""
    _require_positive("k_min", sweep.k_min)
    _require_positive("k_max", sweep.k_max)
    _require_positive("k_step", sweep.k_step)
    if not sweep.k_min < sweep.k_max:
        raise ValidationError(
            "k_min", f"must be below k_max ({sweep.k_max:g}), "
            f"got {sweep.k_min:g}")
    try:  # the point cap, stated once in the scan
        enumerate_scan_values(sweep.k_min, sweep.k_max, sweep.k_step)
    except InvalidRange as exc:
        raise ValidationError("k_step", str(exc)) from None
    if sweep.direction not in ("ascending", "descending"):
        raise ValidationError(
            "direction", f"must be 'ascending' or 'descending', "
            f"got {sweep.direction!r}")
    if not isinstance(sweep.stop_on_boundary, bool):
        raise ValidationError("stop_on_boundary", f"must be a bool, "
                              f"got {sweep.stop_on_boundary!r}")
    validate_run_settings(sweep.criterion, sweep.tick_budget)


def validate_run_settings(criterion: str, tick_budget: int) -> None:
    """Check the settings every run takes, naming the offending field."""
    if criterion not in BUILTIN_CRITERIA:
        raise ValidationError(
            "criterion", f"unknown name {criterion!r}; available: "
            + ", ".join(sorted(BUILTIN_CRITERIA)))
    if (isinstance(tick_budget, bool) or not isinstance(tick_budget, int)
            or tick_budget <= 0):
        raise ValidationError("tick_budget", "must be a positive tick count")


def parse_config(text: str) -> tuple[PlantConfig, SweepConfig]:
    """Parse and validate a config document."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None

    # configparser folds [DEFAULT] keys into every section; refuse them
    # here, so no section is blamed for them.
    if parser.defaults():
        raise ValidationError(parser.default_section, "unknown section")
    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(section, "unknown section")
        schema = _SCHEMA[section]
        out: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ValidationError(f"{section}.{key}", "unknown key")
            out[key] = schema[key](f"{section}.{key}", raw)
        values[section] = out

    for section, schema in _SCHEMA.items():
        present = values.get(section, {})
        for key in schema:
            if key in present:
                continue
            if section == "sweep" and key in _SWEEP_OPTIONAL:
                continue
            raise ValidationError(f"{section}.{key}", "missing required key")

    wear = {f"wear_{key}": value for key, value in values["wear"].items()}
    plant_cfg = PlantConfig(**values["plant"], **wear,
                            unit_costs=UnitCosts(**values["costs"]))
    sweep_cfg = SweepConfig(**values["sweep"])
    validate_plant_config(plant_cfg)
    validate_sweep_config(sweep_cfg)
    return plant_cfg, sweep_cfg


def load_config(path) -> tuple[PlantConfig, SweepConfig]:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return parse_config(text)
