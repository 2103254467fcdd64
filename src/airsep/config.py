"""YAML configuration files for training runs, and the type rule for config and checkpoint values.

Config files speak aviation units (NM, kt, ft, minutes); everything is
converted to SI here, at the boundary. Unknown keys are rejected so typos
fail loudly instead of silently running defaults.
"""

import numbers
import sys
import types
from dataclasses import fields

import yaml

from .airspace import FT, KT, NM, EnvKind, SectorParams
from .policy import PolicyConfig
from .ppo import HyperParams, ScenarioSpec, TrainConfig
from .reward import RewardParams

#: YAML sector key -> (SectorParams field, factor to SI); absent keys keep the field default
_SECTOR_FIELDS = {
    "sector_radius_nm": ("sector_radius", NM),
    "r_pz_nm": ("r_pz", NM),
    "r_nmac_ft": ("r_nmac", FT),
    "v_min_kt": ("v_min", KT),
    "v_max_kt": ("v_max", KT),
    "speed_increment_kt": ("speed_increment", KT),
    "decision_interval_s": ("decision_interval", 1.0),
    "lookahead_s": ("lookahead", 1.0),
    "arrival_capture_radius_m": ("arrival_capture_radius", 1.0),
    "timeout_buffer_min": ("timeout_buffer", 60.0),
}
ENV_NAMES = tuple(kind.value for kind in EnvKind)  # a scenario's env, and the CLI's --case
_NUMBERS = {int: numbers.Integral, float: numbers.Real}  # what these annotations admit, bools excepted


def _section(mapping, allowed, where):
    """``mapping`` (``None`` reads as empty) once it is a mapping with no key outside ``allowed``."""
    mapping = {} if mapping is None else mapping
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a mapping, got {mapping!r}")
    if unknown := set(mapping) - set(allowed):
        raise ValueError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    return mapping


def _fits(value, kind):
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in kind.__args__)
    if kind is float and isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        return False  # an integer that no float can hold
    return isinstance(value, _NUMBERS.get(kind, kind)) and (kind is bool or not isinstance(value, bool))


def _checked_fields(cls, mapping, where, keys=None):
    """``mapping`` once each key names a field of dataclass ``cls`` (through ``keys``,
    key -> field name, when given) and each value has the type the field's annotation
    names: ``int`` a non-bool integer, ``float`` a non-bool real, ``bool`` a bool,
    ``X | None`` also ``None``. Nothing is coerced; ValueError names ``where``."""
    kinds = {f.name: f.type for f in fields(cls)}
    keys = keys or {name: name for name in kinds}
    mapping = _section(mapping, keys, where)
    for key, value in mapping.items():
        if not _fits(value, kind := kinds[keys[key]]):
            kind = getattr(kind, "__name__", kind)
            raise ValueError(f"bad value in {where}: {key} must be {kind}, got {value!r}")
    return mapping


def _built(cls, values, where):
    """``cls(**values)``; its range checks' ValueError gains the prefix ``bad value in <where>``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"bad value in {where}: {exc}") from exc


def from_fields(cls, mapping, where):
    """``cls`` from a config section or checkpoint block keyed by its field names (missing
    keys take defaults); a value of the wrong type or out of range raises ValueError naming it."""
    return _built(cls, _checked_fields(cls, mapping, where), where)


def sector_from_config(mapping):
    """SectorParams from aviation-unit keys (missing keys take defaults)."""
    keys = {key: name for key, (name, _) in _SECTOR_FIELDS.items()}
    mapping = _checked_fields(SectorParams, mapping, "sector", keys)
    si = {keys[key]: value * _SECTOR_FIELDS[key][1] for key, value in mapping.items()}
    return _built(SectorParams, si, "sector")


def scenario_from_config(mapping):
    mapping = _section(mapping, ("env", "sector", "n_aircraft"), "scenario")
    env = mapping.get("env", "training")
    if env not in ENV_NAMES:
        raise ValueError(f"bad value in scenario: env must be one of {', '.join(ENV_NAMES)}, got {env!r}")
    sector = sector_from_config(mapping.get("sector"))
    spec = {"env_kind": EnvKind(env), "sector": sector, "n_aircraft": mapping.get("n_aircraft")}
    return from_fields(ScenarioSpec, spec, "scenario")


def training_config_from_dict(mapping):
    allowed = ("seed", "scenario", "network", "reward", "ppo", "checkpoint_every", "init_checkpoint")
    mapping = _section(mapping, allowed, "training config")
    top = {key: mapping[key] for key in ("seed", "checkpoint_every", "init_checkpoint") if key in mapping}
    return from_fields(TrainConfig, dict(
        top,
        hyper=from_fields(HyperParams, mapping.get("ppo"), "ppo"),
        network=from_fields(PolicyConfig, mapping.get("network"), "network"),
        reward=from_fields(RewardParams, mapping.get("reward"), "reward"),
        scenario=scenario_from_config(mapping.get("scenario")),
    ), "training config")


def load_training_config(path):
    """The TrainConfig a YAML file describes; ValueError naming ``path`` if it does not read as YAML."""
    with open(path) as fh:
        try:
            mapping = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: undecodable bytes, a bad timestamp
            raise ValueError(f"{path} does not read as YAML: {' '.join(str(exc).split())}") from exc
    return training_config_from_dict(mapping)
