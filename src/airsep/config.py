"""YAML configuration files for training runs.

Config files speak aviation units (NM, kt, ft, minutes); everything is
converted to SI here, at the boundary. Unknown keys are rejected so typos
fail loudly instead of silently running defaults.
"""

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


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _from_fields(cls, mapping, where):
    """``cls`` from a section keyed by its field names (missing keys take defaults);
    a value the class rejects raises ValueError naming the section."""
    mapping = mapping or {}
    _reject_unknown(mapping, [f.name for f in fields(cls)], where)
    try:
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value in {where}: {exc}") from exc


def sector_from_config(mapping):
    """SectorParams from aviation-unit keys (missing keys take defaults)."""
    mapping = mapping or {}
    _reject_unknown(mapping, _SECTOR_FIELDS, "sector")
    kwargs = {}
    for key, value in mapping.items():
        name, factor = _SECTOR_FIELDS[key]
        kwargs[name] = float(value) * factor
    return SectorParams(**kwargs)


def scenario_from_config(mapping):
    mapping = mapping or {}
    _reject_unknown(mapping, ("env", "sector", "n_aircraft"), "scenario")
    env = EnvKind(mapping.get("env", "training"))
    sector = sector_from_config(mapping.get("sector"))
    spec = {"env_kind": env, "sector": sector, "n_aircraft": mapping.get("n_aircraft")}
    return _from_fields(ScenarioSpec, spec, "scenario")


def training_config_from_dict(mapping):
    allowed = ("seed", "scenario", "network", "reward", "ppo", "checkpoint_every", "init_checkpoint")
    _reject_unknown(mapping, allowed, "training config")
    top = {key: mapping[key] for key in ("seed", "checkpoint_every", "init_checkpoint") if key in mapping}
    return _from_fields(TrainConfig, dict(
        top,
        hyper=_from_fields(HyperParams, mapping.get("ppo"), "ppo"),
        network=_from_fields(PolicyConfig, mapping.get("network"), "network"),
        reward=_from_fields(RewardParams, mapping.get("reward"), "reward"),
        scenario=scenario_from_config(mapping.get("scenario")),
    ), "training config")


def load_training_config(path):
    with open(path) as fh:
        mapping = yaml.safe_load(fh) or {}
    return training_config_from_dict(mapping)

