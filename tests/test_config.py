"""Config oracles: YAML sections map onto dataclass fields, sector units convert
to SI, and checkpoint metadata rebuilds the training dataclasses."""

from dataclasses import asdict, fields

import pytest
import yaml

from airsep.airspace import NM, SectorParams
from airsep.config import _SECTOR_FIELDS, load_training_config, sector_from_config, training_config_from_dict
from airsep.policy import PolicyConfig
from airsep.ppo import HyperParams, checkpoint_metadata
from airsep.reward import RewardParams


def _changed(value):
    """A valid non-default value of the same type: flip bools, bump ints, halve floats."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * 0.5


def test_every_hyper_and_reward_field_is_a_yaml_key(tmp_path):
    ppo = {f.name: _changed(f.default) for f in fields(HyperParams)}
    reward = {f.name: _changed(f.default) for f in fields(RewardParams)}
    network = {"d_emb": 16, "d_ff": 32, "heads": 4, "layers": 2}
    assert set(network) == {f.name for f in fields(PolicyConfig)}
    path = tmp_path / "all_keys.yaml"
    path.write_text(yaml.safe_dump({"ppo": ppo, "reward": reward, "network": network}))
    cfg = load_training_config(path)
    assert asdict(cfg.hyper) == ppo
    assert asdict(cfg.reward) == reward
    assert asdict(cfg.network) == network
    assert cfg.hyper != HyperParams() and cfg.reward != RewardParams()


@pytest.mark.parametrize(
    "mapping",
    [
        {"ppo": {"bogus": 1}},
        {"reward": {"bogus": 1}},
        {"network": {"bogus": 1}},
        {"scenario": {"bogus": 1}},
        {"scenario": {"sector": {"r_pz_nmi": 5}}},
        {"hyper": {}},
    ],
    ids=["ppo", "reward", "network", "scenario", "sector", "top-level"],
)
def test_unknown_key_in_each_section_raises(mapping):
    with pytest.raises(ValueError, match="unknown keys"):
        training_config_from_dict(mapping)


def test_sector_unit_table_covers_exactly_the_sector_fields():
    targets = [name for name, _ in _SECTOR_FIELDS.values()]
    assert len(targets) == len(set(targets))
    assert set(targets) == {f.name for f in fields(SectorParams)}


def test_absent_sector_keys_take_sector_defaults():
    assert sector_from_config(None) == SectorParams()
    assert sector_from_config({}) == SectorParams()
    assert training_config_from_dict({}).scenario.sector == SectorParams()


def test_sector_key_converts_units():
    sector = sector_from_config({"r_pz_nm": 3, "timeout_buffer_min": 2})
    assert sector.r_pz == 3 * NM
    assert sector.timeout_buffer == 120.0
    assert sector.sector_radius == SectorParams().sector_radius


def test_checkpoint_metadata_round_trips_the_dataclasses():
    cfg = training_config_from_dict(
        {
            "seed": 5,
            "scenario": {"env": "headon", "sector": {"r_pz_nm": 3, "lookahead_s": 90}},
            "ppo": {"horizon": 32, "value_clipping": False},
            "reward": {"alpha_nmac": 50.0},
        }
    )
    meta = checkpoint_metadata(cfg, 0)
    assert SectorParams(**meta["sector_si"]) == cfg.scenario.sector
    assert HyperParams(**meta["hyper"]) == cfg.hyper
    assert RewardParams(**meta["reward"]) == cfg.reward
    assert (meta["seed"], meta["env_kind"], meta["update"]) == (5, "headon", 0)
    assert "normalization" not in meta
