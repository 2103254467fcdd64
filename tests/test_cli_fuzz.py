"""Property test of the CLI's error rule on mutated configs and checkpoints.

``airsep train`` reads a mutated copy of ``smoke_headon.yaml``'s keys, and
``airsep eval`` and ``airsep rollout-dump`` read a mutated small checkpoint. Each
run must exit 0, or 1 with one ``error:`` line that names the file, the config
section or (for a run that diverged) the op, and no traceback; an input rejected
at load leaves no output directory.

No mutation raises a count or a width, and a sector value is NaN, an infinity,
zero, negative or its default scaled by 0.5-2. Each of these but the last is
rejected or shortens an episode. Smaller valid decision intervals run long: a
world, trained or evaluated, fails only at ``airspace.MAX_EPISODE_STEPS`` steps.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from airsep.airspace import SectorParams
from airsep.config import _SECTOR_FIELDS
from airsep.harness import cli
from airsep.policy import PolicyConfig, ValueNormalizer, init_params

ROOT = Path(__file__).resolve().parent.parent

#: what a message may name instead of the file: a config section or checkpoint block
SECTIONS = ("training config", "ppo", "network", "reward", "scenario", "sector",
            "checkpoint network", "checkpoint value_normalization", "checkpoint sector_si")

#: ten-second decisions keep a headon episode to a few hundred steps
CHECKPOINT_SECTOR = SectorParams(decision_interval=10.0)
SECTOR_DEFAULTS_SI = asdict(SectorParams())
SECTOR_DEFAULTS_CONFIG = {key: SECTOR_DEFAULTS_SI[name] / factor for key, (name, factor) in _SECTOR_FIELDS.items()}


def base_config():
    """``smoke_headon.yaml`` at one update and a tiny width, with every sector key at its default."""
    mapping = yaml.safe_load((ROOT / "configs" / "smoke_headon.yaml").read_text())
    mapping["network"] = {"d_emb": 8, "d_ff": 8, "heads": 2, "layers": 1}
    mapping["ppo"].update(updates=1, n_envs=2, horizon=16, batch_size=8, epochs=1)
    mapping["checkpoint_every"] = 1
    mapping["scenario"]["sector"] = dict(SECTOR_DEFAULTS_CONFIG)
    return mapping


def base_checkpoint():
    """(arrays, meta) of a tiny policy with value statistics, flown in ``CHECKPOINT_SECTOR``."""
    params = init_params(PolicyConfig(d_emb=8, d_ff=8, heads=2, layers=1), np.random.default_rng(0))
    arrays = {name: t.data for name, t in params.named_parameters().items()}
    meta = {
        "format_version": 1,
        "network": asdict(params.config),
        "value_normalization": asdict(ValueNormalizer(count=10, mean=-3.25, var=7.5)),
        "sector_si": asdict(CHECKPOINT_SECTOR),
    }
    return arrays, meta


#: config keys whose loss (or a section's emptying) would raise a count or width to its default
GROW_WHEN_DROPPED = {"ppo", "network", "updates", "n_envs", "horizon", "batch_size", "epochs",
                     "d_emb", "d_ff", "heads", "layers"}

_junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)
_edge_floats = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, -3.5e5])


def _replacement(draw, key, value, defaults):
    """A new value for ``key``: never a larger count or width, and a sector value is an
    edge value or within 0.5-2x of its default (``defaults`` holds the sector's)."""
    if key in defaults:
        scaled = st.floats(0.5, 2.0).map(lambda f: defaults[key] * f)
        return draw(st.one_of(_edge_floats, scaled, _junk))
    if isinstance(value, bool):
        return draw(st.one_of(_junk, st.integers(0, 1), st.floats(0, 1)))
    if isinstance(value, int):
        return draw(st.one_of(st.integers(-3, value), st.floats(-3, value), _junk))
    if isinstance(value, float):
        return draw(st.one_of(_edge_floats, st.floats(allow_nan=True), st.integers(-3, 3), _junk))
    if isinstance(value, str):
        return draw(st.one_of(st.sampled_from(["training", "a", "b", "c", "headon", "zz", ""]), _junk))
    return draw(_junk)


def _blocks(tree):
    """Every mapping inside ``tree`` (``tree`` itself included)."""
    yield tree
    for value in tree.values():
        if isinstance(value, dict):
            yield from _blocks(value)


def _mutate_tree(draw, tree, defaults, keep=frozenset()):
    """Drop, add or retype one key somewhere in ``tree``, or listify one of its blocks.
    A key in ``keep`` is never dropped, and a block in it never becomes empty."""
    block = draw(st.sampled_from(list(_blocks(tree))))
    key = draw(st.sampled_from(sorted(block, key=str))) if block else None
    ops = ["add"] if key is None else ["add", "retype"] + ["drop"] * (key not in keep)
    op = draw(st.sampled_from(ops + ["listify"] * isinstance(block.get(key), dict)))
    if op == "add":
        block[draw(st.sampled_from(["extra", "dropout", 1, None]))] = draw(st.one_of(_junk, _edge_floats))
    elif op == "drop":
        del block[key]
    elif op == "listify":
        block[key] = draw(st.sampled_from([list(block[key].values()), [block[key]]]))
    elif isinstance(block[key], dict) and key in keep:
        block[key] = draw(_junk.filter(lambda v: v is not None and v != {}))
    else:
        block[key] = _replacement(draw, key, block[key], defaults)


def _checkpoint_bytes(draw, arrays, meta, path):
    """Write the mutated checkpoint to ``path``; then cut it short or flip bytes in it."""
    for _ in range(draw(st.integers(0, 2))):
        if arrays and draw(st.booleans()):
            del arrays[draw(st.sampled_from(sorted(arrays)))]
        else:
            _mutate_tree(draw, meta, SECTOR_DEFAULTS_SI)
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    data = bytearray(path.read_bytes())
    op = draw(st.sampled_from(["none", "truncate", "flip"]))
    if op == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif op == "flip":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    path.write_bytes(bytes(data))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, err.getvalue()


def _check(code, err, path, out_dir):
    assert code in (0, 1), err
    if code == 0:
        return
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    named = str(path) in err or "in the output of" in err or any(
        f"in {s}:" in err or f"error: {s} must be a mapping" in err for s in SECTIONS
    )
    assert named, err
    if "in the output of" not in err:  # anything but a diverged run is rejected before output
        assert not out_dir.exists(), err


@pytest.mark.parametrize("target", ["config", "checkpoint"])
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_0_or_1_with_one_named_line_on_mutated_inputs(target, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target == "config":
            mapping = base_config()
            for _ in range(data.draw(st.integers(1, 3))):
                _mutate_tree(data.draw, mapping, SECTOR_DEFAULTS_CONFIG, GROW_WHEN_DROPPED)
            path = tmp / "fuzz.yaml"
            path.write_text(yaml.safe_dump(mapping))
            runs = [["train", "--config", str(path)]]
        else:
            path = tmp / "fuzz.npz"
            _checkpoint_bytes(data.draw, *base_checkpoint(), path)
            common = ["--checkpoint", str(path), "--case", "headon"]
            runs = [["eval", *common, "--episodes", "1"], ["rollout-dump", *common]]
        for i, argv in enumerate(runs):
            out_dir = tmp / f"out{i}"
            code, err = _run([*argv, "--out", str(out_dir)])
            _check(code, err, path, out_dir)
