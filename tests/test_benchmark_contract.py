"""The benchmark's tracer wraps public airsep functions by name; they must all
exist, and a traced run must measure every per-layer metric the benchmark bounds.

``perfbench/tracing.py`` lists the wrapped functions in ``TRACED`` and raises
during a traced run when one is missing; ``perfbench/run.py`` raises when a
bounded per-layer metric has no value. Either would only show up as a
benchmark run without a result line, so this file catches both in the suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from airsep import airspace, config, harness, policy, ppo

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", _tracing().TRACED)
def test_traced_function_is_callable(module_name, attr):
    owner = importlib.import_module(f"airsep.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


TINY_RUN = (
    "seed: 3\n"
    "scenario: {env: headon}\n"
    "network: {d_emb: 16, d_ff: 32, heads: 4, layers: 1}\n"
    "ppo: {updates: 1, n_envs: 1, horizon: 32, batch_size: 16, epochs: 1}\n"
    "checkpoint_every: 0\n"
)


def _train(tmp_path, cfg):
    """A training op as perfbench runs it: ``ppo.train``, then reload its checkpoint."""
    result = ppo.train(cfg, tmp_path / "run")
    policy.load_policy(result.checkpoint_paths[-1])


def _evaluate(tmp_path, cfg):
    """An evaluation op as perfbench runs it: a checkpoint round trip, then one greedy episode."""
    path = policy.save_policy(tmp_path / "policy", policy.init_params(cfg.network, np.random.default_rng(0)))
    params, _ = policy.load_policy(path)
    world = airspace.make_world("c", np.random.default_rng(1), n_aircraft=3)
    harness.run_episode(world, harness.greedy_action_fn(params))


@pytest.mark.parametrize("run", [_train, _evaluate], ids=["train", "eval"])
def test_traced_run_measures_every_bounded_layer(tmp_path, run):
    tracing = _tracing()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    (tmp_path / "tiny.yaml").write_text(TINY_RUN)
    patcher = tracing.Patcher()
    tracer, probe = tracing.Tracer("contract"), tracing.CycleProbe()
    try:
        tracer.install(patcher)
        probe.install(patcher)
        run(tmp_path, config.load_training_config(tmp_path / "tiny.yaml"))
    finally:
        patcher.restore()
    metrics = tracer.layer_metrics(probe)
    assert [name for name in bounded if metrics.get(name) is None] == []
