"""Print sha256 digests of the outputs a speed change must leave bit for bit alone.

Run it once against each side of a change and diff the two outputs:

    PYTHONPATH=src python tools/bit_identity.py > change.txt
    PYTHONPATH=../parent/src python tools/bit_identity.py > parent.txt
    diff parent.txt change.txt

``airsep`` is imported from ``PYTHONPATH``; the configs come from this
checkout's ``configs/`` (or ``--configs``). BLAS threads are pinned to 1.
Each line is ``<gate> <sha256>``:

* ``numerics.gelu`` forward and backward (unit upstream gradient) on a
  fixed grid of 1 M points over [-12, 12];
* ``numerics.backward`` of ``ppo.ppo_loss`` at paper width with 1, 2 and 3
  encoder layers, on one seeded minibatch padded from observations with 0, 1,
  3, 7 and 15 intruders: every parameter's gradient (or ``None``) in
  ``named_parameters`` order. The loss reuses tensors on several paths (the
  normed tokens feed q, k and v, the value head two ``sub``s, the
  log-softmax ``pick`` and the entropy), so this pins the order in which the
  tape accumulates gradients;
* ``make_world`` for every ``EnvKind`` over seeds 0..199 and the counts
  None, 1, 3 and 16 (``headon``: None only, it always flies two): the
  routes, the spawn queue, the aircraft inserted, ``early_termination``,
  ``n_spawned`` and the generator's state afterwards;
* every shipped config (``configs/*.yaml``): the ``repr`` of the
  ``TrainConfig`` that ``load_training_config`` reads from it;
* ``smoke_headon.yaml`` cut to 3 updates and ``paper_scale.yaml`` cut to
  2 updates x 2 envs x 300 steps, both at seed 5: ``training_stats.csv`` and
  the trained parameter bytes;
* ``evaluate`` on case C with 8 aircraft in greedy, sample and random mode:
  every episode's metrics, the aggregate and the per-density table;
* ``airsep eval --case c --episodes 6 --seed 4`` and
  ``airsep rollout-dump --case c --seed 9`` on one checkpoint: each file
  written. The checkpoint is ``--checkpoint``, or a paper-width policy
  initialised from seed 0 with fixed value statistics, whose bytes are also
  digested.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from airsep import airspace, config, harness, numerics as nm, policy, ppo  # noqa: E402
from airsep.featurize import EgoObservation  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORLD_SEEDS = range(200)
WORLD_COUNTS = (None, 1, 3, 16)
BACKWARD_COUNTS = (0, 1, 3, 7, 15)
TRAINING_CUTS = {
    "smoke_headon": {"updates": 3},
    "paper_scale": {"updates": 2, "n_envs": 2, "horizon": 300},
}


def sha(data):
    return hashlib.sha256(data).hexdigest()


def parameter_bytes(params):
    return b"".join(name.encode() + t.data.tobytes() for name, t in params.named_parameters().items())


def gelu_gates():
    x = nm.Tensor(np.linspace(-12.0, 12.0, 1_000_000), requires_grad=True)
    y = nm.gelu(x)
    nm.backward(nm.tsum(y))
    yield "numerics.gelu", sha(y.data.tobytes() + x.grad.tobytes())


def backward_gates():
    rng = np.random.default_rng(11)
    observations = [
        EgoObservation(ownship=rng.uniform(0.0, 1.0, 2), intruders=rng.standard_normal((n, policy.INTRUDER_DIM)))
        for n in BACKWARD_COUNTS
    ]
    rows = policy.pad_observations(observations)
    b = len(observations)
    actions = rng.integers(0, policy.N_ACTIONS, b)
    logp_old = np.log(rng.uniform(0.2, 0.5, b))
    advantages, returns, values_old = rng.standard_normal((3, b))
    for m in (1, 2, 3):
        params = policy.init_params(policy.PolicyConfig(layers=m), np.random.default_rng(m))
        total = ppo.ppo_loss(params, rows, actions, logp_old, advantages, returns, values_old, ppo.HyperParams())[0]
        nm.backward(total)
        grads = b"".join(
            name.encode() + (b"None" if t.grad is None else t.grad.tobytes())
            for name, t in params.named_parameters().items()
        )
        yield f"numerics.backward.m{m}", sha(grads)


def world_digest(world, rng):
    aircraft = [
        (ac.aircraft_id, world.routes.index(ac.route), ac.leg, ac.leg_offset, ac.cas, ac.v_des, ac.spawn_time,
         ac.eta_deadline)
        for ac in world.aircraft
    ]
    state = (world.spawn_queue, aircraft, world.early_termination, world.n_spawned, rng.bit_generator.state)
    return b"".join(r.waypoints.tobytes() for r in world.routes) + repr(state).encode()


def world_gates():
    for kind in airspace.EnvKind:
        digest = hashlib.sha256()
        counts = (None,) if kind is airspace.EnvKind.HEAD_ON else WORLD_COUNTS
        for seed in WORLD_SEEDS:
            for n in counts:
                rng = np.random.default_rng(seed)
                digest.update(world_digest(airspace.make_world(kind, rng, n_aircraft=n), rng))
        yield f"make_world.{kind.value}", digest.hexdigest()


def config_gates(configs):
    for path in sorted(configs.glob("*.yaml")):
        yield f"config.{path.stem}", sha(repr(config.load_training_config(path)).encode())


def training_gates(configs, work):
    for name, cut in TRAINING_CUTS.items():
        cfg = config.load_training_config(configs / f"{name}.yaml")
        cfg = dataclasses.replace(
            cfg, seed=5, checkpoint_every=0, hyper=dataclasses.replace(cfg.hyper, **cut)
        )
        result = ppo.train(cfg, work / name)
        yield f"train.{name}.training_stats.csv", sha(result.stats_path.read_bytes())
        yield f"train.{name}.parameters", sha(parameter_bytes(result.params))


def fixed_checkpoint(work):
    params = policy.init_params(policy.PolicyConfig(), np.random.default_rng(0))
    params.value_norm = policy.ValueNormalizer(count=10, mean=-3.25, var=7.5)
    return policy.save_policy(work / "fixed_policy", params)


def evaluate_gates(checkpoint):
    params, _ = policy.load_policy(checkpoint)
    for mode in ("greedy", "sample", "random"):
        result = harness.evaluate(params, "c", 3, seed=3, n_aircraft=8, action_mode=mode)
        table = repr((result.episodes, result.aggregate, result.per_density))
        yield f"evaluate.c8.{mode}", sha(table.encode())


def cli_gates(checkpoint, work):
    commands = {
        "eval": ["eval", "--case", "c", "--episodes", "6", "--seed", "4"],
        "rollout-dump": ["rollout-dump", "--case", "c", "--seed", "9"],
    }
    for name, argv in commands.items():
        out = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness.cli([*argv, "--checkpoint", str(checkpoint), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"airsep {name} exited {code}")
        for path in sorted(out.iterdir()):
            yield f"cli.{name}.{path.name}", sha(path.read_bytes())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", type=Path, default=ROOT / "configs")
    parser.add_argument("--checkpoint", type=Path, default=None, help="policy checkpoint for the eval gates")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        checkpoint = args.checkpoint or fixed_checkpoint(work)
        print("checkpoint", sha(Path(checkpoint).read_bytes()), flush=True)
        gates = (
            gelu_gates(),
            backward_gates(),
            world_gates(),
            config_gates(args.configs),
            training_gates(args.configs, work),
            evaluate_gates(checkpoint),
            cli_gates(checkpoint, work),
        )
        for gate, digest in (pair for group in gates for pair in group):
            print(gate, digest, flush=True)


if __name__ == "__main__":
    main()
