"""Print sha256 digests of the outputs a speed change must leave bit for bit alone.

    PYTHONPATH=src python tools/bit_identity.py

prints a header naming the stack the digests depend on (numpy and scipy
versions, the BLAS numpy was built with, ``OMP_NUM_THREADS``, the CPU model),
then one ``<gate> <sha256>`` line per gate. When the header matches the one in
``tools/bit_identity.expected`` and the default inputs are used, it also
compares: every line that differs from the file goes to stderr and the exit
status is 1. On another stack, or with ``--configs`` or ``--checkpoint``, it
says so and compares nothing. A change that alters the arithmetic on purpose
regenerates the file with a stdout redirect:

    PYTHONPATH=src python tools/bit_identity.py > tools/bit_identity.expected

To compare two checkouts on a stack the file was not written on, diff the
outputs of both sides (``PYTHONPATH=../parent/src`` for the other one).

``airsep`` is imported from ``PYTHONPATH``; the configs come from this
checkout's ``configs/`` (or ``--configs``). BLAS threads are pinned to 1. The
gates:

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
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from airsep import airspace, config, harness, numerics as nm, policy, ppo  # noqa: E402
from airsep.featurize import EgoObservation  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().with_suffix(".expected")
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


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def stack_header():
    """One ``# name value`` line for each part of the stack that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# scipy {importlib.metadata.version('scipy')}",
        f"# blas {blas['name']} {blas['version']}",
        f"# OMP_NUM_THREADS {os.environ['OMP_NUM_THREADS']}",
        f"# cpu {cpu_model()}",
    ]


def compare(header, lines):
    """1 if ``lines`` differ from the expected file written on this stack, else 0; the verdict goes to stderr."""
    if not EXPECTED.exists():
        print(f"no {EXPECTED.name}; nothing compared", file=sys.stderr)
        return 0
    expected = EXPECTED.read_text().splitlines()
    if (old_header := [line for line in expected if line.startswith("#")]) != header:
        print(f"{EXPECTED.name} was written on another stack; nothing compared:", file=sys.stderr)
        for theirs, ours in zip(old_header, header):
            if theirs != ours:
                print(f"  file: {theirs[2:]} | here: {ours[2:]}", file=sys.stderr)
        return 0
    want = dict(line.split(" ", 1) for line in expected if not line.startswith("#"))
    got = dict(line.split(" ", 1) for line in lines)
    differing = [gate for gate in {**want, **got} if want.get(gate) != got.get(gate)]
    for gate in differing:
        print(f"differs: {gate} expected {want.get(gate, '(absent)')} got {got.get(gate, '(absent)')}",
              file=sys.stderr)
    print(f"{len(differing)} of {len(want)} lines differ from {EXPECTED.name}", file=sys.stderr)
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", type=Path, default=ROOT / "configs")
    parser.add_argument("--checkpoint", type=Path, default=None, help="policy checkpoint for the eval gates")
    args = parser.parse_args()
    header = stack_header()
    print("\n".join(header), flush=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        checkpoint = args.checkpoint or fixed_checkpoint(work)
        gates = (
            [("checkpoint", sha(Path(checkpoint).read_bytes()))],
            gelu_gates(),
            backward_gates(),
            world_gates(),
            config_gates(args.configs),
            training_gates(args.configs, work),
            evaluate_gates(checkpoint),
            cli_gates(checkpoint, work),
        )
        for gate, digest in (pair for group in gates for pair in group):
            lines.append(f"{gate} {digest}")
            print(lines[-1], flush=True)
    if args.checkpoint or args.configs != parser.get_default("configs"):
        print(f"custom inputs: nothing compared with {EXPECTED.name}", file=sys.stderr)
        return 0
    return compare(header, lines)


if __name__ == "__main__":
    sys.exit(main())
