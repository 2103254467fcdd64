"""The three benchmark workloads: set-up, one operation, and the checks on its output.

Every workload is a closed loop in one process: one operation starts when the
previous one returns. An operation is one PPO update (a ``ppo.train`` call cut
to a single update) or one greedy evaluation episode. Every operation of a run
gets the same input, drawn from the benchmark seed, so a run that has time
for more operations repeats the same work rather than measuring other traffic.

* ``train-headon``: ``configs/smoke_headon.yaml`` as the acceptance smoke run
  uses it, 2 aircraft, 2 envs x 256 steps. ``ppo_update`` dominates and an
  observation holds at most one intruder, so it exercises the policy and
  autodiff layers and barely touches the O(N^2) simulation.
* ``train-sector``: ``configs/paper_scale.yaml`` network, PPO settings and
  ``training`` scenario (U{1..20} aircraft on two random routes), scaled to
  2 envs x 1280 steps. The minibatches mix observations with different
  intruder counts and the transitions per update vary with the seed.
* ``eval-casec16``: greedy advisories from a fixed-seed initialised policy,
  loaded from a checkpoint written during set-up, over case C with 16
  aircraft. Forward passes only, and up to 15 intruders per observation, so
  featurize and detect_events carry a large share of each decision cycle.
"""

import dataclasses
import math
import shutil
import time
from pathlib import Path

import numpy as np

from airsep import airspace, config, harness, policy, ppo

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# A training world spawns its first aircraft at most 1200 s after it starts
# (the largest spawn spacing), so a 1280-step horizon from a fresh world always
# yields transitions; ppo_update rejects an empty buffer.
# Two envs average two traffic draws per update, which narrows the spread of
# cost per transition across seeds.
SECTOR_SCALE = {"n_envs": 2, "horizon": 1280}
EVAL_AIRCRAFT = 16
#: the evaluated policy is the same for every benchmark seed; only the traffic varies
EVAL_POLICY_SEED = 0


@dataclasses.dataclass
class OpResult:
    end: float         # perf_counter when the operation returned
    errors: list
    digest: dict
    seconds: float = 0.0   # from the start of its timed loop to ``end``
    units: int = 0     # agent-steps: transitions consumed, or decisions made


def config_seed(seed):
    """Training config seed of every operation in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])


class TrainWorkload:
    """One op = ``ppo.train`` for a single update from the run's config seed; output checked.

    Set-up is only the config load: ``ppo.train``'s own start (parameter init,
    env construction) runs inside each op, before its rollout starts the timed loop.
    """

    def __init__(self, config_name, scale, seed, work_dir):
        self.config_name = config_name
        self.scale = scale
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        cfg = config.load_training_config(CONFIGS / self.config_name)
        hyper = dataclasses.replace(cfg.hyper, updates=1, **self.scale)
        self.cfg = dataclasses.replace(
            cfg, hyper=hyper, checkpoint_every=0, seed=config_seed(self.seed)
        )

    def run_op(self, k):
        cfg = self.cfg
        out = self.work_dir / f"op{k:03d}"
        try:
            result = ppo.train(cfg, out)
            end = time.perf_counter()
            errors = check_training(result, cfg)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        digest = {
            "seed": cfg.seed,
            "mean_lambda_return": [s.mean_lambda_return for s in result.stats],
        }
        return OpResult(end=end, errors=errors, digest=digest)


def check_training(result, cfg):
    """Stats CSV finite with the pinned header; final checkpoint round-trips bit-exactly."""
    errors = []
    lines = result.stats_path.read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != tuple(ppo.STATS_HEADER):
        errors.append(f"training_stats.csv header is {lines[:1]}, not {ppo.STATS_HEADER}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != cfg.hyper.updates:
        errors.append(f"training_stats.csv has {len(rows)} rows for {cfg.hyper.updates} updates")
    for row in rows:
        if len(row) != len(ppo.STATS_HEADER) or not all(math.isfinite(float(x)) for x in row):
            errors.append(f"training_stats.csv row not finite: {row}")
    loaded, _ = policy.load_policy(result.checkpoint_paths[-1])
    trained = result.params.named_parameters()
    for name, tensor in loaded.named_parameters().items():
        if name not in trained or tensor.data.tobytes() != trained[name].data.tobytes():
            errors.append(f"final checkpoint does not round-trip parameter {name}")
    return errors


class EvalWorkload:
    """One op = one greedy case-C episode with 16 aircraft, run to termination.

    Every op flies a fresh world built from the same seed.
    """

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        cfg = config.load_training_config(CONFIGS / "paper_scale.yaml")
        initial = policy.init_params(cfg.network, np.random.default_rng(EVAL_POLICY_SEED))
        path = policy.save_policy(
            self.work_dir / "eval_policy", initial, ppo.checkpoint_metadata(cfg, 0)
        )
        self.params, meta = policy.load_policy(path)
        for name, tensor in initial.named_parameters().items():
            if tensor.data.tobytes() != self.params.named_parameters()[name].data.tobytes():
                raise RuntimeError(f"evaluation checkpoint does not round-trip parameter {name}")
        self.sector = airspace.SectorParams(**meta["sector_si"])
        self.next_world = self.world()

    def world(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        return airspace.make_world(
            airspace.EnvKind.CASE_C, rng, sector=self.sector, n_aircraft=EVAL_AIRCRAFT
        )

    def run_op(self, k):
        world, self.next_world = self.next_world, None
        action_fn = harness.greedy_action_fn(self.params)
        metrics = harness.run_episode(world, action_fn)
        end = time.perf_counter()
        errors = check_episode(metrics, world)
        self.next_world = self.world()
        return OpResult(end=end, errors=errors, digest=dataclasses.asdict(metrics))


def check_episode(metrics, world):
    """The episode ended; adherence in [0, 1]; NMAC and LoS counts finite and >= 0."""
    errors = []
    if not world.is_done():
        errors.append("episode returned before every aircraft left the sector")
    if not 0.0 <= metrics.speed_adherence <= 1.0:
        errors.append(f"speed adherence {metrics.speed_adherence} outside [0, 1]")
    for name in ("nmac_count", "los_seconds"):
        value = getattr(metrics, name)
        if not (math.isfinite(value) and value >= 0):
            errors.append(f"{name} = {value}")
    if not 1 <= metrics.max_density <= EVAL_AIRCRAFT:
        errors.append(f"max density {metrics.max_density} outside [1, {EVAL_AIRCRAFT}]")
    return errors


def eval_aggregate(digests):
    """Mean EpisodeMetrics over the run's episodes, in the harness's aggregate form."""
    keys = ("nmac_count", "los_seconds", "speed_adherence", "max_density")
    return {"episodes": len(digests), **{f"mean_{k}": float(np.mean([d[k] for d in digests])) for k in keys}}


def make(name, seed, work_dir):
    if name == "train-headon":
        return TrainWorkload("smoke_headon.yaml", {}, seed, work_dir)
    if name == "train-sector":
        return TrainWorkload("paper_scale.yaml", SECTOR_SCALE, seed, work_dir)
    if name == "eval-casec16":
        return EvalWorkload(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
