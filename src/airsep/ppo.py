"""Clipped-surrogate PPO with GAE over parallel sector environments.

One parameter set serves every agent in every environment. Each environment
contributes a fixed-length stream of steps per update; every active agent
contributes one transition per step, and removals terminate an agent's track
(bootstrap 0) while horizon truncation bootstraps the value of the last
observation. Transitions from all agents and envs are pooled, shuffled and
optimized in minibatches.

The critic is trained on normalized value targets. The parameters carry
running mean/std statistics of every lambda-return seen so far
(:class:`~airsep.policy.ValueNormalizer`); each :func:`ppo_update` first folds
the buffer's returns into them and then fits the value head to
``(G - mean) / std``. Value clipping compares normalized old and new
predictions, so ``clip_eps`` bounds the critic's step in units of the return
spread rather than in raw reward units. Values that enter GAE (the per-step
values and the truncation bootstrap) are de-normalized to reward units.
"""

import csv
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import airspace, numerics as nm, policy as policy_mod
from .airspace import EnvKind, SectorParams, make_world
from .featurize import featurize
from .numerics import Tensor
from .policy import PolicyConfig, forward_batch, init_params
from .reward import RewardParams, compute_reward

STATS_HEADER = (
    "update",
    "mean_lambda_return",
    "mean_entropy",
    "policy_loss",
    "value_loss",
    "clip_fraction",
    "grad_norm",
)


@dataclass(frozen=True)
class HyperParams:
    updates: int = 200
    n_envs: int = 8
    horizon: int = 4096
    batch_size: int = 128
    epochs: int = 4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    entropy_coef: float = 0.01
    vf_coef: float = 0.5
    max_grad_norm: float = 0.5
    learning_rate: float = 3e-4
    advantage_normalization: bool = True
    value_clipping: bool = True

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("gamma and gae_lambda must lie in [0, 1]")
        if self.clip_eps <= 0.0:
            raise ValueError("clip_eps must be positive")
        counts = (self.updates, self.n_envs, self.horizon, self.batch_size, self.epochs)
        if min(map(operator.index, counts)) < 1:
            raise ValueError("counts must be >= 1")
        reals = (self.learning_rate, self.entropy_coef, self.vf_coef, self.max_grad_norm)
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in reals):
            raise TypeError("learning_rate, entropy_coef, vf_coef and max_grad_norm must be numbers")
        if not all(isinstance(x, bool) for x in (self.advantage_normalization, self.value_clipping)):
            raise TypeError("advantage_normalization and value_clipping must be true or false")


@dataclass(frozen=True)
class ScenarioSpec:
    """Which scenario the environments run, and under what sector parameters."""

    env_kind: EnvKind = EnvKind.TRAINING
    sector: SectorParams = field(default_factory=SectorParams)
    n_aircraft: int | None = None


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    hyper: HyperParams = field(default_factory=HyperParams)
    network: PolicyConfig = field(default_factory=PolicyConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    checkpoint_every: int = 50
    init_checkpoint: str | None = None


@dataclass
class TrainStats:
    update: int
    mean_lambda_return: float
    mean_entropy: float
    policy_loss: float
    value_loss: float
    total_loss: float
    clip_fraction: float
    grad_norm: float

    def csv_row(self):
        """The ``STATS_HEADER`` columns; floats as ``repr`` so the file round-trips exactly."""
        return [self.update] + [repr(getattr(self, name)) for name in STATS_HEADER[1:]]


# ---------------------------------------------------------------------------
# environment wrapper
# ---------------------------------------------------------------------------


class SectorEnv:
    """One independent world stream that regenerates a fresh scenario per episode."""

    def __init__(self, scenario, rng, reward_params=None):
        self.scenario = scenario
        self.rng = rng
        self.reward_params = reward_params or RewardParams()
        self.episode = -1
        self.world = None
        self.regenerate()

    def regenerate(self):
        self.episode += 1
        self.world = make_world(
            self.scenario.env_kind,
            self.rng,
            sector=self.scenario.sector,
            n_aircraft=self.scenario.n_aircraft,
        )


# ---------------------------------------------------------------------------
# rollout collection
# ---------------------------------------------------------------------------


@dataclass
class Track:
    """Contiguous per-agent transition record within one env episode."""

    env_index: int
    episode: int
    agent_id: str
    observations: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    log_probs: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    values: list = field(default_factory=list)
    dones: list = field(default_factory=list)
    bootstrap_value: float = 0.0

    def __len__(self):
        return len(self.rewards)


class RolloutBuffer:
    """Pooled transitions of all agents across all envs for one update."""

    def __init__(self):
        self.tracks = []
        self.advantages = None
        self.lambda_returns = None

    def __len__(self):
        return sum(len(t) for t in self.tracks)

    def flat_fields(self):
        """(observations, actions, log_probs, values) flattened in track order."""
        obs, acts, logps, vals = [], [], [], []
        for t in self.tracks:
            obs.extend(t.observations)
            acts.extend(t.actions)
            logps.extend(t.log_probs)
            vals.extend(t.values)
        return obs, np.array(acts, dtype=np.int64), np.array(logps), np.array(vals)


def collect_rollouts(envs, params, horizon, rng):
    """Simulate ``horizon`` steps in every env, sampling actions from the policy.

    Agents removed mid-horizon close their track with done = 1 (terminal,
    bootstrap 0); agents still active at the end get a truncation bootstrap
    from the value head. Envs whose episode finishes regenerate immediately.
    A step counts against the horizon only if some aircraft is aloft: an env
    with none (before the first spawn, or between spawns) is stepped with no
    actions until one spawns, so every counted step yields transitions.
    Stored values and bootstraps are in reward units: the value head's
    normalized output de-normalized with the parameters' current statistics.
    """
    buffer = RolloutBuffer()
    open_tracks = {}
    for _ in range(horizon):
        for env_index, env in enumerate(envs):
            # a world with no aircraft aloft makes no decision: fly it (not
            # jump its clock) to the next spawn, off the horizon's count
            while env.world.is_done() or not env.world.aircraft:
                if env.world.is_done():
                    env.regenerate()
                else:
                    airspace.step(env.world, {})
            world = env.world
            obs_map = {aid: featurize(world, aid) for aid in sorted(world.active_ids())}
            chosen = {aid: policy_mod.act(obs, params, rng, "sample") for aid, obs in obs_map.items()}
            result = airspace.step(world, {aid: advisory for aid, (advisory, _, _) in chosen.items()})
            for aid, obs in obs_map.items():
                key = (env_index, env.episode, aid)
                track = open_tracks.get(key)
                if track is None:
                    track = Track(env_index=env_index, episode=env.episode, agent_id=aid)
                    open_tracks[key] = track
                    buffer.tracks.append(track)
                advisory, log_prob, value = chosen[aid]
                track.observations.append(obs)
                track.actions.append(int(advisory))
                track.log_probs.append(log_prob)
                track.values.append(value)
                track.rewards.append(
                    compute_reward(result.post_move, aid, result.events, env.reward_params, world.sector)
                )
                done = aid in result.removals
                track.dones.append(float(done))
                if done:
                    del open_tracks[key]
    for (env_index, _, aid), track in open_tracks.items():
        world = envs[env_index].world
        obs = featurize(world, aid)
        _, track.bootstrap_value = policy_mod.forward(obs, params)
    return buffer


def compute_gae(buffer, gamma, lam):
    """Backward-recursion advantages and lambda-returns, per contiguous track.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t), advantage
    A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}; the lambda-return is
    A_t + V(s_t). Results are stored on the buffer (flat, in track order) and
    returned.
    """
    advantages, returns = [], []
    for track in buffer.tracks:
        n = len(track)
        if any(track.dones[k] and k != n - 1 for k in range(n)):
            raise ValueError("done flag inside a track: contiguity broken")
        adv = np.empty(n)
        next_value = track.bootstrap_value
        acc = 0.0
        for k in reversed(range(n)):
            nonterminal = 1.0 - track.dones[k]
            delta = track.rewards[k] + gamma * next_value * nonterminal - track.values[k]
            acc = delta + gamma * lam * nonterminal * acc
            adv[k] = acc
            next_value = track.values[k]
        advantages.append(adv)
        returns.append(adv + np.asarray(track.values))
    buffer.advantages = np.concatenate(advantages) if advantages else np.zeros(0)
    buffer.lambda_returns = np.concatenate(returns) if returns else np.zeros(0)
    return buffer.advantages, buffer.lambda_returns


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive-moment estimation over a list of parameter tensors."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=3e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def normalize_advantages(adv):
    """Zero-mean unit-variance rescaling with the standard 1e-8 guard."""
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def ppo_loss(params, rows, actions, logp_old, advantages, returns, values_old, hparams):
    """PPO objective of one minibatch as one graph.

    ``rows`` is ``(ownship, intruders, counts)`` as :func:`~airsep.policy.pad_observations`
    builds them; the other arrays hold one entry per row, with returns and
    old values in normalized units. The loss is the negated mean clipped
    surrogate, plus ``vf_coef`` times half the mean (clipped) squared value
    error, minus ``entropy_coef`` times the mean entropy. Returns the tensors
    ``(total, policy_loss, value_loss, entropy, ratio)``.
    """
    eps = hparams.clip_eps
    logits, value = forward_batch(*rows, params)
    lsm = nm.log_softmax(logits)
    ratio = nm.exp(nm.pick(lsm, actions) - Tensor(logp_old))
    adv = Tensor(advantages)
    surrogate = nm.minimum(ratio * adv, nm.clip(ratio, 1.0 - eps, 1.0 + eps) * adv)
    policy_loss = nm.neg(nm.tmean(surrogate))
    v_err = value - Tensor(returns)
    if hparams.value_clipping:
        v_clip_err = nm.clip(value - Tensor(values_old), -eps, eps) + Tensor(values_old - returns)
        value_loss = nm.tmean(nm.maximum(nm.square(v_err), nm.square(v_clip_err))) * 0.5
    else:
        value_loss = nm.tmean(nm.square(v_err)) * 0.5
    entropy = nm.neg(nm.tsum(nm.mul(nm.exp(lsm), lsm))) / len(actions)
    total = policy_loss + value_loss * hparams.vf_coef - entropy * hparams.entropy_coef
    return total, policy_loss, value_loss, entropy, ratio


def ppo_update(params, buffer, hparams, rng, optimizer):
    """One PPO optimization pass over a collected buffer with GAE attached.

    The buffer's lambda-returns are first folded into ``params.value_norm``;
    the value head is then fit to the returns normalized with the updated
    statistics, and the old (collection-time) values are normalized the same
    way, so value clipping by ``clip_eps`` happens in normalized units. Per
    epoch the pooled transitions are shuffled and consumed in minibatches;
    advantages are normalized per minibatch, the clipped surrogate and clipped
    value loss are combined with an entropy bonus (:func:`ppo_loss`, one
    batched forward and one backward per minibatch), gradients are
    norm-clipped, and the optimizer steps. The reported value loss is in
    normalized units, ``mean_lambda_return`` in reward units.
    """
    if buffer.advantages is None:
        raise ValueError("compute_gae must run before ppo_update")
    obs_list, actions, logp_old, values_old = buffer.flat_fields()
    adv_all = buffer.advantages
    n = len(obs_list)
    if n == 0:
        raise ValueError("empty rollout buffer")
    params.value_norm.update(buffer.lambda_returns)
    ret_all = params.value_norm.normalize(buffer.lambda_returns)
    values_old = params.value_norm.normalize(values_old)
    ownship, intruders, counts = policy_mod.pad_observations(obs_list)
    tensors = params.tensors()

    pol_hist, val_hist, tot_hist, ent_hist, clip_hist, norm_hist = [], [], [], [], [], []
    for _ in range(hparams.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hparams.batch_size):
            idx = perm[start:start + hparams.batch_size]
            mb_adv = adv_all[idx]
            if hparams.advantage_normalization:
                mb_adv = normalize_advantages(mb_adv)
            width = int(counts[idx].max())
            rows = (ownship[idx], intruders[idx, :width], counts[idx])
            total, policy_loss, value_loss, entropy, ratio = ppo_loss(
                params, rows, actions[idx], logp_old[idx], mb_adv, ret_all[idx], values_old[idx], hparams
            )
            nm.zero_grads(tensors)
            nm.backward(total)
            norm_hist.append(clip_grad_norm(tensors, hparams.max_grad_norm))
            optimizer.step()
            pol_hist.append(float(policy_loss.data))
            val_hist.append(float(value_loss.data))
            tot_hist.append(float(total.data))
            ent_hist.append(float(entropy.data))
            clip_hist.append(float(np.mean(np.abs(ratio.data - 1.0) > hparams.clip_eps)))

    return TrainStats(
        update=-1,
        mean_lambda_return=float(buffer.lambda_returns.mean()),
        mean_entropy=float(np.mean(ent_hist)),
        policy_loss=float(np.mean(pol_hist)),
        value_loss=float(np.mean(val_hist)),
        total_loss=float(np.mean(tot_hist)),
        clip_fraction=float(np.mean(clip_hist)),
        grad_norm=float(np.mean(norm_hist)),
    )


# ---------------------------------------------------------------------------
# training orchestration
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    stats: list
    params: object
    stats_path: Path
    checkpoint_paths: list


def checkpoint_metadata(config, update):
    """Metadata echoed into every checkpoint so evaluation matches training."""
    return {
        "seed": config.seed,
        "env_kind": config.scenario.env_kind.value,
        "update": update,
        "sector_si": asdict(config.scenario.sector),
        "reward": asdict(config.reward),
        "hyper": asdict(config.hyper),
    }


def train(config, out_dir, log=None):
    """Full training loop: collect, GAE, update; stats CSV and checkpoints on disk."""
    hp = config.hyper
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    root = np.random.SeedSequence(config.seed)
    init_ss, action_ss, shuffle_ss, *env_ss = root.spawn(3 + hp.n_envs)
    if config.init_checkpoint:
        params, _ = policy_mod.load_policy(config.init_checkpoint)
        if params.config != config.network:
            raise ValueError("init checkpoint network config disagrees with training config")
    else:
        params = init_params(config.network, np.random.default_rng(init_ss))
    envs = [
        SectorEnv(config.scenario, np.random.default_rng(ss), reward_params=config.reward)
        for ss in env_ss
    ]
    action_rng = np.random.default_rng(action_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    optimizer = Adam(params.tensors(), lr=hp.learning_rate)

    stats_path = out / "training_stats.csv"
    checkpoint_paths = []
    stats = []
    with open(stats_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        for update in range(hp.updates):
            buffer = collect_rollouts(envs, params, hp.horizon, action_rng)
            compute_gae(buffer, hp.gamma, hp.gae_lambda)
            st = ppo_update(params, buffer, hp, shuffle_rng, optimizer)
            st.update = update
            stats.append(st)
            writer.writerow(st.csv_row())
            fh.flush()
            if config.checkpoint_every and (update + 1) % config.checkpoint_every == 0:
                path = policy_mod.save_policy(
                    out / f"checkpoint_{update + 1:04d}", params, checkpoint_metadata(config, update)
                )
                checkpoint_paths.append(Path(path))
            if log:
                log(
                    f"update {update + 1}/{hp.updates}: "
                    f"return {st.mean_lambda_return:.3f} entropy {st.mean_entropy:.3f} "
                    f"transitions {len(buffer)}"
                )
    final = policy_mod.save_policy(
        out / "checkpoint_final", params, checkpoint_metadata(config, hp.updates - 1)
    )
    checkpoint_paths.append(Path(final))
    return TrainResult(stats=stats, params=params, stats_path=stats_path, checkpoint_paths=checkpoint_paths)
