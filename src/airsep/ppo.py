"""Clipped-surrogate PPO with GAE over parallel sector environments.

One parameter set serves every agent in every environment. Each environment
contributes a fixed-length stream of steps per update; every active agent
contributes one transition per step, and removals terminate an agent's track
(bootstrap 0) while horizon truncation bootstraps the value of the last
observation. Transitions from all agents and envs are pooled, shuffled and
optimized in minibatches. :func:`train` is only a loop of :func:`run_update`
on the :class:`TrainState` that :func:`start_training` builds, plus its files;
each checkpoint it writes resumes the run bit for bit (:func:`save_state`).

The critic is trained on normalized value targets. The parameters carry
running mean/std statistics of every lambda-return seen so far
(:class:`~airsep.policy.ValueNormalizer`); each :func:`ppo_update` first folds
the buffer's returns into them and then fits the value head to
``(G - mean) / std``. Value clipping compares normalized old and new
predictions, so ``clip_eps`` bounds the critic's step in units of the return
spread rather than in raw reward units. Values that enter GAE (the per-step
values and the truncation bootstrap) are de-normalized to reward units.
"""

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import airspace, numerics as nm, policy as policy_mod
from .airspace import EnvKind, SectorParams, make_world
from .featurize import EgoObservation, featurize
from .numerics import Tensor
from .policy import PolicyConfig, forward_batch, init_params
from .reward import RewardParams, compute_reward


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
        # written so that NaN fails them
        if not (0.0 < self.clip_eps < math.inf and 0.0 < self.max_grad_norm < math.inf):
            raise ValueError("clip_eps and max_grad_norm must be finite and > 0")
        if not all(0.0 <= rate < math.inf for rate in (self.learning_rate, self.entropy_coef, self.vf_coef)):
            raise ValueError("learning_rate, entropy_coef and vf_coef must be finite and >= 0")
        if min(self.updates, self.n_envs, self.horizon, self.batch_size, self.epochs) < 1:
            raise ValueError("counts must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """Which scenario the environments run, and under what sector parameters."""

    env_kind: EnvKind = EnvKind.TRAINING
    sector: SectorParams = field(default_factory=SectorParams)
    n_aircraft: int | None = None

    def __post_init__(self):
        airspace.aircraft_count(self.env_kind, self.n_aircraft)
        object.__setattr__(self, "env_kind", EnvKind(self.env_kind))


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    hyper: HyperParams = field(default_factory=HyperParams)
    network: PolicyConfig = field(default_factory=PolicyConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    checkpoint_every: int = 50
    init_checkpoint: str | None = None

    def __post_init__(self):
        if self.seed < 0 or self.checkpoint_every < 0:
            raise ValueError("seed and checkpoint_every must be >= 0")


@dataclass
class TrainStats:
    """One ``training_stats.csv`` row; the field names, in order, are its header."""

    update: int
    mean_lambda_return: float
    mean_entropy: float
    policy_loss: float
    value_loss: float
    clip_fraction: float
    grad_norm: float


STATS_HEADER = tuple(f.name for f in fields(TrainStats))


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


class PolicyAdvisories:
    """The policy as a decider of :func:`_decision_cycle`; ``mode`` and ``rng`` as in ``policy.act``."""

    def __init__(self, params, mode, rng=None):
        self.params, self.mode, self.rng = params, mode, rng


def _decision_cycle(worlds, deciders):
    """Featurize every world's active ids in order, choose their advisories, step the world.

    ``deciders[k]`` chooses for world k: a :class:`PolicyAdvisories` or a per-agent ``action_fn``.
    Greedy worlds with one parameter set and intruder count share a ``policy.act``, and
    sample-mode worlds do when consecutive with one decider, so the draws keep world, then
    id order. Returns ``[ids, observations, advisories, log_probs, values, step result]`` per world.
    """
    decided, groups, previous, run = [], {}, None, 0
    for k, (world, decide) in enumerate(zip(worlds, deciders)):
        ids = sorted(world.active_ids())
        observations = [featurize(world, aid) for aid in ids]
        decided.append([ids, observations, [], None, None])
        if not isinstance(decide, PolicyAdvisories):
            decided[k][2] = [decide(aid, obs) for aid, obs in zip(ids, observations)]
        elif ids:
            tag = (id(decide.params) if decide.mode == "greedy" else decide, len(ids))
            run, previous = run if tag == previous else k, tag
            groups.setdefault(tag if decide.mode == "greedy" else (*tag, run), []).append(k)
    for members in groups.values():
        decide, views = deciders[members[0]], [obs for k in members for obs in decided[k][1]]
        ownship, intruders, _ = policy_mod.pad_observations(views)
        chosen = policy_mod.act(EgoObservation(ownship, intruders), decide.params, decide.rng, decide.mode)
        bounds = np.cumsum([0] + [len(decided[k][0]) for k in members])
        for k, start, stop in zip(members, bounds, bounds[1:]):
            decided[k][2:] = (rows[start:stop] for rows in chosen)
    for world, d in zip(worlds, decided):
        d.append(airspace.step(world, dict(zip(d[0], d[2]))))
    return decided


def collect_rollouts(envs, params, horizon, rng):
    """Simulate ``horizon`` steps in every env, sampling actions from the policy.

    Agents removed mid-horizon close their track with done = 1 (terminal,
    bootstrap 0); agents still active at the end get a truncation bootstrap
    from the value head. Envs whose episode finishes regenerate immediately.
    A step counts against the horizon only if some aircraft is aloft: an env
    with none (before the first spawn, or between spawns) is stepped with no
    actions until one spawns, so every counted step yields transitions. Idle
    steps count toward the world's own cap in :func:`airspace.step`.
    A counted step is one :func:`_decision_cycle` over the envs; a bootstrap, one ``forward``.
    Stored values and bootstraps are in reward units: the value head's
    normalized output de-normalized with the parameters' current statistics.
    """
    buffer = RolloutBuffer()
    open_tracks = {}
    policy = PolicyAdvisories(params, "sample", rng)
    for _ in range(horizon):
        for env in envs:
            # a world with no aircraft aloft makes no decision: fly it (not
            # jump its clock) to the next spawn, off the horizon's count
            while env.world.is_done() or not env.world.aircraft:
                if env.world.is_done():
                    env.regenerate()
                else:
                    airspace.step(env.world, {})
        decided = _decision_cycle([env.world for env in envs], [policy] * len(envs))
        for env_index, (env, (ids, *chosen, result)) in enumerate(zip(envs, decided)):
            for aid, obs, advisory, log_prob, value in zip(ids, *chosen):
                key = (env_index, env.episode, aid)
                track = open_tracks.get(key)
                if track is None:
                    track = Track(env_index=env_index, episode=env.episode, agent_id=aid)
                    open_tracks[key] = track
                    buffer.tracks.append(track)
                track.observations.append(obs)
                track.actions.append(int(advisory))
                track.log_probs.append(log_prob)
                track.values.append(value)
                track.rewards.append(
                    compute_reward(result.post_move, aid, result.events, env.reward_params, env.world.sector)
                )
                done = aid in result.removals
                track.dones.append(float(done))
                if done:
                    del open_tracks[key]
    for (env_index, _, aid), track in open_tracks.items():
        _, track.bootstrap_value = policy_mod.forward(featurize(envs[env_index].world, aid), params)
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
    if not math.isfinite(norm):  # NaN fails the test below, and an inf norm scales by 0 into NaN
        raise nm.NonFiniteError(f"non-finite values in the gradient (its norm is {norm})")
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
    tensors = params.tensors()

    pol_hist, val_hist, ent_hist, clip_hist, norm_hist = [], [], [], [], []
    for _ in range(hparams.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hparams.batch_size):
            idx = perm[start:start + hparams.batch_size]
            mb_adv = adv_all[idx]
            if hparams.advantage_normalization:
                mb_adv = normalize_advantages(mb_adv)
            rows = policy_mod.pad_observations([obs_list[i] for i in idx])
            # the previous graph is freed after this returns; freed before, glibc re-faults the heap top each time
            total, policy_loss, value_loss, entropy, ratio = ppo_loss(
                params, rows, actions[idx], logp_old[idx], mb_adv, ret_all[idx], values_old[idx], hparams
            )
            nm.zero_grads(tensors)
            nm.backward(total)
            norm_hist.append(clip_grad_norm(tensors, hparams.max_grad_norm))
            optimizer.step()
            pol_hist.append(float(policy_loss.data))
            val_hist.append(float(value_loss.data))
            ent_hist.append(float(entropy.data))
            clip_hist.append(float(np.mean(np.abs(ratio.data - 1.0) > hparams.clip_eps)))

    return TrainStats(
        update=-1,
        mean_lambda_return=float(buffer.lambda_returns.mean()),
        mean_entropy=float(np.mean(ent_hist)),
        policy_loss=float(np.mean(pol_hist)),
        value_loss=float(np.mean(val_hist)),
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


@dataclass
class TrainState:
    """Everything an update reads and writes; ``update`` is the index of the next one, ``stats`` the rows so far."""

    config: TrainConfig
    params: object
    optimizer: Adam
    envs: list
    action_rng: np.random.Generator
    shuffle_rng: np.random.Generator
    update: int = 0
    stats: list = field(default_factory=list)


def start_training(config):
    """A run before its next update. Seeds spawn in the order init, action, shuffle, one per env;
    given ``init_checkpoint``, the checkpoint it names then overwrites all of it. Writes no file."""
    hp = config.hyper
    seeds = np.random.SeedSequence(config.seed).spawn(3 + hp.n_envs)
    init_rng, action_rng, shuffle_rng, *env_rngs = (np.random.default_rng(ss) for ss in seeds)
    params = init_params(config.network, init_rng)
    envs = [SectorEnv(config.scenario, rng, reward_params=config.reward) for rng in env_rngs]
    state = TrainState(config, params, Adam(params.tensors(), lr=hp.learning_rate), envs, action_rng, shuffle_rng)
    if config.init_checkpoint:
        _load_state(state, config.init_checkpoint)
    return state


def _config_json(config):
    saved = asdict(config)
    saved["scenario"]["env_kind"] = config.scenario.env_kind.value
    return saved


def _world_json(world):
    """``world`` as JSON values: routes as waypoint lists, an aircraft's route as its index."""
    saved = {f.name: getattr(world, f.name) for f in fields(world) if f.init and f.name not in ("sector", "rng")}
    route_ids = [id(route) for route in world.routes]
    saved["routes"] = [route.waypoints.tolist() for route in world.routes]
    saved["aircraft"] = [{f.name: getattr(ac, f.name) for f in fields(ac)} | {"route": route_ids.index(id(ac.route))}
                         for ac in world.aircraft]
    saved["spawn_queue"] = [asdict(sp) for sp in world.spawn_queue]
    return saved


def _world_from(saved, sector):
    routes = [airspace.Route(waypoints) for waypoints in saved["routes"]]
    aircraft = [airspace.AircraftState(**ac | {"route": routes[ac["route"]]}) for ac in saved["aircraft"]]
    spawns = [airspace.PendingSpawn(**sp) for sp in saved["spawn_queue"]]
    return airspace.WorldState(**saved | dict(sector=sector, routes=routes, aircraft=aircraft, spawn_queue=spawns))


def _generators(state):
    return state.action_rng, state.shuffle_rng, *(env.rng for env in state.envs)


def save_state(path, state):
    """Write ``state`` to ``path`` (.npz) as the policy checkpoint of its last update that also holds the
    rest of it: Adam's moments as ``adam_m.<name>`` and ``adam_v.<name>``, the others as JSON. Returns the
    path. Not saved: the worlds' pairwise memo, which is derived, and ``WorldState.rng``, which is never read."""
    named = state.params.named_parameters()
    moments = {f"adam_{kind}.{name}": array for kind, arrays in (("m", state.optimizer._m), ("v", state.optimizer._v))
               for name, array in zip(named, arrays)}
    return Path(policy_mod.save_policy(path, state.params, checkpoint_metadata(state.config, state.update - 1) | {
        "config": _config_json(state.config),
        "stats": [astuple(st) for st in state.stats],
        "adam_t": state.optimizer.t,
        "rngs": [rng.bit_generator.state for rng in _generators(state)],
        "envs": [[env.episode, _world_json(env.world)] for env in state.envs],
    }, moments))


def _load_state(state, path):
    """Overwrite the fresh ``state`` with the checkpoint that :func:`save_state` wrote to ``path``. A file
    without training state, another run's, a finished one, or one with an entry missing, of another shape
    or of another length is a ValueError naming it."""
    arrays, meta = nm.load_checkpoint(path)
    if "config" not in meta:
        raise ValueError(f"{path} holds no training state: resume from a checkpoint that train wrote")
    params, _ = policy_mod.load_policy(path, (arrays, meta))
    try:
        mine, saved = ({**c, "hyper": {**c["hyper"], "updates": 0}, "checkpoint_every": 0, "init_checkpoint": None}
                       for c in (_config_json(state.config), meta["config"]))
        update = meta["update"] + 1  # the checkpoint's update is the last one run
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} does not hold a whole training state: {exc!r}") from None
    if mine != saved:
        raise ValueError(f"{path} was saved by a run whose config differs outside "
                         "hyper.updates, checkpoint_every and init_checkpoint")
    if update >= state.config.hyper.updates:
        raise ValueError(f"{path} is at update {update}, and the run stops at {state.config.hyper.updates}")
    try:
        meta["value_normalization"]  # load_policy defaults a missing one; a resume must not
        state.params, state.optimizer = params, Adam(params.tensors(), lr=state.optimizer.lr)
        state.optimizer.t = meta["adam_t"]
        state.optimizer._m, state.optimizer._v = ([arrays[f"adam_{kind}.{name}"] for name in params.named_parameters()]
                                                  for kind in "mv")
        for rng, rng_state in zip(_generators(state), meta["rngs"], strict=True):
            rng.bit_generator.state = rng_state
        for env, (episode, world) in zip(state.envs, meta["envs"], strict=True):
            env.episode, env.world = episode, _world_from(world, state.config.scenario.sector)
        state.stats = [TrainStats(*row) for row in meta["stats"]]
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # an entry missing, or of another shape or length
        raise ValueError(f"{path} does not hold a whole training state: {exc!r}") from None
    state.update = update


def run_update(state):
    """One update on ``state``: collect, GAE, :func:`ppo_update`; appends its row to ``state.stats``.
    Returns ``(stats, buffer)``."""
    hp = state.config.hyper
    buffer = collect_rollouts(state.envs, state.params, hp.horizon, state.action_rng)
    compute_gae(buffer, hp.gamma, hp.gae_lambda)
    stats = ppo_update(state.params, buffer, hp, state.shuffle_rng, state.optimizer)
    stats.update = state.update
    state.update += 1
    state.stats.append(stats)
    return stats, buffer


def train(config, out_dir, log=None):
    """:func:`run_update` from :func:`start_training` to ``hyper.updates``; on disk, the stats CSV
    with every row of the run, resumed or not, and a checkpoint (:func:`save_state`), which both
    ``eval`` and ``init_checkpoint`` read, at every ``checkpoint_every`` updates and at the end."""
    hp = config.hyper
    nm.check_out_dir(out_dir)
    state = start_training(config)
    out = Path(out_dir)
    checkpoint_paths = []

    def rows():
        yield from [astuple(st) for st in state.stats]
        while state.update < hp.updates:
            st, buffer = run_update(state)
            yield astuple(st)  # write_csv resumes this only once the row is on disk
            if config.checkpoint_every and state.update % config.checkpoint_every == 0 and state.update < hp.updates:
                checkpoint_paths.append(save_state(out / f"checkpoint_{state.update:04d}", state))
            if log:
                log(f"update {state.update}/{hp.updates}: return {st.mean_lambda_return:.3f} "
                    f"entropy {st.mean_entropy:.3f} transitions {len(buffer)}")

    stats_path = nm.write_csv(out / "training_stats.csv", STATS_HEADER, rows())
    checkpoint_paths.append(save_state(out / "checkpoint_final", state))
    return TrainResult(stats=state.stats, params=state.params, stats_path=stats_path, checkpoint_paths=checkpoint_paths)
