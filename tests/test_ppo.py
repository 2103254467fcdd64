"""PPO trainer oracles: GAE recursions, buffer accounting, update mechanics."""

import dataclasses
import math

import numpy as np
import pytest

from airsep import airspace
from airsep import numerics as nm
from airsep import ppo as ppo_module
from airsep.airspace import SectorParams
from airsep.config import training_config_from_dict
from airsep.featurize import featurize
from airsep.policy import PolicyConfig, ValueNormalizer, act, forward, init_params, load_policy
from airsep.ppo import (
    STATS_HEADER,
    Adam,
    HyperParams,
    RolloutBuffer,
    ScenarioSpec,
    SectorEnv,
    Track,
    TrainConfig,
    clip_grad_norm,
    collect_rollouts,
    compute_gae,
    normalize_advantages,
    ppo_update,
    run_update,
    start_training,
    train,
)
from airsep.reward import RewardParams

SMOKE_NET = PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1)
HEAD_ON = ScenarioSpec(env_kind="headon")


def _track(rewards, values, dones, bootstrap=0.0):
    t = Track(env_index=0, episode=0, agent_id="A")
    t.rewards = list(rewards)
    t.values = list(values)
    t.dones = list(dones)
    t.observations = [None] * len(t.rewards)
    t.actions = [0] * len(t.rewards)
    t.log_probs = [0.0] * len(t.rewards)
    t.bootstrap_value = bootstrap
    return t


def _buffer(*tracks):
    buf = RolloutBuffer()
    buf.tracks = list(tracks)
    return buf


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------


def test_gae_hand_example():
    buf = _buffer(_track([1.0, 1.0], [0.5, 0.5], [0.0, 1.0]))
    adv, ret = compute_gae(buf, gamma=0.99, lam=0.95)
    assert abs(adv[1] - 0.5) < 1e-12
    assert abs(adv[0] - 1.46525) < 1e-12
    assert abs(ret[0] - (1.46525 + 0.5)) < 1e-12
    assert abs(ret[1] - 1.0) < 1e-12


def test_gae_lambda_zero_reduces_to_td_error():
    rng = np.random.default_rng(0)
    rewards = rng.standard_normal(30)
    values = rng.standard_normal(30)
    bootstrap = float(rng.standard_normal())
    dones = [0.0] * 29 + [0.0]
    buf = _buffer(_track(rewards, values, dones, bootstrap=bootstrap))
    gamma = 0.97
    adv, _ = compute_gae(buf, gamma=gamma, lam=0.0)
    next_values = np.append(values[1:], bootstrap)
    delta = rewards + gamma * next_values - values
    assert np.max(np.abs(adv - delta)) == 0.0


def test_gae_lambda_one_gamma_one_is_monte_carlo():
    rng = np.random.default_rng(1)
    rewards = rng.standard_normal(25)
    values = rng.standard_normal(25)
    dones = [0.0] * 24 + [1.0]  # terminal track
    buf = _buffer(_track(rewards, values, dones))
    adv, ret = compute_gae(buf, gamma=1.0, lam=1.0)
    rewards_to_go = np.cumsum(rewards[::-1])[::-1]
    assert np.max(np.abs(adv - (rewards_to_go - values))) < 1e-12
    assert np.max(np.abs(ret - rewards_to_go)) < 1e-12


def test_gae_rejects_mid_track_done():
    buf = _buffer(_track([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        compute_gae(buf, 0.99, 0.95)


def test_gae_multiple_tracks_flatten_in_order():
    t1 = _track([1.0], [0.2], [1.0])
    t2 = _track([2.0, 0.0], [0.1, 0.3], [0.0, 1.0])
    buf = _buffer(t1, t2)
    adv, ret = compute_gae(buf, 1.0, 1.0)
    assert adv.shape == (3,)
    assert abs(adv[0] - 0.8) < 1e-12       # track 1
    assert abs(ret[1] - 2.0) < 1e-12       # track 2 rewards-to-go


# ---------------------------------------------------------------------------
# rollout collection
# ---------------------------------------------------------------------------


def _make_envs(n_envs, seed, scenario=HEAD_ON):
    children = np.random.SeedSequence(seed).spawn(n_envs)
    return [SectorEnv(scenario, np.random.default_rng(ss), reward_params=RewardParams()) for ss in children]


def test_collect_accounting_every_active_agent_every_step(monkeypatch):
    params = init_params(SMOKE_NET, np.random.default_rng(0))
    envs = _make_envs(2, 42)
    per_step_counts = []
    original_step = ppo_module.airspace.step

    def counting_step(world, joint_actions):
        per_step_counts.append(len(joint_actions))
        return original_step(world, joint_actions)

    monkeypatch.setattr(ppo_module.airspace, "step", counting_step)
    buf = collect_rollouts(envs, params, horizon=80, rng=np.random.default_rng(7))
    assert len(buf) == sum(per_step_counts)
    assert len(buf) == sum(len(t) for t in buf.tracks)


@pytest.mark.parametrize("first_spawn_s, aloft", [(0.0, True), (1e6, False)])
def test_collect_stops_a_world_at_its_step_cap(monkeypatch, first_spawn_s, aloft):
    # one rule whether the capped steps made decisions or only flew an empty world
    monkeypatch.setattr(airspace, "MAX_EPISODE_STEPS", 5)
    env = _make_envs(1, 3)[0]
    route = airspace.Route([[0.0, 0.0], [30 * airspace.NM, 0.0]])
    spawn = airspace.PendingSpawn(time=first_spawn_s, aircraft_id="A", route_index=0, v_des=60 * airspace.KT)
    env.world = airspace.make_custom_world([route], [spawn])
    assert bool(env.world.aircraft) is aloft
    params = init_params(SMOKE_NET, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^world did not terminate within 5 steps of 1 s \(5 s simulated\)$"):
        collect_rollouts([env], params, horizon=50, rng=np.random.default_rng(7))
    assert env.world.n_steps == 5 and env.episode == 0


def test_collect_is_deterministic_and_bootstraps_open_tracks():
    def run():
        params = init_params(SMOKE_NET, np.random.default_rng(3))
        envs = _make_envs(2, 11)
        buf = collect_rollouts(envs, params, horizon=60, rng=np.random.default_rng(5))
        return params, envs, buf

    params_a, envs_a, buf_a = run()
    params_b, envs_b, buf_b = run()
    assert len(buf_a) == len(buf_b) > 0
    for ta, tb in zip(buf_a.tracks, buf_b.tracks):
        assert (ta.env_index, ta.episode, ta.agent_id) == (tb.env_index, tb.episode, tb.agent_id)
        assert ta.actions == tb.actions
        assert ta.log_probs == tb.log_probs
        assert ta.rewards == tb.rewards
        assert ta.values == tb.values
        assert ta.dones == tb.dones
        assert ta.bootstrap_value == tb.bootstrap_value
        for oa, ob in zip(ta.observations, tb.observations):
            assert np.array_equal(oa.ownship, ob.ownship)
            assert np.array_equal(oa.intruders, ob.intruders)

    # open (truncated) tracks carry the value of their final observation
    open_tracks = [t for t in buf_a.tracks if not t.dones[-1]]
    assert open_tracks
    for t in open_tracks:
        env = envs_a[t.env_index]
        assert env.episode == t.episode
        obs = featurize(env.world, t.agent_id)
        _, v = forward(obs, params_a)
        assert t.bootstrap_value == v
    # closed tracks are terminal with bootstrap 0
    for t in buf_a.tracks:
        if t.dones[-1]:
            assert t.bootstrap_value == 0.0


def _collect_per_observation(envs, params, horizon, rng):
    """The rollout loop with one ``act`` per observation and one ``forward`` per
    bootstrap: the reference that the stacked loop must reproduce bit for bit."""
    buffer = RolloutBuffer()
    open_tracks = {}
    for _ in range(horizon):
        for env_index, env in enumerate(envs):
            while env.world.is_done() or not env.world.aircraft:
                if env.world.is_done():
                    env.regenerate()
                else:
                    airspace.step(env.world, {})
            world = env.world
            obs_map = {aid: featurize(world, aid) for aid in sorted(world.active_ids())}
            chosen = {aid: act(obs, params, rng, "sample") for aid, obs in obs_map.items()}
            result = airspace.step(world, {aid: advisory for aid, (advisory, _, _) in chosen.items()})
            for aid, obs in obs_map.items():
                key = (env_index, env.episode, aid)
                if key not in open_tracks:
                    open_tracks[key] = Track(env_index=env_index, episode=env.episode, agent_id=aid)
                    buffer.tracks.append(open_tracks[key])
                track = open_tracks[key]
                advisory, log_prob, value = chosen[aid]
                track.observations.append(obs)
                track.actions.append(int(advisory))
                track.log_probs.append(log_prob)
                track.values.append(value)
                track.rewards.append(
                    ppo_module.compute_reward(result.post_move, aid, result.events, env.reward_params, world.sector)
                )
                track.dones.append(float(aid in result.removals))
                if aid in result.removals:
                    del open_tracks[key]
    for (env_index, _, aid), track in open_tracks.items():
        _, track.bootstrap_value = forward(featurize(envs[env_index].world, aid), params)
    return buffer


def test_collect_equals_the_per_observation_loop_bit_for_bit(monkeypatch):
    params = init_params(PolicyConfig(), np.random.default_rng(8))
    params.value_norm = ValueNormalizer(count=10, mean=-3.25, var=7.5)
    training = ScenarioSpec()
    real_cycle, real_act = ppo_module._decision_cycle, ppo_module.policy_mod.act
    steps, calls = [], []

    def counting_act(*args, **kwargs):
        calls.append(1)
        return real_act(*args, **kwargs)

    def counting_cycle(worlds, deciders):
        counts = [len(w.aircraft) for w in worlds]
        calls.clear()
        decided = real_cycle(worlds, deciders)
        runs = 1 + sum(a != b for a, b in zip(counts, counts[1:]))
        steps.append((len(calls), runs, counts))
        return decided

    monkeypatch.setattr(ppo_module.policy_mod, "act", counting_act)
    monkeypatch.setattr(ppo_module, "_decision_cycle", counting_cycle)
    got = collect_rollouts(_make_envs(3, 17, training), params, horizon=800, rng=np.random.default_rng(6))
    monkeypatch.undo()
    want = _collect_per_observation(_make_envs(3, 17, training), params, 800, np.random.default_rng(6))
    # one act per run of consecutive envs with one intruder count. The steps seen include
    # one run of all three envs, and envs 0 and 2 alike with env 1 between them, where
    # grouping by count alone would draw env 2's rows before env 1's
    assert len(steps) == 800 and all(n_calls == runs for n_calls, runs, _ in steps)
    assert {runs for _, runs, _ in steps} >= {1, 2, 3}
    assert any(c[0] == c[2] != c[1] for _, _, c in steps)
    assert len(got) == len(want) > 0
    assert len(got.tracks) == len(want.tracks)
    assert max(obs.n_intruders for t in got.tracks for obs in t.observations) >= 2
    assert any(not t.dones[-1] for t in got.tracks)
    for tg, tw in zip(got.tracks, want.tracks):
        assert (tg.env_index, tg.episode, tg.agent_id) == (tw.env_index, tw.episode, tw.agent_id)
        for name in ("actions", "log_probs", "values", "rewards", "dones", "bootstrap_value"):
            assert getattr(tg, name) == getattr(tw, name), name
        for og, ow in zip(tg.observations, tw.observations, strict=True):
            assert np.array_equal(og.ownship, ow.ownship)
            assert np.array_equal(og.intruders, ow.intruders)


# ---------------------------------------------------------------------------
# update mechanics
# ---------------------------------------------------------------------------


def test_normalize_advantages_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        adv = rng.standard_normal(rng.integers(4, 200)) * rng.uniform(0.1, 30)
        out = normalize_advantages(adv)
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6


def test_clip_arithmetic():
    ratio = nm.Tensor(1.5)
    adv = 2.0
    surrogate = nm.minimum(ratio * adv, nm.clip(ratio, 0.8, 1.2) * adv)
    assert float(surrogate.data) == 2.4


def test_clipped_surrogate_never_exceeds_unclipped():
    rng = np.random.default_rng(9)
    eps = 0.2
    for _ in range(300):
        r = float(rng.uniform(0.0, 3.0))
        a = float(rng.standard_normal() * 2)
        clipped = min(r * a, min(max(r, 1 - eps), 1 + eps) * a)
        assert clipped <= r * a + 1e-12


def test_clip_grad_norm():
    rng = np.random.default_rng(10)
    params = [nm.Tensor(rng.standard_normal((5, 5)), requires_grad=True) for _ in range(4)]
    for p in params:
        p.grad = rng.standard_normal((5, 5)) * 3
    pre = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    reported = clip_grad_norm(params, 0.5)
    post = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    assert abs(reported - pre) < 1e-12
    assert post <= 0.5 + 1e-9


def test_shared_leaf_gradients_survive_clipping():
    # add hands both leaves the same upstream array; clipping must scale it once
    a = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    b = nm.Tensor(np.ones((2, 2)), requires_grad=True)
    nm.backward(nm.tsum(nm.add(a, b)))
    clip_grad_norm([a, b], 0.5)
    expected = np.full((2, 2), 0.5 / math.sqrt(8))
    assert np.array_equal(a.grad, expected)
    assert np.array_equal(b.grad, expected)


def test_adam_single_step_matches_formula():
    p = nm.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.1, -0.2])
    opt = Adam([p], lr=1e-2)
    opt.step()
    m = 0.1 * np.array([0.1, -0.2])
    v = 0.001 * np.array([0.1, -0.2]) ** 2
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = np.array([1.0, -2.0]) - 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.max(np.abs(p.data - expected)) < 1e-15


def _collected_buffer(params, seed=21, horizon=50):
    envs = _make_envs(2, seed)
    buf = collect_rollouts(envs, params, horizon=horizon, rng=np.random.default_rng(seed + 1))
    compute_gae(buf, 0.99, 0.95)
    return buf


def test_ppo_update_zero_lr_leaves_params_bit_identical():
    params = init_params(SMOKE_NET, np.random.default_rng(12))
    buf = _collected_buffer(params)
    before = {k: t.data.copy() for k, t in params.named_parameters().items()}
    hp = HyperParams(updates=1, n_envs=2, horizon=50, batch_size=32, epochs=2, learning_rate=0.0)
    stats = ppo_update(params, buf, hp, np.random.default_rng(0), Adam(params.tensors(), lr=0.0))
    for k, t in params.named_parameters().items():
        assert np.array_equal(before[k], t.data), k
    assert 0.0 <= stats.mean_entropy <= math.log(3.0) + 1e-9


def test_ppo_update_requires_gae():
    params = init_params(SMOKE_NET, np.random.default_rng(13))
    envs = _make_envs(1, 3)
    buf = collect_rollouts(envs, params, horizon=10, rng=np.random.default_rng(0))
    hp = HyperParams(updates=1, n_envs=1, horizon=10, batch_size=8)
    with pytest.raises(ValueError):
        ppo_update(params, buf, hp, np.random.default_rng(0), Adam(params.tensors()))


def test_ppo_update_moves_params_and_reports_stats():
    params = init_params(SMOKE_NET, np.random.default_rng(14))
    buf = _collected_buffer(params, seed=31)
    before = {k: t.data.copy() for k, t in params.named_parameters().items()}
    hp = HyperParams(updates=1, n_envs=2, horizon=50, batch_size=32, epochs=2, learning_rate=3e-4)
    stats = ppo_update(params, buf, hp, np.random.default_rng(1), Adam(params.tensors(), lr=3e-4))
    moved = any(not np.array_equal(before[k], t.data) for k, t in params.named_parameters().items())
    assert moved
    assert stats.grad_norm >= 0.0
    assert 0.0 <= stats.clip_fraction <= 1.0
    assert stats.mean_lambda_return == pytest.approx(float(buf.lambda_returns.mean()))


def test_ppo_update_fits_critic_to_normalized_returns():
    # With rewards pinned at -2 the lambda-returns average about -21, far from a
    # fresh critic. A value clip of clip_eps in raw reward units would hold the
    # critic within ~0.4 of its old predictions; fit on normalized targets, one
    # update at least halves its error in reward units.
    params = init_params(SMOKE_NET, np.random.default_rng(0))
    envs = _make_envs(2, 21)
    buf = collect_rollouts(envs, params, horizon=42, rng=np.random.default_rng(22))
    for t in buf.tracks:
        t.rewards = [-2.0] * len(t)
    _, returns = compute_gae(buf, 0.99, 0.95)
    assert returns.mean() < -15.0
    observations = buf.flat_fields()[0]

    def critic_error():
        return np.mean([abs(forward(o, params)[1] - g) for o, g in zip(observations, returns)])

    before = critic_error()
    hp = HyperParams(epochs=4, batch_size=128)
    ppo_update(params, buf, hp, np.random.default_rng(0), Adam(params.tensors(), lr=hp.learning_rate))
    assert critic_error() <= 0.5 * before
    assert params.value_norm.count == len(buf)
    assert params.value_norm.mean == pytest.approx(float(returns.mean()))


def test_hyper_params_validation():
    with pytest.raises(ValueError):
        HyperParams(gamma=1.5)
    with pytest.raises(ValueError):
        HyperParams(clip_eps=0.0)
    with pytest.raises(ValueError):
        HyperParams(n_envs=0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _tiny_config(seed=5, updates=2):
    return training_config_from_dict(
        {
            "seed": seed,
            "scenario": {"env": "headon"},
            "network": {"d_emb": 16, "d_ff": 32, "heads": 4, "layers": 1},
            "ppo": {"updates": updates, "n_envs": 2, "horizon": 24, "batch_size": 16, "epochs": 1},
            "checkpoint_every": 1,
        }
    )


def test_train_writes_stats_and_checkpoints(tmp_path):
    result = train(_tiny_config(), tmp_path / "run")
    lines = result.stats_path.read_text().splitlines()
    assert lines[0] == "update,mean_lambda_return,mean_entropy,policy_loss,value_loss,clip_fraction,grad_norm"
    assert len(lines) == 1 + 2
    # per-update checkpoints plus the final one
    assert len(result.checkpoint_paths) == 3
    for p in result.checkpoint_paths:
        assert p.exists()


def test_two_run_updates_equal_train_with_two_updates(tmp_path, monkeypatch):
    cfg = dataclasses.replace(_tiny_config(updates=2), checkpoint_every=0)
    monkeypatch.chdir(tmp_path)
    state = start_training(cfg)
    assert list(tmp_path.iterdir()) == []  # building the state writes nothing
    stats, buffers = zip(*(run_update(state) for _ in range(2)))
    result = train(cfg, tmp_path / "run")
    assert list(stats) == result.stats
    assert state.update == 2
    trained = result.params.named_parameters()
    for name, tensor in state.params.named_parameters().items():
        assert tensor.data.tobytes() == trained[name].data.tobytes(), name
    assert state.params.value_norm == result.params.value_norm
    hp = cfg.hyper
    assert state.optimizer.t == sum(hp.epochs * math.ceil(len(b) / hp.batch_size) for b in buffers)


def test_train_that_fails_in_its_second_update_keeps_the_first_row_and_checkpoint(tmp_path, monkeypatch):
    done = []
    original_run_update = ppo_module.run_update

    def failing_second(state):
        if done:
            raise ValueError("second update fails")
        done.append(original_run_update(state))
        return done[-1]

    monkeypatch.setattr(ppo_module, "run_update", failing_second)
    with pytest.raises(ValueError, match="second update fails"):
        train(_tiny_config(updates=2), tmp_path / "run")
    [(first, _)] = done
    lines = (tmp_path / "run" / "training_stats.csv").read_text().splitlines()
    assert lines == [",".join(STATS_HEADER), ",".join(map(str, dataclasses.astuple(first)))]
    assert (tmp_path / "run" / "checkpoint_0001.npz").exists()  # checkpoint_every: 1, after the row
    assert not (tmp_path / "run" / "checkpoint_final.npz").exists()


def test_train_resume_from_checkpoint(tmp_path, monkeypatch):
    result = train(_tiny_config(updates=1), tmp_path / "first")
    saved = result.params.value_norm
    assert saved.count > 0
    loaded, _ = load_policy(result.checkpoint_paths[-1])
    assert loaded.value_norm == saved  # bit-exact through the checkpoint metadata
    cfg = _tiny_config(updates=1)
    # the resumed run collects and updates with the restored return statistics
    seen = []
    original_collect = ppo_module.collect_rollouts

    def recording_collect(envs, params, horizon, rng):
        seen.append(dataclasses.replace(params.value_norm))
        return original_collect(envs, params, horizon, rng)

    monkeypatch.setattr(ppo_module, "collect_rollouts", recording_collect)
    cfg = dataclasses.replace(cfg, init_checkpoint=str(result.checkpoint_paths[-1]))
    resumed = train(cfg, tmp_path / "second")
    assert resumed.stats_path.exists()
    assert seen == [saved]
    assert resumed.params.value_norm.count > saved.count

    bad = dataclasses.replace(
        cfg, network=PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=1)
    )
    with pytest.raises(ValueError):
        train(bad, tmp_path / "third")


def test_train_takes_a_scenario_kind_given_as_a_string(tmp_path):
    assert HEAD_ON.env_kind is airspace.EnvKind.HEAD_ON
    cfg = TrainConfig(
        network=SMOKE_NET,
        hyper=HyperParams(updates=1, n_envs=1, horizon=8, batch_size=8, epochs=1),
        scenario=HEAD_ON,
    )
    result = train(cfg, tmp_path / "run")
    _, meta = nm.load_checkpoint(result.checkpoint_paths[-1])
    assert meta["env_kind"] == "headon"


def test_train_survives_a_late_first_spawn(tmp_path):
    # config seed 0 draws training worlds whose first aircraft spawn after the
    # 256-step horizon in both envs; counting those idle steps against the
    # horizon left the buffer empty and ppo_update raised
    cfg = training_config_from_dict(
        {
            "seed": 0,
            "scenario": {"env": "training"},
            "network": {"d_emb": 8, "d_ff": 16, "heads": 2, "layers": 1},
            "ppo": {"updates": 1, "n_envs": 2, "horizon": 256, "batch_size": 64, "epochs": 1},
            "checkpoint_every": 0,
        }
    )
    steps = []
    original_step = ppo_module.airspace.step

    def recording_step(world, joint_actions):
        steps.append(len(joint_actions))
        return original_step(world, joint_actions)

    seen = []
    original_collect = ppo_module.collect_rollouts

    def recording_collect(envs, params, horizon, rng):
        buffer = original_collect(envs, params, horizon, rng)
        seen.append(len(buffer))
        return buffer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ppo_module.airspace, "step", recording_step)
        mp.setattr(ppo_module, "collect_rollouts", recording_collect)
        result = train(cfg, tmp_path / "run")
    assert len(result.stats) == 1
    # idle steps were flown, but exactly 2 x 256 steps made decisions, each
    # with at least one transition
    decisions = [n for n in steps if n]
    assert len(decisions) == 2 * 256
    assert len(decisions) < len(steps)
    assert seen == [sum(decisions)]


def test_scenario_spec_from_config_table_values():
    cfg = training_config_from_dict(
        {
            "seed": 1,
            "scenario": {"env": "training"},
            "ppo": {
                "updates": 200, "n_envs": 8, "horizon": 4096, "batch_size": 128,
                "epochs": 4, "gamma": 0.99, "gae_lambda": 0.95, "clip_eps": 0.2,
                "entropy_coef": 0.01, "vf_coef": 0.5, "max_grad_norm": 0.5,
                "advantage_normalization": True, "value_clipping": True,
            },
        }
    )
    hp = cfg.hyper
    assert (hp.updates, hp.n_envs, hp.horizon, hp.batch_size, hp.epochs) == (200, 8, 4096, 128, 4)
    assert (hp.gamma, hp.gae_lambda, hp.clip_eps) == (0.99, 0.95, 0.2)
    assert (hp.entropy_coef, hp.vf_coef, hp.max_grad_norm) == (0.01, 0.5, 0.5)
    assert hp.advantage_normalization and hp.value_clipping
