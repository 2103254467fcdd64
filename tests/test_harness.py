"""Harness oracles: scripted-trajectory metrics, smoothing, reports, CLI."""

import csv
import io
import os
import subprocess
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import airsep
from airsep import airspace, harness, ppo
from airsep import policy as policy_module
from airsep.airspace import (
    Advisory,
    AircraftStatus,
    PendingSpawn,
    Route,
    SectorParams,
    make_custom_world,
    make_world,
)
from airsep.config import _SECTOR_FIELDS, load_training_config
from airsep.harness import (
    EpisodeMetrics,
    cli,
    emit_report,
    evaluate,
    greedy_action_fn,
    random_action_fn,
    run_episode,
    smooth_curve,
)
from airsep.numerics import save_checkpoint
from airsep.policy import PolicyConfig, ValueNormalizer, act, init_params, save_policy
from airsep.reward import RewardParams

# round-number SI sector so every scripted quantity below is exact in floats
SCRIPT_SECTOR = SectorParams(
    sector_radius=100_000.0,
    r_pz=5_000.0,
    r_nmac=500.0,
    v_min=0.0,
    v_max=50.0,
    speed_increment=5.0,
    decision_interval=1.0,
    lookahead=120.0,
    arrival_capture_radius=0.0,
    timeout_buffer=100_000.0,
)


def _hold_all(aid, obs):
    return Advisory.HOLD


# ---------------------------------------------------------------------------
# scripted metric oracles
# ---------------------------------------------------------------------------


def _a_closing_on_parked_b(a_route_end):
    """A flies east at 40 m/s along x from 0 to ``a_route_end`` toward B, parked at x = 10_005."""
    route_a = Route([[0.0, 0.0], [a_route_end, 0.0]])
    route_b = Route([[10_005.0, 0.0], [20_000.0, 0.0]])
    spawns = [
        PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=40.0),
        PendingSpawn(time=0.0, aircraft_id="B", route_index=1, v_des=5.0),
    ]
    return make_custom_world([route_a, route_b], spawns, sector=SCRIPT_SECTOR)


def _b_parks(aid, obs):
    return Advisory.DECREASE if aid == "B" else Advisory.HOLD


def test_los_seconds_is_exactly_thirty():
    # A's route ends at 6_200 m, so separations r_nmac < sep <= r_pz occur at
    # t = 126..155 (30 steps), and A arrives exactly at t = 155 while still inside the zone
    metrics = run_episode(_a_closing_on_parked_b(6_200.0), _b_parks)
    assert metrics.los_seconds == 30.0
    assert metrics.nmac_count == 0
    assert metrics.max_density == 2


def test_nmac_counting_and_pair_removal():
    # A's route passes through B: NMAC fires at t = 238 (sep = 485 m <= 500 m);
    # the 112 prior LoS steps plus the NMAC step count
    world = _a_closing_on_parked_b(20_000.0)
    metrics = run_episode(world, _b_parks)
    assert metrics.nmac_count == 1
    assert metrics.los_seconds == 113.0
    assert world.is_done()


def test_speed_adherence_seventy_of_one_hundred():
    # 69 steps at 20 m/s, one at 15 (within the 10 kt = 5.144 m/s band), then
    # 30 steps at 10 m/s (outside); arrival lands exactly on step 100
    route = Route([[0.0, 0.0], [1_695.0, 0.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=20.0)]
    world = make_custom_world([route], spawns, sector=SCRIPT_SECTOR)
    script = [Advisory.HOLD] * 69 + [Advisory.DECREASE, Advisory.DECREASE] + [Advisory.HOLD] * 29
    clock = {"t": 0}

    def scripted(aid, obs):
        action = script[clock["t"]]
        clock["t"] += 1
        return action

    metrics = run_episode(world, scripted)
    assert clock["t"] == 100
    assert metrics.speed_adherence == 0.70
    assert metrics.nmac_count == 0 and metrics.los_seconds == 0.0


def test_run_episode_caps_runaway_worlds(monkeypatch):
    monkeypatch.setattr(airspace, "MAX_EPISODE_STEPS", 3)
    route = Route([[0.0, 0.0], [20_000.0, 0.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=40.0)]
    world = make_custom_world([route], spawns, sector=replace(SCRIPT_SECTOR, decision_interval=0.25))
    with pytest.raises(ValueError, match=r"did not terminate within 3 steps of 0\.25 s \(0\.75 s simulated\)"):
        run_episode(world, _hold_all)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def test_smooth_curve_constant_fixed_point():
    x = [4.2] * 10
    assert np.array_equal(smooth_curve(x, 0.05), np.full(10, 4.2))


def test_smooth_curve_alpha_one_is_identity():
    x = np.random.default_rng(0).standard_normal(16)
    assert np.array_equal(smooth_curve(x, 1.0), x)


def test_smooth_curve_single_recursion_step():
    out = smooth_curve([0.0, 1.0], 0.05)
    assert np.array_equal(out, [0.0, 0.05])


def test_smooth_curve_edge_cases():
    assert smooth_curve([], 0.5).size == 0
    with pytest.raises(ValueError):
        smooth_curve([1.0], 0.0)
    with pytest.raises(ValueError):
        smooth_curve([1.0], 1.5)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _metrics_fixture():
    return [
        EpisodeMetrics(nmac_count=0, los_seconds=12.0, speed_adherence=0.9, max_density=3),
        EpisodeMetrics(nmac_count=1, los_seconds=30.0, speed_adherence=0.5, max_density=5),
        EpisodeMetrics(nmac_count=0, los_seconds=0.0, speed_adherence=1.0, max_density=3),
    ]


def test_emit_report_layout_and_means(tmp_path):
    episodes_path, aggregate_path = emit_report(_metrics_fixture(), tmp_path)
    ep_lines = episodes_path.read_text().splitlines()
    assert ep_lines[0] == "episode,nmac_count,los_seconds,speed_adherence,max_density"
    assert len(ep_lines) == 1 + 3
    agg_lines = aggregate_path.read_text().splitlines()
    assert agg_lines[0] == (
        "scope,episodes,mean_nmac_count,mean_los_seconds,mean_speed_adherence,mean_max_density"
    )
    overall = agg_lines[1].split(",")
    assert overall[0] == "overall"
    assert float(overall[2]) == pytest.approx(1 / 3)
    assert float(overall[3]) == 14.0
    assert float(overall[4]) == pytest.approx(0.8)
    # density rows ascending after the overall row
    assert [row.split(",")[0] for row in agg_lines[2:]] == ["density=3", "density=5"]


def test_emit_report_deterministic_bytes(tmp_path):
    p1 = emit_report(_metrics_fixture(), tmp_path / "one")
    p2 = emit_report(_metrics_fixture(), tmp_path / "two")
    for a, b in zip(p1, p2):
        assert a.read_bytes() == b.read_bytes()


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)


def test_event_log_output(tmp_path):
    events = []
    run_episode(_a_closing_on_parked_b(20_000.0), _b_parks, events_out=events)
    path = harness.write_event_log(events, tmp_path / "log" / "events.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,kind,id_a,id_b"
    assert lines[1:] == [f"{e.time!r},{e.kind.value},{e.pair[0]},{e.pair[1]}" for e in events]
    assert {e.kind for e in events} == set(airspace.EventKind)


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header), rows


def _assert_rows_equal(rows, expected):
    """Each CSV field, read as the type of the library value it stands for, equals that value."""
    assert len(rows) == len(expected)
    for row, values in zip(rows, expected):
        assert [type(v)(field) for field, v in zip(row, values, strict=True)] == list(values)


def test_report_files_read_back_equal_the_library(tmp_path, capsys):
    params, sector = _compact_policy(3), SectorParams(decision_interval=10.0)
    ckpt = save_policy(tmp_path / "policy", params, meta={"sector_si": asdict(sector)})
    eval_dir, dump_dir = tmp_path / "eval", tmp_path / "dump"
    assert cli(["eval", "--checkpoint", str(ckpt), "--case", "c", "--episodes", "3", "--seed", "4",
                "--out", str(eval_dir)]) == 0
    assert cli(["rollout-dump", "--checkpoint", str(ckpt), "--case", "c", "--seed", "9",
                "--out", str(dump_dir)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in eval_dir.iterdir()) == ["aggregate.csv", "episodes.csv"]
    assert sorted(p.name for p in dump_dir.iterdir()) == ["events.csv", "trajectory.csv"]

    result = evaluate(params, "c", 3, 4, sector=sector)
    header, rows = _read_csv(eval_dir / "episodes.csv")
    assert header == harness.EPISODES_HEADER
    _assert_rows_equal(rows, [(i, *astuple(m)) for i, m in enumerate(result.episodes)])
    header, rows = _read_csv(eval_dir / "aggregate.csv")
    assert header == harness.AGGREGATE_HEADER
    scopes = [("overall", result.aggregate)] + [(f"density={d}", a) for d, a in result.per_density.items()]
    _assert_rows_equal(rows, [(scope, *agg.values()) for scope, agg in scopes])

    trajectory, events = [], []
    world = make_world("c", np.random.default_rng(9), sector=sector)
    run_episode(world, greedy_action_fn(params), trajectory=trajectory, events_out=events)
    header, rows = _read_csv(dump_dir / "trajectory.csv")
    assert header == harness.TRAJECTORY_HEADER
    _assert_rows_equal(rows, trajectory)
    header, rows = _read_csv(dump_dir / "events.csv")
    assert header == harness.EVENT_LOG_HEADER
    _assert_rows_equal(rows, [(e.time, e.kind.value, *e.pair) for e in events])
    assert len(trajectory) > 100 and events


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_random_mode_and_density_grouping():
    result = evaluate(None, "headon", n_episodes=3, seed=9, action_mode="random")
    assert len(result.episodes) == 3
    assert result.aggregate["episodes"] == 3
    assert sum(v["episodes"] for v in result.per_density.values()) == 3
    for m in result.episodes:
        assert 0.0 <= m.speed_adherence <= 1.0


def test_evaluate_greedy_deterministic():
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(0))
    a = evaluate(params, "headon", n_episodes=2, seed=4)
    b = evaluate(params, "headon", n_episodes=2, seed=4)
    assert a.episodes == b.episodes


def _compact_policy(seed):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(seed))
    params.value_norm = ValueNormalizer(count=10, mean=-3.25, var=7.5)
    return params


def test_greedy_episode_equals_per_agent_greedy_advisories():
    params = _compact_policy(2)
    stacked = run_episode(make_world("c", np.random.default_rng(5), n_aircraft=8), greedy_action_fn(params))
    per_agent = run_episode(
        make_world("c", np.random.default_rng(5), n_aircraft=8),
        lambda aid, obs: act(obs, params, mode="greedy")[0],
    )
    assert stacked.max_density == 8
    assert stacked == per_agent


def test_sampled_evaluation_equals_per_agent_sampling():
    params = _compact_policy(3)
    result = evaluate(params, "c", n_episodes=2, seed=12, n_aircraft=5, action_mode="sample")
    twins = []
    for child in np.random.SeedSequence(12).spawn(2):
        rng = np.random.default_rng(child)
        world = make_world("c", rng, n_aircraft=5)
        twins.append(run_episode(world, lambda aid, obs: act(obs, params, rng, "sample")[0]))
    assert result.episodes == twins


# ten-second decisions: episodes of a few hundred steps
COARSE_SECTOR = SectorParams(decision_interval=10.0)


def _per_episode_evaluation(params, env_kind, n_episodes, seed, mode):
    """``evaluate``'s episodes flown one by one, each agent deciding alone."""
    metrics = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        world = make_world(env_kind, rng, sector=COARSE_SECTOR)
        fn = random_action_fn(rng) if mode == "random" else lambda aid, obs: act(obs, params, rng, mode)[0]
        metrics.append(run_episode(world, fn))
    return metrics


@pytest.mark.parametrize("mode", ["greedy", "sample", "random"])
@pytest.mark.parametrize("env_kind, n_episodes", [("c", 6), ("headon", 8)])
def test_lockstep_evaluation_equals_episodes_flown_one_by_one(mode, env_kind, n_episodes):
    params = _compact_policy(4)
    result = evaluate(params, env_kind, n_episodes, seed=21, sector=COARSE_SECTOR, action_mode=mode)
    assert result.episodes == _per_episode_evaluation(params, env_kind, n_episodes, 21, mode)
    if env_kind == "c":  # 1-10 aircraft per world, so the episodes end at different steps
        assert len({m.max_density for m in result.episodes}) > 2


def test_greedy_lockstep_makes_one_act_per_intruder_count(monkeypatch):
    real_cycle, real_act = ppo._decision_cycle, policy_module.act
    cycles, calls = [], []

    def counting_act(*args, **kwargs):
        calls.append(1)
        return real_act(*args, **kwargs)

    def counting_cycle(worlds, deciders):
        counts = {len(w.aircraft) for w in worlds if w.aircraft}
        calls.clear()
        decided = real_cycle(worlds, deciders)
        cycles.append((len(calls), len(counts), len(worlds)))
        return decided

    monkeypatch.setattr(policy_module, "act", counting_act)
    monkeypatch.setattr(ppo, "_decision_cycle", counting_cycle)
    evaluate(_compact_policy(5), "c", n_episodes=6, seed=8, sector=COARSE_SECTOR)
    assert cycles and all(n_calls <= n_counts for n_calls, n_counts, _ in cycles)
    assert any(n_calls < n_worlds for n_calls, _, n_worlds in cycles)  # worlds shared a forward


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_evaluate_without_parameters_fails_before_any_world(monkeypatch, mode):
    monkeypatch.setattr(harness, "make_world", None)  # a world made would raise TypeError
    with pytest.raises(ValueError, match="needs policy parameters"):
        evaluate(None, "headon", n_episodes=1, seed=0, action_mode=mode)


def test_evaluate_rejects_an_unknown_action_mode_before_any_episode():
    with pytest.raises(ValueError, match="unknown action_mode"):
        evaluate(None, "headon", n_episodes=1, seed=0, action_mode="hold")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_unknown_subcommand_exits_2(capsys):
    assert cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_help_exits_0(capsys):
    assert cli(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("train", "eval", "gradcheck", "rollout-dump"):
        assert sub in out


def test_cli_missing_required_flag_exits_2(capsys):
    assert cli(["eval"]) == 2
    capsys.readouterr()


def test_cli_eval_on_untrained_checkpoint(tmp_path, capsys):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    ckpt = save_policy(tmp_path / "fresh", params, meta={"seed": 0})
    code = cli(
        [
            "eval", "--checkpoint", str(ckpt), "--case", "headon",
            "--episodes", "2", "--seed", "3", "--out", str(tmp_path / "report"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean NMACs" in out
    episodes = (tmp_path / "report" / "episodes.csv").read_text().splitlines()
    assert len(episodes) == 1 + 2


def test_cli_rollout_dump(tmp_path, capsys):
    code = cli(
        ["rollout-dump", "--case", "headon", "--seed", "2", "--out", str(tmp_path / "dump")]
    )
    assert code == 0
    capsys.readouterr()
    events = (tmp_path / "dump" / "events.csv").read_text().splitlines()
    assert events[0] == "time_s,kind,id_a,id_b"
    trajectory = (tmp_path / "dump" / "trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "time_s,aircraft_id,x_m,y_m,cas_ms,v_des_ms,heading_rad"
    assert len(trajectory) > 100


def test_cli_train_tiny_run(tmp_path, capsys):
    config = tmp_path / "tiny.yaml"
    config.write_text(
        "seed: 3\n"
        "scenario: {env: headon}\n"
        "network: {d_emb: 16, d_ff: 32, heads: 4, layers: 1}\n"
        "ppo: {updates: 1, n_envs: 1, horizon: 16, batch_size: 8, epochs: 1}\n"
        "checkpoint_every: 0\n"
    )
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 0
    capsys.readouterr()
    stats = (tmp_path / "run" / "training_stats.csv").read_text().splitlines()
    assert len(stats) == 2
    assert (tmp_path / "run" / "checkpoint_final.npz").exists()


def test_cli_library_error_exits_1_with_message(tmp_path, capsys):
    config = tmp_path / "bad_heads.yaml"
    config.write_text(
        "scenario: {env: headon}\n"
        "network: {d_emb: 16, d_ff: 32, heads: 5, layers: 1}\n"
        "ppo: {updates: 1, n_envs: 1, horizon: 16, batch_size: 8, epochs: 1}\n"
    )
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not divisible by heads" in err


def _assert_clean_error(code, capsys, fragment):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert fragment in err
    return err


@pytest.mark.parametrize(
    "section, fragment",
    [
        ("ppo: {horizon: abc}", "bad value in ppo"),
        ('network: {d_emb: "x"}', "bad value in network"),
        ("ppo: {horizon: 2.5}", "bad value in ppo"),
        ("ppo: {learning_rate: 3e-4}", "bad value in ppo"),
        ('ppo: {value_clipping: "false"}', "bad value in ppo"),
        ("ppo: 5", "ppo must be a mapping"),
        ("scenario: {sector: 30}", "sector must be a mapping"),
    ],
    ids=["horizon_not_a_number", "d_emb_not_a_number", "horizon_not_an_integer",
         "learning_rate_read_as_a_string", "value_clipping_a_string", "ppo_not_a_mapping",
         "sector_not_a_mapping"],
)
def test_cli_train_rejects_values_of_the_wrong_type(tmp_path, capsys, section, fragment):
    config = tmp_path / "bad.yaml"
    config.write_text("scenario: {env: headon}\n" + section + "\n")
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    _assert_clean_error(code, capsys, fragment)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("seed: 1.5", "bad value in training config"),
        ("seed: true", "bad value in training config"),
        ("checkpoint_every: -3", "bad value in training config"),
        ("scenario: {env: training, n_aircraft: 2.5}", "bad value in scenario"),
        ("seed: -1", "bad value in training config"),
        ("scenario: {env: c, n_aircraft: 0}", "bad value in scenario"),
        ("scenario: {env: headon, n_aircraft: 3}", "bad value in scenario"),
        ("scenario: {env: zz}", "bad value in scenario: env must be one of training, a, b, c, headon, got 'zz'"),
        ("1: 2\nextra: 3", "unknown keys in training config: [1, 'extra']"),
        ("scenario: {env: training, sector: {sector_radius_nm: 2.6, r_pz_nm: 1.0}}",
         "training sector_radius 2.6 NM must be at least 5.3 NM"),
    ],
    ids=["seed_not_an_integer", "seed_a_bool", "checkpoint_every_negative", "n_aircraft_not_an_integer",
         "seed_negative", "n_aircraft_zero", "n_aircraft_for_headon", "env_unknown", "keys_of_two_types",
         "training_sector_too_small_for_its_endpoints"],
)
def test_cli_train_rejects_values_it_would_coerce(tmp_path, capsys, text, fragment):
    config = tmp_path / "bad.yaml"
    config.write_text(
        "network: {d_emb: 16, d_ff: 32, heads: 4, layers: 1}\n"
        "ppo: {updates: 1, n_envs: 1, horizon: 8, batch_size: 8, epochs: 1}\n" + text + "\n"
    )
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = _assert_clean_error(code, capsys, fragment)
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "data, fragment",
    [(b"seed: [1\n", "expected ',' or ']'"),
     (b"seed: \xff\n", "'utf-8' codec can't decode byte 0xff"),
     (b"seed: 2020-13-45\n", "month must be in 1..12")],
    ids=["syntax_error", "not_utf8", "impossible_date"],
)
def test_cli_train_names_a_config_that_does_not_read_as_yaml(tmp_path, capsys, data, fragment):
    config = tmp_path / "bad.yaml"
    config.write_bytes(data)
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = _assert_clean_error(code, capsys, fragment)
    assert err.startswith(f"error: {config} does not read as YAML: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


#: YAML section of each config dataclass (None: the top level)
_SECTIONS = {
    ppo.HyperParams: "ppo",
    PolicyConfig: "network",
    RewardParams: "reward",
    ppo.TrainConfig: None,
    ppo.ScenarioSpec: "scenario",
}


def _yaml_fields(*kinds):
    """(section, key) of every config field whose annotation admits one of ``kinds``."""
    return [
        (section, f.name)
        for cls, section in _SECTIONS.items()
        for f in fields(cls)
        if set(kinds) & {f.type, *getattr(f.type, "__args__", ())}
    ]


def _tiny_with(section, key, value):
    """A one-update training config at a small width, with one value set (section None: top level)."""
    mapping = {
        "network": {"d_emb": 16, "d_ff": 32, "heads": 4, "layers": 1},
        "ppo": {"updates": 1, "n_envs": 1, "horizon": 8, "batch_size": 8, "epochs": 1},
        "scenario": {"env": "headon"},
    }
    (mapping if section is None else mapping.setdefault(section, {}))[key] = value
    return mapping


def _wrong_type_cases():
    """``true`` in every int or float field, an integer too large for a float (10**400) in
    every float field, and ``"30"`` and 10**400 in every sector key."""
    numeric = [
        pytest.param(section or "training config", _tiny_with(section, key, True),
                     id=f"{section or 'top'}.{key}")
        for section, key in _yaml_fields(int, float)
    ]
    numeric += [
        pytest.param(section or "training config", _tiny_with(section, key, 10**400),
                     id=f"{section or 'top'}.{key}=10**400")
        for section, key in _yaml_fields(float)
    ]
    sector = [
        pytest.param("sector", _tiny_with("scenario", "sector", {key: value}), id=f"sector.{key}{label}")
        for key in _SECTOR_FIELDS
        for value, label in (("30", ""), (10**400, "=10**400"))
    ]
    return numeric + sector


@pytest.mark.parametrize("section, mapping", _wrong_type_cases())
def test_cli_train_rejects_a_bool_number_and_a_string_sector_value(tmp_path, capsys, section, mapping):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(mapping))
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    _assert_clean_error(code, capsys, f"error: bad value in {section}")
    assert not (tmp_path / "run").exists()


def _out_of_range_cases():
    """NaN and +inf in every float field and sector key, each rate, coefficient, reward
    weight, sector buffer and r_nmac below its lower bound, and a zero v_max."""
    cases = [
        pytest.param(section, _tiny_with(section, key, value), id=f"{section}.{key}={value}")
        for section, key in _yaml_fields(float)
        for value in (float("nan"), float("inf"))
    ]
    cases += [
        pytest.param("sector", _tiny_with("scenario", "sector", {key: value}), id=f"sector.{key}={value}")
        for key in _SECTOR_FIELDS
        for value in (float("nan"), float("inf"))
    ]
    below = [
        ("ppo", "learning_rate", -1.0), ("ppo", "entropy_coef", -0.5), ("ppo", "vf_coef", -2.0),
        ("ppo", "max_grad_norm", -1.0), ("ppo", "max_grad_norm", 0.0), ("ppo", "clip_eps", -0.2),
        ("reward", "alpha_v", -1.0), ("reward", "alpha_los", 0.0),
        ("network", "heads", 3), ("network", "layers", 0),
    ]
    cases += [pytest.param(section, _tiny_with(section, key, value), id=f"{section}.{key}={value}")
              for section, key, value in below]
    cases += [
        pytest.param("sector", _tiny_with("scenario", "sector", {key: -1.0}), id=f"sector.{key}=-1.0")
        for key in ("arrival_capture_radius_m", "timeout_buffer_min", "r_nmac_ft")
    ]
    cases.append(
        pytest.param("sector", _tiny_with("scenario", "sector", {"v_max_kt": 0.0}), id="sector.v_max_kt=0.0")
    )
    return cases


@pytest.mark.parametrize("section, mapping", _out_of_range_cases())
def test_cli_train_rejects_non_finite_and_out_of_range_values(tmp_path, capsys, section, mapping):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(mapping))
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    _assert_clean_error(code, capsys, f"error: bad value in {section}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["learning_rate", "entropy_coef", "vf_coef"])
def test_zero_rate_and_loss_coefficients_load(tmp_path, key):
    config = tmp_path / "zero.yaml"
    config.write_text(yaml.safe_dump(_tiny_with("ppo", key, 0.0)))
    assert getattr(load_training_config(config).hyper, key) == 0.0


@pytest.mark.parametrize("section, key", _yaml_fields(bool))
@pytest.mark.parametrize("value", [True, False])
def test_bool_fields_take_true_and_false(tmp_path, section, key, value):
    config = tmp_path / "flags.yaml"
    config.write_text(yaml.safe_dump(_tiny_with(section, key, value)))
    cfg = load_training_config(config)
    owner = {"ppo": cfg.hyper, "network": cfg.network, "reward": cfg.reward, "scenario": cfg.scenario}
    assert getattr(owner.get(section, cfg), key) is value


@pytest.mark.parametrize("command", [["eval", "--episodes", "1"], ["rollout-dump"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "block, key, value",
    [("network", "layers", True), ("value_normalization", "mean", "x"), ("sector_si", "lookahead", True)],
)
def test_cli_rejects_checkpoint_metadata_of_the_wrong_type(tmp_path, capsys, command, block, key, value):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    meta = {
        "network": asdict(params.config),
        "value_normalization": asdict(params.value_norm),
        "sector_si": asdict(SectorParams()),
    }
    meta[block][key] = value
    ckpt = save_checkpoint(tmp_path / "odd", params.named_parameters(), meta)
    code = cli([*command, "--checkpoint", str(ckpt), "--case", "headon", "--out", str(tmp_path / "out")])
    _assert_clean_error(code, capsys, f"bad value in checkpoint {block}: {key}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["eval", "--episodes", "1"], ["rollout-dump"]], ids=lambda c: c[0])
@pytest.mark.parametrize("network", [{"d_emb": 8, "heads": 3}, {"layers": 0}], ids=["heads_3_for_d_emb_8", "layers_0"])
def test_cli_rejects_checkpoint_network_values_out_of_range(tmp_path, capsys, command, network):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    meta = {"network": dict(asdict(params.config), **network)}
    ckpt = save_checkpoint(tmp_path / "odd", params.named_parameters(), meta)
    code = cli([*command, "--checkpoint", str(ckpt), "--case", "headon", "--out", str(tmp_path / "out")])
    _assert_clean_error(code, capsys, "error: bad value in checkpoint network: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["eval", "--episodes", "1"], ["rollout-dump"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "key, value", [("mean", float("nan")), ("var", float("inf")), ("var", -1.0), ("count", -1)]
)
def test_cli_rejects_checkpoint_value_statistics_out_of_range(tmp_path, capsys, command, key, value):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    statistics = dict(asdict(params.value_norm), **{key: value})
    meta = {"network": asdict(params.config), "value_normalization": statistics}
    ckpt = save_checkpoint(tmp_path / "odd", params.named_parameters(), meta)
    code = cli([*command, "--checkpoint", str(ckpt), "--case", "headon", "--out", str(tmp_path / "out")])
    _assert_clean_error(code, capsys, "error: bad value in checkpoint value_normalization: ")
    assert not (tmp_path / "out").exists()


def _checkpoint_cut_in_half(tmp_path):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    path = Path(save_policy(tmp_path / "cut", params))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


def _checkpoint_without_network(tmp_path):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    return Path(save_checkpoint(tmp_path / "bare", params.named_parameters()))


def _plain_npy(tmp_path):
    path = tmp_path / "plain.npy"
    np.save(path, np.zeros(3))
    return path


def _text_named_npz(tmp_path):
    path = tmp_path / "text.npz"
    path.write_text("seed: 3\n")
    return path


def _archive(tmp_path, meta_json, **arrays):
    """An .npz with ``__meta__`` set to the string ``meta_json`` and the given entries."""
    path = tmp_path / "odd.npz"
    np.savez(path, __meta__=np.array(meta_json), **arrays)
    return path


def _object_arrays(tmp_path):
    return _archive(tmp_path, '{"format_version": 1}', w=np.array([{"a": 1}], dtype=object))


def _metadata_not_json(tmp_path):
    return _archive(tmp_path, "{format_version: 1", w=np.zeros(3))


def _metadata_a_list(tmp_path):
    return _archive(tmp_path, "[1, 2]", w=np.zeros(3))


def _nan_weight(tmp_path):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    arrays = {name: t.data.copy() for name, t in params.named_parameters().items()}
    arrays["intr_w"][2, 5] = np.nan
    return Path(save_checkpoint(tmp_path / "nan", arrays, {"network": asdict(params.config)}))


_UNREADABLE_CHECKPOINTS = pytest.mark.parametrize(
    "make, fragment",
    [(_checkpoint_cut_in_half, "does not read as a checkpoint archive"),
     (_checkpoint_without_network, "has no network block"),
     (_plain_npy, "is not a checkpoint archive: it holds a single array"),
     (_text_named_npz, "does not read as a checkpoint archive"),
     (_object_arrays, "does not read as a checkpoint archive"),
     (_metadata_not_json, "has unreadable metadata"),
     (_metadata_a_list, "has metadata that is not a JSON object"),
     (_nan_weight, "holds non-finite values in intr_w")],
    ids=["cut_in_half", "no_network_block", "plain_npy", "text_named_npz", "object_arrays",
         "metadata_not_json", "metadata_a_list", "nan_weight"],
)


@pytest.mark.parametrize("command", [["eval", "--episodes", "1"], ["rollout-dump"]], ids=lambda c: c[0])
@_UNREADABLE_CHECKPOINTS
def test_cli_rejects_an_unreadable_checkpoint(tmp_path, capsys, command, make, fragment):
    ckpt = make(tmp_path)
    code = cli([*command, "--checkpoint", str(ckpt), "--case", "headon", "--out", str(tmp_path / "out")])
    err = _assert_clean_error(code, capsys, fragment)
    assert str(ckpt) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@_UNREADABLE_CHECKPOINTS
def test_cli_train_rejects_an_unreadable_init_checkpoint(tmp_path, capsys, make, fragment):
    ckpt = make(tmp_path)
    config = tmp_path / "init.yaml"
    config.write_text(yaml.safe_dump(_tiny_with(None, "init_checkpoint", str(ckpt))))
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    err = _assert_clean_error(code, capsys, fragment)
    assert str(ckpt) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_cli_train_rejects_an_init_checkpoint_of_another_network(tmp_path, capsys):
    params = init_params(PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=1), np.random.default_rng(1))
    ckpt = save_policy(tmp_path / "narrow", params)
    config = tmp_path / "init.yaml"
    config.write_text(yaml.safe_dump(_tiny_with(None, "init_checkpoint", str(ckpt))))
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    _assert_clean_error(code, capsys, f"{ckpt} holds a network that disagrees with the training config")
    assert not (tmp_path / "run").exists()


def test_cli_train_on_a_spawn_it_cannot_reach_fails_and_leaves_no_run(tmp_path):
    # at 1e-300 s per step the clock stops short of the first spawn, so the idle
    # world reaches its step cap inside the first update, before any stats row
    config = tmp_path / "tiny_interval.yaml"
    config.write_text(
        "scenario: {env: training, sector: {decision_interval_s: 1.0e-300}}\n"
        "network: {d_emb: 8, d_ff: 16, heads: 2, layers: 1}\n"
        "ppo: {updates: 1, n_envs: 1, horizon: 8, batch_size: 8, epochs: 1}\n"
    )
    src = str(Path(airsep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "airsep", "train", "--config", str(config), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: world did not terminate within 200000 steps of 1e-300 s (")
    assert not (tmp_path / "run").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work began before --out was checked")


def test_cli_train_into_an_out_that_names_a_file_fails_and_leaves_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ppo, "run_update", _no_work)  # --out is refused before the first update
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump(_tiny_with("ppo", "updates", 1)))
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a folder\n")
    code = cli(["train", "--config", str(config), "--out", str(taken)])
    err = _assert_clean_error(code, capsys, str(taken))
    assert len(err.splitlines()) == 1
    assert taken.read_bytes() == b"not a folder\n"


@pytest.mark.parametrize(
    "command, out",
    [
        ("train", "taken/run"),
        ("eval", "taken"),
        ("eval", "taken/run"),
        ("rollout-dump", "taken"),
        ("rollout-dump", "taken/run"),
    ],
)
def test_cli_refuses_an_out_at_or_under_a_file_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.setattr(ppo, "run_update", _no_work)
    monkeypatch.setattr(harness, "_fly", _no_work)
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump(_tiny_with("ppo", "updates", 1)))
    checkpoint = save_policy(tmp_path / "ckpt", init_params(PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=1),
                                                            np.random.default_rng(3)))
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a folder\n")
    before = sorted(tmp_path.iterdir())
    argv = {
        "train": ["train", "--config", str(config)],
        "eval": ["eval", "--checkpoint", str(checkpoint), "--case", "headon", "--episodes", "1"],
        "rollout-dump": ["rollout-dump", "--case", "headon"],
    }[command]
    code = cli([*argv, "--out", str(tmp_path / out)])
    err = _assert_clean_error(code, capsys, f"{taken} is not a folder")
    assert len(err.splitlines()) == 1
    assert taken.read_bytes() == b"not a folder\n"
    assert sorted(tmp_path.iterdir()) == before


def test_python_dash_m_airsep_runs_the_cli_without_a_warning(tmp_path):
    src = str(Path(airsep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "airsep", "eval", "--checkpoint", "x", "--episodes", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "RuntimeWarning" not in proc.stderr


def _checkpoint_with_meta(tmp_path, section, extra):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    meta = {"network": {"d_emb": 16, "d_ff": 32, "heads": 4, "layers": 1}, "sector_si": {}}
    meta[section] = dict(meta[section], **extra)
    return save_checkpoint(tmp_path / "odd", params.named_parameters(), meta)


def test_cli_eval_rejects_unknown_network_metadata(tmp_path, capsys):
    ckpt = _checkpoint_with_meta(tmp_path, "network", {"dropout": 0.1})
    code = cli(["eval", "--checkpoint", str(ckpt), "--case", "headon", "--episodes", "1",
                "--out", str(tmp_path / "report")])
    _assert_clean_error(code, capsys, "dropout")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_cli_eval_rejects_fewer_than_one_episode(tmp_path, capsys, episodes):
    params = init_params(PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1), np.random.default_rng(1))
    ckpt = save_policy(tmp_path / "fresh", params, meta={"seed": 0})
    code = cli(["eval", "--checkpoint", str(ckpt), "--case", "headon", "--episodes", episodes,
                "--out", str(tmp_path / "report")])
    _assert_clean_error(code, capsys, "at least one episode")
    assert not (tmp_path / "report").exists()


def test_cli_rollout_dump_rejects_unknown_sector_metadata(tmp_path, capsys):
    ckpt = _checkpoint_with_meta(tmp_path, "sector_si", {"wind": 3.0})
    code = cli(["rollout-dump", "--checkpoint", str(ckpt), "--case", "headon",
                "--out", str(tmp_path / "dump")])
    _assert_clean_error(code, capsys, "wind")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--config", "x.yaml", "--seed", "-1"], "--seed"),
        (["eval", "--checkpoint", "x", "--seed", "-1"], "--seed"),
        (["gradcheck", "--seed", "-1"], "--seed"),
        (["rollout-dump", "--seed", "-1"], "--seed"),
        (["gradcheck", "--op-seeds", "0"], "--op-seeds"),
        (["gradcheck", "--op-seeds", "-1"], "--op-seeds"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_cli_refuses_a_count_below_its_minimum_naming_the_flag(tmp_path, monkeypatch, capsys, argv, flag):
    # a gradcheck over no primitive must not pass, and a negative seed must not reach the library
    monkeypatch.chdir(tmp_path)
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least " in captured.err
    assert "Traceback" not in captured.err
    assert "max relative error" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("op_seeds", [0, -1])
def test_gradient_suite_refuses_op_seeds_below_one_before_any_check(monkeypatch, op_seeds):
    # with no op seed the suite would check no primitive and still report a maximum
    def no_work(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(harness, "_op_gradient_checks", no_work)
    monkeypatch.setattr(harness, "_policy_gradient_check", no_work)
    out = io.StringIO()
    with pytest.raises(ValueError, match=rf"^op_seeds must be at least 1, got {op_seeds}$"):
        harness.run_gradient_suite(op_seeds=op_seeds, io=out)
    assert out.getvalue() == ""


def test_cli_gradcheck_quick(capsys):
    assert cli(["gradcheck", "--op-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
