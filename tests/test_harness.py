"""Harness oracles: scripted-trajectory metrics, smoothing, reports, CLI."""

import numpy as np
import pytest

from airsep.airspace import (
    Advisory,
    AircraftStatus,
    PendingSpawn,
    Route,
    SectorParams,
    make_custom_world,
)
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
from airsep.policy import PolicyConfig, init_params, save_policy

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


def test_los_seconds_is_exactly_thirty():
    # A flies east at 40 m/s toward parked B at x = 10_005; A's route ends at
    # 6_200 m, so separations r_nmac < sep <= r_pz occur at t = 126..155 (30
    # steps), and A arrives exactly at t = 155 while still inside the zone
    route_a = Route([[0.0, 0.0], [6_200.0, 0.0]])
    route_b = Route([[10_005.0, 0.0], [20_000.0, 0.0]])
    spawns = [
        PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=40.0),
        PendingSpawn(time=0.0, aircraft_id="B", route_index=1, v_des=5.0),
    ]
    world = make_custom_world([route_a, route_b], spawns, sector=SCRIPT_SECTOR)

    def scripted(aid, obs):
        return Advisory.DECREASE if aid == "B" else Advisory.HOLD

    metrics = run_episode(world, scripted)
    assert metrics.los_seconds == 30.0
    assert metrics.nmac_count == 0
    assert metrics.max_density == 2


def test_nmac_counting_and_pair_removal():
    # same geometry but A's route passes through B: NMAC fires at t = 238
    # (sep = 485 m <= 500 m); the 112 prior LoS steps plus the NMAC step count
    route_a = Route([[0.0, 0.0], [20_000.0, 0.0]])
    route_b = Route([[10_005.0, 0.0], [20_000.0, 0.0]])
    spawns = [
        PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=40.0),
        PendingSpawn(time=0.0, aircraft_id="B", route_index=1, v_des=5.0),
    ]
    world = make_custom_world([route_a, route_b], spawns, sector=SCRIPT_SECTOR)

    def scripted(aid, obs):
        return Advisory.DECREASE if aid == "B" else Advisory.HOLD

    metrics = run_episode(world, scripted)
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


def test_run_episode_caps_runaway_worlds():
    route = Route([[0.0, 0.0], [20_000.0, 0.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=40.0)]
    world = make_custom_world([route], spawns, sector=SCRIPT_SECTOR)
    with pytest.raises(RuntimeError):
        run_episode(world, _hold_all, max_steps=3)


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


@pytest.mark.parametrize(
    "section, fragment",
    [
        ("ppo: {horizon: abc}", "bad value in ppo"),
        ('network: {d_emb: "x"}', "bad value in network"),
        ("ppo: {horizon: 2.5}", "bad value in ppo"),
        ("ppo: {learning_rate: 3e-4}", "bad value in ppo"),
        ('ppo: {value_clipping: "false"}', "bad value in ppo"),
    ],
    ids=["horizon_not_a_number", "d_emb_not_a_number", "horizon_not_an_integer",
         "learning_rate_read_as_a_string", "value_clipping_a_string"],
)
def test_cli_train_rejects_values_of_the_wrong_type(tmp_path, capsys, section, fragment):
    config = tmp_path / "bad.yaml"
    config.write_text("scenario: {env: headon}\n" + section + "\n")
    code = cli(["train", "--config", str(config), "--out", str(tmp_path / "run")])
    _assert_clean_error(code, capsys, fragment)
    assert not (tmp_path / "run").exists()


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


def test_cli_gradcheck_quick(capsys):
    assert cli(["gradcheck", "--op-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
