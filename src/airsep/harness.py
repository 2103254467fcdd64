"""Evaluation harness: episode metrics, curve smoothing, CSV reports, gradient
suite, and the command-line entry point (train / eval / gradcheck / rollout-dump).
"""

import argparse
import csv
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import airspace, config as config_mod, numerics as nm, policy as policy_mod, ppo
from .airspace import KT, Advisory, EnvKind, ScenarioError, SectorParams, make_world, write_event_log
from .featurize import EgoObservation, featurize
from .numerics import NumericsError, Tensor, finite_diff_check
from .policy import PolicyConfig, init_params

ADHERENCE_TOLERANCE = 10.0 * KT
GRADIENT_TOLERANCE = 1e-4

TRAJECTORY_HEADER = ("time_s", "aircraft_id", "x_m", "y_m", "cas_ms", "v_des_ms", "heading_rad")


@dataclass(frozen=True)
class EpisodeMetrics:
    """Safety and adherence counters for one episode.

    ``nmac_count`` counts pair-entries into the NMAC radius (infringing pairs
    are removed on detection, so each entry is counted once). ``los_seconds``
    counts (timestep, pair) occurrences with separation inside the protection
    zone, at one decision interval each; NMAC timesteps are inside the zone and
    therefore count too. ``speed_adherence`` is the fraction of
    (aircraft, timestep) pairs within 10 kt of the desired cruising speed.
    """

    nmac_count: int
    los_seconds: float
    speed_adherence: float
    max_density: int


METRIC_NAMES = tuple(f.name for f in fields(EpisodeMetrics))
EPISODES_HEADER = ("episode", *METRIC_NAMES)
AGGREGATE_HEADER = ("scope", "episodes", *(f"mean_{name}" for name in METRIC_NAMES))


def run_episode(world, action_fn, max_steps=200_000, trajectory=None, events_out=None):
    """Drive one world to termination under ``action_fn(aircraft_id, obs) -> Advisory``.

    Optionally appends trajectory rows / safety events to the provided lists.
    """
    sector = world.sector
    dt = sector.decision_interval
    nmac_count = 0
    los_seconds = 0.0
    adherent_steps = 0
    agent_steps = 0
    max_density = len(world.aircraft)
    steps = 0
    while not world.is_done():
        if steps >= max_steps:
            raise RuntimeError(f"episode did not terminate within {max_steps} steps")
        steps += 1
        max_density = max(max_density, len(world.aircraft))
        obs_map = {aid: featurize(world, aid) for aid in sorted(world.active_ids())}
        actions = {aid: action_fn(aid, obs) for aid, obs in obs_map.items()}
        result = airspace.step(world, actions)
        for event in result.events:
            if event.kind is airspace.EventKind.NMAC:
                nmac_count += 1
                los_seconds += dt
            elif event.kind is airspace.EventKind.LOS:
                los_seconds += dt
        for aid, state in sorted(result.post_move.items()):
            agent_steps += 1
            if abs(state.cas - state.v_des) <= ADHERENCE_TOLERANCE:
                adherent_steps += 1
            if trajectory is not None:
                pos = state.position
                trajectory.append(
                    (world.clock, aid, pos[0], pos[1], state.cas, state.v_des, state.heading)
                )
        if events_out is not None:
            events_out.extend(result.events)
    adherence = adherent_steps / agent_steps if agent_steps else 0.0
    return EpisodeMetrics(
        nmac_count=nmac_count,
        los_seconds=los_seconds,
        speed_adherence=adherence,
        max_density=max_density,
    )


def greedy_action_fn(params):
    return lambda aid, obs: policy_mod.act(obs, params, mode="greedy")[0]


def sampling_action_fn(params, rng):
    return lambda aid, obs: policy_mod.act(obs, params, rng, mode="sample")[0]


def random_action_fn(rng):
    return lambda aid, obs: Advisory(int(rng.integers(len(Advisory))))


@dataclass
class EvaluationResult:
    episodes: list
    aggregate: dict
    per_density: dict


def _aggregate(metrics):
    """Episode count, then the mean of every metric, keyed as in ``AGGREGATE_HEADER``."""
    means = {f"mean_{name}": float(np.mean([getattr(m, name) for m in metrics])) for name in METRIC_NAMES}
    return {"episodes": len(metrics), **means}


def _per_density(metrics):
    """``_aggregate`` of the episodes at each observed peak density, ascending."""
    groups = {}
    for m in sorted(metrics, key=lambda m: m.max_density):
        groups.setdefault(m.max_density, []).append(m)
    return {density: _aggregate(group) for density, group in groups.items()}


def evaluate(params, env_kind, n_episodes, seed, sector=None, n_aircraft=None, action_mode="greedy"):
    """Run ``n_episodes`` of a scenario and aggregate episode metrics.

    Cases a/b draw a fresh uniform rotation every episode (inside scenario
    generation). ``action_mode`` is ``greedy`` (default for evaluation),
    ``sample`` (stochastic policy) or ``random`` (uniform advisories,
    ignoring ``params``).
    """
    if n_episodes < 1:
        raise ValueError(f"need at least one episode, got {n_episodes}")
    env_kind = EnvKind(env_kind)
    children = np.random.SeedSequence(seed).spawn(n_episodes)
    metrics = []
    for child in children:
        rng = np.random.default_rng(child)
        world = make_world(env_kind, rng, sector=sector, n_aircraft=n_aircraft)
        if action_mode == "greedy":
            fn = greedy_action_fn(params)
        elif action_mode == "sample":
            fn = sampling_action_fn(params, rng)
        elif action_mode == "random":
            fn = random_action_fn(rng)
        else:
            raise ValueError(f"unknown action_mode {action_mode!r}")
        metrics.append(run_episode(world, fn))
    return EvaluationResult(metrics, _aggregate(metrics), _per_density(metrics))


# ---------------------------------------------------------------------------
# curve smoothing and reports
# ---------------------------------------------------------------------------


def smooth_curve(series, alpha):
    """Exponential moving average: y_0 = x_0, y_t = alpha x_t + (1 - alpha) y_{t-1}."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = np.asarray(series, dtype=np.float64)
    out = np.empty_like(x)
    if x.size == 0:
        return out
    out[0] = x[0]
    for t in range(1, x.size):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def emit_report(metrics, out_dir):
    """Write per-episode and aggregate CSVs; rows are deterministic for a fixed input.

    The aggregate file carries one ``overall`` row followed by one row per
    observed peak-traffic density, ascending.
    """
    if not metrics:
        raise ValueError("no episode metrics to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes_path = out / "episodes.csv"
    aggregate_path = out / "aggregate.csv"
    with open(episodes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODES_HEADER)
        for i, m in enumerate(metrics):
            writer.writerow([i, *astuple(m)])
    with open(aggregate_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_HEADER)
        writer.writerow(["overall", *_aggregate(metrics).values()])
        for density, agg in _per_density(metrics).items():
            writer.writerow([f"density={density}", *agg.values()])
    return episodes_path, aggregate_path


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------


def _scalarize(rng, build):
    """Deterministic scalar loss from an op builder: fixed random weights times output."""
    probe = build()
    w = Tensor(rng.standard_normal(probe.data.shape))
    return lambda: nm.tsum(nm.mul(build(), w))


def _op_gradient_checks(seed, n_seeds):
    """Finite-difference every differentiable primitive over many random draws.

    Kinked ops (clip, minimum, maximum) get operands kept away from their
    kinks so the central difference stays valid.
    """
    worst = {}

    def record(name, build, params):
        err = finite_diff_check(_scalarize(rng, build), params)
        worst[name] = max(worst.get(name, 0.0), err)

    for s in range(n_seeds):
        rng = np.random.default_rng((seed, s))

        def t(shape, scale=1.0):
            return Tensor(scale * rng.standard_normal(shape), requires_grad=True)

        a, b = t((4, 5)), t((5, 3))
        record("matmul", lambda: nm.matmul(a, b), [a, b])
        ab, wb = t((2, 2, 3)), t((3, 2))
        record("matmul_batched", lambda: nm.matmul(ab, wb), [ab, wb])
        x, bias = t((3, 4)), t((4,))
        record("add_broadcast", lambda: nm.add(x, bias), [x, bias])
        u, v = t((6,)), t((6,))
        record("mul", lambda: nm.mul(u, v), [u, v])
        g = t((7,))
        record("gelu", lambda: nm.gelu(g), [g])
        xs, gain, beta = t((3, 6)), t((6,), 0.5), t((6,))
        record("layer_norm", lambda: nm.layer_norm(xs, gain, beta), [xs, gain, beta])
        xb, gain_b, beta_b = t((2, 2, 4)), t((4,), 0.5), t((4,))
        record("layer_norm_batched", lambda: nm.layer_norm(xb, gain_b, beta_b), [xb, gain_b, beta_b])
        ls = t((5,))
        record("log_softmax", lambda: nm.log_softmax(ls), [ls])
        ex = t((4,), 0.5)
        record("exp", lambda: nm.exp(ex), [ex])
        sq = t((4,))
        record("square", lambda: nm.square(sq), [sq])
        # keep |entries| in [0.6, 1.5] so clip bounds at +/-0.5 are never near a kink
        signs = np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)
        cl = Tensor(signs * rng.uniform(0.6, 1.5, size=8), requires_grad=True)
        record("clip", lambda: nm.clip(cl, -0.5, 0.5), [cl])
        base = rng.standard_normal(6)
        offs = np.where(rng.uniform(size=6) < 0.5, -1.0, 1.0) * rng.uniform(0.3, 1.0, size=6)
        ma = Tensor(base, requires_grad=True)
        mb = Tensor(base + offs, requires_grad=True)
        record("minimum", lambda: nm.minimum(ma, mb), [ma, mb])
        record("maximum", lambda: nm.maximum(ma, mb), [ma, mb])
        nr = t((4, 5))
        record("narrow_concat", lambda: nm.concat([nm.narrow(nr, 0, 0, 2), nm.narrow(nr, 0, 2, 2)]), [nr])
        pk = t((5,))
        record("pick", lambda: nm.pick(pk, 3), [pk])
        pr = t((3, 3))
        record("pick_rows", lambda: nm.pick(pr, [2, 0, 2]), [pr])
        mn = t((3, 4))
        worst["mean"] = max(worst.get("mean", 0.0), finite_diff_check(lambda: nm.tmean(mn), [mn]))
        q, k, vv = t((4, 8), 0.7), t((4, 8), 0.7), t((4, 8), 0.7)
        record("mha_core", lambda: nm.mha_core(q, k, vv, 2), [q, k, vv])
        # one query per set over two key sets holding 3 and 1 real keys; the rest is padding
        qb, kb, vb = t((2, 1, 4), 0.7), t((2, 3, 4), 0.7), t((2, 3, 4), 0.7)
        mask = np.arange(3) < np.array([3, 1])[:, None]
        record("mha_core_masked", lambda: nm.mha_core(qb, kb, vb, 2, mask), [qb, kb, vb])
        ax, aw, abias = t((2, 2, 3)), t((3, 2)), t((2,))
        record("affine_batched", lambda: nm.affine(ax, aw, abias), [ax, aw, abias])
    return worst


def _random_observation(rng, n_intruders):
    ownship = rng.uniform(0.0, 1.0, size=2)
    intruders = np.empty((n_intruders, 7))
    if n_intruders:
        theta = rng.uniform(-np.pi, np.pi, size=n_intruders)
        intruders[:, 0] = rng.uniform(0.0, 0.5, size=n_intruders)
        intruders[:, 1] = intruders[:, 0] - 0.08
        intruders[:, 2] = np.sin(theta)
        intruders[:, 3] = np.cos(theta)
        intruders[:, 4] = (rng.uniform(size=n_intruders) < 0.3).astype(float)
        intruders[:, 5] = rng.uniform(-1.0, 1.0, size=n_intruders)
        intruders[:, 6] = rng.uniform(-1.0, 1.0, size=n_intruders)
    return EgoObservation(ownship=ownship, intruders=intruders)


def _policy_gradient_check(config, seed, counts, max_entries_per_param=None):
    """The PPO minibatch loss (:func:`ppo.ppo_loss`) of a padded batch of random
    observations with the given intruder counts, through a fresh network."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    rows = policy_mod.pad_observations([_random_observation(rng, c) for c in counts])
    b = len(counts)
    actions = rng.integers(0, 3, size=b)
    logp_old = rng.uniform(-1.6, -0.6, size=b)
    advantages, returns, values_old = rng.standard_normal((3, b))
    hparams = ppo.HyperParams()

    def f():
        return ppo.ppo_loss(params, rows, actions, logp_old, advantages, returns, values_old, hparams)[0]

    return finite_diff_check(
        f,
        params.tensors(),
        max_entries_per_param=max_entries_per_param,
        rng=np.random.default_rng((seed, 1)),
    )


def run_gradient_suite(seed=0, op_seeds=100, io=None):
    """Finite-difference the whole stack: every primitive, then the PPO loss
    through the full network at a compact width (every parameter), through a
    compact 2-layer network on a padded minibatch (every parameter), and at the
    production widths for 1/2/3 encoder layers (sampled entries per tensor).
    Returns {check_name: max relative error}.
    """

    def emit(line):
        if io is not None:
            print(line, file=io)

    results = dict(_op_gradient_checks(seed, op_seeds))
    for name in sorted(results):
        emit(f"  op {name}: {results[name]:.3e}")
    small = PolicyConfig(d_emb=16, d_ff=32, heads=4, layers=1)
    results["policy_m1_compact_all_params"] = _policy_gradient_check(small, seed, (3,))
    emit(f"  policy compact (every parameter): {results['policy_m1_compact_all_params']:.3e}")
    two_layers = PolicyConfig(d_emb=8, d_ff=16, heads=2, layers=2)
    results["policy_m2_minibatch_loss_all_params"] = _policy_gradient_check(two_layers, seed, (0, 1, 4))
    emit(
        "  policy 2-layer PPO minibatch loss, 0/1/4 intruders (every parameter): "
        f"{results['policy_m2_minibatch_loss_all_params']:.3e}"
    )
    for m in (1, 2, 3):
        cfg = PolicyConfig(d_emb=128, d_ff=512, heads=16, layers=m)
        key = f"policy_m{m}_full_scale_sampled"
        results[key] = _policy_gradient_check(cfg, seed, (3,), max_entries_per_param=6)
        emit(f"  policy {m}-layer full width (sampled entries): {results[key]:.3e}")
    return results


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

_CASE_CHOICES = ("a", "b", "c", "training", "headon")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="airsep",
        description="Speed-advisory separation assurance: training, evaluation, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run PPO training from a YAML config")
    p_train.add_argument("--config", required=True, help="training config path")
    p_train.add_argument("--out", default="runs/train", help="output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint with greedy advisories")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--case", choices=_CASE_CHOICES, default="a")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default="runs/eval")

    p_grad = sub.add_parser("gradcheck", help="finite-difference the numerics and policy stack")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--op-seeds", type=int, default=100)

    p_dump = sub.add_parser("rollout-dump", help="write one episode's event log and trajectory")
    p_dump.add_argument("--checkpoint", default=None, help="policy checkpoint (fresh init if omitted)")
    p_dump.add_argument("--case", choices=_CASE_CHOICES, default="training")
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--out", default="runs/rollout")
    return parser


def _cmd_train(args):
    cfg = config_mod.load_training_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = ppo.train(cfg, args.out, log=print)
    print(f"stats: {result.stats_path}")
    print(f"final checkpoint: {result.checkpoint_paths[-1]}")
    return 0


def _load_for_episodes(path):
    """A checkpoint's parameters and the sector it was trained in (defaults when it names none)."""
    params, meta = policy_mod.load_policy(path)
    try:
        return params, SectorParams(**meta.get("sector_si", {}))
    except TypeError as exc:
        raise ValueError(f"checkpoint sector_si does not fit the sector: {exc}") from exc


def _cmd_eval(args):
    params, sector = _load_for_episodes(args.checkpoint)
    result = evaluate(params, args.case, args.episodes, args.seed, sector=sector)
    episodes_path, aggregate_path = emit_report(result.episodes, args.out)
    agg = result.aggregate
    print(
        f"case {args.case}: {agg['episodes']} episodes | "
        f"mean NMACs {agg['mean_nmac_count']:.3f} | "
        f"mean LoS seconds {agg['mean_los_seconds']:.1f} | "
        f"mean speed adherence {agg['mean_speed_adherence']:.3f}"
    )
    print(f"wrote {episodes_path} and {aggregate_path}")
    return 0


def _cmd_gradcheck(args):
    results = run_gradient_suite(seed=args.seed, op_seeds=args.op_seeds, io=sys.stdout)
    worst = max(results.values())
    print(f"max relative error: {worst:.3e} (tolerance {GRADIENT_TOLERANCE:.0e})")
    return 0 if worst < GRADIENT_TOLERANCE else 1


def _cmd_rollout_dump(args):
    if args.checkpoint:
        params, sector = _load_for_episodes(args.checkpoint)
    else:
        params = init_params(PolicyConfig(), np.random.default_rng(args.seed))
        sector = SectorParams()
    world = make_world(args.case, np.random.default_rng(args.seed), sector=sector)
    trajectory, events = [], []
    metrics = run_episode(world, greedy_action_fn(params), trajectory=trajectory, events_out=events)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events_path = write_event_log(events, out / "events.csv")
    trajectory_path = out / "trajectory.csv"
    with open(trajectory_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for row in trajectory:
            writer.writerow([repr(float(row[0])), row[1]] + [repr(float(x)) for x in row[2:]])
    print(
        f"episode finished: {metrics.nmac_count} NMACs, {metrics.los_seconds:.0f} LoS seconds, "
        f"peak density {metrics.max_density}"
    )
    print(f"wrote {events_path} and {trajectory_path}")
    return 0


def cli(argv=None):
    """Parse and dispatch; returns the process exit code (2 on usage errors)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "rollout-dump": _cmd_rollout_dump,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, NumericsError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
