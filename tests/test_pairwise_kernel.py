"""The pairwise pass against the per-object reference it replaced.

The reference below is the per-pair loop that ``featurize`` and
``detect_events`` ran before every world state got one all-pairs numpy pass:
per-aircraft ``position``/``velocity`` properties, ``np.linalg.norm``,
``atan2`` and an angle wrap for the bearing, and a scalar time-to-LoS. It is
kept here as the oracle. The pass does the same arithmetic (its dot products
go through the same BLAS routine), so features, event times and rewards must
equal the reference exactly: a training run is chaotic in the last bit of a
feature, and only bit-identical rows keep it the run it was.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airsep import airspace
from airsep.airspace import (
    FT,
    KT,
    NM,
    AircraftState,
    EventKind,
    Route,
    SafetyEvent,
    SectorParams,
    WorldState,
    detect_events,
    step,
)
from airsep.featurize import featurize
from airsep.policy import pad_observations
from airsep.reward import RewardParams, compute_reward

SECTOR = SectorParams()
PARAMS = RewardParams()
SETTINGS = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# per-object reference
# ---------------------------------------------------------------------------


def _ref_time_to_los(p, v, r):
    c = float(p @ p) - r * r
    if c <= 0.0:
        return 0.0
    a = float(v @ v)
    if a == 0.0:
        return None
    b = 2.0 * float(p @ v)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    t = (-b - math.sqrt(disc)) / (2.0 * a)
    return t if t >= 0.0 else None


def _wrap_angle(a):
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return w + 2.0 * math.pi if w <= -math.pi else w


def _ref_relative_kinematics(own, intruder):
    """(d, theta, v_p, v_psi); coincident positions give theta = 0 and zero closure."""
    rel_p = intruder.position - own.position
    rel_v = intruder.velocity - own.velocity
    d = float(np.linalg.norm(rel_p))
    if d == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    theta = _wrap_angle(math.atan2(rel_p[1], rel_p[0]) - own.heading)
    e_p = rel_p / d
    e_psi = np.array([-e_p[1], e_p[0]])
    return d, theta, float(rel_v @ e_p), float(rel_v @ e_psi)


def _ref_featurize(world, aircraft_id):
    sector = world.sector
    own = world.get(aircraft_id)
    ownship = np.array([own.cas / sector.v_max, abs(own.cas - own.v_des) / (sector.v_max - sector.v_min)])
    others = sorted((ac for ac in world.aircraft if ac.aircraft_id != aircraft_id), key=lambda a: a.aircraft_id)
    rows = np.empty((len(others), 7))
    scale = 2.0 * sector.sector_radius
    for k, intr in enumerate(others):
        d, theta, v_p, v_psi = _ref_relative_kinematics(own, intr)
        rows[k] = (
            (d - sector.r_nmac) / scale,
            (d - sector.r_pz) / scale,
            math.sin(theta),
            math.cos(theta),
            1.0 if d <= sector.r_pz else 0.0,
            v_p / sector.v_max,
            v_psi / sector.v_max,
        )
    return ownship, rows


def _ref_detect_events(world):
    sector = world.sector
    events = []
    acs = sorted(world.aircraft, key=lambda a: a.aircraft_id)
    for i in range(len(acs)):
        for j in range(i + 1, len(acs)):
            a, b = acs[i], acs[j]
            rel_p = b.position - a.position
            sep = float(np.linalg.norm(rel_p))
            pair = (a.aircraft_id, b.aircraft_id)
            if sep <= sector.r_nmac:
                events.append(SafetyEvent(EventKind.NMAC, pair, world.clock))
            elif sep <= sector.r_pz:
                events.append(SafetyEvent(EventKind.LOS, pair, world.clock))
            else:
                t = _ref_time_to_los(rel_p, b.velocity - a.velocity, sector.r_pz)
                if t is not None and t <= sector.lookahead:
                    events.append(SafetyEvent(EventKind.CONFLICT, pair, world.clock, t_los=t))
    return events


def _ref_reward(states, agent_id, events, params, sector):
    own = states[agent_id]
    mine = [e for e in events if agent_id in e.pair]
    if any(e.kind is EventKind.NMAC for e in mine):
        return -params.alpha_nmac
    threatened = [e for e in mine if e.kind in (EventKind.LOS, EventKind.CONFLICT)]
    if threatened:
        t_min = min(0.0 if e.kind is EventKind.LOS else e.t_los for e in threatened)
        horizon = sector.lookahead
        reward = -params.alpha_conflict * min(max((horizon - t_min) / horizon, 0.0), 1.0)
        if any(e.kind is EventKind.LOS for e in threatened):
            d_min = min(
                float(np.linalg.norm(other.position - own.position))
                for other_id, other in states.items()
                if other_id != agent_id
            )
            d_hat = min(max((sector.r_pz - d_min) / (sector.r_pz - sector.r_nmac), 0.0), 1.0)
            reward -= params.alpha_los * d_hat
        return reward
    return params.alpha_v * (1.0 - abs(own.cas - own.v_des) / (sector.v_max - sector.v_min))


# ---------------------------------------------------------------------------
# worlds: 0-20 aircraft on multi-leg routes, with the edge cases drawn on purpose
# ---------------------------------------------------------------------------

_coord = st.floats(-25 * NM, 25 * NM, allow_nan=False, allow_infinity=False)
_speed = st.one_of(st.just(0.0), st.just(SECTOR.v_max), st.floats(0.0, SECTOR.v_max))


def _make(aid, waypoints, leg, fraction, cas, v_des):
    route = Route(waypoints)
    offset = route.leg_length(leg) * fraction
    return AircraftState(
        aircraft_id=aid, route=route, leg=leg, leg_offset=offset,
        cas=cas, v_des=v_des, spawn_time=0.0, eta_deadline=1e9,
    )


@st.composite
def _free_aircraft(draw, aid):
    """An aircraft anywhere on a 2-4 waypoint route, sometimes exactly on a waypoint."""
    n_pts = draw(st.integers(2, 4))
    pts = [(draw(_coord), draw(_coord))]
    for _ in range(n_pts - 1):
        step_len = draw(st.floats(1.0, 20 * NM))
        angle = draw(st.floats(-math.pi, math.pi))
        pts.append((pts[-1][0] + step_len * math.cos(angle), pts[-1][1] + step_len * math.sin(angle)))
    leg = draw(st.integers(0, n_pts - 2))
    fraction = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return _make(aid, pts, leg, fraction, draw(_speed), draw(st.floats(60 * KT, 120 * KT)))


@st.composite
def _placed_pair(draw, aid_a, aid_b):
    """Two aircraft on waypoints: coincident, or exactly r_nmac / r_pz apart along an axis."""
    gap = draw(st.sampled_from([0.0, SECTOR.r_nmac, SECTOR.r_pz]))
    along_y = draw(st.booleans())
    # the first sits on an axis so that adding the gap to its coordinate is exact
    other = draw(_coord)
    start_a = (other, 0.0) if along_y else (0.0, other)
    start_b = (other, gap) if along_y else (gap, other)
    aircraft = []
    for aid, start in ((aid_a, start_a), (aid_b, start_b)):
        angle = draw(st.floats(-math.pi, math.pi))
        far = (start[0] + 10 * NM * math.cos(angle), start[1] + 10 * NM * math.sin(angle))
        aircraft.append(_make(aid, [start, far], 0, 0.0, draw(_speed), draw(st.floats(60 * KT, 120 * KT))))
    return aircraft


@st.composite
def worlds(draw, max_aircraft=20):
    n = draw(st.integers(0, max_aircraft))
    aircraft = []
    k = 0
    while len(aircraft) < n:
        if n - len(aircraft) >= 2 and draw(st.integers(0, 4)) == 0:
            aircraft.extend(draw(_placed_pair(f"AC{k:03d}", f"AC{k + 1:03d}")))
            k += 2
        else:
            aircraft.append(draw(_free_aircraft(f"AC{k:03d}")))
            k += 1
    order = draw(st.permutations(range(len(aircraft))))
    return WorldState(sector=SECTOR, routes=[], aircraft=[aircraft[i] for i in order])


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@SETTINGS
@given(worlds())
def test_features_match_reference(world):
    for aid in world.active_ids():
        obs = featurize(world, aid)
        ownship, rows = _ref_featurize(world, aid)
        assert obs.intruders.shape == rows.shape
        assert np.array_equal(obs.ownship, ownship)
        assert np.array_equal(obs.intruders, rows)


@SETTINGS
@given(worlds())
def test_events_match_reference(world):
    assert detect_events(world) == _ref_detect_events(world)


@SETTINGS
@given(worlds(max_aircraft=6))
def test_reward_matches_reference(world):
    states = {ac.aircraft_id: ac for ac in world.aircraft}
    events = detect_events(world)
    for aid in states:
        got = compute_reward(states, aid, events, PARAMS, SECTOR)
        want = _ref_reward(states, aid, _ref_detect_events(world), PARAMS, SECTOR)
        assert got == want


@SETTINGS
@given(worlds(), st.randoms(use_true_random=False))
def test_permuting_the_aircraft_list_changes_nothing(world, rnd):
    shuffled = list(world.aircraft)
    rnd.shuffle(shuffled)
    other = WorldState(sector=world.sector, routes=[], aircraft=shuffled)
    assert detect_events(other) == detect_events(world)
    for aid in world.active_ids():
        a, b = featurize(world, aid), featurize(other, aid)
        assert np.array_equal(a.ownship, b.ownship)
        assert np.array_equal(a.intruders, b.intruders)


def test_stepped_episodes_match_reference():
    """Features and events of every step of a few episodes, including spawns and removals."""
    rng = np.random.default_rng(4)
    for kind, seed, n_aircraft in (("c", 901, 10), ("training", 3, None), ("headon", 1, None)):
        world = airspace.make_world(kind, seed, n_aircraft=n_aircraft)
        for _ in range(1500):
            if world.is_done():
                break
            for aid in world.active_ids():
                obs = featurize(world, aid)
                _, rows = _ref_featurize(world, aid)
                assert np.array_equal(obs.intruders, rows)
            actions = {aid: int(rng.integers(3)) for aid in world.active_ids()}
            result = step(world, actions)
            probe = WorldState(sector=world.sector, routes=[], clock=world.clock,
                               aircraft=list(result.post_move.values()))
            assert list(result.events) == _ref_detect_events(probe)


def _behind():
    # B sits behind A on y = +0.0 and C on y = -0.0: atan2 gives +pi and -pi, and both
    # bearings wrap to exactly -pi, which must read +pi
    return [
        _make("A", [(0.0, 0.0), (10 * NM, 0.0)], 0, 0.0, 100 * KT, 100 * KT),
        _make("B", [(-1 * NM, 0.0), (-1 * NM, 10 * NM)], 0, 0.0, 90 * KT, 100 * KT),
        _make("C", [(-2 * NM, -0.0), (-2 * NM, -10 * NM)], 0, 0.0, 80 * KT, 100 * KT),
    ], {("A", "B"): math.pi, ("A", "C"): math.pi}


def _headings_of_plus_and_minus_pi():
    # A flies west on y = -0.0 (heading -pi), B west on y = +0.0 (heading +pi), B behind A
    return [
        _make("A", [(0.0, 0.0), (-10 * NM, -0.0)], 0, 0.0, 100 * KT, 100 * KT),
        _make("B", [(5 * NM, 0.0), (-10 * NM, 0.0)], 0, 0.0, 90 * KT, 100 * KT),
        _make("C", [(-3 * NM, 4 * NM), (-3 * NM, -6 * NM)], 0, 0.4, 80 * KT, 100 * KT),
    ], {("A", "B"): math.pi, ("B", "A"): 0.0}


def _coincident():
    return [
        _make("A", [(3 * NM, 4 * NM), (13 * NM, 4 * NM)], 0, 0.0, 100 * KT, 100 * KT),
        _make("B", [(3 * NM, 4 * NM), (3 * NM, -6 * NM)], 0, 0.0, 90 * KT, 100 * KT),
        _make("C", [(-3 * NM, 4 * NM), (-3 * NM, -6 * NM)], 0, 0.4, 80 * KT, 100 * KT),
    ], {("A", "B"): 0.0, ("B", "A"): 0.0}


@pytest.mark.parametrize("build", [_behind, _headings_of_plus_and_minus_pi, _coincident])
def test_seam_and_coincident_bearings_match_reference(build):
    aircraft, bearings = build()
    world = WorldState(sector=SECTOR, routes=[], aircraft=aircraft)
    if build is _headings_of_plus_and_minus_pi:
        assert (world.get("A").heading, world.get("B").heading) == (-math.pi, math.pi)
    for aid in world.active_ids():
        _, rows = _ref_featurize(world, aid)
        assert np.array_equal(featurize(world, aid).intruders, rows)
    for (own, other), theta in bearings.items():
        others = sorted(set(world.active_ids()) - {own})
        row = featurize(world, own).intruders[others.index(other)]
        assert row[2:4].tolist() == [math.sin(theta), math.cos(theta)]
        assert math.copysign(1.0, row[2]) == math.copysign(1.0, math.sin(theta))


# ---------------------------------------------------------------------------
# sharing the pass
# ---------------------------------------------------------------------------


def _fresh(world):
    return WorldState(
        sector=world.sector, routes=[],
        aircraft=[dataclasses.replace(ac) for ac in world.aircraft],
    )


def _three_aircraft():
    return [
        _make("A", [(0.0, 0.0), (10 * NM, 0.0), (10 * NM, 10 * NM)], 0, 0.3, 100 * KT, 100 * KT),
        _make("B", [(8 * NM, -6 * NM), (8 * NM, 9 * NM)], 0, 0.2, 90 * KT, 100 * KT),
        _make("C", [(-5 * NM, 5 * NM), (15 * NM, 5 * NM)], 0, 0.5, 80 * KT, 100 * KT),
    ]


def _change_cas(world):
    world.aircraft[1].cas += 5 * KT


def _change_offset(world):
    world.aircraft[0].leg_offset += 400.0


def _change_leg(world):
    world.aircraft[0].leg = 1
    world.aircraft[0].leg_offset = 0.0


def _change_route(world):
    ac = world.aircraft[2]
    ac.route = Route(ac.route.waypoints + (0.0, 2 * NM))


def _remove(world):
    world.aircraft.pop(1)


def _add(world):
    world.aircraft.append(_make("D", [(2 * NM, 2 * NM), (2 * NM, 30 * NM)], 0, 0.0, 120 * KT, 100 * KT))


def _change_sector(world):
    world.sector = SectorParams(r_pz=3 * NM, r_nmac=300 * FT, sector_radius=20 * NM, v_max=200 * KT)


@pytest.mark.parametrize(
    "mutate", [_change_cas, _change_offset, _change_leg, _change_route, _remove, _add, _change_sector]
)
def test_pass_is_recomputed_when_an_input_changes(mutate):
    world = WorldState(sector=SECTOR, routes=[], aircraft=_three_aircraft())
    before = {aid: featurize(world, aid) for aid in world.active_ids()}
    detect_events(world)
    mutate(world)  # same clock: a cache keyed on time would serve stale rows
    fresh = _fresh(world)
    for aid in world.active_ids():
        got, want = featurize(world, aid), featurize(fresh, aid)
        assert np.array_equal(got.ownship, want.ownship)
        assert np.array_equal(got.intruders, want.intruders)
    assert detect_events(world) == detect_events(fresh)
    changed = any(
        aid not in before or before[aid].intruders.shape != featurize(world, aid).intruders.shape
        or not np.array_equal(before[aid].intruders, featurize(world, aid).intruders)
        for aid in world.active_ids()
    )
    assert changed


def test_one_pass_per_step_without_spawns_or_removals(monkeypatch):
    calls = []
    real = airspace._pairwise_pass

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(airspace, "_pairwise_pass", counting)
    world = WorldState(sector=SECTOR, routes=[], aircraft=_three_aircraft())
    for _ in range(5):
        for aid in world.active_ids():
            featurize(world, aid)
        calls.clear()
        result = step(world, {aid: 1 for aid in world.active_ids()})
        assert not result.removals
        for aid in world.active_ids():
            featurize(world, aid)
        assert len(calls) == 1


def test_single_aircraft_needs_no_pass(monkeypatch):
    monkeypatch.setattr(airspace, "_pairwise_pass", None)
    world = WorldState(sector=SECTOR, routes=[], aircraft=_three_aircraft()[:1])
    assert featurize(world, "A").intruders.shape == (0, 7)
    assert detect_events(world) == []


def test_views_and_world_stacks_are_the_pass_itself():
    # featurize returns read-only rows of the pass; a world's padded stack equals the whole pass
    world = WorldState(sector=SECTOR, routes=[], aircraft=_three_aircraft())
    pairs = airspace.pair_geometry(world)
    assert pairs.intruders.shape == (3, 2, 7) and not pairs.intruders.flags.writeable
    views = [featurize(world, aid) for aid in sorted(world.active_ids())]
    for obs in views:
        assert np.shares_memory(obs.intruders, pairs.intruders)
        with pytest.raises(ValueError):
            obs.intruders[0, 0] = 1.0
    ownship, intruders, counts = pad_observations(views)
    assert np.array_equal(intruders, pairs.intruders) and counts.tolist() == [2, 2, 2]
    assert np.array_equal(ownship, np.stack([obs.ownship for obs in views]))
