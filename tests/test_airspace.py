"""Simulation-kernel oracles: geometry, spawning, conflict detection, stepping."""

import collections
import math

import numpy as np
import pytest

from airsep import airspace as asp
from airsep.airspace import (
    FT,
    KT,
    NM,
    Advisory,
    AircraftState,
    AircraftStatus,
    EnvKind,
    EventKind,
    PendingSpawn,
    Route,
    SectorParams,
    WorldState,
    detect_events,
    generate_training_sector,
    head_on_routes,
    make_custom_world,
    make_world,
    rotate_routes,
    step,
    time_to_los,
)


def _two_aircraft_world(p_a, v_a, p_b, v_b, sector=None):
    """World with two aircraft placed at given positions/velocity vectors."""
    sector = sector or SectorParams()

    def make(aid, p, v):
        speed = float(np.linalg.norm(v))
        heading = np.asarray(v) / speed if speed > 0 else np.array([1.0, 0.0])
        route = Route([np.asarray(p, float), np.asarray(p, float) + heading * 200 * NM])
        return AircraftState(
            aircraft_id=aid, route=route, leg=0, leg_offset=0.0,
            cas=speed, v_des=max(speed, 1.0), spawn_time=0.0, eta_deadline=1e9,
        )

    return WorldState(
        sector=sector,
        routes=[],
        rng=np.random.default_rng(0),
        aircraft=[make("A", p_a, v_a), make("B", p_b, v_b)],
    )


# ---------------------------------------------------------------------------
# parameters and routes
# ---------------------------------------------------------------------------


def test_sector_params_defaults():
    s = SectorParams()
    assert s.sector_radius == 30 * NM
    assert s.r_pz == 5 * NM
    assert s.r_nmac == 500 * FT
    assert s.v_max == 150 * KT
    assert s.speed_increment == 5 * KT
    assert s.timeout_buffer == 1200.0


def test_sector_params_validation():
    with pytest.raises(ValueError):
        SectorParams(r_pz=0.1, r_nmac=100.0)
    with pytest.raises(ValueError):
        SectorParams(speed_increment=0.0)


def test_route_validation():
    with pytest.raises(ValueError):
        Route([[0.0, 0.0]])
    with pytest.raises(ValueError):
        Route([[0.0, 0.0], [0.0, 0.0]])
    r = Route([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    assert r.length == 11.0
    assert r.n_legs == 2


# ---------------------------------------------------------------------------
# training-sector generation
# ---------------------------------------------------------------------------


def test_training_sector_constraints():
    sector = SectorParams()
    for seed in range(50):
        routes = generate_training_sector(np.random.default_rng(seed), sector)
        assert len(routes) == 2
        endpoints = [w for r in routes for w in r.waypoints]
        assert len(endpoints) == 4
        for p in endpoints:
            assert np.linalg.norm(p) <= sector.sector_radius + 1e-9
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(endpoints[i] - endpoints[j]) >= 5 * NM


def test_training_sector_deterministic():
    a = generate_training_sector(np.random.default_rng(99))
    b = generate_training_sector(np.random.default_rng(99))
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.waypoints, rb.waypoints)


def test_training_sector_intersection_angles_cover_range():
    counts = np.zeros(12, dtype=int)
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        r1, r2 = generate_training_sector(rng)
        u1 = r1.directions[0]
        u2 = r2.directions[0]
        angle = math.degrees(math.acos(np.clip(u1 @ u2, -1.0, 1.0)))
        counts[min(int(angle // 15), 11)] += 1
    assert np.all(counts > 0), counts


@pytest.mark.parametrize("radius", [2.6 * NM, asp.MIN_ENDPOINT_SEPARATION / math.sqrt(2.0), 5.0 * NM])
def test_a_training_sector_too_small_for_its_endpoints_fails_before_any_draw(radius):
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    sector = SectorParams(sector_radius=radius, r_pz=1.0 * NM)
    with pytest.raises(ValueError, match=r"training sector_radius \S+ NM must be at least 5\.3 NM"):
        make_world("training", rng, sector=sector)
    assert rng.bit_generator.state == before


def test_the_smallest_admitted_training_sector_draws_its_endpoints():
    sector = SectorParams(sector_radius=asp.MIN_TRAINING_SECTOR_RADIUS, r_pz=1.0 * NM)
    for seed in range(20):
        assert len(make_world("training", seed, sector=sector).routes) == 2


def test_the_endpoint_resample_cap_names_the_sector_radius(monkeypatch):
    monkeypatch.setattr(asp, "ENDPOINT_RESAMPLE_CAP", 0)
    with pytest.raises(ValueError, match="no admissible endpoints in sector_radius 30 NM after 0 draws"):
        generate_training_sector(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# evaluation cases
# ---------------------------------------------------------------------------


def _unrotated(routes):
    """Cases A/B turned back by their rotation, read off the exit waypoint (bearing 0 before it)."""
    exit_point = routes[0].waypoints[2]
    return rotate_routes(routes, -math.atan2(exit_point[1], exit_point[0]))


def test_case_a_geometry():
    sector = SectorParams()
    for seed in range(5):
        routes = _unrotated(make_world("a", seed, sector).routes)
        assert len(routes) == 3
        merge = np.array([0.0, 0.0])
        exit_point = np.array([sector.sector_radius, 0.0])
        for r in routes:
            assert len(r.waypoints) == 3
            assert np.allclose(r.waypoints[1], merge, atol=1e-9)
            assert np.allclose(r.waypoints[2], exit_point, atol=1e-9)
            assert abs(np.linalg.norm(r.waypoints[0]) - sector.sector_radius) < 1e-6
        entry_bearings = sorted(
            round(math.degrees(math.atan2(r.waypoints[0][1], r.waypoints[0][0]))) % 360 for r in routes
        )
        assert entry_bearings == [150, 180, 210]


def test_case_b_adds_perpendicular_crossing():
    sector = SectorParams()
    for seed in range(5):
        routes = _unrotated(make_world("b", seed, sector).routes)
        assert len(routes) == 4
        crossing = routes[3]
        outbound_dir = np.array([1.0, 0.0])
        cross_dir = crossing.directions[0]
        assert abs(outbound_dir @ cross_dir) < 1e-9
        # both crossing endpoints on the boundary circle, midpoint of the outbound leg on the crossing
        for w in crossing.waypoints:
            assert abs(np.linalg.norm(w) - sector.sector_radius) < 1e-6
        assert abs(crossing.waypoints[0][0] - sector.sector_radius / 2) < 1e-9


@pytest.mark.parametrize("case", ["a", "b"])
def test_cases_a_and_b_are_rotated_per_episode(case):
    exits = {tuple(make_world(case, seed).routes[0].waypoints[2]) for seed in range(10)}
    assert len(exits) == 10


def test_case_rotation_round_trip():
    base = make_world("a", np.random.default_rng(1)).routes
    back = rotate_routes(rotate_routes(base, 1.1), -1.1)
    for ra, rb in zip(base, back):
        assert np.max(np.abs(ra.waypoints - rb.waypoints)) < 1e-9


def test_case_c_single_route():
    sector = SectorParams()
    world = make_world("c", np.random.default_rng(5), sector, n_aircraft=1)
    assert len(world.routes) == 1
    assert len(world.spawn_queue) == 1
    r = world.routes[0]
    assert len(r.waypoints) == 3
    assert abs(np.linalg.norm(r.waypoints[0]) - sector.sector_radius) < 1e-6
    assert abs(np.linalg.norm(r.waypoints[2]) - sector.sector_radius) < 1e-6
    assert np.linalg.norm(r.waypoints[1]) <= sector.sector_radius


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_world("z", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# spawn schedules and aircraft counts
# ---------------------------------------------------------------------------


def _schedule(world):
    """Every spawn of a fresh world: the aircraft already inserted, then the queue."""
    inserted = [PendingSpawn(ac.spawn_time, ac.aircraft_id, world.routes.index(ac.route), ac.v_des)
                for ac in world.aircraft]
    return inserted + world.spawn_queue


@pytest.mark.parametrize("case", ["a", "b"])
def test_spawn_schedule_cases_a_b_fixed_speed(case):
    for seed in range(20):
        spawns = _schedule(make_world(case, np.random.default_rng(seed)))
        assert 1 <= len(spawns) <= 20
        assert all(sp.v_des == 110 * KT for sp in spawns)


def test_spawn_schedule_training_speeds_and_spacing():
    for seed in range(20):
        spawns = _schedule(make_world("training", np.random.default_rng(seed)))
        assert 1 <= len(spawns) <= 20
        for sp in spawns:
            assert 60 * KT <= sp.v_des <= 120 * KT
        by_route = collections.defaultdict(list)
        for sp in spawns:
            by_route[sp.route_index].append(sp.time)
        for times in by_route.values():
            times.sort()
            gaps = [times[0]] + [b - a for a, b in zip(times, times[1:])]
            for gap in gaps:
                assert 60.0 <= gap <= 1200.0 + 1e-9


def test_spawn_schedule_case_c_dedicated_routes():
    world = make_world("c", np.random.default_rng(3), n_aircraft=6)
    spawns = _schedule(world)
    assert len(world.routes) == 6
    assert len(spawns) == 6
    assert sorted(sp.route_index for sp in spawns) == list(range(6))


def test_default_counts_cover_their_ranges():
    for case, top in (("training", 20), ("a", 20), ("b", 20), ("c", 10)):
        counts = {len(_schedule(make_world(case, seed))) for seed in range(400)}
        assert counts == set(range(1, top + 1)), case


def test_headon_always_flies_two():
    for seed in range(10):
        spawns = _schedule(make_world("headon", seed))
        assert [sp.aircraft_id for sp in spawns] == ["AC000", "AC001"]
        assert all(sp.v_des == 110 * KT for sp in spawns)


def test_headon_rejects_an_aircraft_count():
    with pytest.raises(ValueError, match="headon"):
        make_world("headon", np.random.default_rng(0), n_aircraft=3)


@pytest.mark.parametrize("kind", [k for k in EnvKind if k is not EnvKind.HEAD_ON])
@pytest.mark.parametrize("count", [0, -2, 2.0, True, "3"])
def test_make_world_rejects_a_count_that_is_not_a_positive_integer(kind, count):
    with pytest.raises(ValueError, match="n_aircraft"):
        make_world(kind, np.random.default_rng(0), n_aircraft=count)


@pytest.mark.parametrize("kind", [k for k in EnvKind if k is not EnvKind.HEAD_ON])
def test_make_world_flies_the_count_it_is_given(kind):
    for count in (1, 3, np.int64(7)):
        assert len(_schedule(make_world(kind, 11, n_aircraft=count))) == count


def test_spawn_deferral_on_origin_los():
    # two spawns at t=0 sharing one origin: the second must wait until clear
    route = Route([[0.0, 0.0], [40 * NM, 0.0]])
    spawns = [
        PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=110 * KT),
        PendingSpawn(time=0.0, aircraft_id="B", route_index=0, v_des=110 * KT),
    ]
    world = make_custom_world([route], spawns)
    assert world.active_ids() == ["A"]
    spawn_clock = None
    for _ in range(400):
        step(world, {aid: Advisory.HOLD for aid in world.active_ids()})
        if len(world.aircraft) == 2:
            spawn_clock = world.clock
            break
    assert spawn_clock is not None
    a = world.get("A")
    b = world.get("B")
    assert np.linalg.norm(a.position - b.position) > world.sector.r_pz


# ---------------------------------------------------------------------------
# time to loss of separation
# ---------------------------------------------------------------------------


def test_time_to_los_head_on():
    t = time_to_los(np.array([20 * NM, 0.0]), np.array([-200 * KT, 0.0]), 5 * NM)
    assert abs(t - 270.0) < 1e-9


def test_time_to_los_already_inside():
    assert time_to_los(np.array([4 * NM, 0.0]), np.array([100 * KT, 0.0]), 5 * NM) == 0.0


def test_time_to_los_diverging():
    assert time_to_los(np.array([10 * NM, 0.0]), np.array([100 * KT, 0.0]), 5 * NM) is None


def test_time_to_los_stationary():
    assert time_to_los(np.array([10 * NM, 0.0]), np.zeros(2), 5 * NM) is None
    assert time_to_los(np.array([1 * NM, 0.0]), np.zeros(2), 5 * NM) == 0.0


def test_time_to_los_against_stepped_oracle():
    rng = np.random.default_rng(2024)
    r = 5 * NM
    horizon = 7200
    ts = np.arange(horizon + 1, dtype=np.float64)
    checked = 0
    for _ in range(1000):
        angle = rng.uniform(0, 2 * np.pi)
        dist = rng.uniform(6 * NM, 60 * NM)
        p = dist * np.array([np.cos(angle), np.sin(angle)])
        # bias roughly half the encounters toward closing geometry
        if rng.uniform() < 0.5:
            aim = rng.uniform(0, 2 * np.pi)
            v_dir = -p / dist + 0.3 * np.array([np.cos(aim), np.sin(aim)])
            v_dir /= np.linalg.norm(v_dir)
        else:
            aim = rng.uniform(0, 2 * np.pi)
            v_dir = np.array([np.cos(aim), np.sin(aim)])
        v = rng.uniform(20 * KT, 300 * KT) * v_dir
        exact = time_to_los(p, v, r)
        positions = p[None, :] + ts[:, None] * v[None, :]
        inside = np.linalg.norm(positions, axis=1) <= r
        hit = np.argmax(inside) if inside.any() else None
        if exact is None:
            assert hit is None or not inside.any()
        elif exact <= horizon - 1:
            assert hit is not None and inside.any()
            assert abs(exact - float(hit)) <= 1.0
            checked += 1
    assert checked > 200  # plenty of real crossings exercised


# ---------------------------------------------------------------------------
# event detection
# ---------------------------------------------------------------------------


def test_detect_events_nmac():
    w = _two_aircraft_world([0, 0], [100 * KT, 0], [400 * FT, 0], [100 * KT, 0])
    events = detect_events(w)
    assert len(events) == 1
    assert events[0].kind is EventKind.NMAC
    assert events[0].pair == ("A", "B")


def test_detect_events_los_not_nmac():
    w = _two_aircraft_world([0, 0], [-100 * KT, 0], [4 * NM, 0], [100 * KT, 0])
    events = detect_events(w)
    assert [e.kind for e in events] == [EventKind.LOS]


def test_detect_events_far_head_on_outside_horizon():
    w = _two_aircraft_world([0, 0], [100 * KT, 0], [20 * NM, 0], [-100 * KT, 0])
    assert detect_events(w) == []


def test_detect_events_conflict_inside_horizon():
    w = _two_aircraft_world([0, 0], [150 * KT, 0], [10 * NM, 0], [-150 * KT, 0])
    events = detect_events(w)
    assert [e.kind for e in events] == [EventKind.CONFLICT]
    expected_t = (10 * NM - 5 * NM) / (300 * KT)
    assert abs(events[0].t_los - expected_t) < 1e-9
    assert 0.0 <= events[0].t_los <= w.sector.lookahead


def test_event_kinds_mutually_exclusive_per_pair():
    w = _two_aircraft_world([0, 0], [100 * KT, 0], [300 * FT, 0], [-100 * KT, 0])
    events = detect_events(w)
    pairs = [e.pair for e in events]
    assert len(pairs) == len(set(pairs)) == 1
    assert events[0].kind is EventKind.NMAC


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _single_aircraft_world(route_len=30 * NM, v_des=60 * KT, sector=None):
    route = Route([[0.0, 0.0], [route_len, 0.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=v_des)]
    return make_custom_world([route], spawns, sector=sector)


def test_step_speed_increments_and_clamping():
    world = _single_aircraft_world(v_des=100 * KT)
    step(world, {"A": Advisory.INCREASE})
    assert abs(world.get("A").cas - 105 * KT) < 1e-12
    for _ in range(40):
        step(world, {"A": Advisory.DECREASE})
    assert world.get("A").cas == 0.0
    step(world, {"A": Advisory.DECREASE})
    assert world.get("A").cas == 0.0


def test_step_clamps_at_v_max():
    world = _single_aircraft_world(v_des=148 * KT)
    step(world, {"A": Advisory.INCREASE})
    assert world.get("A").cas == world.sector.v_max


def test_eta_deadline_formula():
    world = _single_aircraft_world(route_len=30 * NM, v_des=60 * KT)
    ac = world.get("A")
    assert abs(ac.eta_deadline - (30 * NM / (60 * KT) + 1200.0)) < 1e-9
    assert abs(ac.eta_deadline - 3000.0) < 1e-9


def test_step_requires_exact_action_cover():
    world = _single_aircraft_world()
    with pytest.raises(ValueError):
        step(world, {})
    with pytest.raises(ValueError):
        step(world, {"A": Advisory.HOLD, "ghost": Advisory.HOLD})


def test_clock_advances_by_decision_interval():
    world = _single_aircraft_world()
    for k in range(5):
        step(world, {"A": Advisory.HOLD})
        assert world.clock == (k + 1) * world.sector.decision_interval


def test_waypoint_carryover_and_heading():
    # leg shorter than one step of travel: leftover distance lands on leg 2
    sector = SectorParams()
    route = Route([[0.0, 0.0], [30.0, 0.0], [30.0, 5000.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=100 * KT)]
    world = make_custom_world([route], spawns, sector=sector)
    step(world, {"A": Advisory.HOLD})
    ac = world.get("A")
    assert ac.leg == 1
    expected_leftover = 100 * KT - 30.0
    assert abs(ac.leg_offset - expected_leftover) < 1e-9
    assert abs(ac.heading - math.pi / 2) < 1e-12
    assert abs(ac.position[0] - 30.0) < 1e-9


def test_arrival_by_capture_radius():
    sector = SectorParams()
    route_len = 1000.0
    route = Route([[0.0, 0.0], [route_len, 0.0]])
    spawns = [PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=50.0)]
    world = make_custom_world([route], spawns, sector=sector)
    removals = {}
    for _ in range(30):
        res = step(world, {aid: Advisory.HOLD for aid in world.active_ids()})
        removals.update(res.removals)
        if world.is_done():
            break
    assert removals == {"A": AircraftStatus.ARRIVED}
    # capture fires within 100 m of the endpoint: 18 steps at 50 m/s puts it at 900 m
    assert world.clock == 18.0


def test_cross_track_error_stays_zero():
    world = make_world("training", 17)
    rng = np.random.default_rng(5)
    for _ in range(300):
        if world.is_done():
            break
        acts = {aid: Advisory(int(rng.integers(3))) for aid in world.active_ids()}
        step(world, acts)
        for ac in world.aircraft:
            a = ac.route.waypoints[ac.leg]
            d = ac.route.directions[ac.leg]
            rel = ac.position - a
            cross = abs(rel[0] * d[1] - rel[1] * d[0])
            assert cross < 1e-6


def test_removal_accounting_and_statuses():
    for seed in (0, 1, 2):
        world = make_world("training", seed)
        rng = np.random.default_rng(seed)
        removals = []
        for _ in range(30_000):
            if world.is_done():
                break
            acts = {aid: Advisory(int(rng.integers(3))) for aid in world.active_ids()}
            result = step(world, acts)
            # keys are the removed aircraft, in list order, and none is left aloft
            assert list(result.removals) == [aid for aid in acts if aid in result.removals]
            assert not set(result.removals) & set(world.active_ids())
            removals.extend(result.removals.items())
        assert world.is_done()
        assert len(removals) == world.n_spawned
        assert all(isinstance(cause, AircraftStatus) for _, cause in removals)
        ids = [aid for aid, _ in removals]
        assert len(set(ids)) == len(ids)


def test_replay_determinism_bit_identical():
    def run(seed):
        world = make_world("training", seed)
        rng = np.random.default_rng(123)
        trace = []
        for _ in range(400):
            if world.is_done():
                break
            acts = {aid: Advisory(int(rng.integers(3))) for aid in sorted(world.active_ids())}
            step(world, acts)
            for ac in sorted(world.aircraft, key=lambda a: a.aircraft_id):
                pos = ac.position
                trace.append((world.clock, ac.aircraft_id, pos[0], pos[1], ac.cas))
        return trace

    a = run(31)
    b = run(31)
    assert len(a) == len(b) > 0
    for ra, rb in zip(a, b):
        assert ra == rb  # bit-identical floats


def test_episode_terminates_within_deadline_bound():
    # hover-happy actions exercise the timeout path; the episode must still end
    for seed in (3, 8):
        world = make_world("headon", seed)
        deadlines = []
        last_spawn = 0.0
        for _ in range(10_000):
            if world.is_done():
                break
            for ac in world.aircraft:
                if ac.spawn_time == world.clock:
                    last_spawn = max(last_spawn, ac.spawn_time)
            deadlines.extend(ac.eta_deadline for ac in world.aircraft)
            step(world, {aid: Advisory.DECREASE for aid in world.active_ids()})
        assert world.is_done()
        assert world.clock <= max(deadlines) + 1.0


def test_nmac_removes_both_aircraft():
    sector = SectorParams()
    route_a = Route([[0.0, 0.0], [40 * NM, 0.0]])
    route_b = Route([[40 * NM, 0.0], [0.0, 0.0]])
    spawns = [
        PendingSpawn(time=0.0, aircraft_id="A", route_index=0, v_des=150 * KT),
        PendingSpawn(time=0.0, aircraft_id="B", route_index=1, v_des=150 * KT),
    ]
    world = make_custom_world([route_a, route_b], spawns, sector=sector)
    causes = []
    events = []
    for _ in range(3000):
        if world.is_done():
            break
        res = step(world, {aid: Advisory.HOLD for aid in world.active_ids()})
        causes.extend(res.removals.values())
        events.extend(res.events)
    assert causes == [AircraftStatus.NMAC_REMOVED, AircraftStatus.NMAC_REMOVED]
    assert sum(1 for e in events if e.kind is EventKind.NMAC) == 1


def test_arrival_takes_precedence_over_nmac_and_removals_keep_list_order():
    # A is 50 m from its route's end and B is 71 m from A after the move, so
    # both are in an NMAC pair and A also arrives: A is reported as arrived
    def aircraft(aid, start, end, offset):
        return AircraftState(
            aircraft_id=aid, route=Route([start, end]), leg=0, leg_offset=offset,
            cas=10.0, v_des=10.0, spawn_time=0.0, eta_deadline=1e9,
        )

    world = WorldState(
        sector=SectorParams(),
        routes=[],
        rng=np.random.default_rng(0),
        aircraft=[
            aircraft("B", [1000.0, 50.0], [1000.0 + 200 * NM, 50.0], 0.0),
            aircraft("A", [0.0, 0.0], [1000.0, 0.0], 950.0),
        ],
    )
    res = step(world, {"A": Advisory.HOLD, "B": Advisory.HOLD})
    assert [(e.kind, e.pair) for e in res.events] == [(EventKind.NMAC, ("A", "B"))]
    assert list(res.removals.items()) == [
        ("B", AircraftStatus.NMAC_REMOVED),
        ("A", AircraftStatus.ARRIVED),
    ]
    assert world.aircraft == []


def _stopped_pair_world(early_termination):
    # two aircraft directly placed 2 NM apart (inside the protection zone) at 5 kt
    world = _two_aircraft_world([0, 0], [5 * KT, 0], [2 * NM, 0], [5 * KT, 0])
    world.early_termination = early_termination
    return world


def test_early_termination_only_when_enabled():
    world = _stopped_pair_world(early_termination=True)
    res = step(world, {aid: Advisory.DECREASE for aid in world.active_ids()})
    # one decrease stops both inside LoS: both are terminated early
    assert res.removals == {"A": AircraftStatus.EARLY_TERMINATED, "B": AircraftStatus.EARLY_TERMINATED}
    assert all(res.post_move[aid].cas == 0.0 for aid in res.removals)

    world2 = _stopped_pair_world(early_termination=False)
    for _ in range(5):
        res = step(world2, {aid: Advisory.DECREASE for aid in world2.active_ids()})
        assert not res.removals


def test_head_on_routes_cross_at_center():
    r1, r2 = head_on_routes()
    d1 = r1.directions[0]
    d2 = r2.directions[0]
    angle = math.degrees(math.acos(np.clip(d1 @ d2, -1, 1)))
    assert 150.0 <= angle <= 180.0
    assert np.allclose((r1.waypoints[0] + r1.waypoints[1]) / 2, [0, 0], atol=1e-9)
    assert np.allclose((r2.waypoints[0] + r2.waypoints[1]) / 2, [0, 0], atol=1e-9)


def test_make_world_kinds():
    for kind in ("training", "a", "b", "c", "headon"):
        world = make_world(kind, 5)
        assert world.n_spawned + len(world.spawn_queue) >= 1
        assert world.early_termination == (kind == "c")
