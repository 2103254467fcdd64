"""Egocentric-feature oracles: pairwise geometry, normalization, invariances."""

import math

import numpy as np
import pytest

from airsep.airspace import (
    KT,
    NM,
    AircraftState,
    Route,
    SectorParams,
    WorldState,
)
from airsep.featurize import INTRUDER_FEATURES, featurize


def _aircraft(aid, pos, heading, cas, v_des=None):
    pos = np.asarray(pos, dtype=np.float64)
    direction = np.array([math.cos(heading), math.sin(heading)])
    route = Route([pos, pos + direction * 100 * NM])
    return AircraftState(
        aircraft_id=aid, route=route, leg=0, leg_offset=0.0,
        cas=cas, v_des=v_des if v_des is not None else cas,
        spawn_time=0.0, eta_deadline=1e9,
    )


def _world(aircraft, sector=None):
    return WorldState(
        sector=sector or SectorParams(),
        routes=[],
        rng=np.random.default_rng(0),
        aircraft=list(aircraft),
    )


# ---------------------------------------------------------------------------
# pairwise geometry, read through the intruder row
# ---------------------------------------------------------------------------


def _row(own, intr):
    return dict(zip(INTRUDER_FEATURES, featurize(_world([own, intr]), own.aircraft_id).intruders[0]))


def test_three_four_five_bearing():
    own = _aircraft("A", [0, 0], math.pi / 2, 100 * KT)
    intr = _aircraft("B", [3 * NM, 4 * NM], 0.0, 100 * KT)
    row = _row(own, intr)
    sector = SectorParams()
    d = row["d_nmac"] * 2 * sector.sector_radius + sector.r_nmac
    assert abs(d - 5 * NM) < 1e-9
    assert abs(row["sin_theta"] + 0.6) < 1e-12
    assert abs(row["cos_theta"] - 0.8) < 1e-12


def test_radial_tangential_projection():
    own = _aircraft("A", [0, 0], 0.0, 10 * KT)               # eastbound at 10 kt
    intr = _aircraft("B", [1 * NM, 0], math.pi / 2, 5 * KT)  # northbound at 5 kt
    row = _row(own, intr)
    v_max = SectorParams().v_max
    assert abs(row["v_p"] * v_max - (-10 * KT)) < 1e-12
    assert abs(row["v_psi"] * v_max - 5 * KT) < 1e-12


def test_dead_ahead_bearing():
    own = _aircraft("A", [0, 0], 0.7, 100 * KT)
    ahead = np.array([math.cos(0.7), math.sin(0.7)]) * 2 * NM
    intr = _aircraft("B", ahead, 0.7, 100 * KT)
    row = _row(own, intr)
    assert abs(row["sin_theta"]) < 1e-12
    assert abs(row["cos_theta"] - 1.0) < 1e-12


def test_coincident_positions_give_zero_bearing_and_closure():
    own = _aircraft("A", [1000.0, 2000.0], 0.0, 50 * KT)
    intr = _aircraft("B", [1000.0, 2000.0], 1.0, 80 * KT)
    row = _row(own, intr)
    sector = SectorParams()
    assert row["d_nmac"] == -sector.r_nmac / (2 * sector.sector_radius)
    assert row["sin_theta"] == 0.0 and row["cos_theta"] == 1.0
    assert row["v_p"] == 0.0 and row["v_psi"] == 0.0
    assert row["b_los"] == 1.0


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_single_aircraft_has_empty_intruder_set():
    world = _world([_aircraft("A", [0, 0], 0.0, 100 * KT, v_des=110 * KT)])
    obs = featurize(world, "A")
    assert obs.intruders.shape == (0, len(INTRUDER_FEATURES))
    sector = world.sector
    assert abs(obs.ownship[0] - 100 * KT / sector.v_max) < 1e-12
    assert abs(obs.ownship[1] - 10 * KT / sector.v_max) < 1e-12


def test_exact_protection_zone_boundary():
    own = _aircraft("A", [0, 0], 0.0, 100 * KT)
    intr = _aircraft("B", [5 * NM, 0], 0.0, 100 * KT)
    world = _world([own, intr])
    row = featurize(world, "A").intruders[0]
    feat = dict(zip(INTRUDER_FEATURES, row))
    assert feat["b_los"] == 1.0
    assert feat["d_pz"] == 0.0
    assert feat["d_nmac"] > 0.0


def test_speed_deviation_zero_at_desired():
    world = _world([_aircraft("A", [0, 0], 0.0, 100 * KT, v_des=100 * KT)])
    assert featurize(world, "A").ownship[1] == 0.0


def test_intruder_count_and_unit_circle():
    rng = np.random.default_rng(3)
    aircraft = [
        _aircraft(f"AC{i}", rng.uniform(-20 * NM, 20 * NM, 2), rng.uniform(-np.pi, np.pi), rng.uniform(0, 150 * KT))
        for i in range(6)
    ]
    world = _world(aircraft)
    obs = featurize(world, "AC2")
    assert obs.intruders.shape == (5, 7)
    sin_col = obs.intruders[:, 2]
    cos_col = obs.intruders[:, 3]
    assert np.max(np.abs(sin_col**2 + cos_col**2 - 1.0)) < 1e-12
    assert np.all(np.isfinite(obs.intruders))


def test_inactive_aircraft_rejected():
    world = _world([_aircraft("A", [0, 0], 0.0, 100 * KT)])
    with pytest.raises(KeyError):
        featurize(world, "ghost")


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def _random_world(rng, n=4):
    aircraft = [
        _aircraft(
            f"AC{i}",
            rng.uniform(-20 * NM, 20 * NM, 2),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(0.0, 150 * KT),
            v_des=rng.uniform(60 * KT, 120 * KT),
        )
        for i in range(n)
    ]
    return _world(aircraft)


def _transform_world(world, rot, shift):
    c, s = math.cos(rot), math.sin(rot)
    mat = np.array([[c, -s], [s, c]])
    moved = []
    for ac in world.aircraft:
        wpts = ac.route.waypoints @ mat.T + shift
        moved.append(
            AircraftState(
                aircraft_id=ac.aircraft_id, route=Route(wpts), leg=ac.leg,
                leg_offset=ac.leg_offset, cas=ac.cas, v_des=ac.v_des,
                spawn_time=ac.spawn_time, eta_deadline=ac.eta_deadline,
            )
        )
    return _world(moved, sector=world.sector)


def test_frame_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        world = _random_world(rng)
        rot = rng.uniform(0, 2 * np.pi)
        shift = rng.uniform(-50 * NM, 50 * NM, 2)
        moved = _transform_world(world, rot, shift)
        for aid in world.active_ids():
            a = featurize(world, aid)
            b = featurize(moved, aid)
            assert np.max(np.abs(a.ownship - b.ownship)) < 1e-9
            if a.intruders.size:
                assert np.max(np.abs(a.intruders - b.intruders)) < 1e-9


def _mirror_world_about_heading(world, own_id):
    own = world.get(own_id)
    phi = own.heading
    origin = own.position.copy()
    c2, s2 = math.cos(2 * phi), math.sin(2 * phi)
    refl = np.array([[c2, s2], [s2, -c2]])
    mirrored = []
    for ac in world.aircraft:
        wpts = (ac.route.waypoints - origin) @ refl.T + origin
        mirrored.append(
            AircraftState(
                aircraft_id=ac.aircraft_id, route=Route(wpts), leg=ac.leg,
                leg_offset=ac.leg_offset, cas=ac.cas, v_des=ac.v_des,
                spawn_time=ac.spawn_time, eta_deadline=ac.eta_deadline,
            )
        )
    return _world(mirrored, sector=world.sector)


def test_mirror_symmetry_negates_lateral_features():
    rng = np.random.default_rng(23)
    for _ in range(100):
        world = _random_world(rng)
        own_id = "AC0"
        mirrored = _mirror_world_about_heading(world, own_id)
        a = featurize(world, own_id)
        b = featurize(mirrored, own_id)
        assert np.max(np.abs(a.ownship - b.ownship)) < 1e-9
        # d_nmac, d_pz, cos, b_los, v_p preserved; sin and v_psi negated
        for col in (0, 1, 3, 4, 5):
            assert np.max(np.abs(a.intruders[:, col] - b.intruders[:, col])) < 1e-9
        for col in (2, 6):
            assert np.max(np.abs(a.intruders[:, col] + b.intruders[:, col])) < 1e-9


def test_b_los_matches_raw_geometry():
    rng = np.random.default_rng(7)
    sector = SectorParams()
    checked = 0
    for _ in range(2500):
        world = _random_world(rng)
        obs = featurize(world, "AC0")
        own = world.get("AC0")
        others = sorted((a for a in world.aircraft if a.aircraft_id != "AC0"), key=lambda a: a.aircraft_id)
        for row, intr in zip(obs.intruders, others):
            inside = float(np.linalg.norm(intr.position - own.position)) <= sector.r_pz
            assert row[4] == (1.0 if inside else 0.0)
            checked += 1
    assert checked >= 7000


def test_bearing_continuity_across_pi():
    own = _aircraft("A", [0, 0], 0.0, 100 * KT)
    d = 10 * NM
    eps = 1e-7
    rows = []
    for bearing in (math.pi - eps, math.pi + eps):
        intr = _aircraft("B", [d * math.cos(bearing), d * math.sin(bearing)], 0.0, 100 * KT)
        rows.append(featurize(_world([own, intr]), "A").intruders[0])
    assert np.max(np.abs(rows[0] - rows[1])) < 1e-5
