"""Deterministic speed-only airspace simulation kernel.

Everything internal is SI (meters, m/s, seconds, radians, math convention:
angles CCW from east); knots, nautical miles and feet appear only at
configuration and reporting boundaries. A world is confined to one execution
context and is driven one decision interval at a time by :func:`step`;
distinct worlds are fully independent.
"""

import bisect
import csv
import enum
import math
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

NM = 1852.0                  # nautical mile, m
FT = 0.3048                  # foot, m
KT = 1852.0 / 3600.0         # knot, m/s

MIN_ENDPOINT_SEPARATION = 5.0 * NM
ENDPOINT_RESAMPLE_CAP = 10_000

# fixed two-route crossing used by the scaled-down learning scenario
HEAD_ON_ANGLE = math.radians(160.0)
HEAD_ON_HALF_LENGTH = 8.0 * NM
HEAD_ON_SPEED = 110.0 * KT
HEAD_ON_JITTER = 30.0


class ScenarioError(Exception):
    """Scenario generation failed (statistically unreachable resample cap, bad ids)."""


class Advisory(enum.IntEnum):
    """Three-way speed advisory; value doubles as the policy action index."""

    DECREASE = 0
    HOLD = 1
    INCREASE = 2

    @property
    def speed_delta_steps(self):
        return int(self) - 1


class EventKind(enum.Enum):
    CONFLICT = "conflict"
    LOS = "los"
    NMAC = "nmac"


class AircraftStatus(enum.Enum):
    ARRIVED = "arrived"
    TIMED_OUT = "timed_out"
    NMAC_REMOVED = "nmac_removed"
    EARLY_TERMINATED = "early_terminated"


class EnvKind(enum.Enum):
    TRAINING = "training"
    CASE_A = "a"
    CASE_B = "b"
    CASE_C = "c"
    HEAD_ON = "headon"


@dataclass(frozen=True)
class SectorParams:
    """Sector geometry, speed envelope and timing constants (SI units)."""

    sector_radius: float = 30.0 * NM
    r_pz: float = 5.0 * NM               # protection-zone radius
    r_nmac: float = 500.0 * FT           # near mid-air collision radius
    v_min: float = 0.0
    v_max: float = 150.0 * KT
    speed_increment: float = 5.0 * KT
    decision_interval: float = 1.0
    lookahead: float = 120.0             # conflict look-ahead horizon
    arrival_capture_radius: float = 100.0
    timeout_buffer: float = 20.0 * 60.0

    def __post_init__(self):
        if not (self.r_nmac < self.r_pz < self.sector_radius):
            raise ValueError("require r_nmac < r_pz < sector_radius")
        if self.v_min != 0.0 or self.v_max < self.v_min:
            raise ValueError("require v_min = 0 <= v_max")
        if self.speed_increment <= 0.0:
            raise ValueError("speed_increment must be positive")
        if self.decision_interval <= 0.0 or self.lookahead <= 0.0:
            raise ValueError("decision_interval and lookahead must be positive")


class Route:
    """Polyline of 2-D waypoints (m); consecutive waypoints must be distinct.

    ``waypoints`` and the unit ``directions`` of its legs are read-only arrays.
    """

    __slots__ = ("waypoints", "directions", "_leg_lengths")

    def __init__(self, waypoints):
        pts = np.asarray(waypoints, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("a route needs at least two 2-D waypoints")
        steps = np.diff(pts, axis=0)
        legs = np.linalg.norm(steps, axis=1)
        if np.any(legs == 0.0):
            raise ValueError("consecutive waypoints must be distinct")
        directions = steps / legs[:, None]
        pts.setflags(write=False)
        directions.setflags(write=False)
        self.waypoints = pts
        self.directions = directions
        self._leg_lengths = legs

    @property
    def n_legs(self):
        return len(self._leg_lengths)

    def leg_length(self, leg):
        return float(self._leg_lengths[leg])

    @property
    def length(self):
        return float(self._leg_lengths.sum())

    def __repr__(self):
        return f"Route({len(self.waypoints)} waypoints, {self.length / NM:.1f} NM)"


@dataclass(order=True)
class PendingSpawn:
    time: float
    aircraft_id: str
    route_index: int = field(compare=False)
    v_des: float = field(compare=False)


@dataclass
class AircraftState:
    """One aircraft riding its route polyline; position derives from (leg, offset)."""

    aircraft_id: str
    route: Route
    leg: int
    leg_offset: float
    cas: float                 # calibrated airspeed, the sole controlled quantity
    v_des: float
    spawn_time: float
    eta_deadline: float

    @property
    def position(self):
        return self.route.waypoints[self.leg] + self.route.directions[self.leg] * self.leg_offset

    @property
    def heading(self):
        d = self.route.directions[self.leg]
        return math.atan2(d[1], d[0])

    @property
    def velocity(self):
        return self.route.directions[self.leg] * self.cas


@dataclass(frozen=True)
class SafetyEvent:
    kind: EventKind
    pair: tuple
    time: float
    t_los: float | None = None


@dataclass(frozen=True)
class StepResult:
    events: tuple
    removals: dict             # id -> AircraftStatus of each aircraft removed, in list order
    post_move: dict            # id -> post-move AircraftState snapshot, pre-removal/spawn


@dataclass
class WorldState:
    """Global simulation state: active aircraft, geometry, clock, pending spawns."""

    sector: SectorParams
    routes: list
    rng: np.random.Generator | None = None  # never read; callers may still pass one
    clock: float = 0.0
    aircraft: list = field(default_factory=list)
    spawn_queue: list = field(default_factory=list)
    early_termination: bool = False
    n_spawned: int = 0
    # the last pairwise pass; reused while every input it read is unchanged
    _pairs: "PairGeometry | None" = field(default=None, init=False, repr=False, compare=False)

    def active_ids(self):
        return [ac.aircraft_id for ac in self.aircraft]

    def get(self, aircraft_id):
        for ac in self.aircraft:
            if ac.aircraft_id == aircraft_id:
                return ac
        raise KeyError(f"no active aircraft {aircraft_id!r}")

    def is_done(self):
        return not self.aircraft and not self.spawn_queue


# ---------------------------------------------------------------------------
# conflict geometry
# ---------------------------------------------------------------------------


# The pass below computes every quantity with the arithmetic of the
# per-aircraft ``position``/``velocity``/``heading`` properties and scalar
# formulas (``np.linalg.norm``, ``a @ b``, ``math.atan2`` and an angle wrap),
# so its rows equal a per-pair loop's bit for bit. That matters: a PPO run is
# chaotic in the last bit of its inputs, and a rounding difference in one
# feature gives a different training run a few updates later. Dot products
# of 2-vectors therefore go through numpy's dot routine (a BLAS ddot, which
# ``np.linalg.norm`` and ``a @ b`` use for one vector): matmul of (1, 2) by
# (2, 1) blocks calls it once per block, whereas ``x*x + y*y`` or ``einsum``
# round differently.


def _dots(a, b):
    """a . b over the last axis of two 2-D vector arrays, rounded as ``a @ b`` for one pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def separation(rel):
    """Length of 2-D offsets along the last axis; the one distance formula of the package."""
    rel = np.asarray(rel, dtype=np.float64)
    return np.sqrt(_dots(rel, rel))


def _los_time(pp, pv, vv, r):
    """Elementwise :func:`time_to_los` from the dot products p.p, p.v and v.v.

    0 where p.p <= r^2, else the smaller root of
    ||v||^2 t^2 + 2 (p.v) t + ||p||^2 - r^2 = 0, or inf when the pair never
    closes to ``r`` (no motion, a negative discriminant or a root behind).
    """
    c = pp - r * r
    b = 2.0 * pv
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (-b - np.sqrt(b * b - 4.0 * vv * c)) / (2.0 * vv)
    return np.where(c <= 0.0, 0.0, np.where(t >= 0.0, t, np.inf))


def time_to_los(p, v, r):
    """Smallest t >= 0 with ||p + v t|| = r, or None if the pair never closes to r.

    Returns 0.0 when the separation is already <= r.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    p = np.array(p, dtype=np.float64).reshape(1, 2)
    v = np.array(v, dtype=np.float64).reshape(1, 2)
    t = float(_los_time(_dots(p, p), _dots(p, v), _dots(v, v), r)[0])
    return None if t == math.inf else t


def _bearing(y, x, d, heading):
    """(sin, cos) of the direction of (x, y), of length d, relative to ``heading``.

    The angle is wrapped to (-pi, pi]; a zero-length offset has bearing 0.
    """
    if d == 0.0:
        return 0.0, 1.0
    a = (math.atan2(y, x) - heading + math.pi) % (2.0 * math.pi) - math.pi
    if a <= -math.pi:
        a += 2.0 * math.pi
    return math.sin(a), math.cos(a)


_bearings = np.frompyfunc(_bearing, 4, 2)


#: column order of one egocentric intruder row
INTRUDER_FEATURES = ("d_nmac", "d_pz", "sin_theta", "cos_theta", "b_los", "v_p", "v_psi")


class PairGeometry(NamedTuple):
    """All-pairs geometry of one world state, rows and columns in aircraft-id order.

    Entry ``[i, j]`` describes aircraft ``j`` as seen from aircraft ``i``.
    ``intruders[i, j]`` is j's egocentric row for i, columns as in
    :data:`INTRUDER_FEATURES`: the separation minus r_nmac and minus r_pz,
    in sector diameters; the sine and cosine of j's bearing relative to i's
    heading; 1.0 if the separation is <= r_pz, else 0.0; and the radial and
    tangential components of j's velocity relative to i, in v_max (radial
    along i->j, tangential a quarter turn CCW from it). Coincident aircraft
    have bearing 0 and zero closure.
    """

    key: tuple
    ids: tuple
    index: dict              # aircraft id -> row
    dist: np.ndarray         # (n, n) separations, m
    t_los: np.ndarray        # (n, n) time to loss of separation, s: 0 once p.p <= r_pz^2, inf if never
    intruders: np.ndarray    # (n, n, 7)


_BY_ID = operator.attrgetter("aircraft_id")
_PASS_INPUTS = operator.attrgetter("aircraft_id", "route", "leg", "leg_offset", "cas")


def pair_geometry(world):
    """The world's pairwise pass, recomputed only when an input it reads has changed.

    Those inputs are the sector and each aircraft's id, route (by identity),
    leg, leg offset and airspeed, in list order; the clock is not one of them.
    """
    key = (world.sector, tuple(map(_PASS_INPUTS, world.aircraft)))
    pairs = world._pairs
    if pairs is None or pairs.key != key:
        pairs = world._pairs = _pairwise_pass(world.sector, world.aircraft, key)
    return pairs


def _pairwise_pass(sector, aircraft, key):
    acs = sorted(aircraft, key=_BY_ID)
    n = len(acs)
    legs = np.array([
        (ac.route.waypoints[ac.leg], ac.route.directions[ac.leg], (ac.leg_offset, ac.cas)) for ac in acs
    ])
    kin = legs[:, 1, None, :] * legs[:, 2, :, None]   # heading times (leg offset, airspeed)
    kin[:, 0] += legs[:, 0]                           # plus the leg start: (position, velocity)
    rel = kin - kin[:, None]                          # [i, j]: aircraft j relative to aircraft i
    p, v = rel[:, :, 0], rel[:, :, 1]
    squares = _dots(rel, rel)
    pp, vv, pv = squares[..., 0], squares[..., 1], _dots(p, v)
    dist = np.sqrt(pp)
    coincident = dist == 0.0
    # unit vector i->j and a quarter turn CCW from it; coincident pairs have neither and no closure
    radial = p / (dist + coincident)[..., None]
    closure = _dots(np.stack((radial, radial[..., ::-1] * (-1.0, 1.0)), axis=-2), v[:, :, None])
    heading = np.array([math.atan2(y, x) for x, y in legs[:, 1].tolist()])
    intruders = np.empty((n, n, len(INTRUDER_FEATURES)))
    intruders[..., :2] = (dist[..., None] - (sector.r_nmac, sector.r_pz)) / (2.0 * sector.sector_radius)
    intruders[..., 2], intruders[..., 3] = _bearings(p[..., 1], p[..., 0], dist, heading[:, None])
    intruders[..., 4] = dist <= sector.r_pz
    intruders[..., 5:] = np.where(coincident[..., None], 0.0, closure) / sector.v_max
    ids = tuple(ac.aircraft_id for ac in acs)
    t_los = _los_time(pp, pv, vv, sector.r_pz)
    return PairGeometry(key, ids, {aid: k for k, aid in enumerate(ids)}, dist, t_los, intruders)


def detect_events(world):
    """Classify every active unordered pair: NMAC, else LoS, else predicted conflict.

    Boundaries are inclusive; the three kinds are mutually exclusive per pair.
    Conflict prediction extrapolates current straight-line velocities (upcoming
    waypoint turns are ignored) out to the look-ahead horizon. Events come in
    id order of the pair, first member first.
    """
    if len(world.aircraft) < 2:
        return []
    sector = world.sector
    pairs = pair_geometry(world)
    rows, cols = np.nonzero((pairs.dist <= sector.r_pz) | (pairs.t_los <= sector.lookahead))
    events = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i >= j:
            continue
        pair = (pairs.ids[i], pairs.ids[j])
        sep = pairs.dist[i, j]
        if sep <= sector.r_nmac:
            events.append(SafetyEvent(EventKind.NMAC, pair, world.clock))
        elif sep <= sector.r_pz:
            events.append(SafetyEvent(EventKind.LOS, pair, world.clock))
        else:
            t = float(pairs.t_los[i, j])
            events.append(SafetyEvent(EventKind.CONFLICT, pair, world.clock, t_los=t))
    return events


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _advance_along_route(ac, dist):
    """Move ``dist`` meters along the polyline, carrying leftover across waypoints.

    Returns True when the aircraft reached its destination: it overshot the
    final waypoint, or finished within the capture radius on the final leg.
    """
    route = ac.route
    last = route.n_legs - 1
    while dist > 0.0:
        remaining = route.leg_length(ac.leg) - ac.leg_offset
        if dist < remaining:
            ac.leg_offset += dist
            dist = 0.0
        else:
            dist -= remaining
            if ac.leg == last:
                ac.leg_offset = route.leg_length(last)
                return True
            ac.leg += 1
            ac.leg_offset = 0.0
    return False


def _arrival_capture(ac, capture_radius):
    last = ac.route.n_legs - 1
    return ac.leg == last and (ac.route.leg_length(last) - ac.leg_offset) <= capture_radius


def _insert_due_spawns(world):
    """Activate queued spawns whose time has come; defer any that would be born in LoS."""
    sector = world.sector
    while world.spawn_queue and world.spawn_queue[0].time <= world.clock:
        sp = world.spawn_queue.pop(0)
        route = world.routes[sp.route_index]
        origin = route.waypoints[0]
        blocked = any(separation(ac.position - origin) <= sector.r_pz for ac in world.aircraft)
        if blocked:
            deferred = replace(sp, time=world.clock + sector.decision_interval)
            bisect.insort(world.spawn_queue, deferred)
            continue
        spawn_time = world.clock
        world.aircraft.append(
            AircraftState(
                aircraft_id=sp.aircraft_id,
                route=route,
                leg=0,
                leg_offset=0.0,
                cas=min(sp.v_des, sector.v_max),
                v_des=sp.v_des,
                spawn_time=spawn_time,
                eta_deadline=spawn_time + route.length / sp.v_des + sector.timeout_buffer,
            )
        )
        world.n_spawned += 1


def step(world, joint_actions):
    """Advance the world by one decision interval under the given advisories.

    In order: instantaneous +/-one-increment speed change clamped to the
    envelope; movement along routes; safety-event detection; removals; due
    spawns. ``joint_actions`` must cover exactly the active aircraft. An
    aircraft is removed with one cause, the first that holds of: arrival,
    timeout, NMAC, stopped inside a LoS when early termination is enabled.
    ``StepResult.removals`` maps each removed id to its cause, and the
    post-move state map lets callers score agents removed this step.
    """
    sector = world.sector
    active = list(world.aircraft)
    ids = {ac.aircraft_id for ac in active}
    if set(joint_actions) != ids:
        missing = ids - set(joint_actions)
        unknown = set(joint_actions) - ids
        raise ValueError(f"joint actions mismatch: missing={sorted(missing)} unknown={sorted(unknown)}")

    for ac in active:
        delta = Advisory(joint_actions[ac.aircraft_id]).speed_delta_steps * sector.speed_increment
        ac.cas = min(max(ac.cas + delta, sector.v_min), sector.v_max)

    arrived = set()
    for ac in active:
        overshot = _advance_along_route(ac, ac.cas * sector.decision_interval)
        if overshot or _arrival_capture(ac, sector.arrival_capture_radius):
            arrived.add(ac.aircraft_id)

    world.clock += sector.decision_interval
    events = detect_events(world)
    post_move = {ac.aircraft_id: replace(ac) for ac in active}

    nmac_ids = {i for e in events if e.kind is EventKind.NMAC for i in e.pair}
    los_ids = {i for e in events if e.kind is EventKind.LOS for i in e.pair}
    removals = {}
    for ac in active:
        aid = ac.aircraft_id
        if aid in arrived:
            removals[aid] = AircraftStatus.ARRIVED
        elif world.clock > ac.eta_deadline:
            removals[aid] = AircraftStatus.TIMED_OUT
        elif aid in nmac_ids:
            removals[aid] = AircraftStatus.NMAC_REMOVED
        elif world.early_termination and aid in los_ids and ac.cas == 0.0:
            removals[aid] = AircraftStatus.EARLY_TERMINATED
    world.aircraft[:] = [ac for ac in active if ac.aircraft_id not in removals]

    _insert_due_spawns(world)
    return StepResult(events=tuple(events), removals=removals, post_move=post_move)


# ---------------------------------------------------------------------------
# scenario geometry
# ---------------------------------------------------------------------------


def _uniform_disk_point(rng, radius):
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(phi), r * math.sin(phi)])


def _boundary_point(radius, bearing):
    return np.array([radius * math.cos(bearing), radius * math.sin(bearing)])


def rotate_routes(routes, angle):
    """Rigidly rotate every route about the sector center."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return [Route(r.waypoints @ rot.T) for r in routes]


def generate_training_sector(rng, sector=None):
    """Two random 2-waypoint routes inside the sector disk.

    All four endpoints are drawn uniformly in the disk and rejection-resampled
    as a group until every pairwise endpoint distance is at least 5 NM;
    traversal direction of each route is then chosen uniformly.
    """
    sector = sector or SectorParams()
    for _ in range(ENDPOINT_RESAMPLE_CAP):
        pts = [_uniform_disk_point(rng, sector.sector_radius) for _ in range(4)]
        ok = all(
            np.linalg.norm(pts[i] - pts[j]) >= MIN_ENDPOINT_SEPARATION
            for i in range(4)
            for j in range(i + 1, 4)
        )
        if ok:
            routes = []
            for a, b in ((pts[0], pts[1]), (pts[2], pts[3])):
                if rng.uniform() < 0.5:
                    a, b = b, a
                routes.append(Route([a, b]))
            return routes
    raise ScenarioError(f"no admissible endpoints after {ENDPOINT_RESAMPLE_CAP} draws")


def _case_a_routes(sector):
    # three boundary entries merging at the center, sharing one outbound leg
    r = sector.sector_radius
    merge = np.array([0.0, 0.0])
    exit_point = _boundary_point(r, 0.0)
    entries = [_boundary_point(r, math.radians(b)) for b in (150.0, 180.0, 210.0)]
    return [Route([e, merge, exit_point]) for e in entries]


def _case_b_routes(sector):
    routes = _case_a_routes(sector)
    r = sector.sector_radius
    # perpendicular crossing through the midpoint of the shared outbound leg
    x = r / 2.0
    y = math.sqrt(r * r - x * x)
    routes.append(Route([np.array([x, -y]), np.array([x, y])]))
    return routes


def generate_case(case, rng, sector=None, n_aircraft=None, rotation=None):
    """Evaluation-scenario routes.

    Case A: three routes merging at the sector center onto one shared outbound
    leg. Case B: case A plus a perpendicular route crossing the outbound leg at
    its midpoint (a four-way intersection). Both are rotated rigidly, by
    ``rotation`` if given, otherwise by an angle drawn uniformly from a full
    turn. Case C: one independent route per aircraft, endpoints uniform on the
    boundary circle with one interior waypoint uniform in the disk.
    """
    sector = sector or SectorParams()
    case = EnvKind(case)
    if case in (EnvKind.CASE_A, EnvKind.CASE_B):
        routes = _case_a_routes(sector) if case is EnvKind.CASE_A else _case_b_routes(sector)
        angle = rng.uniform(0.0, 2.0 * math.pi) if rotation is None else float(rotation)
        return rotate_routes(routes, angle)
    if case is EnvKind.CASE_C:
        if n_aircraft is None or n_aircraft < 1:
            raise ValueError("case c needs n_aircraft >= 1")
        routes = []
        for _ in range(n_aircraft):
            b1, b2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            mid = _uniform_disk_point(rng, sector.sector_radius)
            routes.append(
                Route([
                    _boundary_point(sector.sector_radius, b1),
                    mid,
                    _boundary_point(sector.sector_radius, b2),
                ])
            )
        return routes
    raise ValueError(f"unknown evaluation case {case!r}")


def head_on_routes():
    """Fixed pair of routes crossing at the center, traversed toward each other."""
    u1 = np.array([1.0, 0.0])
    u2 = np.array([math.cos(HEAD_ON_ANGLE), math.sin(HEAD_ON_ANGLE)])
    d = HEAD_ON_HALF_LENGTH
    return [Route([-d * u1, d * u1]), Route([-d * u2, d * u2])]


# ---------------------------------------------------------------------------
# spawn schedules and world assembly
# ---------------------------------------------------------------------------

_SPEED_RANGE_KT = (60.0, 120.0)
_FIXED_SPEED_KT = 110.0
_SPACING_RANGE = (60.0, 1200.0)


def build_spawn_schedule(rng, env_kind, routes, n_aircraft=None):
    """Time-ordered pending spawns for one episode.

    Aircraft count defaults to U{1..20}, and is 2 for the head-on scenario.
    Case C spawns one aircraft on each route, so its count is the route count
    (U{1..10} by default, drawn by :func:`make_world`). Desired speeds are
    U(60, 120) kt for training and case C and fixed 110 kt for cases A/B.
    Consecutive spawns sharing a route origin are spaced by independent
    U(60, 1200) s draws, anchored at time zero. The head-on scenario spawns
    one aircraft per route at 110 kt, the second delayed by a small jitter.
    """
    env_kind = EnvKind(env_kind)

    if env_kind is EnvKind.HEAD_ON:
        if len(routes) != 2:
            raise ScenarioError("head-on scenario expects exactly two routes")
        jitter = rng.uniform(0.0, HEAD_ON_JITTER)
        return [
            PendingSpawn(time=0.0, aircraft_id="AC000", route_index=0, v_des=HEAD_ON_SPEED),
            PendingSpawn(time=jitter, aircraft_id="AC001", route_index=1, v_des=HEAD_ON_SPEED),
        ]

    if env_kind is EnvKind.CASE_C:
        n = len(routes)
    elif n_aircraft is not None:
        n = int(n_aircraft)
    else:
        n = int(rng.integers(1, 21))
    if n < 1:
        raise ScenarioError("need at least one aircraft")

    spawns = []
    last_time_by_route = {}
    for k in range(n):
        if env_kind is EnvKind.CASE_C:
            route_index = k
        else:
            route_index = int(rng.integers(0, len(routes)))
        if env_kind in (EnvKind.CASE_A, EnvKind.CASE_B):
            v_des = _FIXED_SPEED_KT * KT
        else:
            v_des = rng.uniform(*_SPEED_RANGE_KT) * KT
        spacing = rng.uniform(*_SPACING_RANGE)
        t = last_time_by_route.get(route_index, 0.0) + spacing
        last_time_by_route[route_index] = t
        spawns.append(PendingSpawn(time=t, aircraft_id=f"AC{k:03d}", route_index=route_index, v_des=v_des))
    spawns.sort()
    return spawns


def make_world(env_kind, rng, sector=None, n_aircraft=None):
    """Assemble a fresh seeded world for one episode of the given scenario kind.

    ``rng`` may be a numpy Generator or an integer seed. Stopped-in-LoS early
    termination is enabled for case C only.
    """
    env_kind = EnvKind(env_kind)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    sector = sector or SectorParams()

    if env_kind is EnvKind.TRAINING:
        routes = generate_training_sector(rng, sector)
    elif env_kind is EnvKind.HEAD_ON:
        routes = head_on_routes()
    elif env_kind is EnvKind.CASE_C:
        n_aircraft = int(rng.integers(1, 11)) if n_aircraft is None else int(n_aircraft)
        routes = generate_case(env_kind, rng, sector, n_aircraft=n_aircraft)
    else:
        routes = generate_case(env_kind, rng, sector)

    spawn_queue = build_spawn_schedule(rng, env_kind, routes, n_aircraft=n_aircraft)
    world = WorldState(
        sector=sector,
        routes=routes,
        spawn_queue=spawn_queue,
        early_termination=env_kind is EnvKind.CASE_C,
    )
    _insert_due_spawns(world)
    return world


def make_custom_world(routes, spawns, sector=None):
    """World from explicit routes and pending spawns (scripted tests and demos)."""
    sector = sector or SectorParams()
    ids = [sp.aircraft_id for sp in spawns]
    if len(set(ids)) != len(ids):
        raise ScenarioError("spawn ids must be unique")
    world = WorldState(sector=sector, routes=list(routes), spawn_queue=sorted(spawns))
    _insert_due_spawns(world)
    return world


# ---------------------------------------------------------------------------
# event log output
# ---------------------------------------------------------------------------

EVENT_LOG_HEADER = ("time_s", "kind", "id_a", "id_b")


def write_event_log(events, path):
    """One CSV record per safety event: time, kind, the two aircraft ids."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_LOG_HEADER)
        for e in events:
            writer.writerow([repr(float(e.time)), e.kind.value, e.pair[0], e.pair[1]])
    return path
