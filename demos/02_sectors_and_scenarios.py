"""Scenario generation tour: random training sectors, the three evaluation
cases, spawn schedules, and a stepped episode under hold-speed advisories.

Run: python demos/02_sectors_and_scenarios.py
"""

import collections

import numpy as np

from airsep.airspace import NM, KT, Advisory, make_world, step


def describe_routes(routes):
    for i, r in enumerate(routes):
        pts = ", ".join(f"({w[0] / NM:+6.1f},{w[1] / NM:+6.1f})" for w in r.waypoints)
        print(f"  route {i}: {len(r.waypoints)} waypoints [{pts}] NM, length {r.length / NM:.1f} NM")


def main():
    print("training sector (two random routes, endpoints >= 5 NM apart):")
    world = make_world("training", 11)
    describe_routes(world.routes)

    print("\ncase a (three-route merge, random rotation):")
    describe_routes(make_world("a", 3).routes)

    print("\ncase b (merge plus perpendicular crossing):")
    describe_routes(make_world("b", 3).routes)

    print("\ncase c (unstructured: one 3-waypoint route per aircraft):")
    world_c = make_world("c", 3)
    describe_routes(world_c.routes)

    print("\nspawn schedule of the training world:")
    for sp in sorted(world.spawn_queue) + []:
        print(f"  t={sp.time:7.1f}s  {sp.aircraft_id}  route {sp.route_index}  desired {sp.v_des / KT:.0f} kt")

    print("\nrunning the training world with everyone holding speed:")
    counts = collections.Counter()
    while not world.is_done():
        result = step(world, {aid: Advisory.HOLD for aid in world.active_ids()})
        for e in result.events:
            counts[e.kind.value] += 1
        for aid, cause in result.removals.items():
            print(f"  t={world.clock:7.1f}s  {aid} removed: {cause.value}")
    print(f"episode over at t={world.clock:.0f}s; event steps: {dict(counts) or 'none'}")


if __name__ == "__main__":
    main()
