"""Egocentric observation building: ownship block plus one row per intruder.

All features are expressed in the deciding aircraft's frame, so rigid
rotations/translations of the whole world leave observations unchanged.
Bearings enter as (sin, cos) to stay continuous across the +/-pi seam: the
angle of the ownship->intruder vector minus the ownship heading, wrapped to
(-pi, pi]. Coincident aircraft (only reachable after an NMAC) have no such
vector; they get bearing 0 (sin 0, cos 1) and zero closure.

Intruder rows are read-only views of the world's pairwise pass
(:func:`airspace.pair_geometry`), which every agent of one world state shares.
Each row equals, bit for bit, what a loop over intruders with
``np.linalg.norm``, ``a @ b`` and ``math.atan2`` would compute.
"""

from dataclasses import dataclass

import numpy as np

from .airspace import INTRUDER_FEATURES, pair_geometry


@dataclass(frozen=True)
class EgoObservation:
    """One agent's egocentric view: 2 ownship features + (n, 7) intruder rows,
    or a stack of B views with one intruder count: ownship (B, 2), intruders (B, n, 7)."""

    ownship: np.ndarray
    intruders: np.ndarray

    @property
    def n_intruders(self):
        return self.intruders.shape[-2]


def featurize(world, aircraft_id):
    """Egocentric observation of one active aircraft.

    Ownship block: (cas / v_max, |cas - v_des| / (v_max - v_min)). Each other
    active aircraft contributes one row, regardless of range, in id order:
    boundary distances d - r_nmac and d - r_pz scaled by the sector diameter,
    (sin, cos) of the relative bearing, the inclusive in-protection-zone
    indicator, and radial/tangential closure scaled by v_max.
    """
    sector = world.sector
    own = world.get(aircraft_id)
    speed_span = sector.v_max - sector.v_min
    ownship = np.array([own.cas / sector.v_max, abs(own.cas - own.v_des) / speed_span])
    if len(world.aircraft) == 1:
        return EgoObservation(ownship=ownship, intruders=np.empty((0, len(INTRUDER_FEATURES))))
    pairs = pair_geometry(world)
    return EgoObservation(ownship=ownship, intruders=pairs.intruders[pairs.index[aircraft_id]])
