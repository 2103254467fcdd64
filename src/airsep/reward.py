"""Piecewise per-agent reward: speed adherence, graded conflict penalty, NMAC penalty.

Exactly one branch fires per agent per step. With the default unit weights the
per-step reward lies in [-2, 1] except for the -100 NMAC case.
"""

import math
from dataclasses import dataclass, fields

from .airspace import EventKind, separation


@dataclass(frozen=True)
class RewardParams:
    alpha_v: float = 1.0          # speed-adherence weight
    alpha_conflict: float = 1.0   # time-to-intrusion weight
    alpha_los: float = 1.0        # in-zone proximity weight
    alpha_nmac: float = 100.0     # NMAC penalty magnitude (applied negatively)

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:  # NaN fails too
                raise ValueError(f"{f.name} must be finite and positive")


def _clip01(x):
    return min(max(x, 0.0), 1.0)


def compute_reward(states, agent_id, events, params, sector):
    """Reward for one agent given post-move aircraft states and detected events.

    ``states`` maps aircraft id to post-move state (including aircraft removed
    this step). Branches, mutually exclusive:

    * any NMAC involving the agent: -alpha_nmac;
    * any conflict or loss of separation involving the agent:
      -alpha_conflict * clip((L - min time-to-intrusion)/L) minus, only while
      actually inside someone's protection zone,
      alpha_los * clip((r_pz - nearest distance)/(r_pz - r_nmac));
      an active LoS counts as time-to-intrusion 0. The nearest distance is
      taken over all other aircraft.
    * otherwise: +alpha_v * (1 - |cas - v_des| / (v_max - v_min)).
    """
    own = states[agent_id]
    mine = [e for e in events if agent_id in e.pair]

    if any(e.kind is EventKind.NMAC for e in mine):
        return -params.alpha_nmac

    threatened = [e for e in mine if e.kind in (EventKind.LOS, EventKind.CONFLICT)]
    if threatened:
        t_min = min(0.0 if e.kind is EventKind.LOS else e.t_los for e in threatened)
        horizon = sector.lookahead
        reward = -params.alpha_conflict * _clip01((horizon - t_min) / horizon)
        if any(e.kind is EventKind.LOS for e in threatened):
            d_min = min(
                float(separation(other.position - own.position))
                for other_id, other in states.items()
                if other_id != agent_id
            )
            d_hat = _clip01((sector.r_pz - d_min) / (sector.r_pz - sector.r_nmac))
            reward -= params.alpha_los * d_hat
        return reward

    dv_hat = 1.0 - abs(own.cas - own.v_des) / (sector.v_max - sector.v_min)
    return params.alpha_v * dv_hat
