"""Occupant agents: local comfort sensing, stochastic adaptive actions, gains.

Each agent senses a local temperature through a near-occupant surrogate (a
convex blend of discharge air, zone air, and mean surface temperatures
weighted by distance to the diffuser), scores its discomfort against a
preference band, and then fires adaptive actions stochastically.  An agent's
blend weights depend only on its position, so they are computed once, when
the population is built.  An agent's action draws for a step are one row of
a block keyed by (run seed, agent id, step // BLOCK_STEPS) (see `streams`),
so results are independent of agent evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .plant import DischargeAir
from .schedule import Schedule
from .streams import OCCUPANT_DOMAIN, BlockRows, substream


class ActionType(Enum):
    HEATER_TOGGLE = "heater_toggle"
    FAN_TOGGLE = "fan_toggle"
    THERMOSTAT_ADJUST = "thermostat_adjust"
    CLOTHING_ADJUST = "clothing_adjust"
    DRINK = "drink"
    WALK = "walk"


# (action, its value) in enum order: action_probs is keyed by the value
_ACTIONS = tuple((a, a.value) for a in ActionType)


@dataclass
class EffectConfig:
    """Magnitudes and durations of action effects, shared across agents."""

    fan_offset_c: float
    clo_step: float
    clo_offset_c_per_clo: float   # +0.5 clo feels 1.0 degC warmer
    clo_min: float
    clo_max: float
    drink_offset_c: float
    drink_duration_s: float
    walk_offset_c: float
    walk_duration_s: float
    thermostat_step_c: float
    thermostat_band_c: float
    base_sensible_w: float
    base_latent_w: float
    heater_w: float
    walk_sensible_w: float


@dataclass
class OccupantAgent:
    """One occupant: placement, preference, action propensities, effect state.
    The first fields are one validated `occupants.agents` entry."""

    agent_id: int
    coords: list[float]                  # [x, y, z]
    clo: float
    t_pref_c: float
    deadband_c: float
    action_probs: dict[str, float]       # ActionType value -> probability
    presence: list[list[float]] | None   # [[time_s, 0|1], ...]

    heater_on: bool = False
    fan_on: bool = False
    clo_ref: float = field(init=False)
    thermostat_delta_c: float = 0.0
    drink_until_s: float = -1.0
    drink_sign: float = 0.0
    walk_until_s: float = -1.0
    _presence: Schedule = field(init=False, repr=False, compare=False)
    _draws: BlockRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.clo_ref = self.clo
        self._presence = Schedule(self.presence or [(0.0, 1)])
        self._draws = BlockRows(len(ActionType))  # see behave

    def present(self, t_s: float) -> bool:
        """Presence follows the [[time_s, 0|1], ...] schedule; always present
        without one."""
        return bool(self._presence.at(t_s))

    def drink_offset(self, t_s: float, fx: EffectConfig) -> float:
        if t_s >= self.drink_until_s or self.drink_sign == 0.0:
            return 0.0
        remaining = (self.drink_until_s - t_s) / fx.drink_duration_s
        return self.drink_sign * fx.drink_offset_c * min(1.0, remaining)

    def walking(self, t_s: float) -> bool:
        return t_s < self.walk_until_s


class NearOccupantSurrogate:
    """Weights of the local-temperature blend at an occupant position.

    The discharge-air weight decays exponentially with distance to the
    diffuser, measured from the position clamped into the zone bounds;
    weights are renormalized to sum to one, so the blended temperature always
    lies inside the range of its inputs.
    """

    def __init__(self, w_discharge: float, w_zone: float, w_surfaces: float,
                 decay_length_m: float, diffuser_xyz: list[float],
                 zone_bounds: list[list[float]]):
        self.w_discharge = w_discharge
        self.w_zone = w_zone
        self.w_surfaces = w_surfaces
        self.decay_length = decay_length_m
        self.diffuser = diffuser_xyz
        self.lo, self.hi = zone_bounds

    def weights(self, coords: list[float]) -> tuple[float, float, float]:
        """(discharge, zone, surfaces) weights at coords."""
        pos = [min(max(c, lo), hi) for c, lo, hi in zip(coords, self.lo, self.hi)]
        dist = math.dist(pos, self.diffuser)
        wd = self.w_discharge * math.exp(-dist / self.decay_length)
        total = wd + self.w_zone + self.w_surfaces
        return wd / total, self.w_zone / total, self.w_surfaces / total


def comfort_eval(agent: OccupantAgent, t_local_c: float, t_s: float,
                 fx: EffectConfig) -> float:
    """Signed discomfort: degrees beyond the preference band, 0 inside it.
    t_local_c is the surrogate's blend with the fan offset taken off."""
    eff = (t_local_c
           + fx.clo_offset_c_per_clo * (agent.clo - agent.clo_ref)
           + agent.drink_offset(t_s, fx)
           + (fx.walk_offset_c if agent.walking(t_s) else 0.0))
    e = eff - agent.t_pref_c
    if e > agent.deadband_c:
        return e - agent.deadband_c
    if e < -agent.deadband_c:
        return e + agent.deadband_c
    return 0.0


def behave(agent: OccupantAgent, score: float, seed: int, step: int, t_s: float,
           fx: EffectConfig) -> list[ActionType]:
    """Fire adaptive actions for one agent at one step; returns those fired.

    Zero discomfort fires nothing.  Otherwise the actions draw, in fixed enum
    order, from row step % BLOCK_STEPS of the block drawn from the (seed,
    agent, step // BLOCK_STEPS) substream; each agent keeps its live block.
    An action whose draw falls below its probability fires if it applies;
    its one branch below is its whole rule.  Hot (score > 0) and cold ask
    for opposite moves, each within its limits; a walk answers cold only.
    """
    if score == 0.0:
        return []
    draws = agent._draws.row(substream, step, seed, OCCUPANT_DOMAIN,
                             agent.agent_id).tolist()
    fired = []
    hot = score > 0
    for (action, name), u in zip(_ACTIONS, draws):
        p = agent.action_probs.get(name, 0.0)
        if p <= 0.0 or u >= p:
            continue
        if action is ActionType.HEATER_TOGGLE:
            if agent.heater_on != hot:
                continue
            agent.heater_on = not hot
        elif action is ActionType.FAN_TOGGLE:
            if agent.fan_on == hot:
                continue
            agent.fan_on = hot
        elif action is ActionType.THERMOSTAT_ADJUST:
            band, delta = fx.thermostat_band_c, agent.thermostat_delta_c
            if not (delta > -band + 1e-12 if hot else delta < band - 1e-12):
                continue
            step_c = -fx.thermostat_step_c if hot else fx.thermostat_step_c
            agent.thermostat_delta_c = min(max(delta + step_c, -band), band)
        elif action is ActionType.CLOTHING_ADJUST:
            clo = agent.clo
            if not (clo > fx.clo_min + 1e-12 if hot else clo < fx.clo_max - 1e-12):
                continue
            step_clo = -fx.clo_step if hot else fx.clo_step
            agent.clo = min(max(clo + step_clo, fx.clo_min), fx.clo_max)
        elif action is ActionType.DRINK:
            agent.drink_sign = -1.0 if hot else 1.0
            agent.drink_until_s = t_s + fx.drink_duration_s
        elif action is ActionType.WALK:
            if hot:
                continue
            agent.walk_until_s = t_s + fx.walk_duration_s
        fired.append(action)
    return fired


class OccupantGains(NamedTuple):
    """A step's occupant gains and thermostat vote, in the order of the
    engine's occ.* variables."""

    sensible_w: float
    latent_w: float
    thermostat_delta_c: float


class PopulationOutcome(NamedTuple):
    gains: OccupantGains
    actions: tuple[tuple[int, ActionType], ...]
    mean_discomfort: float


class Population:
    """All agents of one run, each with its blend weights computed here once,
    plus the shared effect config.

    Without agents every step has the same outcome, no gains, actions or
    discomfort, so it is built once here and step() returns it as it is."""

    def __init__(self, agents: list[OccupantAgent], surrogate: NearOccupantSurrogate,
                 effects: EffectConfig, seed: int):
        self.agents = sorted(agents, key=lambda a: a.agent_id)
        self.fx = effects
        self.seed = seed
        self._weighted = [(a, surrogate.weights(a.coords)) for a in self.agents]
        self._idle = (None if agents else
                      PopulationOutcome(OccupantGains(0.0, 0.0, 0.0), (), 0.0))

    def step(self, step_index: int, t_s: float, discharge: DischargeAir,
             zone_t_c: float, surfaces: list[float]) -> PopulationOutcome:
        """One pass in agent-id order: each present agent senses, scores and
        behaves, then adds its gains and thermostat vote."""
        if self._idle is not None:
            return self._idle
        fx = self.fx
        surf = sum(surfaces) / len(surfaces) if surfaces else zone_t_c
        sens = lat = 0.0
        actions = []
        scores = []
        deltas = []
        for agent, (wd, wz, ws) in self._weighted:
            if not agent.present(t_s):
                continue
            t_local = (wd * discharge.t_c + wz * zone_t_c + ws * surf
                       - (fx.fan_offset_c if agent.fan_on else 0.0))
            score = comfort_eval(agent, t_local, t_s, fx)
            scores.append(abs(score))
            for action in behave(agent, score, self.seed, step_index, t_s, fx):
                actions.append((agent.agent_id, action))
            sens += fx.base_sensible_w
            if agent.heater_on:
                sens += fx.heater_w
            if agent.walking(t_s):
                sens += fx.walk_sensible_w
            lat += fx.base_latent_w
            deltas.append(agent.thermostat_delta_c)
        band = fx.thermostat_band_c
        delta = sum(deltas) / len(deltas) if deltas else 0.0
        gains = OccupantGains(sens, lat, min(max(delta, -band), band))
        mean_disc = sum(scores) / len(scores) if scores else 0.0
        return PopulationOutcome(gains, tuple(actions), mean_disc)
