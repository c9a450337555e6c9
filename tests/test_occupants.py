import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from flexbench import occupants
from flexbench.cli import main
from flexbench.occupants import (ActionType, EffectConfig,
                                 NearOccupantSurrogate, OccupantAgent,
                                 Population, behave, comfort_eval)
from flexbench.plant import DischargeAir
from flexbench.psychro import w_from_rh
from tests.helpers import agent_block, block

FX = EffectConfig(**block("occupants.effects"))


def surrogate(**kw):
    return NearOccupantSurrogate(**block("occupants.surrogate", **kw))


def agent(agent_id=0, **fields):
    fields.setdefault("coords", [3.0, 3.0, 1.1])
    return OccupantAgent(agent_id, **agent_block(**fields))


def one_step(agents, t_s=0.0):
    """The outcome of one Population.step of agents at 26 degC."""
    air = DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5)
    return Population(agents, surrogate(), FX, 1).step(0, t_s, air, 26.0, [26.0])


class TestComfortEval:
    def test_band_edges(self):
        a = agent(t_pref_c=22.5, deadband_c=1.0)
        assert comfort_eval(a, 24.5, 0.0, FX) == pytest.approx(1.0)
        assert comfort_eval(a, 22.5, 0.0, FX) == 0.0
        assert comfort_eval(a, 23.5, 0.0, FX) == 0.0
        assert comfort_eval(a, 20.0, 0.0, FX) == pytest.approx(-1.5)

    def test_extra_clothing_warms(self):
        a = agent(t_pref_c=22.5)
        cold = comfort_eval(a, 20.0, 0.0, FX)
        a.clo += 0.5
        assert comfort_eval(a, 20.0, 0.0, FX) == pytest.approx(cold + 1.0)

    def test_drink_offset_decays_linearly(self):
        a = agent()
        a.drink_sign = -1.0  # cold drink while hot
        a.drink_until_s = 900.0
        assert a.drink_offset(0.0, FX) == pytest.approx(-0.5)
        assert a.drink_offset(450.0, FX) == pytest.approx(-0.25)
        assert a.drink_offset(900.0, FX) == 0.0

    def test_walk_adds_warmth_while_active(self):
        a = agent(t_pref_c=22.5)
        base = comfort_eval(a, 20.0, 100.0, FX)
        a.walk_until_s = 400.0
        assert comfort_eval(a, 20.0, 100.0, FX) == pytest.approx(base + 0.3)
        assert comfort_eval(a, 20.0, 400.0, FX) == pytest.approx(base)

    def test_fan_cools_via_surrogate(self):
        a = agent()  # hot at 26 degC either way, so discomfort is the excess
        off = one_step([a]).mean_discomfort
        a.fan_on = True
        on = one_step([a]).mean_discomfort
        assert off > FX.fan_offset_c
        assert on == pytest.approx(off - FX.fan_offset_c)


class TestBehave:
    def test_zero_score_fires_nothing(self):
        a = agent(action_probs={t.value: 1.0 for t in ActionType})
        assert behave(a, 0.0, 1, 0, 0.0, FX) == []

    def test_certain_action_fires_and_toggles(self):
        a = agent(action_probs={"fan_toggle": 1.0})
        assert behave(a, 2.0, 1, 0, 0.0, FX) == [ActionType.FAN_TOGGLE]
        assert a.fan_on
        # hot again: fan already on, nothing applicable
        assert behave(a, 2.0, 1, 1, 60.0, FX) == []
        # cold: turning the fan off is the adaptive move
        assert behave(a, -2.0, 1, 2, 120.0, FX) == [ActionType.FAN_TOGGLE]
        assert not a.fan_on

    def test_zero_probability_never_fires(self):
        a = agent(action_probs={})
        for step in range(50):
            assert behave(a, 3.0, 9, step, step * 60.0, FX) == []

    def test_walk_only_when_cold(self):
        hot = agent(action_probs={"walk": 1.0})
        assert behave(hot, 2.0, 1, 0, 0.0, FX) == []
        cold = agent(action_probs={"walk": 1.0})
        assert behave(cold, -2.0, 1, 0, 0.0, FX) == [ActionType.WALK]
        assert cold.walk_until_s == FX.walk_duration_s

    def test_drink_sign_follows_direction(self):
        a = agent(action_probs={"drink": 1.0})
        behave(a, 2.0, 1, 0, 0.0, FX)
        assert a.drink_sign == -1.0
        behave(a, -2.0, 1, 30, 1800.0, FX)
        assert a.drink_sign == 1.0
        assert a.drink_until_s == 1800.0 + FX.drink_duration_s

    def test_heater_answers_cold_only(self):
        a = agent(action_probs={"heater_toggle": 1.0})
        assert behave(a, 2.0, 1, 0, 0.0, FX) == []  # hot, heater already off
        assert behave(a, -2.0, 1, 1, 60.0, FX) == [ActionType.HEATER_TOGGLE]
        assert a.heater_on
        # hot with the heater running: switching it off is adaptive
        assert behave(a, 2.0, 1, 2, 120.0, FX) == [ActionType.HEATER_TOGGLE]
        assert not a.heater_on

    def test_thermostat_saturates_at_band(self):
        a = agent(action_probs={"thermostat_adjust": 1.0})
        for step in range(10):
            behave(a, -2.0, 1, step, step * 60.0, FX)
        assert a.thermostat_delta_c == FX.thermostat_band_c
        # pinned at +band: no further cold adjustment is applicable
        assert behave(a, -2.0, 1, 99, 5940.0, FX) == []

    def test_clothing_respects_limits(self):
        a = agent(clo=1.4, action_probs={"clothing_adjust": 1.0})
        behave(a, -2.0, 1, 0, 0.0, FX)
        assert a.clo == FX.clo_max
        assert behave(a, -2.0, 1, 1, 60.0, FX) == []

    def test_same_key_same_draws(self):
        probs = {t.value: 0.5 for t in ActionType}
        a1 = agent(action_probs=probs)
        a2 = agent(action_probs=probs)
        for step in range(40):
            assert behave(a1, 2.0, 7, step, step * 60.0, FX) == \
                behave(a2, 2.0, 7, step, step * 60.0, FX)

    def test_block_boundary_draws_do_not_depend_on_visit_order(self):
        # cold, drink and walk are always applicable: what fires is the draws
        probs = {"drink": 0.5, "walk": 0.5}
        steps = range(1015, 1036)  # crosses the first block boundary, 1024

        def fire(a, step, seed=3):
            return behave(a, -2.0, seed, step, step * 60.0, FX)

        fresh = {n: fire(agent(action_probs=probs), n) for n in steps}
        assert len(set(map(tuple, fresh.values()))) > 1
        a = agent(action_probs=probs)
        assert {n: fire(a, n) for n in steps} == fresh
        assert {n: fire(a, n) for n in reversed(steps)} == fresh
        fire(a, 5000)
        assert {n: fire(a, n) for n in steps} == fresh
        # a holds seed 3's block 1; the same block of another seed is its own
        same_block = range(1030, 1036)
        assert [fire(a, n, seed=4) for n in same_block] == \
            [fire(agent(action_probs=probs), n, seed=4) for n in same_block]


class TestSurrogate:
    def test_distance_shrinks_discharge_weight(self):
        sur = surrogate(diffuser_xyz=[0.0, 0.0, 2.5])
        near = sur.weights([0.2, 0.2, 2.3])
        far = sur.weights([5.9, 5.9, 0.1])
        assert near[0] > far[0] > 0.0

    def test_coords_outside_bounds_are_clamped(self):
        sur = surrogate()
        # a position outside the zone is weighted as its clamped position
        assert sur.weights([-4.0, 1.0, 1.0]) == sur.weights([0.0, 1.0, 1.0])
        assert sur.weights([9.0, 7.0, 4.0]) == sur.weights([6.0, 6.0, 3.0])
        assert sur.weights([1.0, 1.0, 1.0]) != sur.weights([0.0, 1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(wd=st.floats(0.0, 5.0), wz=st.floats(0.01, 5.0),
           ws=st.floats(0.0, 5.0),
           x=st.floats(-3.0, 9.0), y=st.floats(-3.0, 9.0), z=st.floats(-1.0, 4.0))
    def test_blend_stays_inside_input_range(self, wd, wz, ws, x, y, z):
        # convex weights keep the blend inside the range of its inputs
        weights = surrogate(w_discharge=wd, w_zone=wz,
                            w_surfaces=ws).weights([x, y, z])
        assert min(weights) >= 0.0
        assert abs(sum(weights) - 1.0) <= 1e-12


class TestAggregateGains:
    def test_base_occupancy(self):
        g = one_step([agent(agent_id=i) for i in range(3)]).gains
        assert g.sensible_w == 3 * 75.0
        assert g.latent_w == 3 * 55.0
        assert g.thermostat_delta_c == 0.0

    def test_heater_and_walk_add_heat(self):
        a = agent()
        a.heater_on = True
        a.walk_until_s = 300.0
        assert one_step([a]).gains.sensible_w == 75.0 + 800.0 + 40.0

    def test_presence_gates_everything(self):
        away = agent(presence=[[0.0, 0]])
        away.thermostat_delta_c = 2.0
        here = agent(agent_id=1)
        g = one_step([away, here], 100.0).gains
        assert g.sensible_w == 75.0
        assert g.thermostat_delta_c == 0.0  # absent vote ignored

    def test_order_independent(self):
        agents = []
        for i in range(6):
            a = agent(agent_id=i, coords=[0.5 + i, 1.0, 1.0])
            a.thermostat_delta_c = (-1) ** i * 0.5 * i
            a.heater_on = i % 2 == 0
            agents.append(a)
        shuffled = agents[:]
        random.Random(3).shuffle(shuffled)
        assert one_step(agents) == one_step(shuffled)

    def test_mean_delta_clamped(self):
        a = agent()
        a.thermostat_delta_c = 3.0
        assert one_step([a]).gains.thermostat_delta_c == FX.thermostat_band_c


class TestPresence:
    def test_default_always_present(self):
        assert agent().present(1e6)

    def test_schedule_switches(self):
        a = agent(presence=[[0.0, 1], [600.0, 0], [1200.0, 1]])
        assert a.present(599.0)
        assert not a.present(600.0)
        assert a.present(1200.0)

    def test_before_first_entry_defaults_present(self):
        # before its first entry a schedule holds that entry's flag
        assert not agent(presence=[[300.0, 0]]).present(0.0)
        assert agent(presence=[[300.0, 1], [600.0, 0]]).present(0.0)


class TestPopulation:
    def _pop(self, probs=None, seed=11):
        agents = [agent(agent_id=i, coords=[1.0 + i, 2.0, 1.1],
                        action_probs=probs or {}) for i in range(2)]
        return Population(agents, surrogate(), FX, seed)

    def test_step_reports_actions_and_discomfort(self):
        pop = self._pop(probs={"drink": 1.0})
        out = pop.step(0, 0.0, DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, [28.0])
        assert out.mean_discomfort > 0
        assert set(out.actions) == {(0, ActionType.DRINK), (1, ActionType.DRINK)}
        assert out.gains.sensible_w == 2 * 75.0

    def test_comfortable_zone_is_quiet(self):
        pop = self._pop(probs={t.value: 1.0 for t in ActionType})
        out = pop.step(0, 0.0, DischargeAir(22.0, w_from_rh(22.0, 50.0), 0.5), 22.5, [22.5])
        assert out.actions == ()
        assert out.mean_discomfort == 0.0

    def test_runs_identically_for_same_seed(self):
        args = (DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, [27.0])
        probs = {t.value: 0.4 for t in ActionType}
        first = [self._pop(probs, seed=5).step(i, i * 60.0, *args) for i in range(5)]
        second = [self._pop(probs, seed=5).step(i, i * 60.0, *args) for i in range(5)]
        assert [o.actions for o in first] == [o.actions for o in second]

    def test_each_agent_keeps_its_own_block(self, monkeypatch):
        # a shared bounded cache would evict with this many agents and draw a
        # whole block per draw; each agent's own block is drawn once
        calls = []
        draw = occupants.substream
        monkeypatch.setattr(occupants, "substream",
                            lambda *key: calls.append(key) or draw(*key))
        agents = [agent(agent_id=i, action_probs={"drink": 0.5})
                  for i in range(300)]
        pop = Population(agents, surrogate(), FX, 5)
        args = (DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, [28.0])
        outcomes = [pop.step(n, n * 60.0, *args) for n in range(2)]
        assert all(o.mean_discomfort > 0 for o in outcomes)
        assert len(calls) == len(set(calls)) == 300


@pytest.mark.parametrize("n_agents", [0, 1])
def test_a_run_without_agents_does_no_occupant_work(monkeypatch, n_agents):
    from flexbench.orchestrator import Engine
    from tests.helpers import cfg_from
    engine = Engine(cfg_from({"run": {"horizon": 5}, "occupants": {
        "agents": [agent_block(coords=[1, 1, 1], t_pref_c=10.0)] * n_agents}}))
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    monkeypatch.setattr(occupants, "behave", counted("behave", occupants.behave))
    monkeypatch.setattr(occupants, "comfort_eval",
                        counted("comfort_eval", occupants.comfort_eval))
    engine.run()
    if n_agents:  # the counters see an agent's calls
        assert sorted(set(calls)) == ["behave", "comfort_eval"]
        return
    assert calls == []
    out = engine.population.step(5, 300.0, engine.plant.hvac.discharge(),
                                 21.0, [21.0])
    assert (out.gains.sensible_w, out.gains.latent_w, out.gains.thermostat_delta_c,
            out.actions, out.mean_discomfort) == (0.0, 0.0, 0.0, (), 0.0)


# A crowd that exercises every occupant path: all six actions likely, absences,
# one agent outside zone_bounds.  n_surfaces 0 makes the surrogate fall back
# to the zone temperature for the surface term.
_CROWD = {
    "run": {"scenario_id": "crowd", "horizon": 240, "seed": 7},
    "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
    "building": {"t_init_c": 24.0, "weather": {"series": [
        [0, 26.0, 40.0], [3600, 35.0, 55.0], [7200, 18.0, 45.0],
        [10800, 33.0, 50.0], [14400, 20.0, 40.0]]}},
    "occupants": {"agents": [
        {"coords": [0.5 + 0.7 * i, 5.5 - 0.6 * i, 0.4 + 0.3 * i],
         "t_pref_c": 20.5 + 0.6 * i, "deadband_c": 0.5 + 0.1 * (i % 3),
         "clo": 0.5 + 0.1 * (i % 4),
         "action_probs": {a.value: 0.2 + 0.05 * ((i + k) % 7)
                          for k, a in enumerate(ActionType)},
         "presence": ([[0, 1], [1800 * (i + 1), 0], [1800 * (i + 3), 1]]
                      if i % 2 else None)}
        for i in range(7)] + [
        {"coords": [-1.5, 7.0, 1.0], "t_pref_c": 21.0, "deadband_c": 0.5,
         "action_probs": {a.value: 0.3 for a in ActionType},
         "presence": [[0, 0], [2400, 1], [9000, 0], [12000, 1]]}]},
    "geb": {"baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0, "t_dis_c": 14.0},
            "windows": [{"start_s": 6000.0, "end_s": 9600.0}]},
}

# n_surfaces -> (sha256 of run.csv, sha256 of summary.json)
CROWD_GOLDEN = {
    0: ("f30a6c9096b3a2500836203065a43fe19c13deeaa32e2a867851503e7c590589",
        "a400be2222cfe04f935762b00e3061e1e724bc436afd4bdf8d34c66cbc601c62"),
    4: ("2ee36c0d13703b2f084a7486b68c8becb1fce87d917a34d21819374cb0e1c245",
        "a9ff272d238489a23debacec5dadf6ccdc3cbe3ee2d604c1cc9c8063fe7d2d07"),
}


@pytest.mark.parametrize("n_surfaces", sorted(CROWD_GOLDEN))
def test_crowd_run_bytes(n_surfaces, tmp_path, capsys):
    doc = dict(_CROWD, building=dict(_CROWD["building"], n_surfaces=n_surfaces))
    (tmp_path / "crowd.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "crowd.json"), "--out", str(out),
                 "--mode", "fast"]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("run.csv", "summary.json"))
    assert digests == CROWD_GOLDEN[n_surfaces]
