import random

import pytest
from hypothesis import given, settings, strategies as st

from flexbench import occupants
from flexbench.occupants import (ActionType, EffectConfig, LocalCondition,
                                 NearOccupantSurrogate, OccupantAgent,
                                 Population, aggregate_gains, behave,
                                 comfort_eval)
from flexbench.plant import DischargeAir
from flexbench.psychro import w_from_rh
from tests.helpers import agent_block, block

FX = EffectConfig(**block("occupants.effects"))


def surrogate(**kw):
    return NearOccupantSurrogate(**block("occupants.surrogate", **kw))


def agent(agent_id=0, **fields):
    fields.setdefault("coords", [3.0, 3.0, 1.1])
    return OccupantAgent(agent_id, **agent_block(**fields))


def local(t):
    return LocalCondition(t_c=t, rh_pct=50.0, t_mix_c=t)


class TestComfortEval:
    def test_band_edges(self):
        a = agent(t_pref_c=22.5, deadband_c=1.0)
        assert comfort_eval(a, local(24.5), 0.0, FX) == pytest.approx(1.0)
        assert comfort_eval(a, local(22.5), 0.0, FX) == 0.0
        assert comfort_eval(a, local(23.5), 0.0, FX) == 0.0
        assert comfort_eval(a, local(20.0), 0.0, FX) == pytest.approx(-1.5)

    def test_extra_clothing_warms(self):
        a = agent(t_pref_c=22.5)
        cold = comfort_eval(a, local(20.0), 0.0, FX)
        a.clo += 0.5
        assert comfort_eval(a, local(20.0), 0.0, FX) == pytest.approx(cold + 1.0)

    def test_drink_offset_decays_linearly(self):
        a = agent()
        a.drink_sign = -1.0  # cold drink while hot
        a.drink_until_s = 900.0
        assert a.drink_offset(0.0, FX) == pytest.approx(-0.5)
        assert a.drink_offset(450.0, FX) == pytest.approx(-0.25)
        assert a.drink_offset(900.0, FX) == 0.0

    def test_walk_adds_warmth_while_active(self):
        a = agent(t_pref_c=22.5)
        base = comfort_eval(a, local(20.0), 100.0, FX)
        a.walk_until_s = 400.0
        assert comfort_eval(a, local(20.0), 100.0, FX) == pytest.approx(base + 0.3)
        assert comfort_eval(a, local(20.0), 400.0, FX) == pytest.approx(base)

    def test_fan_cools_via_surrogate(self):
        a = agent()
        sur = surrogate()
        air = DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5)
        off = sur.local_condition(a, air, 26.0, 50.0, [26.0], FX)
        a.fan_on = True
        on = sur.local_condition(a, air, 26.0, 50.0, [26.0], FX)
        assert on.t_c == pytest.approx(off.t_c - 0.8)
        assert on.t_mix_c == off.t_mix_c


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
        air = DischargeAir(10.0, w_from_rh(10.0, 60.0), 0.5)
        near = sur.local_condition(agent(coords=[0.2, 0.2, 2.3]), air,
                                   26.0, 50.0, [26.0], FX)
        far = sur.local_condition(agent(coords=[5.9, 5.9, 0.1]), air,
                                  26.0, 50.0, [26.0], FX)
        assert near.t_c < far.t_c < 26.0

    def test_coords_outside_bounds_flagged(self):
        sur = surrogate()
        air = DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5)
        inside = sur.local_condition(agent(coords=[1.0, 1.0, 1.0]), air,
                                     26.0, 50.0, [26.0], FX)
        outside = sur.local_condition(agent(coords=[-4.0, 1.0, 1.0]), air,
                                      26.0, 50.0, [26.0], FX)
        assert not inside.coords_clamped and outside.coords_clamped
        # clamped position sits on the boundary, so the blend stays sane
        clamped_match = sur.local_condition(agent(coords=[0.0, 1.0, 1.0]), air,
                                            26.0, 50.0, [26.0], FX)
        assert outside.t_mix_c == clamped_match.t_mix_c

    @settings(max_examples=60, deadline=None)
    @given(wd=st.floats(0.0, 5.0), wz=st.floats(0.01, 5.0),
           ws=st.floats(0.0, 5.0),
           x=st.floats(0.0, 6.0), y=st.floats(0.0, 6.0), z=st.floats(0.0, 3.0),
           t_dis=st.floats(5.0, 35.0), t_zone=st.floats(15.0, 30.0),
           t_surf=st.floats(10.0, 35.0))
    def test_blend_stays_inside_input_range(self, wd, wz, ws, x, y, z,
                                            t_dis, t_zone, t_surf):
        sur = surrogate(w_discharge=wd, w_zone=wz, w_surfaces=ws)
        cond = sur.local_condition(agent(coords=[x, y, z]),
                                   DischargeAir(t_dis, w_from_rh(t_dis, 60.0), 0.5),
                                   t_zone, 50.0, [t_surf], FX)
        lo = min(t_dis, t_zone, t_surf) - 1e-9
        hi = max(t_dis, t_zone, t_surf) + 1e-9
        assert lo <= cond.t_mix_c <= hi


class TestAggregateGains:
    def test_base_occupancy(self):
        agents = [agent(agent_id=i) for i in range(3)]
        g = aggregate_gains(agents, 0.0, FX)
        assert g.sensible_w == 3 * 75.0
        assert g.latent_w == 3 * 55.0
        assert g.thermostat_delta_c == 0.0

    def test_heater_and_walk_add_heat(self):
        a = agent()
        a.heater_on = True
        a.walk_until_s = 300.0
        g = aggregate_gains([a], 0.0, FX)
        assert g.sensible_w == 75.0 + 800.0 + 40.0

    def test_presence_gates_everything(self):
        away = agent(presence=[[0.0, 0]])
        away.thermostat_delta_c = 2.0
        here = agent(agent_id=1)
        g = aggregate_gains([away, here], 100.0, FX)
        assert g.sensible_w == 75.0
        assert g.thermostat_delta_c == 0.0  # absent vote ignored

    def test_order_independent(self):
        agents = []
        for i in range(6):
            a = agent(agent_id=i)
            a.thermostat_delta_c = (-1) ** i * 0.5 * i
            agents.append(a)
        shuffled = agents[:]
        random.Random(3).shuffle(shuffled)
        assert aggregate_gains(agents, 0.0, FX) == aggregate_gains(shuffled, 0.0, FX)

    def test_mean_delta_clamped(self):
        a = agent()
        a.thermostat_delta_c = 2.0
        g = aggregate_gains([a], 0.0, FX)
        assert g.thermostat_delta_c == 2.0


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
        out = pop.step(0, 0.0, DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, 50.0, [28.0])
        assert out.mean_discomfort > 0
        assert set(out.actions) == {(0, ActionType.DRINK), (1, ActionType.DRINK)}
        assert out.gains.sensible_w == 2 * 75.0

    def test_comfortable_zone_is_quiet(self):
        pop = self._pop(probs={t.value: 1.0 for t in ActionType})
        out = pop.step(0, 0.0, DischargeAir(22.0, w_from_rh(22.0, 50.0), 0.5), 22.5, 50.0, [22.5])
        assert out.actions == ()
        assert out.mean_discomfort == 0.0

    def test_runs_identically_for_same_seed(self):
        args = (DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, 50.0, [27.0])
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
        args = (DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.5), 28.0, 50.0, [28.0])
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
    monkeypatch.setattr(NearOccupantSurrogate, "local_condition", counted(
        "local_condition", NearOccupantSurrogate.local_condition))
    monkeypatch.setattr(occupants, "behave", counted("behave", occupants.behave))
    monkeypatch.setattr(occupants, "aggregate_gains",
                        counted("aggregate_gains", occupants.aggregate_gains))
    engine.run()
    if n_agents:  # the counters see an agent's calls
        assert sorted(set(calls)) == ["aggregate_gains", "behave", "local_condition"]
        return
    assert calls == []
    out = engine.population.step(5, 300.0, engine.plant.hvac.discharge(),
                                 21.0, 50.0, [21.0])
    assert (out.gains.sensible_w, out.gains.latent_w, out.gains.thermostat_delta_c,
            out.actions, out.mean_discomfort) == (0.0, 0.0, 0.0, (), 0.0)
