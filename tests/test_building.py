import math

import pytest

from flexbench.building import (WeatherCoverageError, WeatherFormatError,
                                WeatherSeries, ZoneModel, compute_zone_load,
                                load_weather)
from flexbench.plant import DischargeAir
from flexbench.psychro import CP_AIR, H_FG, w_from_rh


class TestWeatherSeries:
    def test_constant_covers_any_horizon(self):
        w = WeatherSeries.constant(31.0, 45.0)
        w.ensure_coverage(1e9)
        assert w.value_at(12345.0) == (31.0, 45.0)

    def test_linear_interpolation(self):
        w = WeatherSeries([0.0, 100.0], [10.0, 20.0], [40.0, 60.0])
        assert w.value_at(50.0) == (15.0, 50.0)

    def test_clamps_before_first_point(self):
        w = WeatherSeries([100.0, 200.0], [10.0, 20.0], [40.0, 60.0])
        assert w.value_at(0.0) == (10.0, 40.0)

    def test_coverage_error_past_end(self):
        w = WeatherSeries([0.0, 100.0], [10.0, 20.0], [40.0, 60.0])
        with pytest.raises(WeatherCoverageError):
            w.value_at(150.0)

    def test_times_strictly_increasing(self):
        with pytest.raises(WeatherFormatError):
            WeatherSeries([0.0, 100.0, 100.0], [1, 2, 3], [50, 50, 50])

    def test_empty_rejected(self):
        with pytest.raises(WeatherFormatError):
            WeatherSeries([], [], [])


class TestLoadWeather:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,25,40\n3600,30,55\n")
        w = load_weather(str(p))
        assert w.value_at(1800.0) == (27.5, 47.5)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time,temp,rh\n0,25,40\n")
        with pytest.raises(WeatherFormatError, match="header"):
            load_weather(str(p))

    def test_wrong_field_count_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,25,40\n3600,30\n")
        with pytest.raises(WeatherFormatError, match="row 3"):
            load_weather(str(p))

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,hot,40\n")
        with pytest.raises(WeatherFormatError, match="row 2"):
            load_weather(str(p))

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n")
        with pytest.raises(WeatherFormatError, match="empty"):
            load_weather(str(p))


AIR = DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.5)


def zone(**kw):
    kw.setdefault("t_init_c", 24.0)
    return ZoneModel(**kw)


class TestZoneModel:
    def test_substep_invariance(self):
        # exact exponential update: one hour in one bite or 3600 bites
        one = zone()
        one.step(AIR, 32.0, 800.0, 150.0, 3600.0)
        many = zone()
        for _ in range(3600):
            many.step(AIR, 32.0, 800.0, 150.0, 1.0)
        assert one.t == pytest.approx(many.t, abs=1e-9)
        assert one.w == pytest.approx(many.w, abs=1e-12)

    def test_settles_at_energy_balance(self):
        z = zone(c_z_j_per_k=1.0e6)  # small capacity settles fast
        for _ in range(600):
            r = z.step(AIR, 30.0, 1000.0, 0.0, 60.0)
        t_eq = (AIR.m_dot_kg_s * CP_AIR * AIR.t_c + z.ua * 30.0 + 1000.0) / (
            AIR.m_dot_kg_s * CP_AIR + z.ua)
        assert r.t_c == pytest.approx(t_eq, abs=1e-9)

    def test_no_flow_no_envelope_is_pure_integrator(self):
        z = zone(c_z_j_per_k=1.0e6, ua_w_per_k=0.0)
        still = DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.0)
        z.step(still, 30.0, 500.0, 0.0, 100.0)
        assert z.t == pytest.approx(24.05, abs=1e-12)

    def test_latent_integrator_without_flow(self):
        z = zone(moisture_capacity_kg=100.0)
        still = DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.0)
        w0 = z.w
        z.step(still, 30.0, 0.0, 490.0, 100.0)
        assert z.w == pytest.approx(w0 + 490.0 / H_FG * 100.0 / 100.0)

    def test_moisture_floor(self):
        z = zone(rh_init_pct=20.0, moisture_capacity_kg=5.0)
        dry = DischargeAir(15.0, 0.0, 2.0)
        for _ in range(500):
            z.step(dry, 30.0, 0.0, 0.0, 60.0)
            assert z.w >= 0.0

    def test_inherited_delay_is_exactly_one_step(self):
        temps = [15.0, 12.0, 18.0, 10.0, 16.0, 14.0]
        delayed = zone(inherited_delay=True)
        for t in temps:
            delayed.step(DischargeAir(t, w_from_rh(t, 60.0), 0.5), 30.0, 500.0, 0.0, 60.0)
        # equivalent direct model sees the first value twice, then lags by one
        direct = zone(inherited_delay=False)
        for t in [temps[0]] + temps[:-1]:
            direct.step(DischargeAir(t, w_from_rh(t, 60.0), 0.5), 30.0, 500.0, 0.0, 60.0)
        assert delayed.t == direct.t
        assert delayed.w == direct.w

    def test_surfaces_lag_and_stagger(self):
        z = zone(surface_tau_s=1800.0, n_surfaces=4)
        r = z.step(DischargeAir(10.0, w_from_rh(10.0, 60.0), 1.0), 30.0, 0.0, 0.0, 600.0)
        assert z.t < 24.0
        # every surface trails the falling air temperature
        assert all(s > z.t for s in z.surfaces)
        # staggered time constants: slower surfaces stay warmer
        assert z.surfaces == sorted(z.surfaces)
        assert z.t < r.t_surf_mean_c < 24.0

    def test_result_load_uses_post_step_state(self):
        z = zone()
        r = z.step(AIR, 30.0, 500.0, 100.0, 60.0)
        assert r.load_sensible_w == pytest.approx(
            AIR.m_dot_kg_s * CP_AIR * (r.t_c - AIR.t_c))
        assert r.load_latent_w == pytest.approx(
            AIR.m_dot_kg_s * H_FG * (r.w - AIR.w))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ZoneModel(c_z_j_per_k=-1.0)
        with pytest.raises(ValueError):
            ZoneModel(moisture_capacity_kg=0.0)


def test_load_signs():
    warm_zone = compute_zone_load(0.5, 26.0, 0.012, DischargeAir(14.0, w_from_rh(14.0, 90.0), 0.5))
    assert warm_zone[0] > 0 and warm_zone[1] > 0
    t_dis = 30.0
    heating = compute_zone_load(0.5, 20.0, w_from_rh(20.0, 30.0),
                                DischargeAir(t_dis, w_from_rh(t_dis, 60.0), 0.5))
    assert heating[0] < 0


def test_analytic_decay_against_closed_form():
    # all inputs frozen: the air node is y' = a - b*y with
    # b = (m*cp + ua)/c and the trajectory is pinned by the closed form
    z = ZoneModel(c_z_j_per_k=2.0e6, ua_w_per_k=100.0, t_init_c=28.0)
    b = (0.5 * CP_AIR + 100.0) / 2.0e6
    a = (0.5 * CP_AIR * 15.0 + 100.0 * 33.0 + 400.0) / 2.0e6
    y = 28.0
    for _ in range(30):
        z.step(DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.5), 33.0, 400.0, 0.0, 60.0)
        y = a / b + (y - a / b) * math.exp(-b * 60.0)
    assert z.t == pytest.approx(y, abs=1e-12)
