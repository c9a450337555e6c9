import math
import struct
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flexbench.building import (T_MAX_C, T_MIN_C, Range, WeatherFormatError,
                                WeatherSeries, ZoneModel, compute_zone_load,
                                load_weather)
from flexbench.plant import DischargeAir
from flexbench.psychro import CP_AIR, H_FG, rh_from_w, w_from_rh
from flexbench.scenario import ScenarioError, validate_scenario
from tests.helpers import block


def _series_doc(rows):
    return {"run": {"horizon": 1}, "building": {"weather": {"series": rows}}}


class TestWeatherSeries:
    def test_constant_covers_any_horizon(self):
        w = WeatherSeries([[0.0, 31.0, 45.0]])
        assert w.value_at(-1e9) == w.value_at(12345.0) == w.value_at(1e9) == (
            31.0, 45.0)

    def test_linear_interpolation(self):
        w = WeatherSeries([[0.0, 10.0, 40.0], [100.0, 20.0, 60.0]])
        assert w.value_at(50.0) == (15.0, 50.0)

    def test_clamps_before_first_point(self):
        w = WeatherSeries([[100.0, 10.0, 40.0], [200.0, 20.0, 60.0]])
        assert w.value_at(0.0) == (10.0, 40.0)

    def test_holds_last_row_from_last_time(self):
        # validate_scenario refuses a series that ends before the horizon
        # (TestWeatherField), so the reader only holds the last row
        w = WeatherSeries([[0.0, 10.0, 40.0], [100.0, 20.0, 60.0]])
        assert w.value_at(100.0) == w.value_at(150.0) == (20.0, 60.0)

    def test_times_strictly_increasing(self, tmp_path):
        # a series' rows come from validation or load_weather, both of which
        # refuse a repeated time
        with pytest.raises(ScenarioError, match=r"^building\.weather\.series\[2\]: "
                                                "times must be strictly increasing"):
            validate_scenario(_series_doc([[0, 1, 50], [100, 2, 50], [100, 3, 50]]))
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,1,50\n100,2,50\n100,3,50\n")
        with pytest.raises(WeatherFormatError,
                           match="row 4: times must be strictly increasing"):
            load_weather(str(p))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ScenarioError,
                           match=r"^building\.weather\.series: expected a non-empty"):
            validate_scenario(_series_doc([]))
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n")
        with pytest.raises(WeatherFormatError, match="empty"):
            load_weather(str(p))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Any finite time: spans up to about 3.6e308 s and gaps down to 5e-324 s.
_ANY_TIME = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _rows_and_time(draw):
    """Validated weather rows and a time before, at, between or after them."""
    times = sorted(set(draw(st.lists(_ANY_TIME, min_size=1, max_size=8))))
    rows = [[t, draw(st.floats(T_MIN_C, T_MAX_C)), draw(st.floats(0.0, 100.0))]
            for t in times]
    i = draw(st.integers(0, len(times) - 2)) if len(times) > 1 else 0
    t = draw(st.one_of(
        st.sampled_from(times),
        st.floats(times[i], times[min(i + 1, len(times) - 1)]),
        st.floats(max_value=times[0], allow_infinity=False),
        st.floats(min_value=times[-1], allow_infinity=False),
        st.integers(0, 2 ** 53 // 1000).map(float)))
    return rows, t


@settings(max_examples=400, deadline=None)
@given(_rows_and_time())
@example(([[-1.7976931348623157e308, -100.0, 0.0],
           [1.7976931348623157e308, 200.0, 100.0]], 0.0))
@example(([[0.0, -100.0, 0.0], [1e-307, 200.0, 100.0]], 5e-308))
@example(([[0.0, -100.0, 0.0], [1e-307, 200.0, 100.0]], 0.0))
@example(([[-0.0, 20.0, 40.0], [60.0, 30.0, 50.0]], 0.0))
def test_value_at_is_np_interp(rows_and_time):
    rows, t = rows_and_time
    times = [r[0] for r in rows]
    i = bisect_right(times, t)
    # np.interp recomputes the NaN that an overflowed t - t0 gives; that needs
    # |t| near 1e308, and an engine time lies in [0, 2**53 ms)
    assume(i in (0, len(times)) or math.isfinite(t - times[i - 1]))
    got = WeatherSeries(rows).value_at(t)
    for col, value in zip((1, 2), got):
        want = np.interp(t, times, [r[col] for r in rows])
        assert type(value) is float and _bits(value) == _bits(float(want))


class TestRange:
    @pytest.mark.parametrize("r, text", [
        (Range(0.0), "must be >= 0"),
        (Range(0.0, open_lo=True), "must be > 0"),
        (Range(1), "must be >= 1"),
        (Range(0.0, 1e7), "outside [0, 1e+07]"),
        (Range(-100.0, 200.0, unit="degC"), "outside [-100, 200] degC"),
        (Range(1e-3, 100.0, zero_ok=True), "is neither 0 nor in [0.001, 100]"),
    ])
    def test_text_is_derived_from_the_fields(self, r, text):
        assert r.text == text

    def test_negative_zero_is_zero(self):
        assert -0.0 in Range(0.0) and -0.0 in Range(-1.0, 0.0)
        assert -0.0 not in Range(0.0, open_lo=True)
        assert 0.0 not in Range(0.0, open_lo=True)
        flow = Range(1e-3, 100.0, zero_ok=True)
        assert 0 in flow and -0.0 in flow
        assert 5e-324 not in flow and -5e-324 not in flow

    def test_ends(self):
        r = Range(-1.0, 1.0)
        assert -1.0 in r and 1.0 in r
        assert math.nextafter(-1.0, -math.inf) not in r
        assert math.nextafter(1.0, math.inf) not in r
        assert 1e308 in Range(0.0) and math.nan not in Range(0.0)


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

    def test_temperature_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,25,40\n3600,-100.5,55\n")
        with pytest.raises(WeatherFormatError,
                           match=r"row 3: tdb_c -100.5 outside \[-100, 200\] degC"):
            load_weather(str(p))
        p.write_text("time_s,tdb_c,rh_pct\n0,-100,40\n3600,200,55\n")
        assert load_weather(str(p)).value_at(3600.0) == (200.0, 55.0)

    def test_rh_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        for bad in ("-50", "100.5"):
            p.write_text(f"time_s,tdb_c,rh_pct\n0,25,40\n3600,30,{bad}\n")
            with pytest.raises(WeatherFormatError,
                               match=rf"row 3: rh_pct {bad}.* outside \[0, 100\]$"):
                load_weather(str(p))
        p.write_text("time_s,tdb_c,rh_pct\n0,25,0\n3600,30,100\n")
        assert load_weather(str(p)).value_at(3600.0) == (30.0, 100.0)

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n")
        with pytest.raises(WeatherFormatError, match="empty"):
            load_weather(str(p))
        with pytest.raises(WeatherFormatError, match=r"row 2: missing, .*empty$"):
            load_weather(str(p))

    def test_times_not_increasing_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        for t in ("3600", "1800"):
            p.write_text(f"time_s,tdb_c,rh_pct\n0,25,40\n3600,30,55\n{t},31,50\n")
            with pytest.raises(WeatherFormatError,
                               match=r"w\.csv: row 4: times must be strictly increasing$"):
                load_weather(str(p))

    def test_non_finite_names_row(self, tmp_path):
        p = tmp_path / "w.csv"
        for bad in ("nan,25,40", "0,inf,40", "0,25,-inf"):
            p.write_text(f"time_s,tdb_c,rh_pct\n-60,25,40\n{bad}\n")
            with pytest.raises(WeatherFormatError,
                               match=r"w\.csv: row 3: values must be finite$"):
                load_weather(str(p))

    def test_rows_read_as_floats(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,25,40\n3600,30,55\n")
        assert load_weather(str(p)).rows == [[0.0, 25.0, 40.0], [3600.0, 30.0, 55.0]]


AIR = DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.5)


def zone(inherited_delay=False, **overrides):
    return ZoneModel(block("building", **{"t_init_c": 24.0, **overrides}),
                     inherited_delay)


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
    z = ZoneModel(block("building", c_z_j_per_k=2.0e6, ua_w_per_k=100.0,
                        t_init_c=28.0), False)
    b = (0.5 * CP_AIR + 100.0) / 2.0e6
    a = (0.5 * CP_AIR * 15.0 + 100.0 * 33.0 + 400.0) / 2.0e6
    y = 28.0
    for _ in range(30):
        z.step(DischargeAir(15.0, w_from_rh(15.0, 60.0), 0.5), 33.0, 400.0, 0.0, 60.0)
        y = a / b + (y - a / b) * math.exp(-b * 60.0)
    assert z.t == pytest.approx(y, abs=1e-12)


class _InlineZone:
    """ZoneModel.step as inline arithmetic that computes every decay factor
    and rh afresh on each step and updates the surfaces in place."""

    def __init__(self, z: ZoneModel):
        self.c, self.ua, self.c_w = z.c, z.ua, z.c_w
        self.inherited_delay = z.inherited_delay
        self.surface_tau = list(z.surface_tau)
        self.t, self.w, self.surfaces = z.t, z.w, list(z.surfaces)
        self.buffer = None

    def step(self, discharge, out_t_c, gains_sensible_w, gains_latent_w, dt):
        eff = discharge
        if self.inherited_delay:
            eff = self.buffer if self.buffer is not None else discharge
            self.buffer = discharge
        m = eff.m_dot_kg_s
        b = (m * CP_AIR + self.ua) / self.c
        if b > 0:
            a = (m * CP_AIR * eff.t_c + self.ua * out_t_c + gains_sensible_w) / self.c
            t_eq = a / b
            self.t = t_eq + (self.t - t_eq) * math.exp(-b * dt)
        else:
            self.t += gains_sensible_w * dt / self.c
        gen = gains_latent_w / H_FG
        if m > 0:
            w_eq = eff.w + gen / m
            self.w = w_eq + (self.w - w_eq) * math.exp(-m * dt / self.c_w)
        else:
            self.w += gen * dt / self.c_w
        self.w = max(0.0, self.w)
        for i, tau in enumerate(self.surface_tau):
            self.surfaces[i] = self.t + (self.surfaces[i] - self.t) * math.exp(-dt / tau)
        sens, lat = compute_zone_load(m, self.t, self.w, eff)
        surf_mean = sum(self.surfaces) / len(self.surfaces) if self.surfaces else self.t
        return self.t, rh_from_w(self.t, self.w), self.w, surf_mean, sens, lat


def _packed(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("inherited_delay", [False, True], ids=["direct", "inherited"])
@pytest.mark.parametrize("overrides", [{}, {"ua_w_per_k": 0.0}, {"n_surfaces": 0}],
                         ids=["default", "no_envelope", "no_surfaces"])
def test_step_matches_inline_arithmetic(inherited_delay, overrides):
    # the decay factors are reused while (flow, dt) stays the same and
    # rebuilt when either changes: every dt of the sequence, at a flow that
    # switches 0.5 -> 0 -> 0.5 kg/s
    z = zone(inherited_delay, **overrides)
    ref = _InlineZone(z)
    gains = 0.0
    for m in (0.5, 0.0, 0.5):
        for dt in (60.0, 60.0, 45.0, 1.5, 600.0):
            gains += 150.0
            air = DischargeAir(14.0 + gains / 300.0, w_from_rh(14.0, 80.0), m)
            before = z.surfaces
            kept = list(before)
            r = z.step(air, 31.0, gains, gains / 5.0, dt)
            expected = ref.step(air, 31.0, gains, gains / 5.0, dt)
            assert _packed(r.t_c, r.rh_pct, r.w, r.t_surf_mean_c, r.load_sensible_w,
                           r.load_latent_w) == _packed(*expected)
            assert _packed(z.t, z.w, z.rh, *z.surfaces) == _packed(
                ref.t, ref.w, expected[1], *ref.surfaces)
            # a step builds a new surfaces list: the previous one is unchanged
            assert before == kept and z.surfaces is not before
