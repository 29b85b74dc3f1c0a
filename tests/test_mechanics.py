import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import camdrive as cd
from camdrive.errors import (
    ConfigError,
    ForceSingular,
    InfeasibleCamCount,
    InfeasibleProfile,
    InvalidSpec,
)
from camdrive.geometry import (
    ROOT_NEWTON_STEPS,
    ROOT_SCAN_NODES,
    TAU,
    closure_angles,
    curvature_turnover,
    driving_arc,
    driving_window,
    min_cam_radius,
)
from camdrive.mechanics import (
    _hertz_log_slope,
    _hertz_log_value,
    _hertz_peak_angle,
    _normal_force,
    compliance_sum,
    contact_state,
    material,
    pressure_sensitivities,
    segment_metrics,
)

import oracles

K_STEEL = 1.3793428401297596e-06          # (1 - 0.3^2) / (pi * 210000)
MU_AT_SEGMENT_START = 0.10084913109049841  # arctan(0.13097.../1.2943)
B_REFERENCE = 0.0706538219773              # sqrt(16*377*2.7586e-6*3/10)
P_REFERENCE = 679.3847734371351            # 4*377/(10*pi*B)


def spec50(**over):
    base = dict(p=50.0, eta=0.18, r=4.0, m=2, L=10.0)
    base.update(over)
    return cd.TransmissionSpec(**base)


class TestMaterials:
    def test_builtin_table(self):
        cat = cd.builtin_materials()
        stainless = cd.find_material("stainless steel", cat)
        assert stainless.P_stat == 650.0 and stainless.P_allow == 260.0
        improved = cd.find_material("improved steel", cat)
        assert improved.p_stat == (1600.0, 2000.0)
        assert improved.p_allow == (640.0, 800.0)
        poly = cd.find_material("polyamide", cat)
        assert poly.P_allow == pytest.approx(0.4 * poly.P_stat)

    def test_constraint_bound_is_range_upper(self):
        assert cd.find_material("improved steel").P_allow == 800.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            cd.find_material("unobtainium")

    def test_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "mats.json"
        path.write_text(json.dumps([
            {"name": m.name, "young_modulus_mpa": m.E, "poisson_ratio": m.nu,
             "static_pressure_mpa": list(m.p_stat),
             "allowable_pressure_mpa": list(m.p_allow)}
            for m in cd.builtin_materials()]))
        loaded = cd.load_materials(path)
        assert loaded == cd.builtin_materials()

    def test_catalog_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "name": "x", "young_modulus_mpa": 1000.0, "poisson_ratio": 0.3,
            "static_pressure_mpa": 100.0, "hardness": 42}]))
        with pytest.raises(ConfigError):
            cd.load_materials(path)

    def test_catalog_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cd.load_materials(tmp_path / "none.json")

    @pytest.mark.parametrize("text", ["[{", "\xff"])
    def test_catalog_not_json(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError):
            cd.load_materials(path)

    @pytest.mark.parametrize("fault", [
        {"young_modulus_mpa": "1000"}, {"poisson_ratio": True},
        {"static_pressure_mpa": "100"}, {"static_pressure_mpa": [100.0]},
        {"allowable_pressure_mpa": [1.0, False]}, {"young_modulus_mpa": float("nan")},
        {"name": 7},
        # rows that `Material` itself rejects; a reversed pair is not swapped
        {"young_modulus_mpa": -1.0}, {"poisson_ratio": 0.5},
        {"static_pressure_mpa": -100, "allowable_pressure_mpa": [0, -5]},
        {"allowable_pressure_mpa": [0, -5]}, {"static_pressure_mpa": [200.0, 100.0]},
    ])
    def test_catalog_rejects_bad_values(self, tmp_path, fault):
        row = {"name": "x", "young_modulus_mpa": 1000.0, "poisson_ratio": 0.3,
               "static_pressure_mpa": 100.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([row, {**row, **fault}]))
        with pytest.raises(ConfigError, match="^material row 1"):
            cd.load_materials(path)

    def test_fatigue_rule_default(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{
            "name": "x", "young_modulus_mpa": 1000.0, "poisson_ratio": 0.3,
            "static_pressure_mpa": 100.0}]))
        (mat,) = cd.load_materials(path)
        assert mat.P_allow == pytest.approx(40.0)

    def test_null_allowable_takes_fatigue_default(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{
            "name": "x", "young_modulus_mpa": 1000.0, "poisson_ratio": 0.3,
            "static_pressure_mpa": [100.0, 200.0], "allowable_pressure_mpa": None}]))
        (mat,) = cd.load_materials(path)
        assert mat.p_allow == pytest.approx((40.0, 80.0))

    def test_invalid_constants(self):
        for E in (-1.0, float("nan")):
            with pytest.raises(InvalidSpec):
                cd.Material("bad", E, 0.3, (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidSpec):
            cd.Material("bad", 1000.0, 0.5, (1.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("p_stat, p_allow", [
        ((-100.0, -100.0), (40.0, 40.0)), ((0.0, 100.0), (40.0, 40.0)),
        ((100.0, 100.0), (0.0, -5.0)), ((100.0, math.inf), (40.0, 40.0)),
        ((100.0, 100.0), (40.0, math.nan)),
        ((200.0, 100.0), (40.0, 40.0)), ((100.0, 100.0), (50.0, 40.0)),
    ])
    def test_pressure_bounds_positive_and_ordered(self, p_stat, p_allow):
        with pytest.raises(InvalidSpec):
            cd.Material("bad", 1000.0, 0.3, p_stat, p_allow)

    @pytest.mark.parametrize("pressure", [[100.0, 200.0, 5.0], [100.0], [], (1.0, 2.0, 3.0)])
    def test_pressure_list_holds_two_values(self, pressure):
        # a list is a [low, high] range: no entry is dropped or repeated
        with pytest.raises(InvalidSpec, match=r"number or \[low, high\]"):
            material("x", 1000.0, 0.3, pressure)
        with pytest.raises(InvalidSpec, match=r"number or \[low, high\]"):
            material("x", 1000.0, 0.3, 100.0, pressure)
        assert material("x", 1000.0, 0.3, [100.0, 200.0]).p_stat == (100.0, 200.0)


class TestMaterialCoefficient:
    def test_steel_value(self, steel):
        assert cd.material_coefficient(steel) == pytest.approx(K_STEEL, rel=1e-12)

    def test_zero_poisson(self):
        m = cd.Material("rigid", 1000.0, 0.0, (1.0, 1.0), (1.0, 1.0))
        assert cd.material_coefficient(m) == pytest.approx(1.0 / (math.pi * 1000.0))

    def test_identical_bodies_symmetric(self, steel):
        assert cd.material_coefficient(steel) == cd.material_coefficient(steel)

    def test_compliance_sum_adds_both_bodies(self, steel):
        cast = cd.find_material("grey cast iron")
        assert compliance_sum(steel, cast) == (cd.material_coefficient(steel)
                                               + cd.material_coefficient(cast))


class TestEquivalentRadius:
    def test_equal_radii_halve(self):
        assert cd.equivalent_radius(4.0, 4.0) == pytest.approx(2.0)

    def test_flat_counter_surface_limit(self):
        assert cd.equivalent_radius(4.0, 1e12) == pytest.approx(4.0, rel=1e-9)

    def test_reference_value(self):
        assert cd.equivalent_radius(4.0, 12.0) == pytest.approx(3.0)

    def test_degenerate(self, steel):
        # rho_c = -r gives an infinite radius, as in an array; the Hertz model
        # reads only positive radii, and the gate rejects a design whose cam
        # radius is negative on its driving arc
        assert cd.equivalent_radius(4.0, -4.0) == -math.inf
        assert cd.equivalent_radius(4.0, -5.0) == 20.0
        eta = 1.0 / TAU + 1e-4
        spec = cd.TransmissionSpec(p=50.0, eta=eta, r=5.0 * eta, m=1)
        with pytest.raises(InfeasibleProfile, match="negative"):
            cd.max_hertz_pressure(spec, cd.LoadCase(1200.0), steel, steel)


class TestHertz:
    def test_no_load_no_band(self, steel):
        K = cd.material_coefficient(steel)
        assert cd.hertz_band_width(0.0, K, K, 3.0, 10.0) == 0.0

    def test_band_square_root_scaling(self):
        b1 = cd.hertz_band_width(100.0, 1e-6, 1e-6, 3.0, 10.0)
        b4 = cd.hertz_band_width(400.0, 1e-6, 1e-6, 3.0, 10.0)
        assert b4 == pytest.approx(2.0 * b1, rel=1e-14)

    def test_reference_band_and_pressure(self):
        B = cd.hertz_band_width(377.0, 1.3793e-6, 1.3793e-6, 3.0, 10.0)
        assert B == pytest.approx(B_REFERENCE, rel=1e-9)
        assert cd.hertz_pressure(377.0, 10.0, B) == pytest.approx(P_REFERENCE, rel=1e-9)

    def test_zero_load_pressure_convention(self):
        # zero load has a zero band, and 0/0 is NaN, as in an array; a load
        # case needs a positive torque
        assert math.isnan(cd.hertz_pressure(0.0, 10.0, 0.0))
        with pytest.raises(InvalidSpec, match="torque"):
            cd.LoadCase(0.0)

    def test_pressure_scaling_with_recomputed_band(self):
        K = 1.4e-6
        B1 = cd.hertz_band_width(100.0, K, K, 3.0, 10.0)
        B4 = cd.hertz_band_width(400.0, K, K, 3.0, 10.0)
        assert cd.hertz_pressure(400.0, 10.0, B4) == pytest.approx(
            2.0 * cd.hertz_pressure(100.0, 10.0, B1), rel=1e-12)


class TestPressureAngle:
    def test_reference_value(self):
        mu = cd.pressure_angle(math.pi + 1.2943, 0.18)
        assert abs(mu) == pytest.approx(MU_AT_SEGMENT_START, rel=1e-12)
        assert math.degrees(abs(mu)) == pytest.approx(5.778, abs=1e-3)

    def test_vanishes_far_from_mid_stroke(self):
        assert abs(cd.pressure_angle(1e9, 0.18)) < 1e-8

    def test_mid_stroke_singular(self, steel):
        # at mid-stroke the angle is -90 degrees, as in an array; the Hertz
        # gate rejects a design whose pressure peak comes that close to it
        assert cd.pressure_angle(math.pi, 0.18) == -math.pi / 2.0
        with pytest.raises(ForceSingular, match="90 degrees"):
            cd.max_hertz_pressure(spec50(eta=1e4), cd.LoadCase(1200.0), steel, steel)

    def test_decreases_with_lower_eta(self):
        psi = math.pi + 1.2943
        lo = abs(cd.pressure_angle(psi, 0.17))
        hi = abs(cd.pressure_angle(psi, 0.20))
        assert lo < hi


class TestActiveSegment:
    def test_two_cam_reference_ends(self):
        seg = cd.active_segment(spec50(), -1.2943)
        assert seg.psi_start == pytest.approx(4.435892653589793, rel=1e-12)
        assert seg.psi_end == pytest.approx(7.577485307179587, rel=1e-12)
        assert seg.length == pytest.approx(math.pi)

    def test_three_cam_reference_ends(self):
        seg = cd.active_segment(spec50(m=3), -1.2943)
        assert seg.psi_start == pytest.approx(5.483090204786391, rel=1e-12)
        assert seg.psi_end == pytest.approx(7.577485307179587, rel=1e-12)
        assert seg.length == pytest.approx(TAU / 3.0)

    def test_single_cam_rejected(self):
        with pytest.raises(InfeasibleCamCount):
            cd.active_segment(spec50(m=1), -1.2943)

    def test_segment_inside_profile_range(self, rng):
        for params in oracles.random_valid_specs(rng, 20):
            s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                    r=params["r"], m=params["m"], L=params["L"])
            delta = cd.extended_angle(s)
            seg = cd.active_segment(s, delta)
            assert delta <= seg.psi_start < seg.psi_end <= TAU - delta + 1e-12
            assert seg.length == pytest.approx(TAU / s.m)


class TestMaxPressureAngle:
    def test_baseline_at_segment_start(self):
        s = spec50()
        delta = cd.extended_angle(s)
        mu_max = cd.max_pressure_angle(s)
        assert mu_max == pytest.approx(abs(cd.pressure_angle(math.pi - delta, s.eta)),
                                       rel=1e-12)

    def test_three_cams_reduce_the_angle(self):
        assert cd.max_pressure_angle(spec50(m=3)) < cd.max_pressure_angle(spec50(m=2))

    def test_scan_max_equals_endpoint_max(self, rng):
        for params in oracles.random_valid_specs(rng, 20):
            s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                    r=params["r"], m=params["m"], L=params["L"])
            delta = cd.extended_angle(s)
            seg = cd.active_segment(s, delta)
            endpoint = max(abs(cd.pressure_angle(seg.psi_start, s.eta)),
                           abs(cd.pressure_angle(seg.psi_end, s.eta)))
            assert cd.max_pressure_angle(s) == pytest.approx(endpoint, rel=1e-12)


class TestContactForce:
    def test_power_balance_identity(self, load):
        s = spec50()
        delta = cd.extended_angle(s)
        seg = cd.active_segment(s, delta)
        for psi in np.linspace(seg.psi_start, seg.psi_end, 7):
            F = cd.contact_force(float(psi), load, s)
            mu = cd.pressure_angle(float(psi), s.eta)
            assert F * math.cos(mu) * s.p / TAU == pytest.approx(load.torque,
                                                                 rel=1e-12)

    def test_pure_ratio_at_vanishing_angle(self, load):
        s = spec50(p=20.0, eta=0.18, r=3.0)
        F = cd.contact_force(1e9, load, s)
        assert F == pytest.approx(TAU * 1200.0 / 20.0, rel=1e-9)

    def test_sixty_degree_angle_doubles_force(self, load):
        # psi placed so that |mu| = 60 degrees exactly
        s = spec50(p=20.0, eta=0.18, r=3.0)
        q = TAU * s.eta - 1.0
        psi = math.pi - q / math.tan(math.pi / 3.0)
        assert abs(cd.pressure_angle(psi, s.eta)) == pytest.approx(math.pi / 3.0)
        assert cd.contact_force(psi, load, s) == pytest.approx(
            2.0 * TAU * 1200.0 / 20.0, rel=1e-9)


class TestMaxHertzPressure:
    def test_baseline_peak_location_and_composition(self, load, steel_pair):
        s = spec50()
        delta = cd.extended_angle(s)
        P_max, psi_at = cd.max_hertz_pressure(s, load, *steel_pair)
        assert psi_at == pytest.approx(math.pi - delta, abs=1e-9)
        # recompose independently from the scalar operations
        F = cd.contact_force(psi_at, load, s)
        rho_c = 1.0 / cd.cam_curvature(cd.pitch_curvature(psi_at, s.p, s.eta), s.r)
        K = cd.material_coefficient(steel_pair[0])
        B = cd.hertz_band_width(F, K, K, cd.equivalent_radius(s.r, rho_c), s.L)
        assert P_max == pytest.approx(cd.hertz_pressure(F, s.L, B), rel=1e-12)

    def test_wider_contact_lowers_pressure(self, load, steel_pair):
        P1, _ = cd.max_hertz_pressure(spec50(L=10.0), load, *steel_pair)
        P2, _ = cd.max_hertz_pressure(spec50(L=20.0), load, *steel_pair)
        assert P2 == pytest.approx(P1 / math.sqrt(2.0), rel=1e-9)

    def test_material_swap_leaves_pressure_unchanged(self, load):
        cast = cd.find_material("grey cast iron")
        steel = cd.find_material("improved steel")
        P_ab, _ = cd.max_hertz_pressure(spec50(), load, steel, cast)
        P_ba, _ = cd.max_hertz_pressure(spec50(), load, cast, steel)
        assert P_ab == pytest.approx(P_ba, rel=1e-14)


class TestSegmentMetrics:
    def test_batching_is_bitwise_invisible(self, rng, steel):
        # eta below 1/(2*pi), open profiles, concave arcs and feasible pairs
        eta = rng.uniform(0.1, 0.7, 300)
        r = rng.uniform(2.0, 10.5, 300)
        K_sum = 2.0 * cd.material_coefficient(steel)
        whole = segment_metrics(20.0, eta, r, 2, 1200.0, K_sum)
        parts = [segment_metrics(20.0, eta[s:s + 37], r[s:s + 37], 2, 1200.0, K_sum)
                 for s in range(0, 300, 37)]
        for name, col in zip(whole._fields, zip(*parts)):
            assert np.array_equal(getattr(whole, name), np.concatenate(col),
                                  equal_nan=True), name
        assert 0 < whole.ok.sum() < 300

    def test_given_delta_is_bitwise_invisible(self, rng, steel):
        eta = rng.uniform(0.1, 0.7, 200)
        r = rng.uniform(2.0, 10.5, 200)
        K_sum = 2.0 * cd.material_coefficient(steel)
        delta = segment_metrics(20.0, eta, r, 2, 1200.0, K_sum).delta
        for m in (2, 3, 4):
            solved = segment_metrics(20.0, eta, r, m, 1200.0, K_sum)
            given = segment_metrics(20.0, eta, r, m, 1200.0, K_sum, delta=delta)
            for name in solved._fields:
                assert np.array_equal(getattr(solved, name), getattr(given, name),
                                      equal_nan=True), (m, name)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_polished_scan(self, load, steel_pair, m):
        # broad draws, draws where the pressure peaks inside the arc, and
        # rollers larger than the eccentricity, which give concave arcs
        rng = np.random.default_rng(100 + m)
        p = 20.0
        eta = np.concatenate([rng.uniform(0.15, 0.7, 120), rng.uniform(0.25, 0.37, 80),
                              rng.uniform(0.15, 0.45, 80)])
        r = eta * p * np.concatenate([rng.uniform(0.05, 0.97, 120),
                                      rng.uniform(0.66, 0.97, 80),
                                      rng.uniform(1.0, 3.0, 80)])
        K_sum = 2.0 * cd.material_coefficient(steel_pair[0])
        seg = segment_metrics(p, eta, r, m, load.torque, K_sum)
        start, _ = cd.geometry.driving_window(seg.delta, m)
        assert np.array_equal(seg.psi_mu, start, equal_nan=True)
        assert np.array_equal(seg.mu_max, np.abs(cd.pressure_angle(start, eta)),
                              equal_nan=True)
        turnover = cd.geometry.curvature_turnover(eta)
        inner = closed = 0
        for i in np.flatnonzero(np.isfinite(seg.delta)):
            spec = SimpleNamespace(p=p, eta=eta[i], r=r[i], m=m, L=1.0)
            ref = oracles.segment_scan(spec, load, *steel_pair, delta=seg.delta[i])
            closed += 1
            assert seg.ok[i] == ref.ok
            if np.all(ref.rho_c > -r[i]):  # no pole: kappa_p keeps its sign
                assert seg.rho_c_min[i] <= ref.rho_c.min()
            else:
                assert seg.rho_c_min[i] < -r[i]
            if not ref.ok:
                assert np.isnan(seg.P_max[i]) and np.isnan(seg.psi_P[i])
                continue
            assert seg.P_max[i] == pytest.approx(ref.P_max, rel=1e-12, abs=0.0)
            # never below a dense scan in the kernel's own arithmetic, and
            # no node past the turnover beats the peak found
            dense = contact_state(ref.psi, p, eta[i], r[i], load.torque, K_sum, 1.0)[2]
            assert seg.P_max[i] >= dense.max()
            beyond = ref.psi > turnover[i]
            if beyond.any():
                assert dense[beyond].max() <= seg.P_max[i]
            inner += seg.psi_P[i] > start[i]
        assert closed >= 200 and seg.ok.sum() >= 100
        assert closed - seg.ok.sum() >= 10
        if m == 2:
            assert inner >= 20

    def test_two_peak_pairs_match_polished_scan(self, load, steel_pair):
        # just above this curve of r/e over eta the pressure falls from the
        # arc start, dips and rises to an interior maximum a little higher
        # than the start value, so a coarse first scan can rank the start
        # above every node next to the maximum
        rng = np.random.default_rng(38)
        p = 20.0
        t = rng.uniform(0.0, 0.0065, 120)
        eta = 0.38 + t
        r = eta * p * (0.96935 + 3.855 * t - 13.04 * t * t + rng.uniform(0.0, 2e-4, 120))
        K_sum = 2.0 * cd.material_coefficient(steel_pair[0])
        seg = segment_metrics(p, eta, r, 2, load.torque, K_sum)
        assert seg.ok.all()
        two_peak = near_tie = 0
        for i in range(len(eta)):
            spec = SimpleNamespace(p=p, eta=eta[i], r=r[i], m=2, L=1.0)
            ref = oracles.segment_scan(spec, load, *steel_pair, delta=seg.delta[i])
            assert seg.P_max[i] == pytest.approx(ref.P_max, rel=1e-12, abs=0.0)
            if ref.P[1] < ref.P[0] < ref.P_max:
                two_peak += 1
                near_tie += ref.P_max < ref.P[0] * (1.0 + 1e-5)
        assert two_peak >= 100 and near_tie >= 15


@settings(max_examples=100)
@given(st.floats(0.16, 0.7), st.floats(0.05, 0.99))
def test_log_slope_is_negative_at_the_end_of_the_peak_search(eta, rfrac):
    # the search for an inner pair ends at the curvature turnover, where the
    # log-derivative of the squared pressure is negative, so its last sign
    # change is a maximum
    p, r = 20.0, rfrac * eta * 20.0
    seg = segment_metrics(p, [eta], [r], 2, 1200.0, 2.0 * K_STEEL)
    start = driving_window(seg.delta, 2)[0]
    b = min_cam_radius(seg.delta, p, np.array([eta]), r, 2)[0]
    assume(seg.ok[0] and start[0] < b[0])
    assert b[0] == curvature_turnover(eta)
    assert _hertz_log_slope(b[0] - math.pi, TAU * eta - 1.0, TAU * r / p)[0] < 0.0


def hertz_arcs(p, eta, r, m):
    """The peak search's [a, b] of each pair: its arc start and turnover."""
    delta = driving_arc(p, eta, r, m)[0]
    return driving_window(delta, m)[0], curvature_turnover(eta)


def full_scan_hertz(a, b, p, eta, r):
    """`_hertz_peak_angle` by `oracles.last_root_full_scan`: every node scanned."""
    q, k = (TAU * eta - 1.0)[:, None], (TAU / p) * r[:, None]
    w, found = oracles.last_root_full_scan(
        lambda x: _hertz_log_slope(x, q, k),
        np.linspace(a - math.pi, b - math.pi, ROOT_SCAN_NODES, axis=1), steps=ROOT_NEWTON_STEPS)
    return math.pi + w, found


@settings(max_examples=150, deadline=None)
@given(st.floats(15.0, 60.0), st.sampled_from([2, 3]),
       st.lists(st.tuples(st.one_of(st.floats(0.16, 1.0), st.just(math.nan)),
                          st.floats(0.05, 1.2)), min_size=1, max_size=40))
def test_hertz_peak_search_equals_the_full_scan_bitwise(p, m, pairs):
    # every pair, inner or not, with or without a sign change, NaN eta too;
    # the search scans one row of nodes per pair
    eta = np.array([e for e, _ in pairs])
    r = np.array([f for _, f in pairs]) * eta * p
    with np.errstate(invalid="ignore"):
        a, b = hertz_arcs(p, eta, r, m)
    got = _hertz_peak_angle(a, b, p, eta, r)
    assert got.tobytes() == full_scan_hertz(a, b, p, eta, r)[0].tobytes()


def test_hertz_full_scan_cases_occur():
    # inner pairs with and without a sign change of the log-slope, and NaN
    rng = np.random.default_rng(41)
    eta = np.concatenate([rng.uniform(0.16, 0.7, 200), [math.nan]])
    r = eta * 20.0 * np.concatenate([rng.uniform(0.05, 0.99, 200), [0.5]])
    with np.errstate(invalid="ignore"):
        a, b = hertz_arcs(20.0, eta, r, 2)
    inner = np.flatnonzero(~(a >= b))  # NaN arcs stay in
    want, found = full_scan_hertz(a[inner], b[inner], 20.0, eta[inner], r[inner])
    got = _hertz_peak_angle(a[inner], b[inner], 20.0, eta[inner], r[inner])
    assert got.tobytes() == want.tobytes()
    assert 10 <= found.sum() <= len(inner) - 10 and np.isnan(got[-1])


def test_hertz_scan_values_equal_the_value_and_slope_values(rng):
    # the scan's value-only g is bit for bit the value of `_hertz_log_slope`
    w = np.concatenate([rng.uniform(-0.5, 3.0, (200, 17)), np.full((1, 17), math.nan)])
    q = np.concatenate([rng.uniform(-1.0, 12.0, 200), [0.5]])[:, None]
    k = np.concatenate([rng.uniform(0.0, 3.0, 200), [1.0]])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = _hertz_log_value(w, q, k)
        assert v.tobytes() == _hertz_log_slope(w, q, k)[0].tobytes()


class TestMechanismSize:
    def test_values(self):
        assert cd.mechanism_size(2, 30.0) == 60.0
        assert cd.mechanism_size(3, 30.0) == 90.0

    def test_single_cam_rejected(self):
        with pytest.raises(InfeasibleCamCount):
            cd.mechanism_size(1, 30.0)

    def test_counts_below_one_ask_for_two_cams(self):
        with pytest.raises(InfeasibleCamCount,
                           match=r"at least two cams .*\(m=0 in a mechanism size\)"):
            cd.mechanism_size(0, 10.0)
        with pytest.raises(InfeasibleCamCount,
                           match=r"at least two cams .*\(m=-3 in the design space\)"):
            cd.DesignSpace(m_values=(-3, 2))


class TestLoadCase:
    def test_torque_positive(self):
        for torque in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidSpec):
                cd.LoadCase(torque)

    @pytest.mark.parametrize("speed", [-5.0, -1e-300, float("nan"), float("inf")])
    def test_speed_finite_and_not_negative(self, speed):
        with pytest.raises(InvalidSpec, match="cam speed"):
            cd.LoadCase(1200.0, speed_rpm=speed)

    def test_high_speed_flag(self):
        assert not cd.LoadCase(1200.0, speed_rpm=0.0).high_speed
        assert not cd.LoadCase(1200.0).high_speed
        assert not cd.LoadCase(1200.0, speed_rpm=50.0).high_speed
        assert cd.LoadCase(1200.0, speed_rpm=51.0).high_speed


class TestEndpointExtremality:
    def test_pressure_and_angle_peak_at_segment_start(self, rng, load, steel_pair):
        # the angle peak is always at the start; the pressure peak is exactly
        # there whenever rho_c grows across the segment (|delta|^2 >= t*, with
        # t* = 2(2*pi*eta - 1)(2 - pi*eta) the curvature-turnover abscissa),
        # and only slightly inside otherwise
        checked = off_endpoint = 0
        for params in oracles.random_valid_specs(rng, 100):
            s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                    r=params["r"], m=params["m"], L=params["L"])
            rep = cd.feasibility_check(s)
            if not rep.ok:
                continue
            delta = cd.extended_angle(s)
            seg = cd.active_segment(s, delta)
            psis = seg.grid(2048)
            mus = np.abs(cd.pressure_angle(psis, s.eta))
            assert int(np.argmax(mus)) == 0
            P = oracles.hertz_pressure_series(psis, s, load, *steel_pair)
            if np.isnan(P).any():
                continue
            i = int(np.argmax(P))
            q = TAU * s.eta - 1.0
            w0 = seg.psi_start - math.pi
            monotone = w0 * w0 >= 2.0 * q * (2.0 - math.pi * s.eta)
            if monotone:
                assert i <= 1
            elif i > 1:
                off_endpoint += 1
                assert i <= 0.12 * len(psis)
                assert (P[i] - P[0]) / P[0] <= 0.08
            checked += 1
        assert checked >= 80


class TestMonotoneTrends:
    def test_trends_at_random_base_points(self, rng, load, steel_pair):
        bases = oracles.random_valid_specs(rng, 20)
        for params in bases:
            p, eta, r, L = params["p"], params["eta"], params["r"], params["L"]
            if r >= 0.85 * eta * p:
                r = 0.85 * eta * p
            s2 = cd.TransmissionSpec(p=p, eta=eta, r=r, m=2, L=L)
            s3 = cd.TransmissionSpec(p=p, eta=eta, r=r, m=3, L=L)
            # more conjugate cams: lower pressure angle
            assert cd.max_pressure_angle(s3) < cd.max_pressure_angle(s2)
            # higher eta: angle does not decrease
            s2b = cd.TransmissionSpec(p=p, eta=eta * 1.05, r=r, m=2, L=L)
            assert cd.max_pressure_angle(s2b) >= cd.max_pressure_angle(s2) - 1e-12
            if not cd.feasibility_check(s2).ok:
                continue
            P2, _ = cd.max_hertz_pressure(s2, load, *steel_pair)
            # wider contact: lower pressure
            wide = cd.TransmissionSpec(p=p, eta=eta, r=r, m=2, L=L * 1.5)
            P2w, _ = cd.max_hertz_pressure(wide, load, *steel_pair)
            assert P2w < P2
            # more cams at equal width: pressure does not increase
            if cd.feasibility_check(s3).ok:
                P3, _ = cd.max_hertz_pressure(s3, load, *steel_pair)
                assert P3 <= P2 + 1e-9
            # size strictly increases in both m and L
            assert cd.mechanism_size(3, L) > cd.mechanism_size(2, L)
            assert cd.mechanism_size(2, L * 1.5) > cd.mechanism_size(2, L)


@settings(max_examples=40)
@given(st.floats(0.18, 0.55), st.floats(25.0, 60.0))
def test_property_pressure_angle_series_matches_scalar(eta, p):
    psis = np.linspace(math.pi + 0.5, math.pi + 4.0, 9)
    series = cd.pressure_angle(psis, eta)
    for psi, mu in zip(psis, series):
        assert mu == pytest.approx(cd.pressure_angle(float(psi), eta), rel=1e-14)


_PSI, _P, _TORQUE, _L = (st.floats(0.0, TAU), st.floats(5.0, 100.0),
                         st.floats(1.0, 1e4), st.floats(1.0, 50.0))
_ETA, _R, _M = st.floats(0.1, 2.0), st.floats(0.5, 30.0), st.sampled_from([2, 3, 5])
_K_SUM = st.floats(1e-6, 1e-5)
_CONTACT_ROW = st.tuples(_PSI, _P, _ETA, _R, _TORQUE, _K_SUM, _L)
_SINGULAR_CONTACT = (math.pi, 50.0, 1.0 / TAU, 4.0, 1200.0, 2.0 * K_STEEL, 10.0)


def _call(fn, singular, rows=None, shared=st.just(())):
    """An entry of SCALAR_BATCH_CALLS: the function, a singular row of
    per-pair arguments, a strategy of regular rows (None: the singular row
    alone) and a strategy of the arguments that every pair shares, passed
    after the per-pair ones."""
    return fn, singular, rows, shared


# The singular rows: a singular eta, a blocking roller, a mid-stroke pressure
# angle, a diverging force, a degenerate radius, a negative load or radius, a
# zero load or band, and the contact state and pressure partials where the
# curvature's numerator and w^2 + q^2 both vanish.
SCALAR_BATCH_CALLS = {
    "profile_coefficients": _call(cd.profile_coefficients, (1.0, 50.0, 1.0 / TAU)),
    "pitch_curvature": _call(cd.pitch_curvature, (math.pi, 50.0, 1.0 / TAU),
                             st.tuples(_PSI, _P, _ETA)),
    "cam_curvature": _call(cd.cam_curvature, (0.25, 4.0)),
    "pressure_angle": _call(cd.pressure_angle, (math.pi, 0.18)),
    "normal_force": _call(_normal_force, (math.pi / 2.0, 1200.0, 50.0)),
    "equivalent_radius": _call(cd.equivalent_radius, (4.0, -4.0)),
    "band_width_negative_load": _call(cd.hertz_band_width, (-1.0, K_STEEL, K_STEEL, 3.0, 10.0)),
    "band_width_negative_radius": _call(cd.hertz_band_width,
                                        (1.0, K_STEEL, K_STEEL, -3.0, 10.0)),
    "pressure_zero_load": _call(cd.hertz_pressure, (0.0, 10.0, 0.0)),
    "pressure_zero_band": _call(cd.hertz_pressure, (377.0, 10.0, 0.0)),
    "contact_state": _call(contact_state, _SINGULAR_CONTACT, _CONTACT_ROW),
    "pressure_sensitivities": _call(pressure_sensitivities, _SINGULAR_CONTACT, _CONTACT_ROW),
    "closure_angles": _call(lambda eta, r, p: closure_angles(p, eta, r),
                            (1.0 / TAU, 4.0), st.tuples(_ETA, _R), st.tuples(_P)),
    "driving_arc": _call(lambda eta, r, p, m: driving_arc(p, eta, r, m),
                         (1.0 / TAU, 4.0), st.tuples(_ETA, _R), st.tuples(_P, _M)),
    "segment_metrics": _call(lambda eta, r, p, *rest: segment_metrics(p, eta, r, *rest),
                             (1.0 / TAU, 4.0), st.tuples(_ETA, _R),
                             st.tuples(_P, _M, _TORQUE, _K_SUM)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_BATCH_CALLS))
@given(data=st.data())
def test_singular_scalar_equals_batch_of_one(name, data):
    # The formulas are elementwise and each step is correctly rounded, so a
    # pair's bits do not depend on its batch: a batch, each batch of one and
    # the scalar call agree, NaN and inf included, and neither raises nor
    # warns (the suite turns warnings into errors); only the gates raise.
    fn, singular, rows, shared = SCALAR_BATCH_CALLS[name]
    batch = [singular]
    if rows is not None:
        batch += data.draw(st.lists(rows, min_size=1, max_size=6))
    shared = data.draw(shared)
    columns = [np.array(c) for c in zip(*batch)]

    def flat(result, k=None):  # pair k of a batch, or the whole result
        parts = [np.asarray(v, dtype=float)
                 for v in (result if isinstance(result, tuple) else (result,))]
        return np.concatenate([np.ravel(v if k is None else v[..., k]) for v in parts])

    whole = fn(*columns, *shared)
    for k, row in enumerate(batch):
        one = flat(fn(*(c[k:k + 1] for c in columns), *shared))
        assert np.array_equal(flat(whole, k), one, equal_nan=True), row
        assert np.array_equal(flat(fn(*row, *shared)), one, equal_nan=True), row
