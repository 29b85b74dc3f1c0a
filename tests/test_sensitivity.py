import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import camdrive as cd
from camdrive import mechanics, sensitivity
from camdrive.errors import InvalidSpec, ModelError, NoRootFound
from camdrive.geometry import TAU
from camdrive.mechanics import compliance_sum, material_coefficient, pressure_sensitivities
from camdrive.sensitivity import PARAMS, _simpson

from oracles import hertz_pressure_series, pressure_partials_fd

# regression values of the normalised sensitivities at the nominal design
# (r=4, eta=0.18, p=50, L=10, torque=1200, steel on steel)
AT_MAX_NOMINAL = {"r": 103.714, "eta": 82.329, "p": 361.327, "L": 232.520}
RMS_NOMINAL = {"r": 156.655, "eta": 20.010, "p": 261.672, "L": 207.750}


@pytest.fixture()
def nominal():
    return cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0, m=2, L=10.0)


def segment_points(spec, k=5):
    delta = cd.extended_angle(spec)
    seg = cd.active_segment(spec, delta)
    return np.linspace(seg.psi_start, seg.psi_end, k)


def library_and_oracle(spec, load, pair, psi):
    """Partials (r, eta, p, L, torque) of the library and of the FD oracle,
    and the oracle's pressure, at one cam angle."""
    return ((cd.pressure_partials(spec, load, pair, psi, include_torque=True),
             pressure_partials_fd(psi, spec, load, *pair)),
            float(hertz_pressure_series(psi, spec, load, *pair)))


class TestPressurePartials:
    def test_width_partial_matches_closed_form(self, nominal, load, steel_pair):
        # P scales as 1/sqrt(L), so dP/dL = -P/(2L) identically
        for psi in segment_points(nominal):
            partials, P = library_and_oracle(nominal, load, steel_pair, float(psi))
            for c in partials:
                assert c[3] < 0.0
                assert c[3] == pytest.approx(-P / (2.0 * nominal.L), rel=1e-4)

    def test_pitch_partial_matches_closed_form(self, nominal, load, steel_pair):
        # dP/dp = -(P/2p)(1 + r/rho_c) at fixed psi
        psi = float(segment_points(nominal)[0])
        partials, P = library_and_oracle(nominal, load, steel_pair, psi)
        kp = cd.pitch_curvature(psi, nominal.p, nominal.eta)
        rho_c = 1.0 / cd.cam_curvature(kp, nominal.r)
        expected = -(P / (2.0 * nominal.p)) * (1.0 + nominal.r / rho_c)
        for c in partials:
            assert c[2] == pytest.approx(expected, rel=1e-4)

    def test_roller_partial_matches_closed_form(self, nominal, load, steel_pair):
        # dP/dr = -(P/2)(rho_c - r)/(r*rho_c) at fixed psi
        psi = float(segment_points(nominal)[0])
        partials, P = library_and_oracle(nominal, load, steel_pair, psi)
        kp = cd.pitch_curvature(psi, nominal.p, nominal.eta)
        rho_c = 1.0 / cd.cam_curvature(kp, nominal.r)
        expected = -(P / 2.0) * (rho_c - nominal.r) / (nominal.r * rho_c)
        for c in partials:
            assert c[0] == pytest.approx(expected, rel=1e-4)

    def test_eccentricity_partial_matches_closed_form(self, nominal, load,
                                                      steel_pair):
        # chain rule through the force (via the pressure angle) and through
        # the equivalent radius (via the pitch curvature)
        psi = float(segment_points(nominal)[0])
        spec = nominal
        q = TAU * spec.eta - 1.0
        w = psi - math.pi
        u = -q / w
        dmu_deta = (-TAU / w) / (1.0 + u * u)
        dlnF = u * dmu_deta                      # F ~ 1/cos(mu)
        num = w * w + 2.0 * q * (math.pi * spec.eta - 1.0)
        D = w * w + q * q
        dnum = 2.0 * math.pi * (4.0 * math.pi * spec.eta - 3.0)
        dden = 1.5 * math.sqrt(D) * (4.0 * math.pi * q)
        dkp = (TAU / spec.p) * (dnum * D ** 1.5 - num * dden) / D ** 3
        kp = cd.pitch_curvature(psi, spec.p, spec.eta)
        rho_c = 1.0 / cd.cam_curvature(kp, spec.r)
        rho_p = rho_c + spec.r
        drho = -dkp / (kp * kp)
        R = cd.equivalent_radius(spec.r, rho_c)
        dR = (spec.r / rho_p) ** 2 * drho
        partials, P = library_and_oracle(spec, load, steel_pair, psi)
        expected = 0.5 * P * (dlnF - dR / R)
        for c in partials:
            assert c[1] == pytest.approx(expected, rel=1e-4)

    def test_step_halving_stability(self, nominal, load, steel_pair):
        psi = float(segment_points(nominal)[0])
        c = cd.pressure_partials(nominal, load, steel_pair, psi)
        full = pressure_partials_fd(psi, nominal, load, *steel_pair, rel_step=1e-6)
        half = pressure_partials_fd(psi, nominal, load, *steel_pair, rel_step=5e-7)
        for i in range(len(PARAMS)):
            assert half[i] == pytest.approx(full[i], rel=1e-6)
            assert c[i] == pytest.approx(full[i], rel=1e-9)

    def test_torque_partial(self, nominal, load, steel_pair):
        psi = float(segment_points(nominal)[0])
        c = cd.pressure_partials(nominal, load, steel_pair, psi, include_torque=True)
        P = pressure_sensitivities(psi, nominal.p, nominal.eta, nominal.r, load.torque,
                                   compliance_sum(*steel_pair), nominal.L)[0]
        assert len(c) == 5
        # P scales as sqrt(torque): normalised torque sensitivity is P/2
        assert c[4] * load.torque == pytest.approx(P / 2.0, rel=1e-5)

    @given(p=st.floats(20.0, 60.0), eta=st.floats(0.17, 0.6),
           r_frac=st.floats(0.0, 1.0), m=st.sampled_from([2, 3]),
           L=st.floats(5.0, 45.0), torque=st.floats(500.0, 2000.0))
    def test_series_match_the_oracle(self, steel_pair, p, eta, r_frac, m, L, torque):
        # the ranges of oracles.random_valid_specs
        r_hi = min(10.5, 0.9 * eta * p)
        assume(r_hi > 2.0)
        spec = cd.TransmissionSpec(p=p, eta=eta, r=2.0 + r_frac * (r_hi - 2.0), m=m, L=L)
        load = cd.LoadCase(torque)
        try:
            rep = cd.sensitivity_report(spec, load, steel_pair, include_torque=True)
        except ModelError:
            assume(False)
        fd = pressure_partials_fd(rep.psi, spec, load, *steel_pair)
        for i, name in enumerate(PARAMS + ("torque",)):
            want = fd[i] * (load.torque if name == "torque" else getattr(spec, name))
            scale = np.abs(want).max()
            assert np.abs(rep.pointwise[name] - want).max() <= 1e-6 * scale


class TestSensitivityProfile:
    def test_series_span_segment(self, nominal, load, steel_pair):
        delta = cd.extended_angle(nominal)
        rep = cd.sensitivity_report(nominal, load, steel_pair, 128)
        assert rep.psi[0] == pytest.approx(math.pi - delta)
        assert rep.psi[-1] == pytest.approx(TAU - delta)
        assert set(rep.pointwise) == set(PARAMS)

    def test_width_series_all_negative(self, nominal, load, steel_pair):
        rep = cd.sensitivity_report(nominal, load, steel_pair, 128)
        assert np.all(rep.pointwise["L"] < 0.0)

    def test_minimum_sample_count(self, nominal, load, steel_pair):
        with pytest.raises(InvalidSpec):
            cd.sensitivity_report(nominal, load, steel_pair, 32)

    def test_optional_torque_series(self, nominal, load, steel_pair):
        rep = cd.sensitivity_report(nominal, load, steel_pair, 64, include_torque=True)
        assert "torque" in rep.pointwise and np.all(rep.pointwise["torque"] > 0.0)


class TestRankings:
    def test_at_max_ranking_and_values(self, nominal, load, steel_pair):
        values, ranking = cd.rank_at_max(nominal, load, steel_pair)
        assert ranking == ("p", "L", "r", "eta")
        for name, ref in AT_MAX_NOMINAL.items():
            assert values[name] == pytest.approx(ref, rel=1e-3)

    def test_rms_ranking_and_values(self, nominal, load, steel_pair):
        values, ranking = cd.rank_rms(nominal, load, steel_pair)
        assert ranking == ("p", "L", "r", "eta")
        for name, ref in RMS_NOMINAL.items():
            assert values[name] == pytest.approx(ref, rel=1e-3)

    def test_rms_node_doubling(self, nominal, load, steel_pair):
        v1, _ = cd.rank_rms(nominal, load, steel_pair, nodes=1025)
        v2, _ = cd.rank_rms(nominal, load, steel_pair, nodes=2049)
        for name in PARAMS:
            assert v2[name] == pytest.approx(v1[name], rel=1e-6)

    def test_rms_node_floor(self, nominal, load, steel_pair):
        with pytest.raises(InvalidSpec):
            cd.rank_rms(nominal, load, steel_pair, nodes=513)

    def test_simpson_reversal_invariance(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(0.5, 2.0, 1025)
        assert _simpson(y, 0.01) == pytest.approx(_simpson(y[::-1], 0.01), rel=1e-12)

    def test_both_modes_agree_on_order(self, load, steel_pair, rng):
        # the two aggregation modes rank the parameters identically
        for _ in range(3):
            eta = float(rng.uniform(0.17, 0.22))
            spec = cd.TransmissionSpec(p=50.0, eta=eta, r=4.0, m=2, L=10.0)
            _, r1 = cd.rank_at_max(spec, load, steel_pair)
            _, r2 = cd.rank_rms(spec, load, steel_pair)
            assert r1 == r2


class TestReport:
    def test_full_report(self, nominal, load, steel_pair):
        rep = cd.sensitivity_report(nominal, load, steel_pair, samples=64)
        assert rep.at_max_ranking == rep.rms_ranking == ("p", "L", "r", "eta")
        assert rep.nominal["p"] == 50.0
        assert rep.segment.psi_start == pytest.approx(math.pi - rep.delta)
        assert len(rep.psi) == 64

    def test_eta_below_singular_value_fails_the_gate(self, load, steel_pair):
        # eta = (r + 1e-7)/p ~ 0.08 lies below 1/(2*pi): no closure angle
        spec = cd.TransmissionSpec(p=50.0, eta=(4.0 + 1e-7) / 50.0, r=4.0, L=10.0)
        for study in (cd.sensitivity_report, cd.rank_at_max, cd.rank_rms):
            with pytest.raises(NoRootFound):
                study(spec, load, steel_pair)

    def test_at_max_sits_at_the_kernel_peak(self, load, steel_pair):
        # an m = 2 design whose Hertz peak lies inside the arc
        spec = cd.TransmissionSpec(p=30.0, eta=0.2518, r=6.3456, m=2, L=10.0)
        _, psi_P = cd.max_hertz_pressure(spec, load, *steel_pair)
        rep = cd.sensitivity_report(spec, load, steel_pair)
        assert psi_P > rep.segment.psi_start
        K_sum = 2.0 * material_coefficient(steel_pair[0])
        _, partials = pressure_sensitivities(psi_P, spec.p, spec.eta, spec.r,
                                             load.torque, K_sum, spec.L)
        values, ranking = cd.rank_at_max(spec, load, steel_pair)
        assert values == rep.at_max and ranking == rep.at_max_ranking
        fd = pressure_partials_fd(psi_P, spec, load, *steel_pair)
        for i, name in enumerate(PARAMS):
            assert values[name] == abs(partials[i])
            assert values[name] == pytest.approx(abs(fd[i]) * getattr(spec, name), rel=1e-6)

    def test_one_kernel_call_and_one_grid_evaluation(self, nominal, load, steel_pair,
                                                     monkeypatch):
        # the series, the rms and the peak values come from one evaluation on
        # the sample grid, the odd node grid and psi_P; each part equals a
        # separate evaluation bit for bit
        kernel, partials_of = mechanics.segment_metrics, sensitivity.pressure_sensitivities
        kernel_calls, psis = [], []

        def counted_kernel(*args, **kwargs):
            kernel_calls.append(args)
            return kernel(*args, **kwargs)

        def counted_partials(psi, *args):
            psis.append(psi)
            return partials_of(psi, *args)

        monkeypatch.setattr(mechanics, "segment_metrics", counted_kernel)
        monkeypatch.setattr(sensitivity, "pressure_sensitivities", counted_partials)
        rep = cd.sensitivity_report(nominal, load, steel_pair, samples=100,
                                    rms_nodes=1026, include_torque=True)
        assert len(kernel_calls) == 1
        assert [np.shape(psi) for psi in psis] == [(100 + 1027 + 1,)]
        _, psi_P = cd.max_hertz_pressure(nominal, load, *steel_pair)
        assert psis[0][-1] == psi_P
        args = (nominal.p, nominal.eta, nominal.r, load.torque,
                compliance_sum(*steel_pair), nominal.L)
        series = partials_of(rep.segment.grid(100), *args)[1]
        peak = partials_of(np.array([psi_P]), *args)[1][:, 0]
        assert np.array_equal(partials_of(psis[0], *args)[1][:, -1], peak)
        nodes = partials_of(rep.segment.grid(1027), *args)[1]
        assert list(rep.pointwise) == list(PARAMS) + ["torque"]
        h = rep.segment.length / 1026
        for i, name in enumerate(PARAMS + ("torque",)):
            assert np.array_equal(rep.pointwise[name], series[i])
        for i, name in enumerate(PARAMS):
            assert rep.at_max[name] == abs(float(peak[i]))
            assert rep.rms[name] == math.sqrt(_simpson(nodes[i] ** 2, h) / rep.segment.length)
