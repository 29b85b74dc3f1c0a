import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camdrive as cd
from camdrive.errors import (
    InfeasibleProfile,
    InvalidSpec,
    ModelError,
    NoRootFound,
    RollerBlocksCam,
)
from camdrive.geometry import (
    BLOCKING_REL_TOL,
    ETA_MAX,
    GEOMETRY_NOTES,
    TAU,
    cam_curvature_radius,
    closure_angles,
    curvature_turnover,
    driving_arc,
    last_root,
    require_feasible,
)
from camdrive.mechanics import segment_metrics

import oracles

# frozen from independent high-precision evaluation of the closed forms
B1_P50 = 7.957747154594767
B2_AT_PI = 1.042252845405233
DELTA_ANGLE_AT_ROOT = -1.5412790851265086
KAPPA_P_AT_PI = -6.366152668984844
KAPPA_P_AT_PI_MINUS_1 = 0.10855555556938017


def spec50():
    return cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0)


class TestSpecInvariants:
    def test_derived_quantities(self):
        s = spec50()
        assert s.e == pytest.approx(9.0)
        assert s.d_cs == pytest.approx(10.0)

    @pytest.mark.parametrize("kwargs", [
        dict(p=-1.0, eta=0.18, r=4.0),
        dict(p=50.0, eta=0.18, r=-4.0),
        dict(p=50.0, eta=0.18, r=4.0, L=0.0),
        dict(p=50.0, eta=0.18, r=4.0, m=1.5),
        dict(p=50.0, eta=0.18, r=4.0, m=0),
        dict(p=50.0, eta=0.18, r=9.5),   # e = 9 <= r
        dict(p=50.0, eta=1e101, r=4.0),  # above ETA_MAX
        dict(p=50.0, eta=float("nan"), r=4.0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidSpec):
            cd.TransmissionSpec(**kwargs)

    def test_largest_eta_accepted(self):
        from camdrive.geometry import ETA_MAX
        assert cd.TransmissionSpec(p=50.0, eta=ETA_MAX, r=4.0).e == 50.0 * ETA_MAX


# every model value that must be positive and finite, set to v
POSITIVE_FINITE = {
    "spec-p": lambda v: cd.TransmissionSpec(p=v, eta=0.18, r=4.0),
    "spec-r": lambda v: cd.TransmissionSpec(p=50.0, eta=0.18, r=v),
    "spec-L": lambda v: cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0, L=v),
    "mechanism_size-L": lambda v: cd.mechanism_size(2, v),
    "LoadCase-torque": lambda v: cd.LoadCase(v),
    "Material-E": lambda v: cd.Material("x", v, 0.3, (100.0, 100.0), (40.0, 40.0)),
    "evaluate_candidate-L": lambda v: cd.evaluate_candidate((2.0, 4.0, v, 2),
                                                            cd.DesignSpace()),
    "DesignSpace-pitch": lambda v: cd.DesignSpace(pitch=v),
    "DesignSpace-mu_cap": lambda v: cd.DesignSpace(mu_cap=v),
    "DesignSpace-P_cap": lambda v: cd.DesignSpace(P_cap=v),
    "DesignSpace-S_cap": lambda v: cd.DesignSpace(S_cap=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", POSITIVE_FINITE)
def test_non_finite_values_rejected(field, value):
    # NaN fails `not 0 < x < inf`, where it passed an `x <= 0` test
    with pytest.raises(InvalidSpec, match="must be positive and finite"):
        POSITIVE_FINITE[field](value)


LENGTHS = [f for f in POSITIVE_FINITE if f.endswith(("-p", "-r", "-L", "-pitch", "-S_cap"))]


@pytest.mark.parametrize("value", [5e-324, 9.9e-7, 1.01e6, 1e308])
@pytest.mark.parametrize("field", LENGTHS)
def test_lengths_outside_the_model_range_rejected(field, value):
    # a subnormal roller radius and width gave an infinite Hertz pressure
    with pytest.raises(InvalidSpec, match=r"must lie in \[1e-06, 1e\+06\] mm"):
        POSITIVE_FINITE[field](value)


@pytest.mark.parametrize("value", [5e-324, 9.9e-7, 1.01e12, 1e308])
def test_torque_outside_the_model_range_rejected(value):
    # a subnormal torque gave a NaN Hertz pressure
    with pytest.raises(InvalidSpec, match=r"torque must lie in \[1e-06, 1e\+12\] N\*mm"):
        cd.LoadCase(value)
    cd.LoadCase(min(max(value, 1e-6), 1e12))


class TestFollowerDisplacement:
    def test_home_position(self):
        assert cd.follower_displacement(0.0, 50.0) == pytest.approx(-25.0)

    def test_mid_stroke(self):
        assert cd.follower_displacement(math.pi, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_full_turn_gain(self):
        assert cd.follower_displacement(TAU, 20.0) == pytest.approx(10.0)

    @given(st.floats(-50.0, 50.0), st.floats(1.0, 100.0))
    def test_one_turn_advances_by_pitch(self, psi, p):
        gain = cd.follower_displacement(psi + TAU, p) - cd.follower_displacement(psi, p)
        assert gain == pytest.approx(p, rel=1e-9)


class TestProfileCoefficients:
    def test_b1_and_b2_at_mid_stroke(self):
        b1, b2, d = cd.profile_coefficients(math.pi, 50.0, 0.18)
        assert b1 == pytest.approx(B1_P50, rel=1e-14)
        assert b2 == pytest.approx(B2_AT_PI, rel=1e-14)
        assert d == 0.0

    def test_angle_at_closure(self):
        _, _, d = cd.profile_coefficients(-1.2943, 50.0, 0.18)
        assert d == pytest.approx(DELTA_ANGLE_AT_ROOT, rel=1e-12)

    def test_singular_eta_rejected(self):
        # at eta = 1/(2*pi) the formulas give what an array gives, here a
        # 90-degree angle and a NaN curvature; the gate rejects the design
        eta = 1.0 / TAU
        assert cd.profile_coefficients(1.0, 50.0, eta)[2] == -math.pi / 2.0
        assert math.isnan(cd.pitch_curvature(math.pi, 50.0, eta))
        with pytest.raises(NoRootFound, match="singular"):
            require_feasible(cd.TransmissionSpec(p=50.0, eta=eta, r=4.0))

    def test_accepts_arrays(self):
        psi = np.array([0.0, math.pi, 4.0])
        _, b2, d = cd.profile_coefficients(psi, 50.0, 0.18)
        assert b2.shape == psi.shape and d.shape == psi.shape


class TestProfilePoints:
    def test_contact_point_at_mid_stroke(self):
        u, v = cd.cam_profile_point(math.pi, spec50())
        assert u == pytest.approx(-5.0, rel=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_ordinate_vanishes_at_closure(self):
        s = spec50()
        delta = cd.extended_angle(s)
        for psi in (delta, TAU - delta):
            _, v = cd.cam_profile_point(psi, s)
            assert abs(v) < 1e-10 * s.p

    def test_pitch_curve_reference_points(self):
        s = spec50()
        assert cd.pitch_curve_point(0.0, s) == pytest.approx((9.0, -25.0))
        u, v = cd.pitch_curve_point(math.pi, s)
        assert (u, v) == pytest.approx((-9.0, 0.0), abs=1e-12)
        u, v = cd.pitch_curve_point(math.pi / 2.0, s)
        assert (u, v) == pytest.approx((-12.5, -9.0))


class TestPitchCurvature:
    def test_value_at_mid_stroke(self):
        assert cd.pitch_curvature(math.pi, 50.0, 0.18) == pytest.approx(
            KAPPA_P_AT_PI, rel=1e-12)

    def test_vanishes_at_eta_one_over_pi(self):
        assert cd.pitch_curvature(math.pi, 50.0, 1.0 / math.pi) == pytest.approx(
            0.0, abs=1e-15)

    def test_matches_finite_difference(self):
        s = spec50()
        psi = math.pi - 1.0
        analytic = cd.pitch_curvature(psi, s.p, s.eta)
        assert analytic == pytest.approx(KAPPA_P_AT_PI_MINUS_1, rel=1e-12)
        fd = oracles.curvature_fd(
            lambda t: cd.pitch_curve_point(t, s)[0],
            lambda t: cd.pitch_curve_point(t, s)[1], psi)
        assert fd == pytest.approx(analytic, rel=1e-4)

    @settings(max_examples=200)
    @given(st.floats(0.17, 0.45), st.floats(20.0, 60.0), st.floats(-0.9, 0.9))
    def test_finite_difference_agreement_over_range(self, eta, p, frac):
        spec = cd.TransmissionSpec(p=p, eta=eta, r=min(2.0, 0.5 * eta * p))
        delta = cd.extended_angle(spec)
        lo, hi = delta + 0.1, TAU - delta - 0.1
        psi = 0.5 * (lo + hi) + frac * 0.5 * (hi - lo)
        analytic = cd.pitch_curvature(psi, p, eta)
        # relative comparison is meaningless across an inflection
        if abs(analytic) < 1e-3 * TAU / p:
            return
        fd = oracles.curvature_fd(
            lambda t: cd.pitch_curve_point(t, spec)[0],
            lambda t: cd.pitch_curve_point(t, spec)[1], psi)
        assert fd == pytest.approx(analytic, rel=1e-4)


def test_curvature_consistency_thousand_triples(rng):
    # analytic curvature against five-point finite differences, away from
    # inflections, across the working parameter ranges
    checked = 0
    while checked < 1000:
        eta = float(rng.uniform(0.17, 0.45))
        p = float(rng.uniform(20.0, 60.0))
        spec = cd.TransmissionSpec(p=p, eta=eta, r=min(2.0, 0.5 * eta * p))
        delta = cd.extended_angle(spec)
        psi = float(rng.uniform(delta + 0.1, TAU - delta - 0.1))
        analytic = cd.pitch_curvature(psi, p, eta)
        if abs(analytic) < 1e-3 * TAU / p:
            continue
        fd = oracles.curvature_fd(
            lambda t: cd.pitch_curve_point(t, spec)[0],
            lambda t: cd.pitch_curve_point(t, spec)[1], psi)
        assert fd == pytest.approx(analytic, rel=1e-4)
        checked += 1


class TestCamCurvature:
    def test_flat_stays_flat(self):
        assert cd.cam_curvature(0.0, 4.0) == 0.0

    def test_zero_roller_radius(self):
        assert cd.cam_curvature(0.123, 0.0) == pytest.approx(0.123)

    def test_offset_identity(self):
        kc = cd.cam_curvature(0.1, 4.0)
        assert kc == pytest.approx(1.0 / 6.0)
        assert 1.0 / 0.1 - 1.0 / kc == pytest.approx(4.0)

    def test_blocking_raises(self):
        # a vanishing radius gives an infinite curvature, as in an array; the
        # gate raises for a design whose radius passes the verdict's threshold,
        # 0 < rho_c <= BLOCKING_REL_TOL*r, here 4e-7 mm
        assert cd.cam_curvature(0.25, 4.0) == math.inf
        kappa_p = 0.25 * (1.0 - 1e-7)
        rho_c = cam_curvature_radius(kappa_p, 4.0)
        assert 0.0 < rho_c <= BLOCKING_REL_TOL * 4.0
        assert cd.cam_curvature(kappa_p, 4.0) == 1.0 / rho_c
        p, eta = 50.0, 1.0 / TAU + 1e-4
        with pytest.raises(RollerBlocksCam):
            require_feasible(cd.TransmissionSpec(p=p, eta=eta, r=blocking_radius(p, eta), m=1))


class TestExtendedAngle:
    def test_reference_value(self):
        delta = cd.extended_angle(spec50())
        assert delta == pytest.approx(-1.2943, abs=5e-4)
        assert delta < 0.0

    def test_root_quality(self):
        s = spec50()
        delta = cd.extended_angle(s)
        assert abs(oracles.vc_reference(delta, s.p, s.eta, s.r)) < 1e-10 * s.p

    def test_matches_independent_scan(self):
        s = cd.TransmissionSpec(p=20.0, eta=0.277, r=4.24)
        delta = cd.extended_angle(s)
        ref = oracles.closure_root_scan(s.p, s.eta, s.r)
        assert delta == pytest.approx(ref, abs=1e-9)

    def test_no_root_raises(self):
        s = cd.TransmissionSpec(p=20.0, eta=1.0, r=19.6)
        with pytest.raises(NoRootFound):
            cd.extended_angle(s)

    @pytest.mark.parametrize("eta", [0.1, 1.0 / TAU], ids=["below", "singular"])
    def test_eta_at_or_below_singular_raises_the_verdict_note(self, eta):
        s = cd.TransmissionSpec(p=50.0, eta=eta, r=4.0)
        assert cd.feasibility_check(s).cause == 1
        for entry in (cd.extended_angle, cd.sample_profile):
            with pytest.raises(NoRootFound) as info:
                entry(s)
            assert str(info.value) == GEOMETRY_NOTES[1]


def closure_oracle(p, eta, r):
    """`oracles.closure_root_scan` with NaN where it finds no root."""
    try:
        return oracles.closure_root_scan(p, eta, r)
    except ArithmeticError:
        return math.nan


class TestClosureAngles:
    """The batched solver against the dense-scan-and-bisection oracle."""

    P = 20.0

    def assert_matches_oracle(self, eta, r):
        got = closure_angles(self.P, eta, r)
        ref = np.array([closure_oracle(self.P, e, q) for e, q in zip(eta, r)])
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.nanmax(np.abs(got - ref), initial=0.0) <= 1e-12
        return got

    def test_random_pairs_over_the_valid_region(self):
        rng = np.random.default_rng(31)
        eta = rng.uniform(1.0 / TAU + 1e-6, 2.0, 80)
        got = self.assert_matches_oracle(eta, rng.uniform(1e-6, 1.0, 80) * eta * self.P)
        assert np.isfinite(got).sum() > 60

    def test_eta_near_the_singular_value(self):
        rng = np.random.default_rng(32)
        eta = 1.0 / TAU + rng.uniform(1e-9, 1e-6, 25)
        got = self.assert_matches_oracle(eta, rng.uniform(1e-6, 1.0, 25) * eta * self.P)
        assert np.isfinite(got).all()

    def test_roller_near_the_eccentricity(self):
        rng = np.random.default_rng(33)
        eta = rng.uniform(1.0 / TAU + 1e-6, 2.0, 25)
        got = self.assert_matches_oracle(
            eta, eta * self.P * (1.0 - rng.uniform(0.0, 1e-9, 25)))
        assert 0 < np.isnan(got).sum() < 25

    def test_roots_near_minus_pi(self):
        # v_c is linear in r, so r follows from a chosen root psi0; such roots
        # nearest zero need eta above about 3.2
        rng = np.random.default_rng(34)
        eta = rng.uniform(3.3, 50.0, 60)
        psi0 = -math.pi + rng.uniform(0.0, 1e-3, 60)
        q, w, b1 = TAU * eta - 1.0, psi0 - math.pi, self.P / TAU
        r = b1 * np.sqrt(q * q + w * w) - b1 * np.sin(psi0) / np.sin(np.arctan(w / q) - psi0)
        keep = (r > 0.0) & (r < eta * self.P)
        got = self.assert_matches_oracle(eta[keep][:25], r[keep][:25])
        assert len(got) == 25 and (got < -math.pi + 1e-3).all()

    def test_pairs_without_root(self):
        rng = np.random.default_rng(35)
        eta = rng.uniform(0.5, 2.0, 400)
        r = eta * self.P * rng.uniform(0.9, 1.0, 400)
        none = np.isnan(closure_angles(self.P, eta, r))
        assert none.sum() >= 25
        self.assert_matches_oracle(eta[none][:25], r[none][:25])

    def test_batch_equals_chunks_bitwise(self, rng):
        eta = rng.uniform(0.1, 2.0, 500)
        r = rng.uniform(0.0, 1.2, 500) * eta * self.P
        whole = closure_angles(self.P, eta, r)
        chunks = [closure_angles(self.P, eta[s:s + 37], r[s:s + 37])
                  for s in range(0, 500, 37)]
        assert np.array_equal(whole, np.concatenate(chunks), equal_nan=True)
        single = [closure_angles(self.P, e, q)[0] for e, q in zip(eta[:40], r[:40])]
        assert np.array_equal(whole[:40], single, equal_nan=True)
        assert 0 < np.isnan(whole).sum() < 500


def sine(c):
    """g(x) = sin(c*x) and its slope, for per-row frequencies c."""
    c = np.asarray(c, dtype=float)[:, None]
    return lambda x: (np.sin(c * x), c * np.cos(c * x))


class TestLastRoot:
    def test_several_sign_changes_give_the_last_root(self):
        # roots of sin(c*x) at k*pi/c; several lie on [0.3, 9.7] for each c
        c = np.array([1.0, 1.5, 2.0, 2.9])
        x, found = last_root(sine(c), np.linspace(0.3, 9.7, 97))
        last = np.floor(9.7 * c / math.pi) * math.pi / c
        assert found.all()
        assert np.allclose(x, last, rtol=0.0, atol=1e-14)

    def test_row_without_a_change_is_not_found(self):
        nodes = np.linspace(-1.0, 1.0, 17)
        shift = np.array([[0.5], [2.0], [-2.0]])
        x, found = last_root(lambda x: (x + shift, np.ones_like(x + shift)), nodes)
        assert found.tolist() == [True, False, False]
        assert x[0] == -0.5 and (x[1:] == nodes[0]).all()

    def test_nan_rows_stay_nan(self):
        # NaN values of g have no sign change; a NaN node row gives a NaN root
        c = np.array([1.0, np.nan, 2.0])
        nodes = np.linspace(0.3, 5.0, 33)
        x, found = last_root(sine(c), nodes)
        assert found.tolist() == [True, False, True]
        rows = np.vstack([nodes, nodes, np.full(33, np.nan)])
        x, found = last_root(sine([1.0, 1.0, 1.0]), rows)
        assert found.tolist() == [True, True, False]
        assert np.isfinite(x[:2]).all() and np.isnan(x[2])

    def test_per_pair_rows_agree_with_shared_nodes(self, rng):
        c = rng.uniform(0.5, 3.0, 50)
        nodes = np.linspace(0.3, 9.7, 17)
        shared = last_root(sine(c), nodes)
        per_pair = last_root(sine(c), np.tile(nodes, (50, 1)))
        for a, b in zip(shared, per_pair):
            assert np.array_equal(a, b)

    def test_batching_is_bitwise_invisible(self, rng):
        c = rng.uniform(0.5, 3.0, 300)
        lo = rng.uniform(0.0, 2.0, 300)
        rows = np.linspace(lo, lo + rng.uniform(1.0, 8.0, 300), 17, axis=1)
        whole = last_root(sine(c), rows)
        chunks = [last_root(sine(c[s:s + 37]), rows[s:s + 37]) for s in range(0, 300, 37)]
        single = [last_root(sine(c[i:i + 1]), rows[i]) for i in range(300)]
        for parts in (chunks, single):
            for a, b in zip(whole, zip(*parts)):
                assert np.array_equal(a, np.concatenate(b))
        assert 0 < whole[1].sum() < 300


@given(st.floats(1.0 / TAU, ETA_MAX, exclude_min=True))
def test_curvature_turnover_stays_within_one_and_a_half(eta):
    # so the turnover pi + w* never reaches the driving arc's end, where w >= pi
    assert curvature_turnover(eta) - math.pi <= 1.5


class TestMinProfileRadius:
    """The smallest cam radius on the arc, as the report gives it."""

    def test_two_cam_minimum_at_window_start(self):
        s = spec50()
        delta = cd.extended_angle(s)
        rep = cd.feasibility_check(s)
        psi_min, rho_min = rep.psi_min, rep.rho_c_min
        assert psi_min == pytest.approx(math.pi - delta, abs=1e-3)
        assert rho_min > 0.0

    def test_is_global_minimum_of_samples(self):
        s = spec50()
        delta = cd.extended_angle(s)
        rho_min = cd.feasibility_check(s).rho_c_min
        a = math.pi - delta
        b = TAU - delta
        psis = np.linspace(a, b, 20000)
        kp = cd.pitch_curvature(psis, s.p, s.eta)
        rho = (1.0 - s.r * kp) / kp
        assert rho_min <= rho.min() + 1e-9

    def test_convex_eta_gives_positive_radius(self):
        s = cd.TransmissionSpec(p=50.0, eta=0.35, r=4.0)
        rho_min = cd.feasibility_check(s).rho_c_min
        assert rho_min > 0.0


class TestFeasibility:
    def test_singular_eta_flagged_not_raised(self):
        s = cd.TransmissionSpec(p=50.0, eta=1.0 / TAU, r=4.0)
        rep = cd.feasibility_check(s)
        assert not rep.eta_valid and not rep.ok

    def test_eta_below_singular_flagged(self):
        s = cd.TransmissionSpec(p=50.0, eta=0.1, r=4.0)
        assert not cd.feasibility_check(s).eta_valid

    def test_fully_convex_above_one_over_pi(self):
        s = cd.TransmissionSpec(p=50.0, eta=0.35, r=4.0)
        rep = cd.feasibility_check(s)
        assert rep.fully_convex and rep.profile_feasible

    def test_baseline_flags(self):
        rep = cd.feasibility_check(spec50())
        assert rep.eta_valid and rep.profile_feasible
        assert not rep.fully_convex and not rep.blocking
        assert rep.ok

    def test_numeric_convexity_agrees_with_flag(self, rng):
        # min cam curvature over the whole profile, mid-stroke node included
        for params in oracles.random_valid_specs(rng, 100):
            s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                    r=params["r"], m=params["m"], L=params["L"])
            rep = cd.feasibility_check(s)
            delta = cd.extended_angle(s)
            psis = np.append(np.linspace(delta, TAU - delta, 4096), math.pi)
            kp = cd.pitch_curvature(psis, s.p, s.eta)
            kc = kp / (1.0 - s.r * kp)
            numeric = bool(kc.min() >= 0.0)
            assert rep.fully_convex == numeric
            assert numeric == (s.eta > 1.0 / math.pi)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_report_is_the_batched_verdict(self, m):
        # half the eta within 0.1 of 1/(2*pi) on either side, half up to 2,
        # and r up to within 1e-12*e of e: causes 0, 1 and 2 (no closure,
        # from eta ~ 0.85 on); the m = 1 arc crosses mid-stroke, where the
        # radius turns negative (cause 4), and the kernel rejects m = 1
        rng = np.random.default_rng(1600 + m)
        n, p = 300, 50.0
        near = 1.0 / TAU + rng.choice([-1.0, 1.0], n, p=[0.3, 0.7]) \
            * 10.0 ** rng.uniform(-10.0, -1.0, n)
        eta = np.where(rng.random(n) < 0.5, near, rng.uniform(0.2, 2.0, n))
        r = eta * p * (1.0 - 10.0 ** rng.uniform(-12.0, -0.01, n))
        cause = driving_arc(p, eta, r, m)[3]
        assert {0, 1, 2 if m > 1 else 4} <= set(cause.tolist())
        ok = segment_metrics(p, eta, r, m, 1200.0, 1e-5).ok if m > 1 else None
        for i in range(n):
            rep = cd.feasibility_check(cd.TransmissionSpec(p=p, eta=eta[i], r=r[i], m=m))
            assert rep.cause == cause[i]
            assert rep.notes == ((GEOMETRY_NOTES[cause[i]],) if cause[i] else ())
            if ok is not None:
                assert rep.ok == ok[i]

    def test_vanishing_radius_blocks(self):
        p, eta = 50.0, 1.0 / TAU + 1e-4
        r_pos, r_neg = 0.01 * eta * p, 0.1 * eta * p
        spec = cd.TransmissionSpec(p=p, eta=eta, r=blocking_radius(p, eta), m=1)
        rep = cd.feasibility_check(spec)
        assert 0.0 < rep.rho_c_min <= BLOCKING_REL_TOL * spec.r
        assert rep.blocking and not rep.ok and rep.cause == 3
        with pytest.raises(RollerBlocksCam, match="roller blocks the cam"):
            require_feasible(spec)
        with pytest.raises(InfeasibleProfile, match="negative"):
            require_feasible(cd.TransmissionSpec(p=p, eta=eta, r=r_neg, m=1))
        assert require_feasible(cd.TransmissionSpec(p=p, eta=eta, r=r_pos, m=1)).ok
        with pytest.raises(NoRootFound, match="singular"):
            require_feasible(cd.TransmissionSpec(p=p, eta=0.1, r=r_pos, m=1))


def blocking_radius(p, eta):
    """r bisected onto the positive side of where the lone cam's smallest
    radius crosses zero, between 0.01*e (positive) and 0.1*e (negative)."""
    lo, hi = 0.01 * eta * p, 0.1 * eta * p
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        rho = driving_arc(p, [eta], [mid], 1)[2][0]
        lo, hi = (mid, hi) if rho > 0.0 else (lo, mid)
    return lo


def raised(entry, spec):
    """The type and message of the error entry(spec) raises; None if it returns."""
    try:
        entry(spec)
    except ModelError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_design_entry_points_follow_the_gate(m):
    # eta within 0.1 of 1/(2*pi) on either side or up to 2, r up to within
    # 1e-12*e of e, and for the lone cam radii bisected onto zero: causes
    # 0, 1 and 2, and for m = 1 also 3 and 4
    rng = np.random.default_rng(1700 + m)
    n, p = 200, 50.0
    eta = np.where(rng.random(n) < 0.5, 1.0 / TAU + rng.uniform(-0.1, 0.1, n),
                   rng.uniform(0.2, 2.0, n))
    r = eta * p * (1.0 - 10.0 ** rng.uniform(-12.0, -0.01, n))
    specs = [cd.TransmissionSpec(p=p, eta=e, r=x, m=m) for e, x in zip(eta, r)]
    if m == 1:
        specs += [cd.TransmissionSpec(p=p, eta=e, r=blocking_radius(p, e), m=1)
                  for e in 1.0 / TAU + np.array([1e-4, 1e-3, 1e-2])]
    causes = set()
    for spec in specs:
        rep = cd.feasibility_check(spec)
        causes.add(rep.cause)
        gate = raised(require_feasible, spec)
        assert (gate is None) == rep.ok
        assert raised(lambda s: cd.sample_profile(s, 16), spec) == gate
        if rep.cause in (1, 2):
            assert raised(cd.extended_angle, spec) == (NoRootFound, GEOMETRY_NOTES[rep.cause])
        else:
            assert cd.extended_angle(spec) == rep.delta
        if rep.ok:
            assert cd.sample_profile(spec, 16).report == rep
    assert causes == ({0, 1, 2, 3, 4} if m == 1 else {0, 1, 2})


class TestSampleProfile:
    def test_closure_and_span(self, baseline_spec):
        prof = cd.sample_profile(baseline_spec, 1024)
        assert prof.resolution == 1024
        assert abs(prof.v_c[0]) < 1e-10 * baseline_spec.p
        assert abs(prof.v_c[-1]) < 1e-10 * baseline_spec.p
        assert prof.psi[0] == pytest.approx(prof.delta)
        assert prof.psi[-1] == pytest.approx(TAU - prof.delta)

    def test_minimum_resolution_enforced(self, baseline_spec):
        with pytest.raises(InvalidSpec):
            cd.sample_profile(baseline_spec, 8)

    def test_samples_immutable(self, baseline_spec):
        prof = cd.sample_profile(baseline_spec, 64)
        with pytest.raises(ValueError):
            prof.u_c[0] = 0.0

    def test_offset_identity_on_samples(self, baseline_spec):
        # rho_p from finite differences must equal rho_c + r where conditioned
        prof = cd.sample_profile(baseline_spec, 512)
        s = baseline_spec
        checked = 0
        for i in range(0, prof.resolution, 16):
            kp = prof.kappa_p[i]
            if abs(kp) < 1e-3 * TAU / s.p:
                continue
            fd = oracles.curvature_fd(
                lambda t: cd.pitch_curve_point(t, s)[0],
                lambda t: cd.pitch_curve_point(t, s)[1], float(prof.psi[i]))
            assert abs(1.0 / fd - (prof.rho_c[i] + s.r)) < 1e-3 * s.p
            checked += 1
        assert checked > 10

    def test_profile_vs_pitch_curvature_radii(self, baseline_spec, rng):
        # independent finite differences on both curves: rho_p - rho_c = r
        for params in oracles.random_valid_specs(rng, 25):
            s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                    r=params["r"], m=2, L=params["L"])
            delta = cd.extended_angle(s)
            a, b = math.pi - delta, TAU - delta
            for frac in (0.1, 0.5, 0.9):
                psi = a + frac * (b - a)
                kp_fd = oracles.curvature_fd(
                    lambda t: cd.pitch_curve_point(t, s)[0],
                    lambda t: cd.pitch_curve_point(t, s)[1], psi)
                kc_fd = oracles.curvature_fd(
                    lambda t: cd.cam_profile_point(t, s)[0],
                    lambda t: cd.cam_profile_point(t, s)[1], psi)
                if abs(kp_fd) < 0.02 * TAU / s.p or abs(kc_fd) < 0.02 * TAU / s.p:
                    continue
                assert abs((1.0 / kp_fd) - (1.0 / kc_fd) - s.r) < 1e-3 * s.r


@settings(max_examples=30)
@given(st.floats(0.17, 0.6), st.floats(20.0, 60.0), st.floats(0.3, 0.9))
def test_property_profile_closes(eta, p, rfrac):
    r = rfrac * min(10.5, 0.9 * eta * p)
    if r < 0.5:
        return
    s = cd.TransmissionSpec(p=p, eta=eta, r=r)
    prof = cd.sample_profile(s, 64)
    assert abs(prof.v_c[0]) < 1e-10 * p
    assert abs(prof.v_c[-1]) < 1e-10 * p
