"""Cam profile, pitch curve and curvature geometry.

The mechanism converts a uniform camshaft rotation into a uniform follower
translation through pure-rolling contact between conjugate cams and rollers.
Angles are in radians, lengths in millimetres, curvatures in 1/mm.

Each quantity has one formula here, written for numpy arrays: the profile
ordinate v_c, the closure root, the pitch curvature and its turnover, the
cam curvature radius, its minimum over the driving arc, the driving window
and the geometry verdict `driving_arc`. The batched segment kernel in
`mechanics` and the scalar functions below call the same formulas. Each
formula is elementwise: a scalar gives what a batch of one gives (but for
the last bit of `pitch_curvature`, whose array power can round one ulp away
from the scalar power), and a singular input gives NaN or inf, not an
error. The verdict's cause codes mark the failed pairs. Only the gates
raise: `require_feasible`, which `sample_profile` applies, and
`extended_angle`, with the constructors of the model objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleProfile, InvalidSpec, NoRootFound, RollerBlocksCam

TAU = 2.0 * math.pi

# eta must exceed 1/(2*pi), where the coefficient equations blow up, by this
# much in 2*pi*eta - 1 (`eta_valid`)
ETA_SINGULAR_TOL = 1e-9

# largest eta of a spec; the pitch curvature overflows from eta ~ 5.6e101 on
ETA_MAX = 1e100

# `last_root`: the last sign change over ROOT_SCAN_NODES scan nodes brackets
# the root, and ROOT_NEWTON_STEPS safeguarded Newton steps converge inside it
ROOT_SCAN_NODES = 17
ROOT_NEWTON_STEPS = 6

# range of every length of the model, mm: many orders of magnitude inside the
# float range, so that no product of lengths and loads under- or overflows
# (a subnormal roller radius and width gave an infinite pressure)
MIN_LENGTH = 1e-6
MAX_LENGTH = 1e6

# most cams on one camshaft: each drives at least one degree of its turn
MAX_CAM_COUNT = 360

DEFAULT_PROFILE_RESOLUTION = 2048
MIN_PROFILE_RESOLUTION = 16

# a cam curvature radius within this fraction of r of zero: the roller blocks the cam
BLOCKING_REL_TOL = 1e-6

# the note of each cause code of `driving_arc`, and the error the gate raises
GEOMETRY_NOTES = (
    "",
    "eta is at or below the singular value 1/(2*pi) ~= 0.15915",
    "profile does not close: no root of v_c on [-pi, 0)",
    "cam curvature radius vanishes on the driving arc: roller blocks the cam",
    "cam curvature radius is negative or not finite on the driving arc",
)
_GEOMETRY_ERRORS = (None, NoRootFound, NoRootFound, RollerBlocksCam, InfeasibleProfile)


def require_positive(what: str, value) -> None:
    """Raise InvalidSpec unless value is positive and finite; NaN fails."""
    if not 0.0 < value < math.inf:
        raise InvalidSpec(f"{what} must be positive and finite, got {value}")


def require_length(what: str, value) -> None:
    """Raise InvalidSpec unless value is a length in [MIN_LENGTH, MAX_LENGTH]."""
    require_positive(what, value)
    if not MIN_LENGTH <= value <= MAX_LENGTH:
        raise InvalidSpec(f"{what} must lie in [{MIN_LENGTH:g}, {MAX_LENGTH:g}] mm, "
                          f"got {value}")


@dataclass(frozen=True)
class TransmissionSpec:
    """One candidate transmission with single-lobe cams.

    p    pitch (follower travel per cam turn), mm
    eta  eccentricity ratio e/p, dimensionless
    r    roller radius, mm
    m    conjugate cams on the camshaft
    L    cam/roller contact width, mm
    """

    p: float
    eta: float
    r: float
    m: int = 2
    L: float = 10.0

    def __post_init__(self):
        for what, value in (("pitch", self.p), ("roller radius", self.r),
                            ("contact width", self.L)):
            require_length(what, value)
        if not self.eta <= ETA_MAX:
            raise InvalidSpec(f"eta must be at most {ETA_MAX:g}, got {self.eta}")
        if not 1 <= self.m <= MAX_CAM_COUNT or int(self.m) != self.m:
            raise InvalidSpec(f"cam count must be a whole number in [1, {MAX_CAM_COUNT}], "
                              f"got {self.m}")
        if self.e <= self.r:
            raise InvalidSpec(
                f"eccentricity e={self.e:.6g} must exceed roller radius r={self.r:.6g} "
                "(camshaft diameter would be non-positive)"
            )

    @property
    def e(self) -> float:
        """Eccentricity: distance from cam axis to the roller-centre line, mm."""
        return self.eta * self.p

    @property
    def d_cs(self) -> float:
        """Camshaft diameter, twice the radial clearance e - r, mm."""
        return 2.0 * (self.e - self.r)


@dataclass(frozen=True)
class FeasibilityReport:
    """Geometry verdict and convexity of one spec.

    Infeasibility is data, not an error: every spec gets a report. cause is
    the `driving_arc` cause code, 0 when the spec passes, and the flags and
    the note are read from it.
    """

    cause: int
    fully_convex: bool
    delta: float | None = None
    psi_min: float | None = None
    rho_c_min: float | None = None

    ok = profile_feasible = property(lambda self: self.cause == 0)
    eta_valid = property(lambda self: self.cause != 1)
    blocking = property(lambda self: self.cause == 3)
    notes = property(lambda self: (GEOMETRY_NOTES[self.cause],) if self.cause else ())


@dataclass(frozen=True)
class CamProfile:
    """Sampled cam profile and pitch curve over one closed lobe.

    psi spans [delta, 2*pi - delta] inclusive; the profile ordinate v_c
    vanishes at both ends, which is what closes the curve. report is the
    spec's passing `require_feasible` report; delta is read from it.
    """

    spec: TransmissionSpec
    report: FeasibilityReport
    psi: np.ndarray = field(repr=False)
    u_c: np.ndarray = field(repr=False)
    v_c: np.ndarray = field(repr=False)
    u_p: np.ndarray = field(repr=False)
    v_p: np.ndarray = field(repr=False)
    kappa_p: np.ndarray = field(repr=False)
    rho_c: np.ndarray = field(repr=False)

    @property
    def delta(self) -> float:
        return self.report.delta

    @property
    def resolution(self) -> int:
        return len(self.psi)


def follower_displacement(psi, p):
    """Follower position for cam angle psi; rises by exactly p per turn."""
    return p * psi / TAU - p / 2.0


def profile_coefficients(psi, p, eta):
    """Polar-form coefficients (b1, b2, delta_angle) of the contact point.

    b2 is non-negative and delta_angle uses the principal arctangent branch,
    so the sign of (2*pi*eta - 1) is carried by the angle's argument. At
    eta = 1/(2*pi) the angle is +/-90 degrees, or NaN at psi = pi.
    """
    q = TAU * eta - 1.0
    w = np.asarray(psi, dtype=float) - math.pi
    b1 = p / TAU
    with np.errstate(divide="ignore", invalid="ignore"):
        return b1, b1 * np.sqrt(q * q + w * w), np.arctan(w / q)


def _ordinate_slope(psi, p, eta, r):
    """Profile ordinate v_c, mm, and its derivative dv_c/dpsi, mm/rad.

    With the coefficients b1, b2 and delta_angle of `profile_coefficients`,
    a = delta_angle - psi, w = psi - pi, q = 2*pi*eta - 1 and s = b2/b1:
    v_c = -b1*sin(psi) + (b2 - r)*sin(a), and since db2/dpsi = b1*w/s and
    d(delta_angle)/dpsi = q/s^2,
    dv_c/dpsi = -b1*cos(psi) + (b1*w/s)*sin(a) + (b2 - r)*cos(a)*(q/s^2 - 1).
    """
    b1, b2, d = profile_coefficients(psi, p, eta)
    a = d - psi
    sin_a = np.sin(a)
    k = b1 * b1 / b2  # b1/s
    return (-b1 * np.sin(psi) + (b2 - r) * sin_a,
            -b1 * np.cos(psi) + k * (psi - math.pi) * sin_a
            + (b2 - r) * np.cos(a) * ((TAU * eta - 1.0) * k / b2 - 1.0))


def cam_profile_point(psi, spec: TransmissionSpec):
    """Contact point C in the cam-fixed frame: (u_c, v_c), mm."""
    b1, b2, d = profile_coefficients(psi, spec.p, spec.eta)
    u_c = b1 * np.cos(psi) + (b2 - spec.r) * np.cos(d - psi)
    return u_c, _ordinate_slope(psi, spec.p, spec.eta, spec.r)[0]


def pitch_curve_point(psi, spec: TransmissionSpec):
    """Roller-centre trajectory in the cam-fixed frame: (u_p, v_p), mm."""
    s = follower_displacement(psi, spec.p)
    u_p = spec.e * np.cos(psi) + s * np.sin(psi)
    v_p = -spec.e * np.sin(psi) + s * np.cos(psi)
    return u_p, v_p


def pitch_curvature(psi, p, eta):
    """Analytic curvature of the pitch curve, 1/mm.

    Sign convention: positive where the profile is locally convex on the
    driving side; at mid-stroke (psi = pi) the value is negative whenever
    eta < 1/pi, which is the non-convex nose of the cam. Infinite or NaN
    at psi = pi when eta = 1/(2*pi).
    """
    q = TAU * eta - 1.0
    w = psi - math.pi
    num = w * w + 2.0 * q * (math.pi * eta - 1.0)
    den = (w * w + q * q) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide((TAU / p) * num, den)


def fully_convex(eta):
    """Whether the whole profile is convex, elementwise: pi*eta > 1, which
    makes the `pitch_curvature` numerator positive at every angle."""
    return math.pi * np.asarray(eta, dtype=float) > 1.0


def eta_valid(eta):
    """2*pi*eta - 1 >= ETA_SINGULAR_TOL, elementwise: the verdict's eta rule."""
    return TAU * np.asarray(eta, dtype=float) - 1.0 >= ETA_SINGULAR_TOL


def roller_blocks(rho_c, r):
    """|rho_c| <= BLOCKING_REL_TOL*r, elementwise: the verdict's blocking rule."""
    return np.abs(rho_c) <= BLOCKING_REL_TOL * r


def cam_curvature_radius(kappa_p, r):
    """Signed cam curvature radius (1 - r*kappa_p)/kappa_p, mm.

    Satisfies rho_p = rho_c + r for the signed curvature radii; +/-inf where
    the pitch curve is straight (kappa_p = 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(1.0 - r * kappa_p, kappa_p)


def cam_curvature(kappa_p, r):
    """Cam-profile curvature from pitch curvature: offset by the roller radius.

    The reciprocal of the cam curvature radius: +/-inf where the radius
    vanishes and the roller blocks the cam. The gate `require_feasible`
    raises RollerBlocksCam for a design whose radius fails `roller_blocks`
    on its driving arc.
    """
    with np.errstate(divide="ignore"):
        return np.divide(1.0, cam_curvature_radius(kappa_p, r))


def last_root(g, nodes):
    """Root of g in the last sign change along each row of scan nodes.

    nodes is one row shared by every pair or one row per pair. g(x) returns
    the value and the slope of g elementwise, for x with one row per pair
    (or one shared row) against per-pair parameters held as (n, 1) columns.
    The false-position point of the bracket starts ROOT_NEWTON_STEPS Newton
    steps, safeguarded as in "rtsafe" (Numerical Recipes): each step first
    moves the bracket end on the iterate's side of the root to the iterate,
    and a step that would leave the bracket, or is NaN or inf, bisects
    instead. The bracket test is inclusive, so a converged iterate stays.
    Every step is elementwise and the step count fixed, so a pair's root
    does not depend on its batch. Returns the roots and whether each row has
    a sign change; a row without one gets its first node (NaN stays NaN).
    """
    nodes = np.atleast_2d(nodes)
    v = g(nodes)[0]
    nodes = np.broadcast_to(nodes, v.shape)
    change = v[:, :-1] * v[:, 1:] <= 0.0
    found = change.any(axis=1)
    k = change.shape[1] - 1 - change[:, ::-1].argmax(axis=1)
    rows = np.arange(len(v))
    lo, hi, v_lo, v_hi = nodes[rows, k], nodes[rows, k + 1], v[rows, k], v[rows, k + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo - v_lo * (hi - lo) / (v_hi - v_lo)
        for _ in range(ROOT_NEWTON_STEPS):
            x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
            v, slope = (a[:, 0] for a in g(x[:, None]))
            right = v * v_lo > 0.0  # the root lies right of x
            lo = np.where(right, x, lo)
            hi = np.where(right, hi, x)
            x = x - v / slope
    x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
    return np.where(found, x, nodes[:, 0]), found


def closure_angles(p, eta, r) -> np.ndarray:
    """Closure angle of each (eta, r) pair: the root of v_c on [-pi, 0] nearest zero.

    `last_root` of v_c and its slope (`_ordinate_slope`) over
    ROOT_SCAN_NODES nodes on [-pi, 0]. NaN where v_c has no sign change (the
    profile does not close) and where eta or r is NaN.

    That the coarse scan brackets the right root is sampling evidence, not
    a proof; `scripts/root_evidence.py` reprints it. Over 200,000
    random pairs of the valid region (1/(2*pi) < eta <= 2, 0 < r < e) a
    1025-node scan finds no sign change in 4,736 and exactly one in the
    rest. Against that scan refined by bisection this solver gives the same
    NaN pattern and roots within 8.7e-16 there, and within 2.2e-15 on edge
    pairs (eta within 1e-6 of 1/(2*pi), r within 1e-9*e of e, roots within
    1e-3 of -pi, which need eta > 3.2) and on the default design space at
    resolution 256. Three Newton steps from the false-position start reach
    that agreement; later steps bisect only where the bracket has shrunk to
    a few ulps.
    """
    eta, r = np.broadcast_arrays(np.atleast_1d(np.asarray(eta, dtype=float)),
                                 np.atleast_1d(np.asarray(r, dtype=float)))
    psi, found = last_root(lambda x: _ordinate_slope(x, p, eta[:, None], r[:, None]),
                           np.linspace(-math.pi, 0.0, ROOT_SCAN_NODES))
    return np.where(found, psi, np.nan)


def extended_angle(spec: TransmissionSpec) -> float:
    """Negative root of v_c(psi) = 0 nearest zero: the profile closure angle.

    The batch-of-one call of `closure_angles`; raises NoRootFound with the
    verdict's note when eta fails `eta_valid` or the profile does not close.
    """
    if not eta_valid(spec.eta):
        raise NoRootFound(GEOMETRY_NOTES[1])
    delta = float(closure_angles(spec.p, spec.eta, spec.r)[0])
    if math.isnan(delta):
        raise NoRootFound(GEOMETRY_NOTES[2])
    return delta


def driving_window(delta, m):
    """Rotation arc (start, end) over which one of m conjugate cams drives.

    Right-anchored at 2*pi - delta with length 2*pi/m, so the
    maximum-pressure end pi - delta is the left endpoint when m = 2.
    Broadcasts over delta.
    """
    end = TAU - delta
    return end - TAU / m, end


def curvature_turnover(eta):
    """Cam angle pi + w* past mid-stroke where the pitch curvature peaks.

    With w = psi - pi and q = 2*pi*eta - 1, kappa_p rises in w up to
    w*^2 = 2q(2 - pi*eta) and falls beyond it; for eta >= 2/pi it falls
    from w = 0 on, and w* is 0. Broadcasts over eta.
    """
    q = TAU * eta - 1.0
    return math.pi + np.sqrt(np.maximum(2.0 * q * (2.0 - math.pi * eta), 0.0))


def min_cam_radius(delta, p, eta, r, m):
    """Angle and value of the smallest cam curvature radius on the driving arc.

    The arc is one of m cams' driving window for closure angle delta. It
    lies past mid-stroke, where kappa_p is unimodal, so its largest value
    sits at the turnover clipped to the arc and its smallest at an end.
    rho_c = 1/kappa_p - r is therefore positive on the whole arc exactly
    when it is positive at both ends and at the clipped turnover, and its
    minimum is the smallest of those three values. kappa_p can be negative
    only near mid-stroke; where it changes sign on the arc, rho_c passes
    through infinity and the value returned is the one at the arc start,
    below -r. delta and eta share a shape; r broadcasts against them.
    """
    start, end = driving_window(delta, m)
    turn = np.minimum(np.maximum(curvature_turnover(eta), start), end)
    psi = np.array((start, end, turn))
    rho = cam_curvature_radius(pitch_curvature(psi, p, eta), r)
    return np.choose(np.argmin(rho, axis=0), psi), rho.min(axis=0)


def driving_arc(p, eta, r, m, delta=None):
    """The geometry verdict of each (eta, r) pair on one of m cams' driving arc.

    Returns the closure angle (`closure_angles`, NaN where eta fails), the
    angle and value of the smallest cam curvature radius rho on the arc
    (`min_cam_radius`) and a cause code, which indexes `GEOMETRY_NOTES`: 0
    passes, else the first that applies of 1, eta fails `eta_valid`; 2, no
    closure root; 3, `roller_blocks`; 4, rho not finite and positive. eta
    and r share a shape; `delta` takes the closure angles of an earlier call."""
    eta = np.asarray(eta, dtype=float)
    r = np.asarray(r, dtype=float)
    eta_ok = eta_valid(eta)
    if delta is None:
        delta = closure_angles(p, np.where(eta_ok, eta, np.nan), r)
    delta = np.asarray(delta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # failed pairs give NaN
        psi_min, rho_min = min_cam_radius(delta, p, eta, r, m)
    cause = np.select([~eta_ok, np.isnan(delta), roller_blocks(rho_min, r),
                       ~((0.0 < rho_min) & (rho_min < math.inf))], [1, 2, 3, 4])
    return delta, psi_min, rho_min, cause


def feasibility_check(spec: TransmissionSpec) -> FeasibilityReport:
    """Classify a spec: `driving_arc` on a batch of one, and convexity.

    Never raises; a failed verdict is reported as its cause and note.
    """
    delta, psi_min, rho_min, cause = (v[0].item() for v in driving_arc(
        spec.p, [spec.eta], [spec.r], spec.m))
    delta, psi_min, rho_min = (None if math.isnan(v) else v for v in (delta, psi_min, rho_min))
    return FeasibilityReport(cause=cause, fully_convex=bool(fully_convex(spec.eta)),
                             delta=delta, psi_min=psi_min, rho_c_min=rho_min)


def require_feasible(spec: TransmissionSpec) -> FeasibilityReport:
    """The report of a spec that passes `feasibility_check`: the one gate of a
    single design. A failed verdict raises NoRootFound (causes 1 and 2),
    RollerBlocksCam (3) or InfeasibleProfile (4), with its note."""
    report = feasibility_check(spec)
    if report.cause:
        raise _GEOMETRY_ERRORS[report.cause](report.notes[0])
    return report


def sample_profile(spec: TransmissionSpec,
                   resolution: int = DEFAULT_PROFILE_RESOLUTION) -> CamProfile:
    """Sample profile, pitch curve and curvatures on a uniform psi grid.

    Gated: raises as `require_feasible` does, and keeps its report. The grid
    spans [delta, 2*pi - delta] inclusive, so the first and last samples sit
    on the closure (v_c = 0 there up to root tolerance).
    """
    if resolution < MIN_PROFILE_RESOLUTION:
        raise InvalidSpec(
            f"resolution must be at least {MIN_PROFILE_RESOLUTION}, got {resolution}")
    report = require_feasible(spec)
    psi = np.linspace(report.delta, TAU - report.delta, resolution)
    u_c, v_c = cam_profile_point(psi, spec)
    u_p, v_p = pitch_curve_point(psi, spec)
    kappa_p = pitch_curvature(psi, spec.p, spec.eta)
    rho_c = cam_curvature_radius(kappa_p, spec.r)
    for arr in (psi, u_c, v_c, u_p, v_p, kappa_p, rho_c):
        arr.setflags(write=False)
    return CamProfile(spec=spec, report=report, psi=psi, u_c=u_c, v_c=v_c,
                      u_p=u_p, v_p=v_p, kappa_p=kappa_p, rho_c=rho_c)
