"""Performance metrics of a candidate transmission.

Pressure angle over the arc where a cam drives the roller, torque-derived
contact force, Hertz line-contact pressure and overall mechanism size.
Units: mm, N, N*mm, MPa, radians.

`segment_metrics` is the one segment kernel. For a batch of (eta, r) pairs
it solves the closure angle and returns, over one cam's driving arc, the
peak pressure angle, the peak unit-width Hertz pressure and the smallest cam
curvature radius. The angle and the radius peak where closed forms put
them; the pressure is searched for only on the pairs whose peak can lie
inside the arc. The scalar metrics call it on a batch of one. As in
`geometry`, each formula is elementwise: a scalar gives the bits of a batch
of one, NaN and inf included. Only the gates `design_segment` and
`hertz_segment` and the constructors of the model objects raise.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ForceSingular, InfeasibleCamCount, InvalidSpec
from .geometry import (
    ROOT_SCAN_NODES,
    TAU,
    FeasibilityReport,
    TransmissionSpec,
    cam_curvature_radius,
    driving_arc,
    driving_window,
    last_root,
    pitch_curvature,
    require_feasible,
    require_length,
    require_positive,
    require_whole_count,
)

# fatigue design rule: allowable running pressure is 40% of the static one
FATIGUE_FRACTION = 0.4

HIGH_SPEED_RPM = 50.0

# torque range, N*mm: outside it the contact force's Hertz pressure can
# underflow or overflow (a subnormal torque gave a NaN pressure)
MIN_TORQUE = 1e-6
MAX_TORQUE = 1e12

# cos(mu) at the pressure peak below this: the contact force diverges, and
# `hertz_segment` rejects the design
FORCE_COS_MIN = 1e-9


def require_cam_count(m, where: str) -> None:
    """Raise InvalidSpec unless m passes `require_whole_count`, checked before
    any arithmetic on m can overflow, and InfeasibleCamCount for m < 2: one
    cam cannot drive a whole turn."""
    require_whole_count(m, where)
    if m < 2:
        what = "a single cam cannot" if m == 1 else "at least two cams are needed to"
        raise InfeasibleCamCount(f"{what} drive the follower positively (m={m} in {where})")


@dataclass(frozen=True)
class Material:
    """Elastic constants and allowable Hertz pressures of a contact body.

    Catalog rows published as ranges keep both bounds, each positive and
    finite with low <= high; constraint checks use the upper bound. E in
    MPa, pressures in MPa.
    """

    name: str
    E: float
    nu: float
    p_stat: tuple[float, float]
    p_allow: tuple[float, float]

    def __post_init__(self):
        require_positive("Young modulus", self.E)
        if not 0.0 <= self.nu < 0.5:
            raise InvalidSpec(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")
        for what, (lo, hi) in (("static pressure", self.p_stat),
                               ("allowable pressure", self.p_allow)):
            require_positive(what, lo)
            require_positive(what, hi)
            if lo > hi:
                raise InvalidSpec(f"{what} range must have low <= high, got [{lo}, {hi}]")

    @property
    def P_stat(self) -> float:
        """Allowable static pressure, upper bound of the published range."""
        return self.p_stat[1]

    @property
    def P_allow(self) -> float:
        """Allowable fatigue pressure, upper bound of the published range."""
        return self.p_allow[1]


def _as_range(value) -> tuple[float, float]:
    pair = value if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2:
        raise InvalidSpec(f"a pressure must be a number or [low, high], got {list(pair)}")
    return float(pair[0]), float(pair[1])


def material(name, E, nu, p_stat, p_allow=None) -> Material:
    """Build a Material; p_allow defaults to the 40% fatigue rule."""
    stat = _as_range(p_stat)
    if p_allow is None:
        allow = (FATIGUE_FRACTION * stat[0], FATIGUE_FRACTION * stat[1])
    else:
        allow = _as_range(p_allow)
    return Material(name=name, E=E, nu=nu, p_stat=stat, p_allow=allow)


def builtin_materials() -> tuple[Material, ...]:
    """Catalog of allowable contact pressures for common cam/roller stock.

    Elastic constants are standard handbook values; the pressure columns are
    the published static and 40%-fatigue allowables.
    """
    return (
        material("stainless steel", 193000.0, 0.30, 650.0, 260.0),
        material("improved steel", 210000.0, 0.30, (1600.0, 2000.0), (640.0, 800.0)),
        material("grey cast iron", 110000.0, 0.26, (400.0, 700.0), (160.0, 280.0)),
        material("aluminum", 70000.0, 0.33, 62.5, (25.0, 150.0)),
        material("polyamide", 3000.0, 0.40, 25.0, 10.0),
    )


def find_material(name: str, catalog=None) -> Material:
    catalog = builtin_materials() if catalog is None else catalog
    key = name.strip().lower()
    for mat in catalog:
        if mat.name.lower() == key:
            return mat
    known = ", ".join(m.name for m in catalog)
    raise ConfigError(f"unknown material {name!r}; known: {known}")


_MATERIAL_KEYS = {"name", "young_modulus_mpa", "poisson_ratio",
                  "static_pressure_mpa", "allowable_pressure_mpa"}


def load_materials(path) -> tuple[Material, ...]:
    """Load a material catalog from a JSON file.

    The file holds a list of objects with keys name, young_modulus_mpa,
    poisson_ratio, static_pressure_mpa and optionally allowable_pressure_mpa
    (scalar or [low, high]); unknown keys are rejected. Every fault of the
    file, including a row that `Material` rejects, raises ConfigError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"material catalog {path} cannot be read: {exc}") from exc
    if not isinstance(raw, list):
        raise ConfigError(f"material catalog must be a JSON list, got {type(raw).__name__}")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            raise ConfigError(f"material row {i} is not an object")
        unknown = set(row) - _MATERIAL_KEYS
        if unknown:
            raise ConfigError(f"material row {i} has unknown keys: {sorted(unknown)}")
        for req in ("name", "young_modulus_mpa", "poisson_ratio", "static_pressure_mpa"):
            if req not in row:
                raise ConfigError(f"material row {i} is missing {req!r}")
        numbers = [v for key, value in row.items()  # a null allowable takes the default
                   if key != "name" and (value is not None or key != "allowable_pressure_mpa")
                   for v in (value if key.endswith("pressure_mpa") and isinstance(value, list)
                             and len(value) == 2 else [value])]
        if not isinstance(row["name"], str) or not all(  # bools are not numbers
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in numbers):
            raise ConfigError(f"material row {i} needs a string name and finite numbers "
                              f"(pressures may be [low, high] pairs), got {row}")
        try:
            out.append(material(
                row["name"], float(row["young_modulus_mpa"]), float(row["poisson_ratio"]),
                row["static_pressure_mpa"], row.get("allowable_pressure_mpa"),
            ))
        except InvalidSpec as exc:
            raise ConfigError(f"material row {i}: {exc}") from exc
    return tuple(out)


@dataclass(frozen=True)
class LoadCase:
    """Input torque on the camshaft, N*mm; optional cam speed for advisories, rpm."""

    torque: float
    speed_rpm: float | None = None

    def __post_init__(self):
        require_positive("torque", self.torque)
        if not MIN_TORQUE <= self.torque <= MAX_TORQUE:
            raise InvalidSpec(f"torque must lie in [{MIN_TORQUE:g}, {MAX_TORQUE:g}] N*mm, "
                              f"got {self.torque}")
        if self.speed_rpm is not None and not 0.0 <= self.speed_rpm < math.inf:
            raise InvalidSpec(f"cam speed must be finite and at least 0 rpm, got {self.speed_rpm}")

    @property
    def high_speed(self) -> bool:
        """Above this speed a pressure angle under 30 degrees is recommended."""
        return self.speed_rpm is not None and self.speed_rpm > HIGH_SPEED_RPM


@dataclass(frozen=True)
class ActiveSegment:
    """Arc of cam rotation during which one conjugate cam drives the follower."""

    psi_start: float
    psi_end: float

    @property
    def length(self) -> float:
        return self.psi_end - self.psi_start

    def grid(self, samples: int) -> np.ndarray:
        return np.linspace(self.psi_start, self.psi_end, samples)


def active_segment(spec: TransmissionSpec, delta: float) -> ActiveSegment:
    """Driving arc of one cam among m conjugates, right-anchored at 2*pi - delta.

    Both the pressure angle and the Hertz pressure peak at its left end; for
    m = 2 that end is pi - delta.
    """
    require_cam_count(spec.m, "an active segment")
    a, b = driving_window(delta, spec.m)
    return ActiveSegment(a, b)


def pressure_angle(psi, eta):
    """Signed pressure angle, radians.

    The angle between the contact normal and the follower velocity; its sign
    tells which way the cam pushes, magnitude is what design limits cap. At
    mid-stroke (psi = pi) it is +/-90 degrees, or NaN where also
    eta = 1/(2*pi); the gate `hertz_segment` raises ForceSingular for a
    design whose pressure peak comes that close to 90 degrees.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arctan(np.divide(1.0 - TAU * eta, psi - math.pi))


def _normal_force(mu, torque, p):
    """Normal contact force, N, at pressure angle mu.

    The follower-axis component F*cos(mu) carries the axial load
    2*pi*torque/p implied by the transmission ratio p/(2*pi).
    """
    with np.errstate(divide="ignore"):
        return np.divide(TAU * torque, p * np.cos(mu))


def contact_force(psi, load: LoadCase, spec: TransmissionSpec):
    """Normal contact force at cam angle psi, N, from the power balance."""
    return _normal_force(pressure_angle(psi, spec.eta), load.torque, spec.p)


def material_coefficient(mat: Material) -> float:
    """Hertz compliance coefficient (1 - nu^2)/(pi*E), 1/MPa."""
    return (1.0 - mat.nu ** 2) / (math.pi * mat.E)


def compliance_sum(cam_mat: Material, roller_mat: Material) -> float:
    """K_sum of a contact: the two bodies' material coefficients added, 1/MPa."""
    return material_coefficient(cam_mat) + material_coefficient(roller_mat)


def equivalent_radius(r, rho_c):
    """Harmonic combination r*rho_c/(r + rho_c) of the two contact radii, mm.

    +/-inf at rho_c = -r. `contact_state` passes only positive radii.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(r * rho_c, r + rho_c)


def hertz_band_width(F, K1, K2, R_equ, L):
    """Half-plane contact band width B, mm, for a line contact under load F
    on a width L > 0; NaN where F*R_equ is negative."""
    with np.errstate(invalid="ignore"):
        return np.sqrt((16.0 * (K1 + K2) / L) * F * R_equ)


def hertz_pressure(F, L, B):
    """Peak line-contact pressure 4F/(L*pi*B), MPa, on a width L > 0; NaN
    at zero load, where the band width B vanishes too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide((4.0 / (L * math.pi)) * F, B)


def contact_state(psi, p, eta, r, torque, K_sum, L):
    """Pressure angle, cam curvature radius and Hertz pressure at cam angle psi.

    Arguments broadcast; K_sum is the sum of both bodies' material
    coefficients. The Hertz model needs a convex cam at the contact, so the
    pressure is NaN where the cam curvature radius is not positive.
    """
    mu = pressure_angle(psi, eta)
    rho_c = cam_curvature_radius(pitch_curvature(psi, p, eta), r)
    F = _normal_force(mu, torque, p)
    R = equivalent_radius(r, np.where(rho_c > 0.0, rho_c, np.nan))
    P = hertz_pressure(F, L, hertz_band_width(F, K_sum, 0.0, R, L))
    return mu, rho_c, P


def pressure_sensitivities(psi, p, eta, r, torque, K_sum, L):
    """Hertz pressure P (`contact_state`) and its normalised partials at psi.

    The partials q*dP/dq at fixed psi for q = r, eta, p, L, torque stack on
    the leading axis and are NaN where P is. P = sqrt(F/(pi^2 K_sum L R_equ))
    with F ~ torque*sqrt(s)/(p*w) and R_equ = r*g, so with w = psi - pi,
    q = 2*pi*eta - 1, s = w^2 + q^2, kappa = kappa_p and g = 1 - r*kappa:
    L gives -P/2, torque +P/2, p -(P/2)/g (kappa ~ 1/p), r
    -(P/2)(1 - 2*r*kappa)/g and eta (P/2)*eta*(2*pi*q/s + r*kappa*k'/g),
    where k' = dln(kappa)/deta = N'/N - 6*pi*q/s for the numerator
    N = w^2 + 2q(pi*eta - 1) of kappa_p and N' = 2*pi*(4*pi*eta - 3).
    """
    P = contact_state(psi, p, eta, r, torque, K_sum, L)[2]
    q = TAU * eta - 1.0
    w = np.asarray(psi, dtype=float) - math.pi
    s = w * w + q * q
    rk = r * pitch_curvature(psi, p, eta)
    g = 1.0 - rk
    N = w * w + 2.0 * q * (math.pi * eta - 1.0)
    half = 0.5 * P
    with np.errstate(divide="ignore", invalid="ignore"):
        dln_kappa = TAU * (4.0 * math.pi * eta - 3.0) / N - 6.0 * math.pi * q / s
        return P, np.array([-half * (1.0 - 2.0 * rk) / g,
                            half * eta * (TAU * q / s + rk * dln_kappa / g),
                            -half / g,
                            -half,
                            half])


class SegmentMetrics(NamedTuple):
    """Per-pair results of `segment_metrics`, arrays with one entry per pair;
    `design_segment` unpacks a batch of one to floats.

    delta      closure angle, rad; NaN where eta <= 1/(2*pi) or the profile
               does not close (`driving_arc`)
    mu_max     largest |pressure angle| on the driving arc, rad
    psi_mu     cam angle where it occurs (the arc start), rad
    P_max      largest Hertz pressure at unit contact width (L = 1 mm), MPa;
               width L divides it by sqrt(L). NaN unless ok
    psi_P      cam angle where it occurs, rad; NaN unless ok
    rho_c_min  smallest cam curvature radius on the arc (`driving_arc`), mm
    ok         the pair passes the `driving_arc` verdict
    """

    delta: np.ndarray
    mu_max: np.ndarray
    psi_mu: np.ndarray
    P_max: np.ndarray
    psi_P: np.ndarray
    rho_c_min: np.ndarray
    ok: np.ndarray


def _hertz_log_slope(w, q, k):
    """g = dln(f)/dw and g' for f = s^2/(w*D) of `_hertz_peak_angle`.

    With D = s^1.5 - k(w^2 + q^2 - q), D' = w(3*sqrt(s) - 2k) and
    D'' = 3*sqrt(s) + 3w^2/sqrt(s) - 2k: g = 4w/s - 1/w - D'/D and
    g' = 4/s - 8w^2/s^2 + 1/w^2 - D''/D + (D'/D)^2.
    """
    w2 = w * w
    s = w2 + q * q
    root_s = np.sqrt(s)
    D = s * root_s - k * (s - q)
    d1 = w * (3.0 * root_s - 2.0 * k) / D
    return (4.0 * w / s - 1.0 / w - d1, 4.0 / s - 8.0 * w2 / (s * s) + 1.0 / w2
            - (3.0 * root_s + 3.0 * w2 / root_s - 2.0 * k) / D + d1 * d1)


def _hertz_log_value(w, q, k):
    """g of `_hertz_log_slope` by the same expression, so bit for bit equal,
    without the slope's work."""
    s = w * w + q * q
    root_s = np.sqrt(s)
    return 4.0 * w / s - 1.0 / w - w * (3.0 * root_s - 2.0 * k) / (s * root_s - k * (s - q))


def _hertz_peak_angle(a, b, p, eta, r):
    """Cam angle of the largest Hertz pressure of each pair on [a, b] past pi.

    With w = psi - pi > 0, q = 2*pi*eta - 1, s = w^2 + q^2 and k = 2*pi*r/p,
    the squared pressure is proportional to F/R_equ, that is to
    f = s^2 / (w * (s^1.5 - k*(w^2 + q(q - 1)))): 1/cos(mu) = sqrt(s)/w and
    R_equ = r*(1 - r*kappa_p), with kappa_p = (2*pi/p)(w^2 + q(q - 1))/s^1.5.
    The search is `last_root` of g = dln(f)/dw over ROOT_SCAN_NODES nodes on
    [a - pi, b - pi]: the scan walks the nodes from b down and evaluates g
    alone (`_hertz_log_value`) on the pairs not yet bracketed, the Newton
    steps g and g' (`_hertz_log_slope`). Assumes a convex cam on [a, b].

    The caller passes b = pi + w*, the curvature turnover: w* <= 1.5 < pi <= w
    at the arc end, so the turnover is never clipped to the end. kappa_p is
    stationary there, so g = dln(F)/dw = -q^2/(w*s) < 0 at b, and the last
    sign change is from + to -, a maximum. That holds also where the
    pressure falls from a, dips and rises to an interior maximum about as
    high as the value at a. Where g has no sign change, the pressure falls
    from a, and the search returns a; the caller weighs the pressure there.
    """
    w, _ = last_root(_hertz_log_value, _hertz_log_slope,
                     np.linspace(a - math.pi, b - math.pi, ROOT_SCAN_NODES, axis=1),
                     (TAU * eta - 1.0)[:, None], np.divide(TAU, p) * r[:, None])
    return math.pi + w


def segment_metrics(p, eta, r, m, torque, K_sum, delta=None) -> SegmentMetrics:
    """Peak metrics over one cam's driving arc for each (eta, r) pair.

    Pitch p, cam count m, torque and K_sum (the summed material
    coefficients) are shared by all pairs. The closure angle does not
    depend on m: a caller that needs several cam counts passes the `delta`
    of an earlier call, and the root is not solved again. With
    w = psi - pi > 0 on the arc and q = 2*pi*eta - 1:

    - |mu| = arctan(q/w) falls along the arc, so mu_max is its value at
      the arc start.
    - The closure angle, the radius minimum and the ok flag come from the
      geometry verdict `driving_arc`. On a convex arc the smallest radius
      sits where kappa_p peaks: at the curvature turnover clipped to the arc.
    - Past that angle both the contact force and 1/(1 - r*kappa_p) fall,
      so the pressure peak lies between the arc start and the angle of the
      smallest radius. Where that angle is the start, so is the peak. The
      other ok pairs are searched by `_hertz_peak_angle`, and the larger of
      the pressures at the start and at the angle found is the peak.

    Each step is elementwise per pair, so a pair's results do not depend on
    how the pairs are batched; a 0-d eta and r are a batch of one, as in
    `closure_angles`. Raises as `require_cam_count` does.
    """
    require_cam_count(m, "the segment metrics")
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    delta, psi_rho, rho_c_min, cause = driving_arc(p, eta, r, m, delta)
    ok = cause == 0
    start = driving_window(delta, m)[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected pairs give NaN
        inner = np.flatnonzero(ok & (start < psi_rho))
        psi = start[:, None].repeat(2, axis=1)  # the arc start, then the peak
        if inner.size:
            psi[inner, 1] = _hertz_peak_angle(start[inner], psi_rho[inner], p,
                                              eta[inner], r[inner])
        mu, _, P = contact_state(psi, p, eta[:, None], r[:, None], torque, K_sum, 1.0)
    psi_P = np.where(P[:, 1] > P[:, 0], psi[:, 1], start)
    return SegmentMetrics(
        delta=delta, mu_max=np.abs(mu[:, 0]), psi_mu=start,
        P_max=np.where(ok, P.max(axis=1), np.nan), psi_P=np.where(ok, psi_P, np.nan),
        rho_c_min=rho_c_min, ok=ok)


def design_segment(spec: TransmissionSpec, torque: float,
                   K_sum: float) -> tuple[FeasibilityReport, SegmentMetrics]:
    """The report of a spec that passes the geometry gate `require_feasible`
    and its `segment_metrics`, unpacked to floats. Raises as the gate does,
    and InfeasibleCamCount for m < 2."""
    report = require_feasible(spec)
    seg = SegmentMetrics(*(v[0].item() for v in segment_metrics(
        spec.p, [spec.eta], [spec.r], spec.m, torque, K_sum, delta=[report.delta])))
    return report, seg


def hertz_segment(spec: TransmissionSpec, load: LoadCase, cam_mat: Material,
                  roller_mat: Material) -> tuple[FeasibilityReport, SegmentMetrics]:
    """`design_segment` of a spec whose Hertz model holds on the driving arc:
    the Hertz gate. Raises as `design_segment` does, and ForceSingular where
    the contact force diverges as |mu| nears 90 degrees: where the cosine of
    the pressure angle at the kernel's psi_P is below FORCE_COS_MIN."""
    report, seg = design_segment(spec, load.torque, compliance_sum(cam_mat, roller_mat))
    if np.cos(pressure_angle(seg.psi_P, spec.eta)) < FORCE_COS_MIN:
        raise ForceSingular("contact force diverges as |mu| approaches 90 degrees")
    return report, seg


def max_pressure_angle(spec: TransmissionSpec) -> float:
    """Largest |pressure angle| on the active segment, radians.

    |mu| falls monotonically along the segment, so this is its value at the
    segment start. The load does not enter it.
    """
    return design_segment(spec, 1.0, 1.0)[1].mu_max


def max_hertz_pressure(spec: TransmissionSpec, load: LoadCase,
                       cam_mat: Material, roller_mat: Material) -> tuple[float, float]:
    """Peak Hertz pressure on the active segment and the angle where it occurs.

    Whenever the segment starts past the pitch-curvature turnover the peak
    sits exactly at the segment start (pi - delta for two conjugate cams).
    For small closure angles the radius dips inside the segment instead,
    which pulls the peak slightly in; the kernel then searches the stretch
    up to the turnover for it. Raises as `hertz_segment` does.
    """
    seg = hertz_segment(spec, load, cam_mat, roller_mat)[1]
    return seg.P_max / math.sqrt(spec.L), seg.psi_P


def mechanism_size(m: int, L: float) -> float:
    """Axial size of the mechanism: m cams of width L, mm."""
    require_cam_count(m, "a mechanism size")
    require_length("contact width", L)
    return m * L
