"""Independent accuracy reference for the benchmark.

Shares no code with the camdrive library. Every quantity is derived again
from the mechanism's kinematics:

- the pitch curve (roller-centre path) and its analytic derivatives;
- the cam contact point as the pitch point offset by the roller radius along
  the pitch-curve normal, whose ordinate vanishes at the closure angle;
- the closure angle by a sign scan plus bisection;
- the pressure angle in closed form, maximal at an end of the driving arc;
- the Hertz line-contact pressure p = sqrt(F E* / (pi L R)) over the driving
  arc by a dense scan of 2**16 + 1 nodes, polished by golden section.

Units: mm, N, N*mm, MPa, radians.
"""
from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi
SCAN_NODES = 2 ** 16 + 1
ROOT_SCAN_NODES = 4097
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Young modulus (MPa) and Poisson ratio, from the same handbook rows that the
# study's material catalog quotes.
ELASTIC = {
    "stainless steel": (193000.0, 0.30),
    "improved steel": (210000.0, 0.30),
    "grey cast iron": (110000.0, 0.26),
    "aluminum": (70000.0, 0.33),
    "polyamide": (3000.0, 0.40),
}


def _pitch_derivatives(psi, p, e):
    """Pitch point and its first two psi-derivatives, follower s = p(psi/2pi - 1/2)."""
    s = p * (psi / TAU - 0.5)
    ds = p / TAU
    c, sn = np.cos(psi), np.sin(psi)
    u = e * c + s * sn
    v = -e * sn + s * c
    du = (ds - e) * sn + s * c
    dv = (ds - e) * c - s * sn
    ddu = (2.0 * ds - e) * c - s * sn
    ddv = -(2.0 * ds - e) * sn - s * c
    return u, v, du, dv, ddu, ddv


def contact_ordinate(psi, p, eta, r):
    """v of the cam contact point: the pitch point moved r along the normal."""
    _, v, du, dv, _, _ = _pitch_derivatives(psi, p, eta * p)
    return v - r * du / np.hypot(du, dv)


def pitch_curvature(psi, p, eta):
    """Signed curvature of the pitch curve, positive on the driving side."""
    _, _, du, dv, ddu, ddv = _pitch_derivatives(psi, p, eta * p)
    return -(du * ddv - dv * ddu) / (du * du + dv * dv) ** 1.5


def closure_angle(p, eta, r):
    """Root of the contact ordinate on [-pi, 0) nearest zero, or None."""
    xs = np.linspace(-math.pi, 0.0, ROOT_SCAN_NODES)
    f = contact_ordinate(xs, p, eta, r)
    change = np.flatnonzero(f[:-1] * f[1:] <= 0.0)
    if change.size == 0:
        return None
    i = int(change[-1])
    a, b = float(xs[i]), float(xs[i + 1])
    fa = float(contact_ordinate(a, p, eta, r))
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        fm = float(contact_ordinate(mid, p, eta, r))
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def driving_arc(delta, m):
    """Rotation arc on which one of m single-lobe conjugate cams drives."""
    end = TAU - delta
    return end - TAU / m, end


def pressure_angle(psi, eta):
    """Signed pressure angle, closed form for a single-lobe cam."""
    return np.arctan((1.0 - TAU * eta) / (psi - math.pi))


def _reduced_modulus(cam, roller):
    (e1, n1), (e2, n2) = ELASTIC[cam.lower()], ELASTIC[roller.lower()]
    return 1.0 / ((1.0 - n1 * n1) / e1 + (1.0 - n2 * n2) / e2)


def hertz_pressure(psi, p, eta, r, L, torque, e_star):
    """Line-contact peak pressure; NaN where the cam radius is not positive."""
    mu = pressure_angle(psi, eta)
    force = TAU * torque / (p * np.cos(mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_c = 1.0 / pitch_curvature(psi, p, eta) - r
        radius = r * rho_c / (r + rho_c)
        out = np.sqrt(force * e_star / (math.pi * L * radius))
    return np.where(rho_c > 0.0, out, np.nan)


def _golden_max(f, a, b, tol=1e-13):
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def design(p, eta, r, m, L, torque, cam="improved steel", roller="improved steel"):
    """Reference evaluation of one mechanism.

    Returns a dict with keys feasible, delta, mu_max (rad) and p_max (MPa);
    infeasible designs (no closure root, non-positive cam radius on the
    driving arc) carry only feasible=False.
    """
    if TAU * eta - 1.0 <= 0.0 or eta * p <= r or m < 2:
        return {"feasible": False}
    delta = closure_angle(p, eta, r)
    if delta is None:
        return {"feasible": False}
    a, b = driving_arc(delta, m)
    psi = np.linspace(a, b, SCAN_NODES)
    rho_c = 1.0 / pitch_curvature(psi, p, eta) - r
    if not (rho_c > 0.0).all():
        return {"feasible": False}
    mu_max = float(max(abs(pressure_angle(a, eta)), abs(pressure_angle(b, eta))))
    e_star = _reduced_modulus(cam, roller)
    P = hertz_pressure(psi, p, eta, r, L, torque, e_star)
    i = int(np.argmax(P))
    best = float(P[i])
    lo, hi = psi[max(i - 1, 0)], psi[min(i + 1, SCAN_NODES - 1)]

    def f(x):
        return float(hertz_pressure(np.float64(x), p, eta, r, L, torque, e_star))

    _, polished = _golden_max(f, float(lo), float(hi))
    return {"feasible": True, "delta": delta, "mu_max": mu_max,
            "p_max": max(best, polished)}


def grid_design(pitch, d_cs, r, m, L, torque, cam="improved steel",
                roller="improved steel"):
    """Reference evaluation of a design-space point, eta = (r + d_cs/2)/pitch.

    A camshaft diameter d_cs <= 0 puts the roller on the cam axis line.
    """
    if d_cs <= 0.0:
        return {"feasible": False}
    return design(pitch, (r + d_cs / 2.0) / pitch, r, m, L, torque, cam, roller)


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)
