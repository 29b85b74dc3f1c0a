"""Independent reference implementations used only to check the package.

These deliberately avoid the library's own code paths: brute-force loops,
finite differences and Monte Carlo estimates stand in as oracles for the
fast implementations under test.
"""
from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi


def curvature_fd(fx, fy, t: float, h: float = 1e-3) -> float:
    """Five-point finite-difference curvature of the curve (fx(t), fy(t)).

    Uses the convention where the package's analytic pitch curvature is
    positive on the driving side, i.e. the negative of the right-handed
    parametric curvature formula.
    """
    def d1(f):
        return (-f(t + 2*h) + 8*f(t + h) - 8*f(t - h) + f(t - 2*h)) / (12*h)

    def d2(f):
        return (-f(t + 2*h) + 16*f(t + h) - 30*f(t) + 16*f(t - h) - f(t - 2*h)) / (12*h*h)

    x1, y1 = d1(fx), d1(fy)
    x2, y2 = d2(fx), d2(fy)
    return -(x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** 1.5


def brute_force_front_mask(objectives: np.ndarray) -> np.ndarray:
    """O(N^2) dominance filter: the definition, written as a double loop."""
    F = np.asarray(objectives, dtype=float)
    n = len(F)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if np.all(F[j] <= F[i]) and np.any(F[j] < F[i]):
                keep[i] = False
                break
    return keep


def mc_hypervolume(points, ref, samples: int = 200_000, seed: int = 0) -> float:
    """Monte Carlo estimate of the dominated volume below the reference box."""
    F = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    F = F[np.all(F < ref, axis=1)]
    if len(F) == 0:
        return 0.0
    lo = F.min(axis=0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, ref, size=(samples, 3))
    hit = np.zeros(samples, dtype=bool)
    for p in F:
        hit |= np.all(X >= p, axis=1)
    box = float(np.prod(ref - lo))
    return box * float(hit.mean())


def vc_reference(psi: float, p: float, eta: float, r: float) -> float:
    """Profile ordinate written out directly from its closed form."""
    q = TAU * eta - 1.0
    w = psi - math.pi
    b1 = p / TAU
    b2 = b1 * math.sqrt(q * q + w * w)
    d = math.atan(w / q)
    return -b1 * math.sin(psi) + (b2 - r) * math.sin(d - psi)


def closure_root_scan(p: float, eta: float, r: float,
                      grid: int = 10_000) -> float:
    """Closure angle by dense sign scan plus bisection, all in test code."""
    xs = np.linspace(-math.pi, 0.0, grid)
    vals = np.array([vc_reference(x, p, eta, r) for x in xs])
    idx = None
    for i in range(grid - 2, -1, -1):
        if vals[i] == 0.0:
            return float(xs[i])
        if vals[i] * vals[i + 1] < 0.0:
            idx = i
            break
    if idx is None:
        raise ArithmeticError("no closure root in scan")
    a, b = float(xs[idx]), float(xs[idx + 1])
    fa = vc_reference(a, p, eta, r)
    for _ in range(100):
        m = 0.5 * (a + b)
        fm = vc_reference(m, p, eta, r)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def hertz_pressure_series(psi, spec, load, cam_mat, roller_mat) -> np.ndarray:
    """Hertz line-contact pressure at each psi, written out from the closed forms.

    Pressure angle, contact force from the power balance, pitch curvature,
    cam radius rho_c = rho_p - r and the line-contact peak pressure; NaN
    where the cam radius is not positive.
    """
    psi = np.asarray(psi, dtype=float)
    mu = np.arctan((1.0 - TAU * spec.eta) / (psi - math.pi))
    F = TAU * load.torque / (spec.p * np.cos(mu))
    q = TAU * spec.eta - 1.0
    w = psi - math.pi
    kp = (TAU / spec.p) * (w * w + 2.0 * q * (math.pi * spec.eta - 1.0)) \
        / (w * w + q * q) ** 1.5
    K = sum((1.0 - mat.nu ** 2) / (math.pi * mat.E) for mat in (cam_mat, roller_mat))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_c = (1.0 - spec.r * kp) / kp
        R = spec.r * rho_c / (spec.r + rho_c)
        P = (1.0 / math.pi) * np.sqrt(F / (spec.L * K * R))
    return np.where(rho_c > 0.0, P, np.nan)


def segment_scan(spec, load, cam_mat, roller_mat, samples: int = 4096):
    """(delta, mu_max, P_max) over one cam's driving arc by a plain scan.

    The closure angle comes from `closure_root_scan`; the arc is the last
    2*pi/m of the profile, [2*pi - delta - 2*pi/m, 2*pi - delta], sampled
    uniformly. P_max is NaN when the cam radius is not positive somewhere
    on the arc.
    """
    delta = closure_root_scan(spec.p, spec.eta, spec.r)
    psi = np.linspace(TAU - delta - TAU / spec.m, TAU - delta, samples)
    mu = np.arctan((1.0 - TAU * spec.eta) / (psi - math.pi))
    P = hertz_pressure_series(psi, spec, load, cam_mat, roller_mat)
    return delta, float(np.abs(mu).max()), float(P.max())


def random_valid_specs(rng: np.random.Generator, count: int):
    """Geometry-valid parameter draws over the design-relevant ranges.

    Yields dicts with p, eta, r, m, L; r stays safely below the eccentricity
    and eta safely above the singular value.
    """
    out = []
    while len(out) < count:
        p = float(rng.uniform(20.0, 60.0))
        eta = float(rng.uniform(0.17, 0.6))
        r_hi = min(10.5, 0.9 * eta * p)
        if r_hi <= 2.0:
            continue
        r = float(rng.uniform(2.0, r_hi))
        m = int(rng.choice([2, 3]))
        L = float(rng.uniform(5.0, 45.0))
        out.append(dict(p=p, eta=eta, r=r, m=m, L=L))
    return out
