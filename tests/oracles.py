"""Independent reference implementations used only to check the package.

These deliberately avoid the library's own code paths: brute-force loops,
finite differences and Monte Carlo estimates stand in as oracles for the
fast implementations under test.
"""
from __future__ import annotations

import bisect
import math
from types import SimpleNamespace
from typing import NamedTuple

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


def dominates(a, b) -> bool:
    """True iff candidate a is no worse than b in all three objectives and
    better in one."""
    ao, bo = a.objectives, b.objectives
    return all(x <= y for x, y in zip(ao, bo)) and any(x < y for x, y in zip(ao, bo))


def hypervolume_staircase(objectives, ref) -> float:
    """The dimension sweep that `optimize.hypervolume` made before it walked
    its staircase once per point, kept to check that every bit is the same.

    The points enter in ascending f2 (stable), and the volume grows by the
    (f0, f1) area of the entered points times every f2 step, zero steps
    included. A staircase of the points nondominated in (f0, f1) holds that
    area: a new point first asks whether the staircase covers it, then
    where it enters and which points it replaces, and then walks those
    points again to add the strips it newly dominates.
    """
    F = np.asarray(objectives, dtype=float)
    ref = np.asarray(ref, dtype=float)
    F = F[np.all(F < ref, axis=1)]
    if len(F) == 0:
        return 0.0
    x_ref, y_ref, z_ref = ref.tolist()
    xs: list[float] = []
    ys: list[float] = []
    area = volume = 0.0
    z_prev = None
    for x, y, z in F[np.argsort(F[:, 2], kind="stable")].tolist():
        if z_prev is not None:
            volume += area * (z - z_prev)
        z_prev = z
        i = bisect.bisect_right(xs, x)
        if i and ys[i - 1] <= y:
            continue
        j = bisect.bisect_left(xs, x)
        k = j
        while k < len(xs) and ys[k] >= y:
            k += 1
        top = ys[j - 1] if j else y_ref
        for xk, yk in zip(xs[j:k], ys[j:k]):
            area += (xk - x) * (top - yk)
            top = yk
        area += ((xs[k] if k < len(xs) else x_ref) - x) * (top - y)
        xs[j:k] = [x]
        ys[j:k] = [y]
    return float(volume + area * (z_ref - z_prev))


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


def hypervolume_slicing(points, ref) -> float:
    """Dominated hypervolume by slicing along f2, all in test code.

    Points not strictly below the reference in every coordinate, and the
    points `brute_force_front_mask` finds dominated, add nothing. Each slice
    between consecutive f2 values adds the (f0, f1) area of the points at or
    below it, summed over those points sorted by f0, times its thickness.
    """
    F = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    F = F[np.all(F < ref, axis=1)]
    if len(F) == 0:
        return 0.0
    F = F[brute_force_front_mask(F)]
    zs = np.unique(F[:, 2])
    total = 0.0
    for k, z in enumerate(zs):
        z_next = zs[k + 1] if k + 1 < len(zs) else ref[2]
        active = F[F[:, 2] <= z]
        area = 0.0
        y_prev = ref[1]
        for x, y in active[np.lexsort((active[:, 1], active[:, 0])), :2]:
            if y < y_prev:
                area += (ref[0] - x) * (y_prev - y)
                y_prev = y
        total += area * (z_next - z)
    return float(total)


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


def last_root_full_scan(g, nodes, steps: int = 6):
    """The bracketed root solve with a scan over every node: g(x) gives the
    value and slope of each row's function at x (one row per pair, or one
    shared row of nodes). All nodes are evaluated, the last sign change
    (v[k]*v[k+1] <= 0) of each row is its bracket, and the same `steps`
    safeguarded Newton steps as the library's solver start from the bracket's
    false-position point, so its roots are the library's bit for bit. A row
    without a change gets its first node and found = False.
    """
    nodes = np.atleast_2d(nodes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = g(nodes)[0]
    nodes = np.broadcast_to(nodes, v.shape)
    change = v[:, :-1] * v[:, 1:] <= 0.0
    found = change.any(axis=1)
    k = change.shape[1] - 1 - change[:, ::-1].argmax(axis=1)
    rows = np.arange(len(v))
    lo, hi, v_lo, v_hi = nodes[rows, k], nodes[rows, k + 1], v[rows, k], v[rows, k + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = lo - v_lo * (hi - lo) / (v_hi - v_lo)
        for _ in range(steps):
            x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
            v, slope = (a[:, 0] for a in g(x[:, None]))
            right = v * v_lo > 0.0
            lo = np.where(right, x, lo)
            hi = np.where(right, hi, x)
            x = x - v / slope
    x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
    return np.where(found, x, nodes[:, 0]), found


def cam_radius_series(psi, spec) -> np.ndarray:
    """Cam curvature radius rho_c = 1/kappa_p - r at each psi, closed form."""
    q = TAU * spec.eta - 1.0
    w = np.asarray(psi, dtype=float) - math.pi
    s = w * w + q * q
    kp = (TAU / spec.p) * (w * w + 2.0 * q * (math.pi * spec.eta - 1.0)) / (s * np.sqrt(s))
    with np.errstate(divide="ignore"):
        return (1.0 - spec.r * kp) / kp


def hertz_pressure_series(psi, spec, load, cam_mat, roller_mat) -> np.ndarray:
    """Hertz line-contact pressure at each psi, written out from the closed forms.

    Pressure angle, contact force from the power balance, pitch curvature,
    cam radius rho_c = rho_p - r and the line-contact peak pressure; NaN
    where the cam radius is not positive.
    """
    psi = np.asarray(psi, dtype=float)
    mu = np.arctan((1.0 - TAU * spec.eta) / (psi - math.pi))
    F = TAU * load.torque / (spec.p * np.cos(mu))
    K = sum((1.0 - mat.nu ** 2) / (math.pi * mat.E) for mat in (cam_mat, roller_mat))
    rho_c = cam_radius_series(psi, spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = spec.r * rho_c / (spec.r + rho_c)
        P = (1.0 / math.pi) * np.sqrt(F / (spec.L * K * R))
    return np.where(rho_c > 0.0, P, np.nan)


def pressure_partials_fd(psi, spec, load, cam_mat, roller_mat,
                         rel_step: float = 1e-6) -> np.ndarray:
    """Raw partials dP/dq at each psi for q = r, eta, p, L, torque, in that order.

    Central differences of `hertz_pressure_series` with step rel_step times
    each nominal value. Each probe is one plain record that serves as both
    spec and load, so no validation of the library's runs on it.
    """
    nominal = {"r": spec.r, "eta": spec.eta, "p": spec.p, "L": spec.L,
               "torque": load.torque}
    rows = []
    for name, q0 in nominal.items():
        h = rel_step * abs(q0)
        hi, lo = (SimpleNamespace(**{**nominal, name: q0 + step}) for step in (h, -h))
        rows.append((hertz_pressure_series(psi, hi, hi, cam_mat, roller_mat)
                     - hertz_pressure_series(psi, lo, lo, cam_mat, roller_mat)) / (2.0 * h))
    return np.array(rows)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a: float, b: float, iterations: int = 80) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [a, b]."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


class SegmentScan(NamedTuple):
    """Dense scan of one cam's driving arc; see `segment_scan`."""

    delta: float
    psi: np.ndarray      # the scan nodes
    rho_c: np.ndarray    # cam curvature radius at the nodes
    P: np.ndarray        # Hertz pressure at the nodes, NaN where rho_c <= 0
    ok: bool             # rho_c > 0 at every node
    mu_max: float        # largest |pressure angle| at the nodes
    P_grid: float        # largest node pressure
    P_max: float         # P_grid polished by golden section; NaN unless ok


def segment_scan(spec, load, cam_mat, roller_mat, samples: int = 4096,
                 delta: float | None = None) -> SegmentScan:
    """Metrics over one cam's driving arc by a plain scan.

    The closure angle comes from `closure_root_scan` unless given; the arc
    is the last 2*pi/m of the profile, [2*pi - delta - 2*pi/m, 2*pi - delta],
    sampled uniformly. The best node's neighbours bracket a golden-section
    polish, so P_max is the true maximum, not a node value.
    """
    if delta is None:
        delta = closure_root_scan(spec.p, spec.eta, spec.r)
    psi = np.linspace(TAU - delta - TAU / spec.m, TAU - delta, samples)
    mu = np.arctan((1.0 - TAU * spec.eta) / (psi - math.pi))
    rho_c = cam_radius_series(psi, spec)
    P = hertz_pressure_series(psi, spec, load, cam_mat, roller_mat)
    ok = bool((rho_c > 0.0).all())
    P_grid = P_max = float("nan")
    if ok:
        i = int(np.argmax(P))
        P_grid = float(P[i])
        _, polished = golden_max(
            lambda x: float(hertz_pressure_series(x, spec, load, cam_mat, roller_mat)),
            float(psi[max(i - 1, 0)]), float(psi[min(i + 1, samples - 1)]))
        P_max = max(P_grid, polished)
    return SegmentScan(delta=delta, psi=psi, rho_c=rho_c, P=P, ok=ok,
                       mu_max=float(np.abs(mu).max()), P_grid=P_grid, P_max=P_max)


def marching_squares_loop(x_axis, y_axis, Z, level) -> list:
    """Iso-line segments by the cell-by-cell double loop.

    Cells touching NaN are skipped; crossings are collected over the edges
    (i, j)-(i+1, j), (i+1, j)-(i+1, j+1), (i+1, j+1)-(i, j+1), (i, j+1)-(i, j)
    in that order, and a saddle's four crossings pair up in that order.
    """
    segs = []

    def interp(pa, pb, va, vb):
        t = (level - va) / (vb - va)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for i in range(len(x_axis) - 1):
        for j in range(len(y_axis) - 1):
            corners = (
                ((x_axis[i], y_axis[j]), Z[i, j]),
                ((x_axis[i + 1], y_axis[j]), Z[i + 1, j]),
                ((x_axis[i + 1], y_axis[j + 1]), Z[i + 1, j + 1]),
                ((x_axis[i], y_axis[j + 1]), Z[i, j + 1]),
            )
            if any(math.isnan(v) for _, v in corners):
                continue
            crossings = []
            for k in range(4):
                (pa, va), (pb, vb) = corners[k], corners[(k + 1) % 4]
                if (va < level) != (vb < level):
                    crossings.append(interp(pa, pb, va, vb))
            for s in range(0, len(crossings), 2):
                segs.append((crossings[s], crossings[s + 1]))
    return segs


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


def candidate_verdict(space, geometry_ok, mu_max, P_max, S_M) -> tuple:
    """Violation names of one candidate by an if-chain, geometry first, then
    the caps; the angle and pressure caps count only where geometry passed,
    and a value passes its cap when it is at most the cap."""
    violations = []
    if not geometry_ok:
        violations.append("geometry")
    else:
        if not mu_max <= space.mu_cap:
            violations.append("pressure-angle")
        if not P_max <= space.P_cap:
            violations.append("hertz-pressure")
    if not S_M <= space.S_cap:
        violations.append("size")
    return tuple(violations)


def svg_number(v: float) -> str:
    """A page coordinate as the SVG writer prints it: three decimals, no -0."""
    if not math.isfinite(v):
        raise ValueError(f"non-finite coordinate {v!r} in SVG output")
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def svg_page_point(canvas, x: float, y: float) -> tuple[float, float]:
    """Page coordinates of a data point: the data ranges fill the canvas
    inside its margins, y points up and a zero-width range maps to the
    middle."""
    (x0, x1), (y0, y1) = canvas.x_range, canvas.y_range
    inner_w = canvas.width - 2.0 * canvas.margin
    inner_h = canvas.height - 2.0 * canvas.margin
    px = canvas.width / 2.0 if x1 == x0 else canvas.margin + (x - x0) / (x1 - x0) * inner_w
    py = (canvas.height / 2.0 if y1 == y0
          else canvas.height - canvas.margin - (y - y0) / (y1 - y0) * inner_h)
    return px, py


def svg_circle(canvas, x, y, radius_px, stroke, fill="none") -> str:
    """One circle element, its fields formatted one at a time."""
    px, py = svg_page_point(canvas, x, y)
    return (f'<circle cx="{svg_number(px)}" cy="{svg_number(py)}"'
            f' r="{svg_number(radius_px)}" stroke="{stroke}" fill="{fill}"/>')


def svg_line(canvas, x1, y1, x2, y2, stroke="#000000", width=1.0, dashed=False) -> str:
    """One line element, its fields formatted one at a time."""
    (a, b), (c, d) = svg_page_point(canvas, x1, y1), svg_page_point(canvas, x2, y2)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<line x1="{svg_number(a)}" y1="{svg_number(b)}"'
            f' x2="{svg_number(c)}" y2="{svg_number(d)}"'
            f' stroke="{stroke}" stroke-width="{width}"{dash}/>')
