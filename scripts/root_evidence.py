#!/usr/bin/env python3
"""Reprint the sampling evidence behind the kernel's two bracketed root finds.

`geometry.last_root` solves both 1-D searches of the segment kernel: a
coarse sign scan brackets the root in the last sign change, and a fixed
number of safeguarded Newton steps converge inside the bracket. The scan
walks the nodes from the right end and stops each pair at its first change
from the right, which is the last change of a scan over every node, so the
evidence below holds for either order, bit for bit. That the
coarse scan brackets the right root, and that the step count suffices, is
sampling evidence, not a proof. This script redraws it, seeded.

The closure angle (`geometry.closure_angles`, the root of v_c on [-pi, 0]
nearest zero), on five sets of (eta, r) pairs:

- random pairs over the valid region 1/(2*pi) < eta <= 2, 0 < r < e
- eta within 1e-6 of 1/(2*pi)
- r within 1e-9*e of e
- roots within 1e-3 of -pi, built by solving v_c(psi0) = 0 for r (v_c is
  linear in r); they exist only for eta above about 3.2
- every (d_cs, r) pair of the default design space at resolution 256

For each set it prints the draw count, the pairs with no root, whether the
NaN pattern matches, and the largest |delta difference| against a 1025-node
scan refined by bisection after 0 to ROOT_NEWTON_STEPS Newton steps.

The Hertz peak (`mechanics.segment_metrics`, the last + to - sign change of
the log-derivative of the pressure between the arc start and the curvature
turnover), on three sets:

- random pairs over the valid region, two cams
- the two-peak band of the tests, where the pressure falls from the arc
  start, dips and rises to an interior maximum about as high, two cams
- the default design space at resolution 256, for each of its cam counts

For each set it prints the pair count, the pairs searched (the inner pairs,
whose arc starts before the turnover), the pairs whose peak lies inside the
arc, and the largest relative P_max difference after 0 to ROOT_NEWTON_STEPS
Newton steps of the peak search, at the closure angle of the library's
default step count, against two references:

- on every inner pair, a 1025-node scan of `mechanics.contact_state` over
  the whole driving arc, whose largest node and best interior local maximum
  are polished by golden section. A maximum the 17-node scan misses (the
  log-derivative dipping below zero and back between two nodes) shows here.
- on a subsample of the inner pairs, half of them with the peak inside the
  arc, `tests/oracles.segment_scan` (a 4096-node scan of its own pressure
  formulas, polished by golden section).

The step counts are taken by setting `geometry.ROOT_NEWTON_STEPS` in this
process; the last column is the library's default. v_c is homogeneous in
(p, r), so one pitch covers every closure. The exit status is 1 when a NaN
pattern differs or a P_max differs from the oracle by more than 1e-12
relative at the default step count.

Usage: python scripts/root_evidence.py  (about 20 s on one core)
"""
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from camdrive import geometry as G  # noqa: E402
from camdrive.mechanics import (  # noqa: E402
    LoadCase, compliance_sum, contact_state, find_material, segment_metrics)
from camdrive.optimize import DesignSpace, eta_from_design  # noqa: E402

PITCH = 20.0
SEED = 1
DENSE_NODES = 1025
BISECTIONS = 60
CHUNK = 1024
PEAK_CHUNK = 256
GOLDEN_STEPS = 80
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
PEAK_SUBSAMPLE = 200
STEEL = find_material("improved steel")
LOAD = LoadCase(1200.0)
K_SUM = compliance_sum(STEEL, STEEL)
DEFAULT_STEPS = G.ROOT_NEWTON_STEPS


def ordinate(psi, eta, r):
    """v_c written out from its closed form."""
    q = G.TAU * eta - 1.0
    w = psi - math.pi
    b1 = PITCH / G.TAU
    return -b1 * np.sin(psi) + (b1 * np.sqrt(q * q + w * w) - r) * np.sin(np.arctan(w / q) - psi)


def dense_roots(eta, r):
    """Last sign change of v_c over DENSE_NODES nodes, refined by bisection."""
    out = np.empty(len(eta))
    nodes = np.linspace(-math.pi, 0.0, DENSE_NODES)
    for s in range(0, len(eta), CHUNK):
        e, q = eta[s:s + CHUNK], r[s:s + CHUNK]
        v = ordinate(nodes, e[:, None], q[:, None])
        change = v[:, :-1] * v[:, 1:] <= 0.0
        k = DENSE_NODES - 2 - change[:, ::-1].argmax(axis=1)
        lo, hi, v_lo = nodes[k], nodes[k + 1], v[np.arange(len(e)), k]
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            right = ordinate(mid, e, q) * v_lo > 0.0
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        out[s:s + CHUNK] = np.where(change.any(axis=1), 0.5 * (lo + hi), np.nan)
    return out


def golden_max(f, lo, hi):
    """Largest value of each row's f on [lo, hi], by GOLDEN_STEPS golden-section steps."""
    for _ in range(GOLDEN_STEPS):
        c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
        left = f(c) >= f(d)  # a maximum lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return f(0.5 * (lo + hi))


def dense_peaks(p, eta, r, cams, delta):
    """P_max over the driving arc: a DENSE_NODES-node scan, polished.

    The largest node and the best interior local maximum of each row are
    polished by golden section between their neighbours, so a maximum
    about as high as the arc start is not lost to the node spacing.
    """
    out = np.empty(len(eta))
    for s in range(0, len(eta), PEAK_CHUNK):
        e, q, d = eta[s:s + PEAK_CHUNK, None], r[s:s + PEAK_CHUNK, None], delta[s:s + PEAK_CHUNK]
        start, end = G.driving_window(d, cams)
        psi = np.linspace(start, end, DENSE_NODES, axis=1)
        P = contact_state(psi, p, e, q, LOAD.torque, K_SUM, 1.0)[2]
        rows = np.arange(len(e))
        peak = np.concatenate([np.zeros((len(e), 1), bool),
                               (P[:, 1:-1] >= P[:, :-2]) & (P[:, 1:-1] >= P[:, 2:]),
                               np.zeros((len(e), 1), bool)], axis=1)
        best = np.full(len(e), -np.inf)
        for i in (P.argmax(axis=1), np.where(peak, P, -np.inf).argmax(axis=1)):
            lo = psi[rows, np.maximum(i - 1, 0)]
            hi = psi[rows, np.minimum(i + 1, DENSE_NODES - 1)]
            best = np.maximum(best, golden_max(
                lambda x: contact_state(x, p, e[:, 0], q[:, 0], LOAD.torque, K_SUM, 1.0)[2],
                lo, hi))
        out[s:s + PEAK_CHUNK] = np.maximum(best, P.max(axis=1))
    return out


def by_steps(solve):
    """solve() with 0 to DEFAULT_STEPS Newton steps in `last_root`."""
    out = []
    try:
        for steps in range(DEFAULT_STEPS + 1):
            G.ROOT_NEWTON_STEPS = steps
            out.append(solve())
    finally:
        G.ROOT_NEWTON_STEPS = DEFAULT_STEPS
    return out


def print_steps(*rows):
    """A header of step counts, then one (label, values) row each."""
    print("  Newton steps  " + " ".join(f"{i:>8d}" for i in range(len(rows[0][1]))))
    for label, values in rows:
        print(f"  {label:<13} " + " ".join(f"{v:>8.1e}" for v in values))


def random_valid_pairs(rng, n=200_000):
    """(eta, r) pairs over 1/(2*pi) < eta <= 2, 0 < r < e."""
    eta = rng.uniform(1.0 / G.TAU, 2.0, n)
    eta = eta[G.TAU * eta - 1.0 > G.ETA_SINGULAR_TOL]
    r = rng.uniform(0.0, 1.0, len(eta)) * eta * PITCH
    return eta, np.where(r > 0.0, r, 1e-3)


def design_space_pairs():
    """Every (d_cs, r) pair of the default design space at resolution 256, as (eta, r)."""
    space = DesignSpace(resolution=256)
    d_axis = np.linspace(*space.d_cs_range, space.resolution)
    r_axis = np.linspace(*space.r_range, space.resolution)
    D, R = (a.ravel() for a in np.meshgrid(d_axis, r_axis, indexing="ij"))
    return space, eta_from_design(D, R, space.pitch), R


def closure_sets(rng):
    yield ("random valid pairs",) + random_valid_pairs(rng)

    m = 20_000
    eta = 1.0 / G.TAU + rng.uniform(2.0 * G.ETA_SINGULAR_TOL / G.TAU, 1e-6, m)
    yield "eta within 1e-6 of 1/(2*pi)", eta, rng.uniform(0.0, 1.0, m) * eta * PITCH

    eta = rng.uniform(1.0 / G.TAU + 1e-6, 2.0, m)
    yield "r within 1e-9*e of e", eta, eta * PITCH * (1.0 - rng.uniform(0.0, 1e-9, m))

    eta = rng.uniform(1.0 / G.TAU + 1e-6, 50.0, 2 * m)
    psi0 = -math.pi + rng.uniform(0.0, 1e-3, 2 * m)
    q, w, b1 = G.TAU * eta - 1.0, psi0 - math.pi, PITCH / G.TAU
    r = b1 * np.sqrt(q * q + w * w) - b1 * np.sin(psi0) / np.sin(np.arctan(w / q) - psi0)
    keep = (r > 0.0) & (r < eta * PITCH)
    yield "roots within 1e-3 of -pi", eta[keep], r[keep]

    yield ("default design space, res 256",) + design_space_pairs()[1:]


def peak_sets(rng):
    yield ("random valid pairs, m=2", PITCH) + random_valid_pairs(rng) + (2,)

    # the band of tests/test_mechanics.py::test_two_peak_pairs_match_polished_scan
    m = 20_000
    t = rng.uniform(0.0, 0.0065, m)
    eta = 0.38 + t
    r = eta * PITCH * (0.96935 + 3.855 * t - 13.04 * t * t + rng.uniform(0.0, 2e-4, m))
    yield "two-peak band, m=2", PITCH, eta, r, 2

    space, eta, r = design_space_pairs()
    for cams in space.m_values:
        yield f"default design space, res 256, m={cams}", space.pitch, eta, r, cams


def closure_evidence(rng) -> bool:
    print(f"closure_angles: {G.ROOT_SCAN_NODES}-node bracket; reference: {DENSE_NODES}-node "
          f"scan and {BISECTIONS} bisections; seed {SEED}, p = {PITCH}")
    ok = True
    for name, eta, r in closure_sets(rng):
        ref = dense_roots(eta, r)
        steps = by_steps(lambda: G.closure_angles(PITCH, eta, r))
        lib = steps[-1]
        same_nan = np.array_equal(np.isnan(lib), np.isnan(ref))
        ok &= same_nan
        print(f"\n{name}: {len(eta)} pairs, {int(np.isnan(ref).sum())} with no root; "
              f"NaN pattern equal: {same_nan}")
        print_steps(("|d delta|", [float(np.nanmax(np.abs(d - ref), initial=0.0))
                                   for d in steps]))
    return ok


def peak_evidence(rng) -> bool:
    print(f"\n\nHertz peak: {G.ROOT_SCAN_NODES}-node bracket; references: a "
          f"{DENSE_NODES}-node scan polished by golden section on every inner pair, "
          f"tests/oracles.segment_scan on up to {PEAK_SUBSAMPLE} inner pairs a set; "
          f"seed {SEED}")
    ok = True
    for name, p, eta, r, cams in peak_sets(rng):
        seg = segment_metrics(p, eta, r, cams, LOAD.torque, K_SUM)
        start = G.driving_window(seg.delta, cams)[0]
        psi_rho = G.min_cam_radius(seg.delta, p, eta, r, cams)[0]
        inner = seg.ok & (start < psi_rho)
        interior = inner & (seg.psi_P > start)
        print(f"\n{name}: {len(eta)} pairs, {int(seg.ok.sum())} ok, {int(inner.sum())} inner "
              f"(searched), {int(interior.sum())} with the peak inside the arc")
        if not inner.any():
            continue

        def worst_by_steps(idx, ref):
            steps = by_steps(lambda: segment_metrics(
                p, eta[idx], r[idx], cams, LOAD.torque, K_SUM, delta=seg.delta[idx]).P_max)
            return [float(np.max(np.abs(P - ref) / ref, initial=0.0)) for P in steps]

        every = np.flatnonzero(inner)
        dense = worst_by_steps(every, dense_peaks(p, eta[every], r[every], cams,
                                                  seg.delta[every]))
        # half the subsample where the peak is inside the arc, half where it is the start
        pick = np.sort(np.concatenate([
            rng.choice(idx, min(PEAK_SUBSAMPLE // 2, len(idx)), replace=False)
            for idx in (np.flatnonzero(interior), np.flatnonzero(inner & ~interior))]))
        oracle = worst_by_steps(pick, np.array([oracles.segment_scan(
            SimpleNamespace(p=p, eta=eta[i], r=r[i], m=cams, L=1.0), LOAD, STEEL, STEEL,
            delta=seg.delta[i]).P_max for i in pick]))
        ok &= dense[-1] <= 1e-12 and oracle[-1] <= 1e-12
        print(f"  dense scan: all {len(every)} inner pairs; oracle: {len(pick)} inner pairs, "
              f"{int(interior[pick].sum())} with the peak inside the arc")
        print_steps(("|dP|/P dense", dense), ("|dP|/P oracle", oracle))
    return ok


def main() -> int:
    rng = np.random.default_rng(SEED)
    ok = closure_evidence(rng)
    ok &= peak_evidence(rng)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
