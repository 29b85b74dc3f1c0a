#!/usr/bin/env python3
"""Reprint the sampling evidence behind `geometry.closure_angles`.

The solver brackets the closure root with a coarse sign scan of v_c on
[-pi, 0] and converges inside the bracket with a fixed number of safeguarded
Newton steps. That the coarse scan brackets the same root as a dense one, and
that the step count suffices, is sampling evidence, not a proof. This script
redraws it, seeded, for five sets of (eta, r) pairs:

- random pairs over the valid region 1/(2*pi) < eta <= 2, 0 < r < e
- eta within 1e-6 of 1/(2*pi)
- r within 1e-9*e of e
- roots within 1e-3 of -pi, built by solving v_c(psi0) = 0 for r (v_c is
  linear in r); they exist only for eta above about 3.2
- every (d_cs, r) pair of the default design space at resolution 256

For each set it prints the draw count, the pairs with no root, whether the
NaN pattern matches, the largest |delta difference| against a 1025-node scan
refined by bisection, and per Newton step the bisection-fallback count and
the largest difference after that step. The step loop is a copy of the
library's; the script checks that its result equals `closure_angles` bit for
bit. v_c is homogeneous in (p, r), so one pitch covers every design.

Usage: python scripts/closure_evidence.py  (about 20 s on one core)
"""
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from camdrive import geometry as G  # noqa: E402
from camdrive.optimize import DesignSpace, eta_from_design  # noqa: E402

PITCH = 20.0
SEED = 1
DENSE_NODES = 1025
BISECTIONS = 60
CHUNK = 1024


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


def traced_roots(eta, r, ref):
    """The library's step loop, recording fallbacks and errors per step."""
    nodes = np.linspace(-math.pi, 0.0, G.ROOT_SCAN_NODES)
    v = G._ordinate(nodes, PITCH, eta[:, None], r[:, None])
    k, found = G._last_sign_change(v)
    rows = np.arange(len(eta))
    lo, hi, v_lo, v_hi = nodes[k], nodes[k + 1], v[rows, k], v[rows, k + 1]
    fallbacks, errors = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = lo - v_lo * (hi - lo) / (v_hi - v_lo)
        for _ in range(G.ROOT_NEWTON_STEPS):
            psi = np.where((lo <= psi) & (psi <= hi), psi, 0.5 * (lo + hi))
            v, slope = G._ordinate_slope(psi, PITCH, eta, r)
            right = v * v_lo > 0.0
            lo = np.where(right, psi, lo)
            hi = np.where(right, hi, psi)
            psi = psi - v / slope
            inside = (lo <= psi) & (psi <= hi)
            fallbacks.append(int((found & ~inside).sum()))
            step = np.where(inside, psi, 0.5 * (lo + hi))
            errors.append(float(np.nanmax(np.abs(np.where(found, step, np.nan) - ref),
                                          initial=0.0)))
    psi = np.where((lo <= psi) & (psi <= hi), psi, 0.5 * (lo + hi))
    return np.where(found, psi, np.nan), fallbacks, errors


def pair_sets(rng):
    n = 200_000
    eta = rng.uniform(1.0 / G.TAU, 2.0, n)
    eta = eta[G.TAU * eta - 1.0 > G.ETA_SINGULAR_TOL]
    r = rng.uniform(0.0, 1.0, len(eta)) * eta * PITCH
    yield "random valid pairs", eta, np.where(r > 0.0, r, 1e-3)

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

    space = DesignSpace(resolution=256)
    d_axis = np.linspace(*space.d_cs_range, space.resolution)
    r_axis = np.linspace(*space.r_range, space.resolution)
    D, R = (a.ravel() for a in np.meshgrid(d_axis, r_axis, indexing="ij"))
    yield "default design space, res 256", eta_from_design(D, R, space.pitch), R


def main() -> int:
    rng = np.random.default_rng(SEED)
    print(f"closure_angles: {G.ROOT_SCAN_NODES}-node bracket, "
          f"{G.ROOT_NEWTON_STEPS} Newton steps; reference: {DENSE_NODES}-node scan "
          f"and {BISECTIONS} bisections; seed {SEED}, p = {PITCH}")
    ok = True
    for name, eta, r in pair_sets(rng):
        ref = dense_roots(eta, r)
        got, fallbacks, errors = traced_roots(eta, r, ref)
        lib = G.closure_angles(PITCH, eta, r)
        mirrored = np.array_equal(got, lib, equal_nan=True)
        same_nan = np.array_equal(np.isnan(lib), np.isnan(ref))
        worst = float(np.nanmax(np.abs(lib - ref), initial=0.0))
        ok &= mirrored and same_nan
        print(f"\n{name}: {len(eta)} pairs, {int(np.isnan(ref).sum())} with no root")
        print(f"  NaN pattern equal: {same_nan}; largest |d delta|: {worst:.2e}; "
              f"loop equals closure_angles: {mirrored}")
        print("  step        " + " ".join(f"{i + 1:>8d}" for i in range(len(errors))))
        print("  fallbacks   " + " ".join(f"{c:>8d}" for c in fallbacks))
        print("  |d delta|   " + " ".join(f"{e:>8.1e}" for e in errors))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
