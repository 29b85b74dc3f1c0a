#!/usr/bin/env python3
"""Where does the two-cam front overtake the three-cam front?

Sweeps the default design space, builds the per-cam-count lower envelopes of
peak Hertz pressure versus peak pressure angle, and tabulates them on a
common angle grid. The three-cam envelope wins at small angles; this script
locates the angle where that stops.

Usage: python scripts/crossover_scan.py [resolution]
"""
import sys

import numpy as np

import camdrive as cd


def envelope(table, grid_deg):
    """Lower envelope of P_max over mu_max of a (mu, P, ...) front table."""
    mu, P = np.degrees(table[:, 0]), table[:, 1]
    order = np.argsort(mu)
    mu, P = mu[order], np.minimum.accumulate(P[order])
    idx = np.searchsorted(mu, grid_deg, side="right") - 1
    out = np.full(len(grid_deg), np.nan)
    ok = idx >= 0
    out[ok] = P[idx[ok]]
    return out


def main() -> int:
    resolution = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    result = cd.sweep(cd.DesignSpace(resolution=resolution))
    grid = np.arange(10.0, 30.01, 0.5)
    env = {m: envelope(table, grid) for m, table in result.tables.items()}
    print(f"resolution {resolution}: "
          + ", ".join(f"m={m}: {len(t)} front points"
                      for m, t in result.tables.items()))
    print(f"{'mu_max[deg]':>12} {'P(m=2)[MPa]':>12} {'P(m=3)[MPa]':>12} {'gap':>9}")
    crossover = None
    for g, p2, p3 in zip(grid, env[2], env[3]):
        gap = p3 - p2
        print(f"{g:12.1f} {p2:12.2f} {p3:12.2f} {gap:+9.2f}")
        if crossover is None and np.isfinite(gap) and gap > 0.0:
            crossover = g
    if crossover is None:
        print("three-cam envelope never loses below the pressure-angle cap")
    else:
        print(f"two-cam envelope takes over near mu_max = {crossover:.1f} deg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
