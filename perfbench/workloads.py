"""The three benchmark workloads: seeded config streams and output checks.

Each op is a closed-loop request from one client: the benchmark writes a
generated JSON config, calls `camdrive.cli.main` for each command of the op
and sends the next op only after this one finished. The program sees only
the configs. Every op writes csv, json and svg into one output directory.

Draws that change how much work an op does (sweep resolution, contour cam
count) repeat in a fixed order, and a run measures whole cycles of
`cycle_len` ops, so every run holds the same mix and its statistics compare
across seeds; the remaining parameters are drawn freely. A sweep or contour
cycle outlasts the default run time, so those runs hold exactly one cycle
unless the program gets faster.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

MATERIALS = tuple(ref.ELASTIC)
# Sweep pairs: with the soft materials no design meets the pressure cap from
# above, so fronts grow several times larger and the front filter and
# hypervolume, not the kernel, set the op time of whichever op draws them.
METALS = ("improved steel", "stainless steel", "grey cast iron")
CHECK_ROWS = 6          # reference-checked rows per op and per result kind
ACCURACY_TOL = 1e-5     # largest relative error an op may report
CAP_TOL = 1e-9          # relative slack on cap checks of values printed in degrees


class Op:
    """One generated request: a config, the commands to run, what to expect."""

    def __init__(self, config, commands, points, expect=0, **facts):
        self.config = config
        self.commands = commands
        self.points = points
        self.expect = expect
        self.facts = facts


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def nonfinite_cells(rows, allow=None):
    """(row index, column) of every non-finite number, except in allowed rows."""
    bad = []
    for i, row in enumerate(rows):
        if allow is not None and allow(row):
            continue
        for key, cell in row.items():
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                bad.append((i, key))
    return bad


def dominated_rows(F, chunk=256):
    """Mask of rows dominated by another row (minimisation), pairwise."""
    F = np.asarray(F, dtype=float)
    out = np.zeros(len(F), dtype=bool)
    for s in range(0, len(F), chunk):
        G = F[s:s + chunk]
        no_worse = np.ones((len(G), len(F)), dtype=bool)
        equal = np.ones_like(no_worse)
        for k in range(F.shape[1]):
            no_worse &= F[None, :, k] <= G[:, None, k]
            equal &= F[None, :, k] == G[:, None, k]
        out[s:s + chunk] = (no_worse & ~equal).any(axis=1)
    return out


def check_files(outdir, problems, nan_allowed=None):
    """Every CSV/JSON output parses and holds only finite numbers."""
    nan_allowed = nan_allowed or {}
    for path in sorted(Path(outdir).iterdir()):
        if path.suffix == ".json":
            try:
                read_json(path)
            except ValueError as exc:
                problems.append(f"{path.name}: {exc}")
        elif path.suffix == ".csv":
            bad = nonfinite_cells(read_csv(path), nan_allowed.get(path.name))
            if bad:
                problems.append(f"{path.name}: non-finite cells {bad[:3]}")


def _pick(rng, rows, k=CHECK_ROWS):
    if len(rows) <= k:
        return list(rows)
    return [rows[i] for i in sorted(rng.choice(len(rows), size=k, replace=False))]


def _compare(mu_deg, p_mpa, want, what, rel_errs, problems):
    """Relative errors of a reported (mu_max, P_max) against the reference."""
    if not want["feasible"]:
        problems.append(f"{what}: the reference finds this design infeasible")
        return
    errs = (ref.rel_err(mu_deg, math.degrees(want["mu_max"])),
            ref.rel_err(p_mpa, want["p_max"]))
    rel_errs.extend(errs)
    if max(errs) > ACCURACY_TOL:
        problems.append(f"{what}: relative error {max(errs):.3g}")


def _check_row(row, op, m, L, rel_errs, problems):
    d, r = float(row["d_cs_mm"]), float(row["r_mm"])
    want = ref.grid_design(op.facts["pitch"], d, r, m, L, op.facts["torque"],
                           op.facts["cam"], op.facts["roller"])
    _compare(float(row["mu_max_deg"]), float(row["p_max_mpa"]), want,
             f"d_cs={d}, r={r}, m={m}, L={L}", rel_errs, problems)


def _within_caps(rows, caps, problems, what):
    mu_cap, p_cap, s_cap = caps
    for row in rows:
        if (row["feasible"] != "True"
                or float(row["mu_max_deg"]) > mu_cap * (1.0 + CAP_TOL)
                or float(row["p_max_mpa"]) > p_cap
                or float(row.get("s_m_mm", 0.0)) > s_cap):
            problems.append(f"{what} row outside the caps: {row}")
            return


class Sweep:
    """`pareto` over the (d_cs, r, L, m) grid, then the merged front's hypervolume."""

    name = "sweep"
    commands = ("pareto",)
    cycle_len = 6

    def __init__(self, tiny=False):
        self.cycle = (16, 24, 20) if tiny else (48, 80, 64)

    def draw(self, rng, i, outdir) -> Op:
        res = self.cycle[i % len(self.cycle)]
        # A larger pitch (lower eta) or mu cap lets more pairs pass the cap,
        # which is what moves the op time at a fixed resolution. Each
        # resolution runs once in each half of both ranges, so the run's
        # median does not hang on which halves its draws fell in.
        low = (i // len(self.cycle)) % 2 == 0
        facts = {"pitch": float(rng.uniform(18.0, 20.0) if low else rng.uniform(20.0, 22.0)),
                 "torque": float(rng.uniform(800.0, 1600.0)),
                 "cam": str(rng.choice(METALS)), "roller": str(rng.choice(METALS)),
                 "mu_cap": float(rng.uniform(30.0, 34.0) if low else rng.uniform(26.0, 30.0)),
                 "res": res}
        config = {
            "design_space": {"resolution": res, "pitch_mm": facts["pitch"],
                             "mu_cap_deg": facts["mu_cap"], "workers": 1},
            "load": {"torque_nmm": facts["torque"]},
            "materials": {"cam": facts["cam"], "roller": facts["roller"]},
            "output": {"directory": str(outdir), "formats": ["csv", "json", "svg"]},
        }
        return Op(config, self.commands, points=2 * res ** 3, **facts)

    @staticmethod
    def caps(op):
        return op.facts["mu_cap"], 800.0, 90.0

    def finish(self, op, outdir, optimize):
        """The designer's follow-up: hypervolume of the merged front."""
        rows = read_csv(Path(outdir) / "pareto_front.csv")
        F = np.array([[float(r["mu_max_deg"]), float(r["p_max_mpa"]),
                       float(r["s_m_mm"])] for r in rows]).reshape(-1, 3)
        return optimize.hypervolume(F, self.caps(op))

    def check(self, op, outdir, hv, rng, rel_errs, problems):
        outdir = Path(outdir)
        meta = read_json(outdir / "pareto.json")
        if meta["evaluated"] != op.points:
            problems.append(f"evaluated {meta['evaluated']} != {op.points}")
        caps = self.caps(op)
        front = read_csv(outdir / "pareto_front.csv")
        if len(front) != meta["front_size"]:
            problems.append("front CSV and JSON disagree on the front size")
        for name in ["pareto_front.csv", "pareto_front_m2.csv", "pareto_front_m3.csv"]:
            _within_caps(read_csv(outdir / name), caps, problems, name)
        F = [[float(r["mu_max_deg"]), float(r["p_max_mpa"]), float(r["s_m_mm"])]
             for r in front]
        if front and dominated_rows(F).any():
            problems.append("merged front members dominate each other")
        if front and not (math.isfinite(hv) and hv > 0.0):
            problems.append(f"hypervolume {hv} of a non-empty front")
        for row in _pick(rng, front):
            _check_row(row, op, int(row["m"]), float(row["L_mm"]), rel_errs, problems)
        check_files(outdir, problems)


class Contour:
    """`contour` at resolution 96: objective grids, iso-lines and the locus."""

    name = "contour"
    commands = ("contour",)
    cycle_len = 6

    def __init__(self, tiny=False):
        self.res = 24 if tiny else 96

    def draw(self, rng, i, outdir) -> Op:
        m = (2, 3)[i % 2]
        # narrower than the sweep's draws, so that most slices have a locus
        facts = {"pitch": float(rng.uniform(18.0, 24.0)),
                 "torque": float(rng.uniform(800.0, 1600.0)),
                 "cam": "improved steel", "roller": "improved steel", "m": m,
                 "s_m": float(rng.uniform(40.0, 88.0))}
        mu_levels = sorted(round(float(x), 2)
                           for x in rng.uniform(4.0, 34.0, int(rng.integers(5, 8))))
        p_levels = sorted(round(float(x), 1)
                          for x in rng.uniform(400.0, 900.0, int(rng.integers(6, 9))))
        config = {
            "design_space": {"pitch_mm": facts["pitch"], "workers": 1},
            "load": {"torque_nmm": facts["torque"]},
            "contour": {"m": m, "s_m_mm": facts["s_m"], "resolution": self.res,
                        "mu_levels_deg": mu_levels, "p_levels_mpa": p_levels},
            "output": {"directory": str(outdir), "formats": ["csv", "json", "svg"]},
        }
        return Op(config, self.commands, points=self.res ** 2, **facts)

    def finish(self, op, outdir, optimize):
        return None

    def check(self, op, outdir, _, rng, rel_errs, problems):
        outdir = Path(outdir)
        m, L = op.facts["m"], op.facts["s_m"] / op.facts["m"]
        grid = read_csv(outdir / "contour_grid.csv")
        if len(grid) != self.res ** 2:
            problems.append(f"grid has {len(grid)} rows, want {self.res ** 2}")
        locus = read_csv(outdir / "contour_locus.csv")
        if read_json(outdir / "contour.json")["locus_size"] != len(locus):
            problems.append("locus CSV and JSON disagree on the locus size")
        _within_caps(locus, (30.0, 800.0, 90.0), problems, "locus")
        feas = [r for r in grid if r["feasible"] == "True"]
        _within_caps(feas, (30.0, 800.0, 90.0), problems, "feasible grid")
        F = np.array([[float(r["mu_max_deg"]), float(r["p_max_mpa"])] for r in feas])
        on_locus = {(r["d_cs_mm"], r["r_mm"], r["mu_max_deg"], r["p_max_mpa"])
                    for r in locus}
        in_grid = np.array([(r["d_cs_mm"], r["r_mm"], r["mu_max_deg"], r["p_max_mpa"])
                            in on_locus for r in feas], dtype=bool)
        if int(in_grid.sum()) != len(locus):
            problems.append("locus rows are not feasible grid points")
        elif len(feas) and (dominated_rows(F) == in_grid).any():
            problems.append("locus is not the nondominated set of the feasible grid")
        for row in _pick(rng, locus) + _pick(rng, feas):
            _check_row(row, op, m, L, rel_errs, problems)
        # geometry failures are flagged infeasible with NaN objectives
        for row in _pick(rng, [r for r in grid if r["feasible"] != "True"
                               and r["mu_max_deg"] == "nan"]):
            d, r = float(row["d_cs_mm"]), float(row["r_mm"])
            if ref.grid_design(op.facts["pitch"], d, r, m, L, op.facts["torque"])["feasible"]:
                problems.append(f"grid reports NaN at feasible d_cs={d}, r={r}")
        check_files(outdir, problems,
                    {"contour_grid.csv": lambda row: row["feasible"] == "False"})


class Designs:
    """`profile`, `metrics` and `sensitivity` of one drawn mechanism."""

    name = "designs"
    commands = ("profile", "metrics", "sensitivity")
    cycle_len = 1

    def __init__(self, tiny=False):
        pass

    def draw(self, rng, i, outdir) -> Op:
        # ranges of the test suite's random valid specs, with r drawn on its
        # own range so that about a tenth of the draws have r >= e
        facts = {"p": float(rng.uniform(20.0, 60.0)), "eta": float(rng.uniform(0.17, 0.6)),
                 "r": float(rng.uniform(2.0, 10.5)), "m": int(rng.choice([2, 3])),
                 "L": float(rng.uniform(5.0, 45.0)),
                 "torque": float(rng.uniform(500.0, 2000.0)),
                 "cam": str(rng.choice(MATERIALS)), "roller": str(rng.choice(MATERIALS))}
        want = ref.design(facts["p"], facts["eta"], facts["r"], facts["m"], facts["L"],
                          facts["torque"], facts["cam"], facts["roller"])
        config = {
            "mechanism": {"pitch_mm": facts["p"], "eta": facts["eta"],
                          "roller_radius_mm": facts["r"], "cam_count": facts["m"],
                          "contact_width_mm": facts["L"]},
            "load": {"torque_nmm": facts["torque"]},
            "materials": {"cam": facts["cam"], "roller": facts["roller"]},
            "output": {"directory": str(outdir), "formats": ["csv", "json", "svg"]},
        }
        return Op(config, self.commands, points=1, expect=0 if want["feasible"] else 2,
                  want=want, **facts)

    def finish(self, op, outdir, optimize):
        return None

    def check(self, op, outdir, _, rng, rel_errs, problems):
        if op.expect != 0:
            return
        got = read_json(Path(outdir) / "metrics.json")
        _compare(got["mu_max_deg"], got["p_max_mpa"], op.facts["want"], "metrics.json",
                 rel_errs, problems)
        check_files(outdir, problems)


WORKLOADS = {w.name: w for w in (Sweep, Contour, Designs)}
