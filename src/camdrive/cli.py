"""Command-line entry points and file exporters.

Subcommands: profile, metrics, sensitivity, pareto, contour. Each one reads
an optional JSON config, applies flag overrides, computes and writes CSV /
JSON / SVG artifacts into the output directory.

Exit codes: 0 success, 1 configuration error, 2 infeasible mechanism. The
config module decides what is a configuration error; `main` maps the errors
to exit codes, each with one line on stderr.

A CSV file is one NUL-padded uint8 block, a row per line, written without
its NULs in one call (`_csv_blocks`, `_write_csv`). Each column is
formatted once per distinct value, and the distinct floats of a command in
one `_float_text` call, which gives the bytes of `repr` from numpy
arithmetic for magnitudes in [1e-3, 1e16) and calls `repr` for the rest.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import geometry, mechanics, optimize, sensitivity
from .config import RESOLUTION_FIELDS, RunConfig, apply_overrides, load_config
from .errors import ConfigError, ModelError
from .svgplot import Canvas, padded_range

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # flag misuse is a config error, exit 1
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="camdrive",
                     description="Cam-roller transmission design studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("profile", "sample the cam profile and pitch curve"),
        ("metrics", "pressure angle, Hertz pressure and size of one design"),
        ("sensitivity", "pressure sensitivity to r, eta, p, L"),
        ("pareto", "full design-space sweep and Pareto fronts"),
        ("contour", "objective contours over (d_cs, r) at fixed size"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config)")
        if name in RESOLUTION_FIELDS:  # metrics samples nothing
            p.add_argument("--resolution", type=int, default=None,
                           help="sampling / grid resolution (overrides "
                                f"{'.'.join(RESOLUTION_FIELDS[name])})")
        p.add_argument("--format", choices=["csv", "json", "svg", "all"],
                       default=None, help="restrict output formats")
        p.add_argument("--material", default=None,
                       help="use this material for both cam and roller")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in metadata for randomized harnesses")
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(cfg, args.command, out=args.out,
                           resolution=getattr(args, "resolution", None),
                           fmt=args.format, mat=args.material, seed=args.seed)


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.output.directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {d} cannot be made: {exc}") from exc
    return d


def _wants(cfg: RunConfig, fmt: str) -> bool:
    return fmt in cfg.output.formats or "all" in cfg.output.formats


# --- CSV ----------------------------------------------------------------------

_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW10F = _POW10.astype(np.float64)  # exact: 10^k is a double for k <= 22
# the four ASCII digits of 0..9999 as one uint32 each
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_LEADING = np.arange(16) >= 16 - np.arange(17)[:, None]  # [k]: the last k of 16 places
_PLACES = np.arange(19) < np.arange(20)[:, None]         # [k]: the first k of 19 places


def _shortest(v):
    """(s, j, d, ok) for positive doubles v in [1e-3, 1e16).

    With X = v 10^s in [1e16 - 1, 1e17), the doubles' rounding interval
    (L, H) of v, scaled by 10^s, holds the integers whose decimal text
    reads back as v. d is the multiple of 10^j in it nearest X for the
    largest such j: the shortest text of v and, of those, the nearest, which
    is what `repr` prints. X = hi + lo by Dekker's exact product (Veltkamp
    split with 2^27 + 1), L and H exactly from the half-gaps to the
    neighbouring doubles, powers of two. ok is False where `repr` decides
    otherwise: at an integer L or H, whose inclusion follows round-half-even,
    or at a tie between two nearest multiples.
    """
    s = np.clip(16 - np.floor(np.log10(v)).astype(np.int64), 1, 19)
    hi = v * _POW10F[s]
    s += (hi < 1e16).astype(np.int64) - (hi >= 1e17)
    p = _POW10F[s]
    hi = v * p
    t = 134217729.0 * v
    vh = t - (t - v)
    vl = v - vh
    t = 134217729.0 * p
    ph = t - (t - p)
    pl = p - ph
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    base = hi.astype(np.int64)  # hi >= 2^53 is a whole number

    def floor_of_sum(gap):
        """floor(X + gap) and whether X + gap is whole, by two-sum of lo and gap."""
        t = lo + gap
        b = t - lo
        err = (lo - (t - b)) + (gap - b)
        f = np.floor(t)
        whole = f == t
        return base + f.astype(np.int64) - (whole & (err < 0)), whole & (err == 0)

    # half the gaps to the neighbouring doubles, times p: v = m 2^e with m in
    # [0.5, 1) has the gap 2^(e - 53) above it, and half that below at m = 0.5
    m, e = np.frexp(v)
    low, low_whole = floor_of_sum(-np.ldexp(p, e - 54 - (m == 0.5)))
    high, high_whole = floor_of_sum(np.ldexp(p, e - 54))
    # j counts the k = 1, 2, ... for which a multiple of 10^k lies in (L, H);
    # low and high become floor(L / 10^j) and floor(H / 10^j)
    j = np.zeros(len(v), np.int64)
    rows, lq, hq = np.arange(len(v)), low, high
    while len(rows):
        lq, hq = lq // 10, hq // 10
        hit = hq > lq
        rows, lq, hq = rows[hit], lq[hit], hq[hit]
        j[rows] += 1
        low[rows], high[rows] = lq, hq
    q = _POW10[j].astype(np.int64)
    lo_floor = np.floor(lo)
    xq, rem = np.divmod(base + lo_floor.astype(np.int64), q)  # floor(X) by 10^j
    half, frac = q // 2, lo > lo_floor
    up = np.where(j > 0, (rem > half) | ((rem == half) & frac), lo > lo_floor + 0.5)
    tie = np.where(j > 0, (rem == half) & ~frac, lo == lo_floor + 0.5)
    d = np.clip(xq + up, low + 1, high) * q
    return s, j, d.astype(np.uint64), ~(low_whole | high_whole | tie)


def _bytes_block(strings) -> np.ndarray:
    """(n, w) uint8 block of n byte strings, NUL padded."""
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _float_text(values) -> np.ndarray:
    """(n, w) uint8 block of the bytes of `repr` of each float, NUL padded.

    Magnitudes in [1e-3, 1e16) print in fixed notation from `_shortest`'s
    digits d / 10^s: the integer part without leading zeros, a point, and
    max(s - j, 1) fraction places. Zeros, values outside that range, NaN,
    infinities and the values `_shortest` leaves to `repr` go through `repr`.
    """
    values = np.asarray(values, dtype=np.float64)
    v = np.abs(values)
    exact = (v >= 1e-3) & (v < 1e16)
    rows = np.flatnonzero(exact)
    s, j, d, ok = _shortest(v[rows])
    exact[rows[~ok]] = False
    rows, s, j, d = rows[ok], s[ok], j[ok], d[ok]
    whole, fraction = np.divmod(d, _POW10[s])    # whole < 10^16
    fraction *= _POW10[19 - s]                   # 19 places, < 10^19
    places = np.maximum(s - j, 1)
    digits = np.maximum(np.searchsorted(_POW10[:16], whole, side="right"), 1)
    wi, wf = int(digits.max(initial=1)), int(places.max(initial=1))
    groups = np.empty((9, len(rows)), np.intp)   # 16 digits of whole, 20 of fraction
    for number, last, first in ((whole, 3, 0), (fraction, 8, 4)):
        for k in range(last, first, -1):
            upper = number // 10000              # faster than % and divmod
            groups[k] = number - upper * 10000
            number = upper
        groups[first] = number
    chars = np.ascontiguousarray(_DIGITS4[groups].T).view(np.uint8)  # fraction at 17:36
    text = np.empty((len(rows), wi + wf + 2), np.uint8)
    text[:, 0] = (values[rows] < 0) * ord("-")
    np.multiply(chars[:, 16 - wi:16], _LEADING[digits, 16 - wi:], out=text[:, 1:wi + 1])
    text[:, wi + 1] = ord(".")
    np.multiply(chars[:, 17:17 + wf], _PLACES[places, :wf], out=text[:, wi + 2:])
    others = _bytes_block([repr(f).encode() for f in values[~exact].tolist()])
    block = np.zeros((len(values), max(text.shape[1], others.shape[1])), np.uint8)
    block[rows, :text.shape[1]] = text
    block[~exact, :others.shape[1]] = others
    return block


def _str_text(distinct) -> np.ndarray:
    """(n, w) uint8 block of `str` of each value, NUL padded."""
    strings = [str(v).encode() for v in distinct.tolist()]
    if any(b"\0" in s for s in strings):
        raise ValueError("a CSV field holds a NUL character")
    return _bytes_block(strings)


def _csv_blocks(*tables) -> list[np.ndarray]:
    """The CSV rows of each table as a (rows, width) uint8 block, NUL padded.

    A table is a sequence of equally long columns, each a 1-D array of
    floats, ints or bools, or a sequence of strings. A field is `str` of its
    value, which is `repr` for a float. Each column is formatted once per
    distinct value (floats by bit pattern: -0.0 and 0.0 are two), the
    distinct floats of all tables in one `_float_text` call. With the NULs
    removed, each row is the line `csv.writer` writes for the same Python
    values, CRLF included, as long as no string holds a comma, double quote,
    carriage return or newline (`csv.writer` would quote it).
    """
    tables = [[np.asarray(c) for c in table] for table in tables]
    columns = [c for table in tables for c in table]
    floats = [c.dtype.kind == "f" for c in columns]
    found = [np.unique(c.astype(np.float64, copy=False).view(np.int64) if f else c,
                       return_inverse=True) for c, f in zip(columns, floats)]
    float_text = _float_text(np.concatenate(
        [np.empty(0)] + [d.view(np.float64) for (d, _), f in zip(found, floats) if f]))
    fields, at = [], 0
    for (distinct, inverse), f in zip(found, floats):
        if f:
            text = float_text[at:at + len(distinct)]
            at += len(distinct)
        else:
            text = _str_text(distinct)
        fields.append(text[inverse])
    blocks = []
    for table in tables:
        row, fields = fields[:len(table)], fields[len(table):]
        block = np.zeros((len(table[0]) if table else 0,
                          sum(f.shape[1] + 1 for f in row) + 1), np.uint8)
        end = 0
        for f in row:  # each field and its comma; the last comma becomes CRLF
            block[:, end:end + f.shape[1]] = f
            block[:, end + f.shape[1]] = ord(",")
            end += f.shape[1] + 1
        block[:, end - 1], block[:, end] = ord("\r"), ord("\n")
        blocks.append(block)
    return blocks


def _write_csv(path: Path, header: list[str], block: np.ndarray) -> None:
    """The header line, then the rows of a `_csv_blocks` block without NULs."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        fh.write(block[block != 0].tobytes())


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _meta(cfg: RunConfig) -> dict:
    return {"config": cfg.to_dict(), "config_hash": cfg.content_hash()}


# --- profile ----------------------------------------------------------------

def cmd_profile(cfg: RunConfig) -> int:
    spec = cfg.spec()
    prof = geometry.sample_profile(spec, cfg.profile.resolution)
    report = prof.report
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        block, = _csv_blocks([prof.psi, prof.u_c, prof.v_c, prof.u_p, prof.v_p,
                              prof.kappa_p, prof.rho_c])
        _write_csv(out / "profile.csv",
                   ["psi_rad", "u_c_mm", "v_c_mm", "u_p_mm", "v_p_mm",
                    "kappa_p_per_mm", "rho_c_mm"], block)
    if _wants(cfg, "json"):
        _write_json(out / "profile.json", {
            **_meta(cfg),
            "delta_rad": prof.delta,
            "resolution": prof.resolution,
            "spec": {"pitch_mm": spec.p, "eta": spec.eta, "roller_radius_mm": spec.r,
                     "cam_count": spec.m,
                     "contact_width_mm": spec.L, "eccentricity_mm": spec.e,
                     "camshaft_diameter_mm": spec.d_cs},
            "feasibility": {"eta_valid": report.eta_valid,
                            "profile_feasible": report.profile_feasible,
                            "fully_convex": report.fully_convex,
                            "blocking": report.blocking,
                            "rho_c_min_mm": report.rho_c_min,
                            "psi_min_rad": report.psi_min},
        })
    if _wants(cfg, "svg"):
        _profile_svg(out / "profile.svg", prof, spec)
    print(f"profile: delta = {prof.delta:.6f} rad, {prof.resolution} samples -> {out}")
    return EXIT_OK


def _profile_svg(path: Path, prof, spec) -> None:
    all_x = np.concatenate([prof.u_c, prof.u_p])
    all_y = np.concatenate([prof.v_c, prof.v_p])
    lo = min(all_x.min(), all_y.min())
    hi = max(all_x.max(), all_y.max())
    canvas = Canvas(padded_range(lo, hi), padded_range(lo, hi),
                    width=560, height=560, margin=48)
    canvas.axes("u [mm]", "v [mm]")
    canvas.polyline(prof.u_c, prof.v_c, stroke="#000000", width=1.4)
    canvas.polyline(prof.u_p, prof.v_p, stroke="#777777", width=1.0, dashed=True)
    canvas.data_circle(0.0, 0.0, spec.d_cs / 2.0, stroke="#2255aa")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        i = int(frac * (prof.resolution - 1))
        canvas.data_circle(prof.u_p[i], prof.v_p[i], spec.r, stroke="#aa3322")
    canvas.page_text(14, 18, "cam profile (solid), pitch curve (dashed), "
                             "rollers and camshaft circles")
    canvas.write(path)


# --- metrics ----------------------------------------------------------------

def cmd_metrics(cfg: RunConfig) -> int:
    spec = cfg.spec()
    load = cfg.load_case()
    cam_mat, roller_mat = cfg.material_pair()
    report, seg = mechanics.hertz_segment(spec, load, cam_mat, roller_mat)
    mu_max, psi_mu, psi_P = seg.mu_max, seg.psi_mu, seg.psi_P
    P_max = seg.P_max / math.sqrt(spec.L)
    S_M = mechanics.mechanism_size(spec.m, spec.L)
    allowable = P_max <= cam_mat.P_allow and P_max <= roller_mat.P_allow
    angle_ok = (not load.high_speed) or mu_max <= math.radians(30.0)
    payload = {
        **_meta(cfg),
        "delta_rad": seg.delta,
        "mu_max_deg": math.degrees(mu_max),
        "psi_at_mu_max_rad": psi_mu,
        "p_max_mpa": P_max,
        "psi_at_p_max_rad": psi_P,
        "size_mm": S_M,
        "segment_rad": list(geometry.driving_window(seg.delta, spec.m)),
        "fully_convex": report.fully_convex,
        "profile_feasible": report.profile_feasible,
        "blocking": report.blocking,
        "rho_c_min_mm": report.rho_c_min,
        "allowable_pressure_ok": bool(allowable),
        "cam_material": cam_mat.name,
        "roller_material": roller_mat.name,
        "allowable_pressure_mpa": min(cam_mat.P_allow, roller_mat.P_allow),
        "high_speed": load.high_speed,
        "pressure_angle_recommended_ok": bool(angle_ok),
    }
    out = _outdir(cfg)
    if _wants(cfg, "json"):
        _write_json(out / "metrics.json", payload)
    if _wants(cfg, "csv"):
        block, = _csv_blocks([[v] for v in (
            math.degrees(mu_max), psi_mu, P_max, psi_P, S_M,
            report.fully_convex, report.profile_feasible, allowable)])
        _write_csv(out / "metrics.csv",
                   ["mu_max_deg", "psi_at_mu_max_rad", "p_max_mpa",
                    "psi_at_p_max_rad", "size_mm", "fully_convex",
                    "profile_feasible", "allowable_pressure_ok"], block)
    print(f"mu_max   = {math.degrees(mu_max):.4f} deg at psi = {psi_mu:.4f} rad")
    print(f"P_max    = {P_max:.4f} MPa at psi = {psi_P:.4f} rad")
    print(f"S_M      = {S_M:.4f} mm")
    print(f"convex   = {report.fully_convex}, feasible = {report.profile_feasible}")
    print(f"P_allow  = {min(cam_mat.P_allow, roller_mat.P_allow):.1f} MPa "
          f"({'ok' if allowable else 'exceeded'})")
    if load.high_speed:
        print(f"high-speed run: pressure angle {'within' if angle_ok else 'ABOVE'} "
              "the 30 deg recommendation")
    return EXIT_OK


# --- sensitivity -------------------------------------------------------------

def cmd_sensitivity(cfg: RunConfig) -> int:
    rep = sensitivity.sensitivity_report(
        cfg.spec(), cfg.load_case(), cfg.material_pair(),
        samples=cfg.sensitivity.samples, rms_nodes=cfg.sensitivity.rms_nodes,
        include_torque=cfg.sensitivity.include_torque)
    out = _outdir(cfg)
    names = list(rep.pointwise.keys())
    if _wants(cfg, "csv"):
        series, tables = _csv_blocks(
            [rep.psi] + [rep.pointwise[n] for n in names],
            [["at_max", "rms"]] + [[rep.at_max[n], rep.rms[n]] for n in sensitivity.PARAMS]
            + [[" ".join(rep.at_max_ranking), " ".join(rep.rms_ranking)]])
        _write_csv(out / "sensitivity_profile.csv",
                   ["psi_rad"] + [f"dP_d{n}_norm_mpa" for n in names], series)
        _write_csv(out / "sensitivity_tables.csv",
                   ["mode", "r", "eta", "p", "L", "ranking"], tables)
    if _wants(cfg, "json"):
        _write_json(out / "sensitivity.json", {
            **_meta(cfg),
            "nominal": rep.nominal,
            "delta_rad": rep.delta,
            "segment_rad": [rep.segment.psi_start, rep.segment.psi_end],
            "at_max": rep.at_max,
            "at_max_ranking": list(rep.at_max_ranking),
            "rms": rep.rms,
            "rms_ranking": list(rep.rms_ranking),
        })
    if _wants(cfg, "svg"):
        _sensitivity_svg(out / "sensitivity.svg", rep)
    print("at-max ranking:", ", ".join(rep.at_max_ranking))
    print("rms ranking:   ", ", ".join(rep.rms_ranking))
    return EXIT_OK


_SERIES_COLORS = {"r": "#aa3322", "eta": "#2255aa", "p": "#228833",
                  "L": "#aa7700", "torque": "#774499"}


def _sensitivity_svg(path: Path, rep) -> None:
    lo = min(float(s.min()) for s in rep.pointwise.values())
    hi = max(float(s.max()) for s in rep.pointwise.values())
    canvas = Canvas(padded_range(float(rep.psi[0]), float(rep.psi[-1])),
                    padded_range(lo, hi))
    canvas.axes("psi [rad]", "dP/dq * q0 [MPa]")
    if lo < 0.0 < hi:
        canvas.polyline([rep.psi[0], rep.psi[-1]], [0.0, 0.0],
                        stroke="#bbbbbb", width=0.8)
    y = 18
    for name, series in rep.pointwise.items():
        color = _SERIES_COLORS.get(name, "#000000")
        canvas.polyline(rep.psi, series, stroke=color, width=1.3)
        canvas.page_text(canvas.width - 130, y, f"w.r.t. {name}", color=color)
        y += 16
    canvas.write(path)


# --- pareto -------------------------------------------------------------------

_FRONT_HEADER = ["m", "d_cs_mm", "r_mm", "L_mm", "mu_max_deg", "p_max_mpa",
                 "s_m_mm", "feasible", "convex_profile"]


def _front_columns(space, table) -> list:
    """The `_FRONT_HEADER` columns of a (mu, P, S, m, d_cs, r, L) front table."""
    mu, P, S, m, d_cs, r, L = table.T
    convex = geometry.fully_convex(optimize.eta_from_design(d_cs, r, space.pitch))
    return [m.astype(int), d_cs, r, L, np.degrees(mu), P, S,
            np.ones(len(table), dtype=bool), convex]


def cmd_pareto(cfg: RunConfig) -> int:
    space = cfg.space()
    result = optimize.sweep(space)
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        # one block for the per-m tables stacked, which front_index indexes
        block, = _csv_blocks(_front_columns(
            space, np.concatenate(list(result.tables.values()))))
        at = 0
        for m, table in result.tables.items():
            _write_csv(out / f"pareto_front_m{m}.csv", _FRONT_HEADER,
                       block[at:at + len(table)])
            at += len(table)
        _write_csv(out / "pareto_front.csv", _FRONT_HEADER, block[result.front_index])
    sizes = {m: len(table) for m, table in result.tables.items()}
    if _wants(cfg, "json"):
        _write_json(out / "pareto.json", {
            **_meta(cfg),
            "evaluated": result.evaluated,
            "front_size": len(result.front_index),
            "per_m_front_size": {str(m): n for m, n in sizes.items()},
        })
    if _wants(cfg, "svg"):
        _pareto_svgs(out, result)
    print(f"sweep: {result.evaluated} candidates, merged front {len(result.front_index)}, "
          + ", ".join(f"m={m}: {n}" for m, n in sizes.items()))
    return EXIT_OK


# stroke by cam count up to 4: red for 2, blue for 3, else black
_M_COLORS = np.array(["#000000"] * 2 + ["#aa3322", "#2255aa", "#000000"], dtype=object)


def _plotted(table) -> np.ndarray:
    """mu_max in degrees, P_max and S_M of a front table's rows."""
    return np.column_stack([np.degrees(table[:, 0]), table[:, 1], table[:, 2]])


def _pareto_svgs(out: Path, result) -> None:
    fronts = {m: _plotted(table) for m, table in result.tables.items()}
    allc = np.concatenate(list(fronts.values()))
    if not len(allc):
        return
    MU, P, S = range(3)
    ranges = [padded_range(float(col.min()), float(col.max())) for col in allc.T]
    axes = {
        "pareto_mu_sm.svg": (MU, S, "mu_max [deg]", "S_M [mm]"),
        "pareto_p_mu.svg": (MU, P, "mu_max [deg]", "P_max [MPa]"),
        "pareto_p_sm.svg": (S, P, "S_M [mm]", "P_max [MPa]"),
    }
    for name, (ix, iy, xl, yl) in axes.items():
        canvas = Canvas(ranges[ix], ranges[iy])
        canvas.axes(xl, yl)
        y = 18
        for m, front in fronts.items():
            color = _M_COLORS[min(m, 4)]
            canvas.circles(front[:, ix], front[:, iy], 2.2, stroke=color)
            canvas.page_text(canvas.width - 150, y, f"{m} conjugate cams",
                             color=color)
            y += 16
        canvas.write(out / name)
    # isometric 3D scatter of the merged front
    table = result.front_table

    def norm(vals):
        lo, hi = vals.min(), vals.max()
        return (vals - lo) / (hi - lo) if hi > lo else np.full(len(vals), 0.5)

    front = _plotted(table)
    nx, ny, nz = norm(front[:, MU]), norm(front[:, S]), norm(front[:, P])
    ca, cb = math.cos(math.radians(30)), math.sin(math.radians(30))
    px = (nx - ny) * ca
    py = (nx + ny) * cb + nz
    canvas = Canvas(padded_range(float(px.min()), float(px.max())),
                    padded_range(float(py.min()), float(py.max())))
    canvas.circles(px, py, 2.2, stroke=_M_COLORS[np.minimum(table[:, 3], 4).astype(int)].tolist())
    canvas.page_text(14, 18, "merged front, isometric axes: mu_max, S_M, P_max")
    canvas.write(out / "pareto_3d.svg")


# --- contour ------------------------------------------------------------------

def cmd_contour(cfg: RunConfig) -> int:
    cc = cfg.contour
    sl = optimize.contour_slice(cfg.space(), cc.m, cc.s_m_mm, resolution=cc.resolution,
                                mu_levels_deg=cc.mu_levels_deg, P_levels=cc.p_levels_mpa)
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        res = len(sl.d_axis)
        grid, locus = _csv_blocks(
            [np.repeat(sl.d_axis, res), np.tile(sl.r_axis, res),
             np.degrees(sl.mu_grid).ravel(), sl.P_grid.ravel(), sl.feasible.ravel()],
            _front_columns(sl.space, sl.locus_table))
        _write_csv(out / "contour_grid.csv",
                   ["d_cs_mm", "r_mm", "mu_max_deg", "p_max_mpa", "feasible"], grid)
        _write_csv(out / "contour_locus.csv", _FRONT_HEADER, locus)
    if _wants(cfg, "json"):
        _write_json(out / "contour.json", {
            **_meta(cfg),
            "m": sl.m, "s_m_mm": sl.S_M, "L_mm": sl.L,
            "mu_levels_deg": list(sl.mu_levels),
            "p_levels_mpa": list(sl.P_levels),
            "locus_size": len(sl.locus_table),
        })
    if _wants(cfg, "svg"):
        _contour_svg(out / "contour.svg", sl, cfg.contour.dashed_pressure)
    print(f"contour: m={sl.m}, S_M={sl.S_M} mm, locus {len(sl.locus_table)} points -> {out}")
    return EXIT_OK


def _contour_svg(path: Path, sl, dashed_pressure: bool) -> None:
    canvas = Canvas(padded_range(float(sl.d_axis[0]), float(sl.d_axis[-1])),
                    padded_range(float(sl.r_axis[0]), float(sl.r_axis[-1])))
    canvas.axes("d_cs [mm]", "r [mm]")
    for isolines, stroke, dashed in ((sl.mu_isolines, "#228833", not dashed_pressure),
                                     (sl.P_isolines, "#aa3322", dashed_pressure)):
        for ends in isolines.values():
            canvas.segments(*ends.T, stroke=stroke, dashed=dashed)
    canvas.circles(sl.locus_table[:, 4], sl.locus_table[:, 5], 2.4, stroke="#000000",
                   fill="#000000")
    canvas.page_text(14, 18, "pressure-angle contours (green), "
                             "Hertz-pressure contours (red), optimal locus (dots)")
    canvas.write(path)


# --- entry point ----------------------------------------------------------------

_COMMANDS = {
    "profile": cmd_profile,
    "metrics": cmd_metrics,
    "sensitivity": cmd_sensitivity,
    "pareto": cmd_pareto,
    "contour": cmd_contour,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](_resolve(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        design = "nominal design" if args.command == "sensitivity" else "mechanism"
        print(f"infeasible {design}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
