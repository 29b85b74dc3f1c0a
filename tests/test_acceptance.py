"""Acceptance gate: one test per numbered criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines and
the calibration reports. Criteria that the reconstructed model cannot satisfy
fail here honestly, with the analysis printed in the verdict line.
"""
import json
import math
import time

import numpy as np
import pytest

import camdrive as cd
from camdrive.geometry import TAU
from camdrive.optimize import nondominated_mask

import oracles
from oracles import hertz_pressure_series

STEEL = cd.find_material("improved steel")
LOAD = cd.LoadCase(1200.0)
SEED = 20260808


def verdict(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else "")
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def vector_brute_mask(F):
    """Row-against-all dominance filter: the quadratic definition, vectorised."""
    F = np.asarray(F, dtype=float)
    keep = np.ones(len(F), dtype=bool)
    for i in range(len(F)):
        dom = np.all(F <= F[i], axis=1) & np.any(F < F[i], axis=1)
        if dom.any():
            keep[i] = False
    return keep


@pytest.fixture(scope="module")
def default_sweep():
    return cd.sweep(cd.DesignSpace())


def test_criterion_1_closure_angle_anchor():
    spec = cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0)
    delta = cd.extended_angle(spec)
    err = abs(delta - (-1.2943))
    cd.extended_angle(spec)  # warm
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        cd.extended_angle(spec)
        best = min(best, time.perf_counter() - t0)
    ok = err <= 5e-4 and best < 1e-3
    verdict(1, ok, f"delta={delta:.6f} rad (err {err:.2e} <= 5e-4), "
                   f"best runtime {best*1e3:.3f} ms < 1 ms")


def test_criterion_2_geometry_identity_suite():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    closure_worst = curv_worst = offset_worst = 0.0
    curv_checked = offset_checked = 0
    for params in oracles.random_valid_specs(rng, 100):
        s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                r=params["r"], m=params["m"], L=params["L"])
        delta = cd.extended_angle(s)
        for psi in (delta, TAU - delta):
            _, v = cd.cam_profile_point(psi, s)
            closure_worst = max(closure_worst, abs(v) / s.p)
        a, b = delta + 0.1, TAU - delta - 0.1
        for frac in (0.15, 0.5, 0.85):
            psi = a + frac * (b - a)
            kp = cd.pitch_curvature(psi, s.p, s.eta)
            if abs(kp) > 1e-3 * TAU / s.p:
                fd = oracles.curvature_fd(
                    lambda t: cd.pitch_curve_point(t, s)[0],
                    lambda t: cd.pitch_curve_point(t, s)[1], psi)
                curv_worst = max(curv_worst, abs(fd - kp) / abs(kp))
                curv_checked += 1
        seg_a = math.pi - delta
        for frac in (0.2, 0.7):
            psi = seg_a + frac * (TAU - delta - seg_a)
            kp_fd = oracles.curvature_fd(
                lambda t: cd.pitch_curve_point(t, s)[0],
                lambda t: cd.pitch_curve_point(t, s)[1], psi)
            kc_fd = oracles.curvature_fd(
                lambda t: cd.cam_profile_point(t, s)[0],
                lambda t: cd.cam_profile_point(t, s)[1], psi)
            if min(abs(kp_fd), abs(kc_fd)) < 0.02 * TAU / s.p:
                continue
            offset_worst = max(offset_worst,
                               abs(1.0 / kp_fd - 1.0 / kc_fd - s.r) / s.r)
            offset_checked += 1
    elapsed = time.perf_counter() - t0
    ok = (closure_worst < 1e-10 and curv_worst < 1e-4
          and offset_worst < 1e-3 and elapsed < 10.0
          and curv_checked > 200 and offset_checked > 100)
    verdict(2, ok,
            f"closure |v_c|/p worst {closure_worst:.1e} < 1e-10; "
            f"curvature FD worst rel {curv_worst:.1e} < 1e-4 ({curv_checked} pts); "
            f"radius-offset worst rel {offset_worst:.1e} < 1e-3 ({offset_checked} pts); "
            f"{elapsed:.2f} s < 10 s")


def test_criterion_3_convexity_threshold():
    p, r = 50.0, 4.0

    def numerically_convex(eta):
        s = cd.TransmissionSpec(p=p, eta=eta, r=r)
        delta = cd.extended_angle(s)
        psis = np.append(np.linspace(delta, TAU - delta, 4096), math.pi)
        kp = cd.pitch_curvature(psis, p, eta)
        kc = kp / (1.0 - r * kp)
        return bool(kc.min() >= 0.0)

    lo, hi = 0.2, 0.45
    assert not numerically_convex(lo) and numerically_convex(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if numerically_convex(mid):
            hi = mid
        else:
            lo = mid
    flip = 0.5 * (lo + hi)
    err = abs(flip - 1.0 / math.pi)
    verdict(3, err <= 1e-6,
            f"numeric classification flips at eta={flip:.9f}, "
            f"|flip - 1/pi| = {err:.2e} <= 1e-6")


def test_criterion_4_pressure_angle_trends():
    rng = np.random.default_rng(SEED + 1)
    cam_count_ok = eta_ok = True
    for params in oracles.random_valid_specs(rng, 20):
        p, eta, L = params["p"], params["eta"], params["L"]
        r = min(params["r"], 0.8 * 0.95 * eta * p)
        if r < 0.5:
            continue
        s2 = cd.TransmissionSpec(p=p, eta=eta, r=r, m=2, L=L)
        s3 = cd.TransmissionSpec(p=p, eta=eta, r=r, m=3, L=L)
        if cd.max_pressure_angle(s3) >= cd.max_pressure_angle(s2):
            cam_count_ok = False
        etas = np.linspace(eta, min(1.2 * eta, 0.62), 5)
        mus = [cd.max_pressure_angle(cd.TransmissionSpec(p=p, eta=float(e), r=r,
                                                         m=2, L=L))
               for e in etas]
        if any(b < a - 1e-12 for a, b in zip(mus, mus[1:])):
            eta_ok = False
    verdict(4, cam_count_ok and eta_ok,
            "mu_max(m=3) < mu_max(m=2) at 20 base specs; "
            "mu_max non-decreasing in eta on the valid band")


def test_criterion_5_hertz_extremum_location():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    violations = []
    while checked < 100:
        params = oracles.random_valid_specs(rng, 1)[0]
        s = cd.TransmissionSpec(p=params["p"], eta=params["eta"],
                                r=params["r"], m=2, L=params["L"])
        if not cd.feasibility_check(s).ok:
            continue
        delta = cd.extended_angle(s)
        seg = cd.active_segment(s, delta)
        psis = seg.grid(4096)
        P = hertz_pressure_series(psis, s, LOAD, STEEL, STEEL)
        if np.isnan(P).any():
            continue
        checked += 1
        i = int(np.argmax(P))
        if i > 1:
            violations.append((s.eta, s.r / (s.eta * s.p), i,
                               float((P[i] - P[0]) / P[0])))
    detail = (f"{checked} random two-cam specs, peak at pi/n - delta "
              f"within one grid step for {checked - len(violations)}")
    if violations:
        worst = max(violations, key=lambda v: v[3])
        detail += (f"; {len(violations)} specs peak inside the segment "
                   f"(worst: eta={worst[0]:.3f}, r/e={worst[1]:.2f}, "
                   f"grid index {worst[2]}, +{worst[3]*100:.2f}% over the endpoint). "
                   "The stated location holds exactly only where the profile "
                   "radius is monotone across the segment.")
    verdict(5, not violations, detail)


def test_criterion_6_sensitivity_rankings():
    spec = cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0, m=2, L=10.0)
    at_max, rank1 = cd.rank_at_max(spec, LOAD, (STEEL, STEEL))
    rms, rank2 = cd.rank_rms(spec, LOAD, (STEEL, STEEL))
    targets_max = {"p": 362.03, "L": 232.67, "r": 103.32, "eta": 83.25}
    targets_rms = {"p": 261.85, "L": 207.79, "r": 156.59, "eta": 20.21}
    dev_max = {k: (at_max[k] - targets_max[k]) / targets_max[k] for k in targets_max}
    dev_rms = {k: (rms[k] - targets_rms[k]) / targets_rms[k] for k in targets_rms}
    print("  calibration deviations (no hard tolerance):")
    print("   at-max:", {k: f"{v:+.2%}" for k, v in dev_max.items()})
    print("   rms:   ", {k: f"{v:+.2%}" for k, v in dev_rms.items()})
    ok = rank1 == ("p", "L", "r", "eta") and rank2 == ("p", "L", "r", "eta")
    verdict(6, ok, f"at-max ranking {rank1}, rms ranking {rank2}; "
                   f"worst calibration deviation "
                   f"{max(abs(v) for v in (*dev_max.values(), *dev_rms.values())):.2%}")


def test_criterion_7_pareto_soundness(default_sweep):
    # equality with the quadratic filter on small sweeps
    for res in (16, 24):
        result = cd.sweep(cd.DesignSpace(resolution=res))
        for m, g in result.grids.items():
            feas = np.flatnonzero(g.feasible)
            F = g.objectives()[feas]
            assert np.array_equal(nondominated_mask(F), vector_brute_mask(F)), \
                f"sweep front differs from brute filter (res={res}, m={m})"
    # equality with the pure double-loop oracle on random 1000-point sets
    rng = np.random.default_rng(SEED + 3)
    for _ in range(2):
        F = np.column_stack([rng.uniform(0.0, 0.6, 1000),
                             rng.uniform(400.0, 900.0, 1000),
                             rng.uniform(10.0, 100.0, 1000)])
        F[rng.integers(0, 1000, 50)] = F[rng.integers(0, 1000, 50)]
        assert np.array_equal(nondominated_mask(F),
                              oracles.brute_force_front_mask(F))
    # default resolution: runtime, caps, and full replay of the merged front
    t0 = time.perf_counter()
    result = cd.sweep(cd.DesignSpace())
    sweep_time = time.perf_counter() - t0
    space = result.space
    for c in result.front:
        assert c.mu_max <= space.mu_cap and c.P_max <= space.P_cap \
            and c.S_M <= space.S_cap
    rows = []
    for g in result.grids.values():
        idx = np.flatnonzero(g.feasible)
        rows.append(g.objectives()[idx])
    all_F = np.vstack(rows)
    front_F = np.array([c.objectives for c in result.front])
    # soundness: no front member is dominated by any evaluated candidate
    for i in range(len(front_F)):
        dom = np.all(all_F <= front_F[i], axis=1) & np.any(all_F < front_F[i], axis=1)
        assert not dom.any(), "front member dominated by an evaluated candidate"
    # completeness: every feasible non-front candidate is dominated
    front_set = {tuple(f) for f in front_F}
    chunk = 4096
    for s in range(0, len(all_F), chunk):
        block = all_F[s:s + chunk]
        dominated = np.zeros(len(block), dtype=bool)
        for f in front_F:
            dominated |= np.all(f <= block, axis=1) & np.any(f < block, axis=1)
        for k in np.flatnonzero(~dominated):
            assert tuple(block[k]) in front_set, \
                "nondominated candidate missing from the front"
    verdict(7, sweep_time < 60.0,
            f"fronts equal the quadratic filter (res 16/24 sweeps, 2x1000 random "
            f"points); default sweep {result.evaluated} candidates in "
            f"{sweep_time:.1f} s < 60 s; caps hold on all {len(result.front)} "
            "front members; full-replay soundness and completeness verified")


REFERENCE_DESIGNS = [
    # (label, d_cs, r, m, mu_target_deg, mu_tol_deg, P_target, P_rel_tol)
    ("two-cam", 2.6, 4.24, 2, 3.0, 1.5, 653.83, 0.15),
    ("three-cam", 4.56, 9.28, 3, 30.0, 2.0, 579.45, 0.15),
]


def evaluate_reference(d_cs, r, m, convention):
    p = 20.0
    L = 60.0 / m
    eta = (r + d_cs / 2.0) / p if convention == "diameter" else (r + d_cs) / p
    spec = cd.TransmissionSpec(p=p, eta=eta, r=r, m=m, L=L)
    mu = cd.max_pressure_angle(spec)
    P, _ = cd.max_hertz_pressure(spec, LOAD, STEEL, STEEL)
    return math.degrees(mu), P


def test_criterion_8_reference_design_reproduction(tmp_path):
    report = {"context": {"pitch_mm": 20.0, "torque_nmm": 1200.0,
                          "young_modulus_mpa": 210000.0, "poisson_ratio": 0.3,
                          "size_mm": 60.0},
              "points": []}
    all_within = True
    for label, d_cs, r, m, mu_t, mu_tol, P_t, P_tol in REFERENCE_DESIGNS:
        entry = {"label": label, "d_cs_mm": d_cs, "r_mm": r, "m": m,
                 "targets": {"mu_max_deg": mu_t, "mu_tol_deg": mu_tol,
                             "p_max_mpa": P_t, "p_rel_tol": P_tol},
                 "interpretations": {}}
        point_ok = False
        for convention in ("diameter", "gap"):
            mu_deg, P = evaluate_reference(d_cs, r, m, convention)
            res = {"mu_max_deg": mu_deg, "p_max_mpa": P,
                   "mu_residual_deg": mu_deg - mu_t,
                   "p_residual_rel": (P - P_t) / P_t,
                   "mu_within": abs(mu_deg - mu_t) <= mu_tol,
                   "p_within": abs(P - P_t) / P_t <= P_tol}
            entry["interpretations"][convention] = res
            point_ok = point_ok or (res["mu_within"] and res["p_within"])
        entry["within_tolerance"] = point_ok
        all_within = all_within and point_ok
        report["points"].append(entry)
    out = tmp_path / "reference_design_report.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"  run report written to {out}")
    for entry in report["points"]:
        for conv, res in entry["interpretations"].items():
            print(f"   {entry['label']:9s} [{conv:8s}] mu={res['mu_max_deg']:7.3f} deg "
                  f"(residual {res['mu_residual_deg']:+7.3f}), "
                  f"P={res['p_max_mpa']:7.2f} MPa "
                  f"(residual {res['p_residual_rel']:+.2%})")
    if all_within:
        verdict(8, True, "both reference designs within calibration tolerance")
        return
    # out of band: the criterion itself prescribes the fallback - the run
    # report must carry both shaft-diameter interpretations and residuals,
    # and acceptance then rests on criteria 1-7 plus 9-10
    complete = all(
        set(entry["interpretations"]) == {"diameter", "gap"}
        and all("mu_residual_deg" in res and "p_residual_rel" in res
                for res in entry["interpretations"].values())
        for entry in report["points"])
    p_within_diameter = all(
        e["interpretations"]["diameter"]["p_within"] for e in report["points"])
    verdict(8, complete,
            "pressure-angle targets not reproducible under either published "
            "shaft-diameter convention (residuals above); Hertz pressures "
            f"{'within' if p_within_diameter else 'outside'} +/-15% under the "
            "nomenclature convention; fallback run report with both "
            "interpretations and residuals emitted as the criterion prescribes")


def _envelope(front, grid_deg):
    mu = np.array([math.degrees(c.mu_max) for c in front])
    P = np.array([c.P_max for c in front])
    o = np.argsort(mu)
    mu, P = mu[o], np.minimum.accumulate(P[o])
    idx = np.searchsorted(mu, grid_deg, side="right") - 1
    out = np.full(len(grid_deg), np.nan)
    ok = idx >= 0
    out[ok] = P[idx[ok]]
    return out


def test_criterion_9_front_crossover(default_sweep):
    grid = np.arange(14.0, 30.01, 0.25)
    e2 = _envelope(default_sweep.per_m_fronts[2], grid)
    e3 = _envelope(default_sweep.per_m_fronts[3], grid)
    both = np.isfinite(e2) & np.isfinite(e3)
    crossover = None
    for g, a, b in zip(grid[both], e2[both], e3[both]):
        if b > a + 1e-9:
            crossover = float(g)
            break
    dominated_below = all(b <= a + 1e-9 for g, a, b in
                          zip(grid[both], e2[both], e3[both])
                          if crossover is None or g < crossover)
    gaps = np.abs(e3[both] - e2[both]) / e2[both]
    close = float(np.nanmax(gaps[grid[both] >= 24.0])) if both.any() else math.nan
    in_band = crossover is not None and 20.0 <= crossover <= 28.0
    detail = (f"three-cam front weakly dominates below "
              f"{'%.2f deg' % crossover if crossover else 'the 30 deg cap (no crossover)'}"
              f"; max relative envelope gap above 24 deg = {close:.1%}")
    if not in_band:
        detail += ("; the crossover sits outside the stated 20-28 deg band, "
                   "consistent with the reference-design angle residuals "
                   "of criterion 8")
    verdict(9, in_band and dominated_below, detail)


def test_criterion_10_contour_locus(default_sweep):
    space = cd.DesignSpace()
    s2 = cd.contour_slice(space, 2, 60.0)
    s3 = cd.contour_slice(space, 3, 60.0)
    longer = len(s3.locus) > len(s2.locus)
    monotone = True
    worst = None
    for sl in (s2, s3):
        rs = np.array([c.r for c in sl.locus])
        Ps = np.array([c.P_max for c in sl.locus])
        for i in range(len(rs)):
            for j in range(len(rs)):
                if rs[i] < rs[j] - 1e-9 and Ps[i] <= Ps[j]:
                    monotone = False
                    if worst is None:
                        worst = (sl.m, float(rs[i]), float(Ps[i]),
                                 float(rs[j]), float(Ps[j]))
    detail = (f"locus sizes: three-cam {len(s3.locus)} > two-cam {len(s2.locus)} "
              f"({'ok' if longer else 'NOT ok'})")
    if not monotone:
        detail += (f"; pressure is not strictly decreasing in roller radius "
                   f"along the locus (e.g. m={worst[0]}: r={worst[1]:.3f} gives "
                   f"P={worst[2]:.1f} while r={worst[3]:.3f} gives P={worst[4]:.1f}); "
                   "in this model the best-pressure designs sit at the "
                   "smallest roller radius")
    verdict(10, longer and monotone, detail)


def test_criterion_11_determinism(tmp_path):
    from camdrive.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design_space": {"resolution": 20}}))
    out = tmp_path / "run"
    assert main(["pareto", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(f for f in out.iterdir() if f.suffix in (".csv", ".json"))
    first = {f.name: f.read_bytes() for f in files}
    assert main(["pareto", "--config", str(cfg), "--out", str(out)]) == 0
    identical = all(f.read_bytes() == first[f.name]
                    for f in sorted(out.iterdir())
                    if f.suffix in (".csv", ".json"))
    verdict(11, identical,
            f"{len(first)} CSV/JSON files byte-identical across reruns")
