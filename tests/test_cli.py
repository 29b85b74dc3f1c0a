import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camdrive import cli, geometry, optimize, sensitivity
from camdrive.cli import _csv_blocks, _float_text, main
from camdrive.config import (
    MAX_GRID_CANDIDATES,
    RESOLUTION_FIELDS,
    RunConfig,
    apply_overrides,
    parse_config,
)
from camdrive.errors import ConfigError


def run(tmp_path, *args, config=None):
    argv = list(args)
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cell_csv(path, header, rows) -> bytes:
    """Bytes written cell by cell, numpy scalars converted one at a time."""
    def cell(v):
        if isinstance(v, (np.floating, float)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return int(v)
        return v

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])
    return path.read_bytes()


class TestProfileCommand:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(tmp_path, "profile", "--out", str(out)) == 0
        rows = read_csv(out / "profile.csv")
        assert rows[0] == ["psi_rad", "u_c_mm", "v_c_mm", "u_p_mm", "v_p_mm",
                           "kappa_p_per_mm", "rho_c_mm"]
        first = [float(x) for x in rows[1]]
        assert abs(first[2]) < 1e-9          # v_c vanishes at closure
        meta = json.loads((out / "profile.json").read_text())
        assert meta["delta_rad"] == pytest.approx(-1.2943, abs=5e-4)
        assert (out / "profile.svg").exists()

    def test_resolution_does_not_move_closure_angle(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(tmp_path, "profile", "--out", str(out1), "--resolution", "256")
        run(tmp_path, "profile", "--out", str(out2), "--resolution", "512")
        d1 = json.loads((out1 / "profile.json").read_text())["delta_rad"]
        d2 = json.loads((out2 / "profile.json").read_text())["delta_rad"]
        assert d1 == d2

    def test_singular_eta_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "profile", "--out", str(tmp_path / "o"),
                   config={"mechanism": {"eta": 1.0 / (2.0 * math.pi)}})
        captured = capsys.readouterr()
        assert code == 2
        assert "eta" in captured.err and "singular" in captured.err

    def test_format_restriction(self, tmp_path):
        out = tmp_path / "csv_only"
        run(tmp_path, "profile", "--out", str(out), "--format", "csv")
        assert (out / "profile.csv").exists()
        assert not (out / "profile.svg").exists()
        assert not (out / "profile.json").exists()


class TestMetricsCommand:
    def test_baseline_metrics(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run(tmp_path, "metrics", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "mu_max" in stdout and "P_max" in stdout
        meta = json.loads((out / "metrics.json").read_text())
        assert meta["mu_max_deg"] == pytest.approx(5.778, abs=1e-2)
        assert meta["p_max_mpa"] == pytest.approx(465.04, rel=1e-3)
        assert meta["size_mm"] == pytest.approx(20.0)
        assert meta["fully_convex"] is False
        assert meta["allowable_pressure_ok"] is True

    @pytest.mark.parametrize("command", ["profile", "metrics", "sensitivity"])
    def test_closure_solved_once(self, tmp_path, monkeypatch, command):
        # the geometry verdict `driving_arc` solves it, for the gate and for
        # the kernel or the profile samples
        solve = geometry.closure_angles
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(geometry, "closure_angles", counted)
        assert run(tmp_path, command, "--out", str(tmp_path / "m")) == 0
        assert len(calls) == 1

    def test_fully_convex_design_reported(self, tmp_path):
        out = tmp_path / "m2"
        cfg = {"mechanism": {"pitch_mm": 20.0, "eta": 0.424,
                             "roller_radius_mm": 6.4, "contact_width_mm": 30.0}}
        assert run(tmp_path, "metrics", "--out", str(out), config=cfg) == 0
        meta = json.loads((out / "metrics.json").read_text())
        assert meta["fully_convex"] is True

    def test_single_cam_exits_2(self, tmp_path, capsys):
        code = run(tmp_path, "metrics", "--out", str(tmp_path / "o"),
                   config={"mechanism": {"cam_count": 1}})
        assert code == 2
        assert "single cam" in capsys.readouterr().err

    def test_soft_material_fails_allowable_check(self, tmp_path):
        out = tmp_path / "m3"
        assert run(tmp_path, "metrics", "--out", str(out),
                   "--material", "polyamide") == 0
        meta = json.loads((out / "metrics.json").read_text())
        assert meta["allowable_pressure_ok"] is False

    def test_custom_material_catalog_file(self, tmp_path):
        catalog = [{"name": "tool steel", "young_modulus_mpa": 200000.0,
                    "poisson_ratio": 0.29, "static_pressure_mpa": [1800.0, 2100.0]}]
        cat_path = tmp_path / "catalog.json"
        cat_path.write_text(json.dumps(catalog))
        out = tmp_path / "mcat"
        cfg = {"materials": {"cam": "tool steel", "roller": "tool steel",
                             "catalog_file": str(cat_path)}}
        assert run(tmp_path, "metrics", "--out", str(out), config=cfg) == 0
        meta = json.loads((out / "metrics.json").read_text())
        assert meta["cam_material"] == "tool steel"
        # fatigue rule: allowable defaults to 40% of the static upper bound
        assert meta["allowable_pressure_mpa"] == pytest.approx(840.0)

    def test_high_speed_recommendation(self, tmp_path):
        out = tmp_path / "m4"
        assert run(tmp_path, "metrics", "--out", str(out),
                   config={"load": {"speed_rpm": 120.0}}) == 0
        meta = json.loads((out / "metrics.json").read_text())
        assert meta["high_speed"] is True
        assert meta["pressure_angle_recommended_ok"] is True


class TestSensitivityCommand:
    def test_rankings_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(tmp_path, "sensitivity", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "p, L, r, eta" in stdout
        meta = json.loads((out / "sensitivity.json").read_text())
        assert meta["at_max_ranking"] == ["p", "L", "r", "eta"]
        assert meta["rms_ranking"] == ["p", "L", "r", "eta"]
        a, b = meta["segment_rad"]
        delta = meta["delta_rad"]
        assert a == pytest.approx(math.pi - delta)
        assert b == pytest.approx(2.0 * math.pi - delta)

    def test_eta_below_singular_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = run(tmp_path, "sensitivity", "--out", str(out),
                   config={"mechanism": {"eta": 0.1}})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("infeasible nominal design:") and err.count("\n") == 1
        assert not out.exists()

    def test_roller_radius_next_to_eccentricity(self, tmp_path):
        out = tmp_path / "s"
        assert run(tmp_path, "sensitivity", "--out", str(out), config={
            "mechanism": {"pitch_mm": 50, "eta": 0.18,
                          "roller_radius_mm": 8.999995}}) == 0
        meta = json.loads((out / "sensitivity.json").read_text())
        for mode in ("at_max", "rms"):
            assert all(math.isfinite(v) for v in meta[mode].values())
        for row in read_csv(out / "sensitivity_profile.csv")[1:]:
            assert all(math.isfinite(float(v)) for v in row)

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "s"
        run(tmp_path, "sensitivity", "--out", str(out))
        first = (out / "sensitivity_profile.csv").read_bytes()
        tables = (out / "sensitivity_tables.csv").read_bytes()
        run(tmp_path, "sensitivity", "--out", str(out))
        assert (out / "sensitivity_profile.csv").read_bytes() == first
        assert (out / "sensitivity_tables.csv").read_bytes() == tables


class TestParetoCommand:
    def test_front_respects_caps(self, tmp_path):
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out),
                   "--resolution", "16") == 0
        rows = read_csv(out / "pareto_front.csv")
        header = rows[0]
        i_mu = header.index("mu_max_deg")
        i_p = header.index("p_max_mpa")
        i_s = header.index("s_m_mm")
        assert len(rows) > 1
        for row in rows[1:]:
            assert float(row[i_mu]) <= 30.0 + 1e-9
            assert float(row[i_p]) <= 800.0 + 1e-9
            assert float(row[i_s]) <= 90.0 + 1e-9
        meta = json.loads((out / "pareto.json").read_text())
        assert "design_space" in meta["config"] and "config_hash" in meta
        assert set(meta["per_m_front_size"]) == {"2", "3"}
        for name in ("pareto_mu_sm.svg", "pareto_p_mu.svg", "pareto_p_sm.svg",
                     "pareto_3d.svg"):
            assert (out / name).exists()

    def test_per_m_files_written(self, tmp_path):
        out = tmp_path / "p2"
        run(tmp_path, "pareto", "--out", str(out), "--resolution", "16")
        assert (out / "pareto_front_m2.csv").exists()
        assert (out / "pareto_front_m3.csv").exists()

    def test_json_holds_sizes_not_the_front(self, tmp_path):
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out), "--resolution", "16") == 0
        meta = json.loads((out / "pareto.json").read_text())
        assert "front" not in meta
        assert meta["front_size"] == len(read_csv(out / "pareto_front.csv")) - 1
        assert meta["per_m_front_size"] == {
            m: len(read_csv(out / f"pareto_front_m{m}.csv")) - 1 for m in ("2", "3")}
        assert meta["front_size"] > 0

    def test_json_echoes_the_space_once(self, tmp_path):
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out), "--resolution", "16") == 0
        meta = json.loads((out / "pareto.json").read_text())
        assert set(meta) == {"config", "config_hash", "evaluated", "front_size",
                             "per_m_front_size"}
        assert meta["config"]["design_space"]["mu_cap_deg"] == 30.0

    def test_widest_width_at_the_size_cap_is_kept(self, tmp_path):
        # 3*(60.1/3) rounds to 60.10000000000001; the width axis ends at 60.1/3
        # and its size is the cap, so its rows stay on the three-cam front
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out),
                   config={"design_space": {"s_cap_mm": 60.1, "m": [3]}}) == 0
        rows = read_csv(out / "pareto_front_m3.csv")
        header, rows = rows[0], rows[1:]
        widths = [float(row[header.index("L_mm")]) for row in rows]
        sizes = [float(row[header.index("s_m_mm")]) for row in rows]
        assert 60.1 / 3 == 20.033333333333335 and 3 * (60.1 / 3) > 60.1
        assert 20.033333333333335 in widths and max(sizes) == 60.1

    def test_rerun_writes_every_file_byte_identical(self, tmp_path):
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out), "--resolution", "20") == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(first) == 8 and sum(n.endswith(".svg") for n in first) == 4
        assert run(tmp_path, "pareto", "--out", str(out), "--resolution", "20") == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first


class TestContourCommand:
    def test_style_flag_changes_svg_not_data(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, dashed in ((out_a, True), (out_b, False)):
            cfg = tmp_path / f"cfg_{dashed}.json"
            cfg.write_text(json.dumps(
                {"contour": {"resolution": 20, "dashed_pressure": dashed}}))
            assert main(["contour", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert ((out_a / "contour_grid.csv").read_bytes()
                == (out_b / "contour_grid.csv").read_bytes())
        assert ((out_a / "contour_locus.csv").read_bytes()
                == (out_b / "contour_locus.csv").read_bytes())
        assert ((out_a / "contour.svg").read_bytes()
                != (out_b / "contour.svg").read_bytes())

    def test_grid_file_shape(self, tmp_path):
        out = tmp_path / "c"
        run(tmp_path, "contour", "--out", str(out), "--resolution", "16")
        rows = read_csv(out / "contour_grid.csv")
        assert rows[0] == ["d_cs_mm", "r_mm", "mu_max_deg", "p_max_mpa", "feasible"]
        assert len(rows) == 1 + 16 * 16


class TestWriters:
    """CSV rows of Python scalars write the bytes of the per-cell path."""

    def test_front_rows(self, tmp_path):
        out = tmp_path / "p"
        assert run(tmp_path, "pareto", "--out", str(out), "--resolution", "16") == 0
        result = optimize.sweep(parse_config({"design_space": {"resolution": 16}}).space())
        header = read_csv(out / "pareto_front.csv")[0]
        for name, front in [("pareto_front.csv", result.front)] + [
                (f"pareto_front_m{m}.csv", f) for m, f in result.per_m_fronts.items()]:
            rows = ([c.m, c.d_cs, c.r, c.L, math.degrees(c.mu_max), c.P_max, c.S_M,
                     c.feasible, c.convex_profile] for c in front)
            assert (out / name).read_bytes() == cell_csv(tmp_path / name, header, rows)

    def test_contour_grid_with_nan_cells(self, tmp_path):
        out = tmp_path / "c"
        assert run(tmp_path, "contour", "--out", str(out), "--resolution", "16") == 0
        sl = optimize.contour_slice(RunConfig().space(), 2, 60.0, resolution=16)
        rows = ([sl.d_axis[i], sl.r_axis[j], math.degrees(sl.mu_grid[i, j]),
                 sl.P_grid[i, j], bool(sl.feasible[i, j])]
                for i in range(16) for j in range(16))
        written = (out / "contour_grid.csv").read_bytes()
        assert b",nan,nan," in written
        assert written == cell_csv(tmp_path / "grid.csv",
                                   read_csv(out / "contour_grid.csv")[0], rows)

    def test_contour_locus(self, tmp_path):
        out = tmp_path / "c"
        assert run(tmp_path, "contour", "--out", str(out), "--resolution", "32") == 0
        sl = optimize.contour_slice(RunConfig().space(), 2, 60.0, resolution=32)
        assert len(sl.locus) > 1
        rows = ([c.m, c.d_cs, c.r, c.L, math.degrees(c.mu_max), c.P_max, c.S_M,
                 c.feasible, c.convex_profile] for c in sl.locus)
        assert (out / "contour_locus.csv").read_bytes() == cell_csv(
            tmp_path / "locus.csv", read_csv(out / "contour_locus.csv")[0], rows)

    def test_designs_rows(self, tmp_path):
        cfg = RunConfig()
        out = tmp_path / "d"
        for command in ("profile", "metrics", "sensitivity"):
            assert run(tmp_path, command, "--out", str(out)) == 0
        prof = geometry.sample_profile(cfg.spec(), cfg.profile.resolution)
        rep = sensitivity.sensitivity_report(
            cfg.spec(), cfg.load_case(), cfg.material_pair(),
            samples=cfg.sensitivity.samples, rms_nodes=cfg.sensitivity.rms_nodes)
        names = list(rep.pointwise)
        metrics = json.loads((out / "metrics.json").read_text())
        expected = {
            "profile.csv": zip(prof.psi, prof.u_c, prof.v_c, prof.u_p, prof.v_p,
                               prof.kappa_p, prof.rho_c),
            "metrics.csv": [[metrics[k] for k in (
                "mu_max_deg", "psi_at_mu_max_rad", "p_max_mpa", "psi_at_p_max_rad",
                "size_mm", "fully_convex", "profile_feasible", "allowable_pressure_ok")]],
            "sensitivity_profile.csv": ([psi] + [rep.pointwise[n][k] for n in names]
                                        for k, psi in enumerate(rep.psi)),
            "sensitivity_tables.csv": [
                ["at_max"] + [rep.at_max[n] for n in sensitivity.PARAMS]
                + [" ".join(rep.at_max_ranking)],
                ["rms"] + [rep.rms[n] for n in sensitivity.PARAMS]
                + [" ".join(rep.rms_ranking)]],
        }
        for name, rows in expected.items():
            header = read_csv(out / name)[0]
            assert (out / name).read_bytes() == cell_csv(tmp_path / name, header, rows)
        for name in ("profile.json", "metrics.json", "sensitivity.json"):
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestOracleOnDrawnConfigs:
    """`profile.csv` and `contour_grid.csv` of drawn valid configs are the
    bytes `csv.writer` writes for the library's own values."""

    @pytest.mark.parametrize("seed", range(3))
    def test_profile(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 31])
        config = {"mechanism": {"pitch_mm": float(rng.uniform(30.0, 60.0)),
                                "eta": float(rng.uniform(0.2, 0.6)),
                                "roller_radius_mm": float(rng.uniform(1.0, 3.0)),
                                "cam_count": int(rng.choice([2, 3]))},
                  "profile": {"resolution": 2048}}
        out = tmp_path / "p"
        assert run(tmp_path, "profile", "--out", str(out), config=config) == 0
        prof = geometry.sample_profile(parse_config(config).spec(), 2048)
        rows = zip(prof.psi, prof.u_c, prof.v_c, prof.u_p, prof.v_p, prof.kappa_p,
                   prof.rho_c)
        assert (out / "profile.csv").read_bytes() == cell_csv(
            tmp_path / "profile.csv", read_csv(out / "profile.csv")[0], rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_contour_grid(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 32])
        m, s_m = (2, 3)[seed % 2], float(rng.uniform(40.0, 88.0))
        config = {"design_space": {"pitch_mm": float(rng.uniform(18.0, 24.0))},
                  "contour": {"m": m, "s_m_mm": s_m, "resolution": 96}}
        out = tmp_path / "c"
        assert run(tmp_path, "contour", "--out", str(out), config=config) == 0
        sl = optimize.contour_slice(parse_config(config).space(), m, s_m, resolution=96)
        rows = ([sl.d_axis[i], sl.r_axis[j], math.degrees(sl.mu_grid[i, j]),
                 sl.P_grid[i, j], bool(sl.feasible[i, j])]
                for i in range(96) for j in range(96))
        assert (out / "contour_grid.csv").read_bytes() == cell_csv(
            tmp_path / "grid.csv", read_csv(out / "contour_grid.csv")[0], rows)


def float_lines(values) -> list[bytes]:
    """The rows of `_float_text`, NULs removed."""
    block = _float_text(values)
    ends = np.full((len(block), 1), ord("\n"), np.uint8)
    text = np.concatenate([block, ends], axis=1)
    return text[text != 0].tobytes().split(b"\n")[:-1]


def check_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    want = [repr(v).encode() for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, float_lines(values)) if w != g]
    assert not bad, f"{len(bad)} of {len(want)} differ from repr, e.g. {bad[:5]}"


def bit_patterns(rng, lo, hi, n=200_000) -> np.ndarray:
    """n doubles drawn uniformly among the bit patterns of [lo, hi)."""
    ends = np.array([lo, hi]).view(np.int64)
    return rng.integers(ends[0], ends[1], n).view(np.float64)


class TestFloatText:
    """`_float_text` gives the bytes of `repr`, and the exact path, not the
    `repr` branch, formats the study's kind of values."""

    def test_any_bit_pattern(self):
        rng = np.random.default_rng(41)
        check_reprs(rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64))

    def test_bit_patterns_of_the_exact_range(self):
        rng = np.random.default_rng(42)
        check_reprs(bit_patterns(rng, 1e-3, 1e16) * rng.choice([-1.0, 1.0], 200_000))

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(43)
        check_reprs(10.0 ** rng.uniform(-6.0, 20.0, 100_000) * rng.choice([-1.0, 1.0], 100_000))

    def test_rounded_values_and_integers(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(-1000.0, 1000.0, 20_000)
        check_reprs(np.concatenate([x.round(k) for k in range(7)]))
        check_reprs(np.arange(-50_000.0, 50_000.0))
        check_reprs(rng.integers(-2 ** 53, 2 ** 53, 20_000).astype(np.float64))

    def test_powers_and_their_neighbours(self):
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                                 np.array([float(f"1e{k}") for k in range(-323, 309)])])
        x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        check_reprs(np.concatenate([x, -x]))

    def test_special_values(self):
        check_reprs([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                     0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 9999999999999998.0,
                     1e-3, 0.0009999999999999998, 0.1 + 0.2])
        assert _float_text(np.array([])).shape[0] == 0

    @given(st.lists(st.floats(), max_size=64))
    def test_hypothesis_floats(self, values):
        check_reprs(values)

    def test_exact_path_covers_the_study_values(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
        values = bit_patterns(np.random.default_rng(45), 1e-3, 1e4)
        _float_text(values)
        assert len(calls) <= 0.01 * len(values)


def csv_lines(*columns) -> list[str]:
    """The rows of the `_csv_blocks` block of one table, NULs removed."""
    block, = _csv_blocks(columns)
    return [row[row != 0].tobytes().decode() for row in block]


class TestCsvLines:
    """`_csv_blocks` writes the lines `csv.writer` writes for the same rows."""

    @staticmethod
    def writer_bytes(path, rows) -> bytes:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path.read_bytes()

    @staticmethod
    def line_bytes(path, columns) -> bytes:
        block, = _csv_blocks(columns)
        path.write_bytes(block[block != 0].tobytes())
        return path.read_bytes()

    def test_special_values(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16,
                  9999999999999998.0, 1e-7, 1e-5, 0.0001, 0.1 + 0.2, 1.7976931348623157e308,
                  math.pi, -2.5, 123456789.125]
        n = len(floats)
        columns = [floats, list(range(-3, n - 3)), [k % 2 == 0 for k in range(n)],
                   [("r eta p L", "L p eta r", "at_max", "rms")[k % 4] for k in range(n)],
                   floats[::-1]]
        rows = list(zip(*columns))
        got = self.line_bytes(tmp_path / "lines.csv", columns)
        assert got == self.writer_bytes(tmp_path / "writer.csv", rows)
        assert b"nan,-3,True,r eta p L,123456789.125\r\n" in got

    def test_random_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        columns = [(rng.standard_normal(400) * 10.0 ** rng.integers(-20, 20, 400)).tolist()
                   for _ in range(3)]
        assert self.line_bytes(tmp_path / "lines.csv", columns) == \
            self.writer_bytes(tmp_path / "writer.csv", zip(*columns))

    def test_header_and_one_row(self, tmp_path):
        header = ["mode", "r", "eta", "p", "L", "ranking"]
        assert csv_lines(*zip(header)) == ["mode,r,eta,p,L,ranking\r\n"]
        assert csv_lines() == []

    def check_arrays(self, tmp_path, columns):
        """Lines of array columns against `csv.writer` on their Python values."""
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
        got = self.line_bytes(tmp_path / "lines.csv", columns)
        assert got == self.writer_bytes(tmp_path / "writer.csv", rows)
        return got

    def test_array_columns_with_repeats(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8, 7)
        n = 300
        columns = [rng.choice(values, n), rng.standard_normal(n), rng.integers(-4, 4, n),
                   rng.random(n) < 0.5, rng.choice(values[:2], n)]
        got = self.check_arrays(tmp_path, columns)
        assert got.count(b"\r\n") == n

    def test_array_special_values(self, tmp_path):
        floats = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16,
                           9999999999999998.0, 1e-5, 0.1 + 0.2, -0.0, 0.0, math.nan, 1e16,
                           1.7976931348623157e308])
        got = self.check_arrays(tmp_path, [floats, floats[::-1].copy(),
                                           np.arange(len(floats)) % 3 == 0,
                                           np.arange(-8, len(floats) - 8)])
        assert b"-0.0,0.0,True,-5\r\n0.0,-0.0,False,-4\r\n" in got
        # zero and minus zero apart as the last column, which carries the line end
        assert csv_lines(np.array([0.0, -0.0, 0.0])) == ["0.0\r\n", "-0.0\r\n", "0.0\r\n"]

    def test_strided_columns_of_a_table(self, tmp_path):
        table = np.random.default_rng(10).standard_normal((50, 3)).round(1)
        self.check_arrays(tmp_path, list(table.T))

    def test_string_column_between_arrays(self, tmp_path):
        self.check_arrays(tmp_path, [["at_max", "rms"], np.array([0.5, -0.0]),
                                     np.array([True, False]), ["r eta p L", "L p eta r"]])

    def test_string_columns_of_float_reprs_equal_the_arrays(self):
        values, flags = np.array([0.5, -0.0, 1e16]), np.array([True, False, True])
        text = list(map(repr, values.tolist()))
        assert csv_lines(text, text, flags) == csv_lines(values, values, flags) == \
            ["0.5,0.5,True\r\n", "-0.0,-0.0,False\r\n", "1e+16,1e+16,True\r\n"]

    def test_array_one_row_and_no_rows(self, tmp_path):
        assert csv_lines(np.array([2.5]), np.array([3]), np.array([True])) == \
            ["2.5,3,True\r\n"]
        assert csv_lines(np.array([]), np.array([], dtype=bool)) == []


# configs that every command rejects as config errors
BOUNDARY_CONFIGS = [
    {"design_space": {"pitch_mm": float("nan")}},
    {"mechanism": {"pitch_mm": float("nan")}},
    {"load": {"torque_nmm": float("inf")}},
    {"contour": {"p_levels_mpa": [500.0, float("-inf")]}},
    {"design_space": {"r_mm": [-1.0, 2.0], "resolution": 16}},
    {"design_space": {"r_mm": [0.0, 2.0], "resolution": 16}},
    {"design_space": {"d_cs_mm": [-1.0, 2.0], "resolution": 16}},
    {"design_space": {"resolution": 2}},
    {"contour": {"resolution": 2}},
    {"mechanism": {"pitch_mm": "50"}},
    {"design_space": {"r_mm": ["a", 2]}},
    {"profile": {"resolution": "64"}},
    {"load": {"torque_nmm": "1200"}},
    {"design_space": {"resolution": 16.5}},
    {"sensitivity": {"samples": 64.5}},
    {"mechanism": {"cam_count": 2.5}},
    {"mechanism": {"cam_count": True}},
    {"contour": {"m": 2.5}},
    {"sensitivity": {"include_torque": "yes"}},
    {"design_space": {"resolution": 100000}},
    {"contour": {"resolution": 100000}},
    {"design_space": {"resolution": 257, "m": [2, 3, 4, 5]}},
    {"contour": {"resolution": 3664}},
    {"profile": {"resolution": 10 ** 12}},
    {"sensitivity": {"samples": 10 ** 12}},
    {"sensitivity": {"rms_nodes": 10 ** 12}},
    {"load": {"torque_nmm": 0}},
    {"design_space": {"pitch_mm": 0}},
    {"design_space": {"m": []}},
    {"design_space": {"pitch_mm": -20}},
    {"design_space": {"m": [2, 2], "resolution": 16}},
    {"design_space": {"L_mm": [5, 2]}},
    {"design_space": {"workers": 0}},
    {"mechanism": {"pitch_mm": -5}},
    {"mechanism": {"cam_count": 0}},
    {"design_space": {"s_cap_mm": 0.5}},
    {"materials": {"cam": "cheese"}},
    {"materials": {"catalog_file": "no/such/catalog.json"}},
    {"design_space": {"workers": 10 ** 5}},
    {"mechanism": {"contact_width_mm": 10 ** 400}},
    {"load": {"torque_nmm": 5e-324}},
    {"design_space": {"d_cs_mm": [5.0, 2.0]}},
    {"design_space": {"r_mm": [10.0, 4.0]}},
    # the bounds the design space and the load case check themselves
    {"design_space": {"d_cs_mm": [0.0, 1e7]}},
    {"design_space": {"r_mm": [4.0, 1e7]}},
    {"design_space": {"L_mm": [1.0, 1e7]}},
    {"design_space": {"pitch_mm": 1e7}},
    {"design_space": {"s_cap_mm": 1e7}},
    {"design_space": {"p_cap_mpa": 0}},
    {"load": {"torque_nmm": 1e13}},
    {"load": {"speed_rpm": -1}},
]


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        code = run(tmp_path, "profile", "--out", str(tmp_path / "o"),
                   config={"mechansim": {"eta": 0.2}})
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        code = run(tmp_path, "profile", "--out", str(tmp_path / "o"),
                   config={"mechanism": {"pitch": 50.0}})
        assert code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_bad_flag_exits_1(self, tmp_path, capsys):
        assert main(["profile", "--bogus"]) == 1

    def test_main_runs_repeatedly_in_one_process(self, tmp_path, capsys):
        """`main` builds its parser once, and no flag of one call carries into
        the next: each call reads only its own arguments."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output": {"directory": str(tmp_path / "b")},
                                      "profile": {"resolution": 100}}))
        assert main(["profile", "--out", str(tmp_path / "a"), "--resolution", "80"]) == 0
        assert main(["profile", "--config", str(config)]) == 0
        assert main(["profile", "--config", str(config), "--resolution", "ten"]) == 1
        assert main(["profile", "--config", str(config), "--format", "csv"]) == 0
        assert main(["profile", "--bogus"]) == 1
        assert main(["metrics", "--config", str(config), "--format", "json"]) == 0
        assert len(read_csv(tmp_path / "a" / "profile.csv")) == 81
        assert len(read_csv(tmp_path / "b" / "profile.csv")) == 101
        assert json.loads((tmp_path / "b" / "profile.json").read_text())["resolution"] == 100
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
            ["profile.csv", "profile.json", "profile.svg"]
        assert (tmp_path / "b" / "metrics.json").exists()
        assert not (tmp_path / "b" / "metrics.csv").exists()
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("value", ["-7", "64"])
    def test_metrics_has_no_resolution_flag(self, tmp_path, capsys, value):
        # metrics samples nothing, so a resolution flag is misuse, not ignored
        out = tmp_path / "o"
        code = run(tmp_path, "metrics", "--out", str(out), "--resolution", value)
        err = capsys.readouterr().err
        assert code == 1
        assert "--resolution" in err and err.count("\n") == 1
        assert not out.exists()

    def test_resolution_override_sets_the_commands_field(self):
        for command, (section, key) in RESOLUTION_FIELDS.items():
            cfg = apply_overrides(RunConfig(), command, resolution=77)
            assert getattr(getattr(cfg, section), key) == 77
            assert replace(cfg, **{section: getattr(RunConfig(), section)}) == RunConfig()
        for command in ("metrics", None):
            with pytest.raises(ConfigError, match="takes no resolution"):
                apply_overrides(RunConfig(), command, resolution=7)

    def test_unknown_material_exits_1(self, tmp_path, capsys):
        code = run(tmp_path, "metrics", "--out", str(tmp_path / "o"),
                   "--material", "cheese")
        assert code == 1

    @pytest.mark.parametrize("args, config", [
        ((), {"mechanism": {"lobes": 2}}),
        ((), {"profile": {"resolution": 3}}),
        (("--resolution", "3"), None),
        ((), {"profile": {"resolution": 10 ** 12}}),
        (("--resolution", str(10 ** 12)), None),
    ])
    def test_bad_profile_config_exits_1_with_one_line(self, tmp_path, capsys,
                                                      args, config):
        code = run(tmp_path, "profile", "--out", str(tmp_path / "o"), *args,
                   config=config)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("section", [{"samples": 10}, {"rms_nodes": 10},
                                         {"samples": 10 ** 12}, {"rms_nodes": 10 ** 12}])
    def test_sensitivity_counts_are_config_errors(self, tmp_path, capsys, section):
        code = run(tmp_path, "sensitivity", "--out", str(tmp_path / "o"),
                   config={"sensitivity": section})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pareto", "contour", "metrics"])
    @pytest.mark.parametrize("config", BOUNDARY_CONFIGS)
    def test_config_boundary_exits_1_with_one_line(self, tmp_path, capsys,
                                                   command, config):
        out = tmp_path / "o"
        code = run(tmp_path, command, "--out", str(out), config=config)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "sensitivity"])
    @pytest.mark.parametrize("config", BOUNDARY_CONFIGS)
    def test_config_boundary_exits_1_on_every_command(self, tmp_path, capsys,
                                                      command, config):
        # the commands that never read the design space reject the same files
        self.test_config_boundary_exits_1_with_one_line(tmp_path, capsys, command, config)

    @pytest.mark.parametrize("command", ["profile", "metrics", "sensitivity", "pareto",
                                         "contour"])
    def test_catalog_file_read_once(self, tmp_path, monkeypatch, command):
        # the run computes with the catalog its config check read
        from camdrive import config
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{
            "name": "improved steel", "young_modulus_mpa": 210000.0, "poisson_ratio": 0.3,
            "static_pressure_mpa": [1600.0, 2000.0],
            "allowable_pressure_mpa": [640.0, 800.0]}]))
        load = config.load_materials
        reads = []

        def counted(p):
            reads.append(p)
            return load(p)

        monkeypatch.setattr(config, "load_materials", counted)
        code = run(tmp_path, command, "--out", str(tmp_path / "o"),
                   config={"materials": {"catalog_file": str(path)}})
        assert code == 0
        assert reads == [str(path)]

    @pytest.mark.parametrize("command", ["profile", "metrics", "sensitivity",
                                         "pareto", "contour"])
    @pytest.mark.parametrize("catalog", [
        "{not json",
        json.dumps("improved steel"),
        json.dumps([{"name": "x", "young_modulus_mpa": -1, "poisson_ratio": 0.3,
                     "static_pressure_mpa": 100.0}]),
        json.dumps([{"name": "x", "young_modulus_mpa": "210000", "poisson_ratio": 0.3,
                     "static_pressure_mpa": 100.0}]),
        json.dumps([{"name": "x", "young_modulus_mpa": 210000.0, "poisson_ratio": 0.3,
                     "static_pressure_mpa": -100, "allowable_pressure_mpa": [0, -5]}]),
    ])
    def test_catalog_faults_exit_1_with_one_line(self, tmp_path, capsys, command,
                                                 catalog):
        path = tmp_path / "catalog.json"
        path.write_text(catalog)
        out = tmp_path / "o"
        code = run(tmp_path, command, "--out", str(out), config={
            "materials": {"cam": "x", "roller": "x", "catalog_file": str(path)}})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "metrics", "sensitivity", "pareto"])
    @pytest.mark.parametrize("space", [{"s_cap_mm": 50.0}, {"L_mm": [1.0, 20.0]}])
    def test_contour_size_is_checked_on_contour_only(self, tmp_path, capsys, command,
                                                     space):
        # the default slice, m = 2 at S_M = 60 mm, needs L = 30 mm: outside both spaces
        config = {"design_space": {**space, "resolution": 16}}
        assert run(tmp_path, command, "--out", str(tmp_path / "o"), config=config) == 0
        code = run(tmp_path, "contour", "--out", str(tmp_path / "c"), config=config)
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("config error: contour.s_m_mm=60.0")
        assert not (tmp_path / "c").exists()

    def test_flags_replace_file_values_before_the_check(self, tmp_path):
        code = run(tmp_path, "profile", "--out", str(tmp_path / "o"), "--resolution", "64",
                   config={"profile": {"resolution": 3}})
        assert code == 0

    @pytest.mark.parametrize("command", ["profile", "pareto"])
    def test_output_directory_under_a_file_exits_1(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        code = run(tmp_path, command, "--out", str(tmp_path / "file" / "o"),
                   "--resolution", "16")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("mechanism, words", [
        ({"roller_radius_mm": 9.0}, "must exceed roller radius"),  # r = e
        ({"eta": 1.0 / (2.0 * math.pi)}, "singular"),
        # a lone cam just above the singular eta: its radius turns negative,
        # which the gate finds before sensitivity's kernel rejects the cam count
        ({"eta": 0.15915495309189534, "roller_radius_mm": 0.4, "cam_count": 1},
         "negative"),
        ({"eta": 0.1}, "singular"),  # below 1/(2*pi)
    ])
    def test_infeasible_mechanism_exits_2_with_one_line(self, tmp_path, capsys,
                                                        mechanism, words):
        # one geometry gate: each design command gives the same reason
        reasons = []
        for command, prefix in (("profile", "infeasible mechanism: "),
                                ("metrics", "infeasible mechanism: "),
                                ("sensitivity", "infeasible nominal design: ")):
            out = tmp_path / command
            code = run(tmp_path, command, "--out", str(out),
                       config={"mechanism": mechanism})
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(prefix) and err.count("\n") == 1
            assert not out.exists()
            reasons.append(err[len(prefix):])
        assert reasons[0] == reasons[1] == reasons[2] and words in reasons[0]

    @pytest.mark.parametrize("eta", [1e4, 1e5])
    def test_near_90_degree_design_fails_alike(self, tmp_path, capsys, eta):
        # metrics and sensitivity share the Hertz gate and its force limit
        reasons = []
        for command, prefix in (("metrics", "infeasible mechanism: "),
                                ("sensitivity", "infeasible nominal design: ")):
            out = tmp_path / command
            code = run(tmp_path, command, "--out", str(out),
                       config={"mechanism": {"eta": eta}})
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(prefix) and err.count("\n") == 1
            assert not out.exists()
            reasons.append(err[len(prefix):])
        assert reasons[0] == reasons[1] and "90 degrees" in reasons[0]

    @pytest.mark.parametrize("command", ["profile", "metrics", "sensitivity"])
    def test_large_eta_below_the_force_limit_runs(self, tmp_path, capsys, command):
        code = run(tmp_path, command, "--out", str(tmp_path / "o"),
                   config={"mechanism": {"eta": 1e3}})
        assert code == 0

    @pytest.mark.parametrize("workers, ok", [(1, True), (0, False), (2, False),
                                             (16, False), (10 ** 5, False)])
    def test_workers_bounded(self, workers, ok):
        # a sweep runs in one process; the key accepts only 1
        if ok:
            assert parse_config({"design_space": {"workers": workers}}).design_space.workers
        else:
            with pytest.raises(ConfigError, match="workers"):
                parse_config({"design_space": {"workers": workers}})

    def test_pareto_with_two_workers_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(tmp_path, "pareto", "--out", str(out),
                   config={"design_space": {"workers": 2}})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "workers" in err and not out.exists()

    def test_grid_memory_limit_admits_resolution_256(self):
        from camdrive.config import parse_config
        cfg = parse_config({"design_space": {"resolution": 256, "m": [2, 3, 4, 5]},
                            "contour": {"resolution": 3663}})
        assert cfg.design_space.resolution == 256 and cfg.contour.resolution == 3663

    @pytest.mark.parametrize("section, key", [("profile", "resolution"),
                                              ("sensitivity", "samples"),
                                              ("sensitivity", "rms_nodes")])
    def test_sample_count_limit(self, section, key):
        limit = MAX_GRID_CANDIDATES // 5
        cfg = parse_config({section: {key: limit}})
        assert getattr(getattr(cfg, section), key) == limit
        with pytest.raises(ConfigError, match="memory limit"):
            parse_config({section: {key: limit + 1}})

    @pytest.mark.parametrize("command", ["pareto", "contour"])
    def test_grid_resolution_flag_floor(self, tmp_path, capsys, command):
        code = run(tmp_path, command, "--out", str(tmp_path / "o"), "--resolution", "8")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "o"
        run(tmp_path, "profile", "--out", str(out), "--seed", "42")
        meta = json.loads((out / "profile.json").read_text())
        assert meta["config"]["seed"] == 42
