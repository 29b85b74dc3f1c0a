"""CLI fuzz of the input contract.

Any config either runs (exit 0) or exits 1 (config error) or 2 (infeasible
mechanism) with one line on stderr, never with a traceback; `pareto` and
`contour` have no mechanism to find infeasible, so they never exit 2; and
every number written is finite, except the NaN cells of `contour_grid.csv`
where the geometry fails. Configs start from a small valid one and get one
or two fields replaced by non-finite, negative, zero, huge, wrongly typed
or repeated values. Resolutions stay at or below 24 and sample counts near
their minimums; `workers` accepts only 1, so its other draws exit 1. The
one larger count drawn, 1e300, is far past every memory limit. Warnings
are errors: a run prints nothing on stderr but its one line.
"""
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camdrive.cli import main

COMMANDS = ("profile", "metrics", "sensitivity", "pareto", "contour")

BASE = {
    "profile": {"resolution": 64},
    "sensitivity": {"samples": 64, "rms_nodes": 1025},
    "design_space": {"resolution": 16},
    "contour": {"resolution": 16},
}

# wrong in any field; 1e300 is past every count's memory limit
odd = st.sampled_from([0, -1, -0.5, 2.5, 1e300, -1e300, 10 ** 400, float("nan"),
                       float("inf"), float("-inf"), True, "2", None, [], {}])
# tiny and huge magnitudes, at and past the config's bounds
extreme = st.sampled_from([5e-324, 1e-300, 1e-7, 1e-6, 1e6, 1e7, 1e12, 1e102, 1e150,
                           1e308])


def numbers(scale):
    """Mostly plausible values of a field whose default is about scale."""
    plausible = st.floats(0.0, 2.0 * scale, exclude_min=True)
    return st.one_of(odd, extreme, plausible, plausible)


def counts(low, high):
    """Integers in [low, high], a value past every memory limit, or an odd value."""
    return st.one_of(odd, st.integers(low, high), st.just(10 ** 12))


def pairs(scale):
    return st.one_of(odd, st.lists(st.one_of(numbers(scale), st.none()),
                                   min_size=1, max_size=3))


FIELDS = {
    "mechanism.pitch_mm": numbers(60.0),
    "mechanism.eta": st.one_of(odd, extreme, st.floats(0.0, 0.7), st.floats(0.15, 0.2)),
    "mechanism.roller_radius_mm": numbers(12.0),
    "mechanism.contact_width_mm": numbers(40.0),
    "mechanism.cam_count": st.one_of(odd, st.integers(-1, 6), st.sampled_from([360, 361])),
    "load.torque_nmm": numbers(2000.0),
    "load.speed_rpm": numbers(100.0),
    "materials.cam": st.one_of(odd, st.sampled_from(["polyamide", "cheese", ""])),
    "materials.roller": st.one_of(odd, st.sampled_from(["aluminum", "cheese"])),
    "materials.catalog_file": st.one_of(odd, st.just("no/such/catalog.json")),
    "profile.resolution": counts(-2, 24),
    "sensitivity.samples": counts(-2, 80),
    "sensitivity.rms_nodes": counts(1000, 1100),
    "sensitivity.include_torque": st.one_of(odd, st.booleans()),
    "design_space.d_cs_mm": pairs(30.0),
    "design_space.r_mm": pairs(12.0),
    "design_space.L_mm": pairs(40.0),
    "design_space.m": st.one_of(odd, st.lists(st.integers(-1, 5), max_size=4),
                                st.lists(st.one_of(odd, st.integers(-1, 5)), max_size=2)),
    "design_space.resolution": counts(-2, 24),
    "design_space.pitch_mm": numbers(30.0),
    "design_space.mu_cap_deg": numbers(40.0),
    "design_space.p_cap_mpa": numbers(1000.0),
    "design_space.s_cap_mm": numbers(100.0),
    "design_space.workers": st.sampled_from([-1, 0, 1, 2, 2.0, 1.5, "2", True,
                                             None, float("nan")]),
    "contour.m": st.one_of(odd, st.integers(-1, 5)),
    "contour.s_m_mm": numbers(80.0),
    "contour.resolution": counts(-2, 24),
    "contour.mu_levels_deg": st.one_of(odd, st.lists(numbers(40.0), max_size=3)),
    "contour.p_levels_mpa": st.one_of(odd, st.lists(numbers(900.0), max_size=3)),
    "contour.dashed_pressure": st.one_of(odd, st.booleans()),
    "output.formats": st.one_of(odd, st.lists(
        st.sampled_from(["csv", "json", "svg", "all", "png"]), max_size=3)),
    "seed": st.one_of(odd, st.integers()),
}


def _nonfinite_numbers(out: Path) -> list:
    """Non-finite numbers in the CSV and JSON files under out, as (file, value)."""
    bad = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                nan_cell = (path.name == "contour_grid.csv" and math.isnan(value)
                            and row[-1] == "False")
                if not math.isfinite(value) and not nan_cell:
                    bad.append((path.name, cell))

    def walk(name, value):
        if isinstance(value, dict):
            for item in value.values():
                walk(name, item)
        elif isinstance(value, list):
            for item in value:
                walk(name, item)
        elif isinstance(value, float) and not math.isfinite(value):
            bad.append((name, value))

    for path in sorted(out.glob("*.json")):
        walk(path.name, json.loads(path.read_text()))
    return bad


def _run(command, config) -> None:
    """Run one command on config and check the contract on what it left."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(config_path), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2), (code, err)
        if code:
            assert err.count("\n") == 1, err
            assert err.startswith("config error:" if code == 1 else "infeasible"), err
            assert not out.exists()
        assert not (command in ("pareto", "contour") and code == 2), err
        if code == 0:
            assert err == "" and _nonfinite_numbers(out) == []


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_any_config_exits_0_1_or_2_with_one_line(data):
    config = json.loads(json.dumps(BASE))
    for name in data.draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1,
                                   max_size=2, unique=True)):
        section, _, key = name.rpartition(".")
        value = data.draw(FIELDS[name], label=name)
        if section:
            config.setdefault(section, {})[key] = value
        else:
            config[key] = value
    for command in COMMANDS:
        _run(command, config)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", [
    {"mechanism": {"eta": 1e102}},  # above the model's largest eta
    {"mechanism": {"eta": 1e150}},
    {"mechanism": {"pitch_mm": 1e6, "roller_radius_mm": 1e-6, "contact_width_mm": 1e-6,
                   "cam_count": 360}},
    {"load": {"torque_nmm": 1e12}, "mechanism": {"contact_width_mm": 1e-6}},
    {"load": {"torque_nmm": 1e12}, "design_space": {
        "pitch_mm": 1e-6, "r_mm": [1e-6, 1e6], "d_cs_mm": [0.0, 1e6], "L_mm": [1e-6, None],
        "mu_cap_deg": 100.0, "p_cap_mpa": 1e300, "s_cap_mm": 1e6},
     "contour": {"s_m_mm": 2e-6}},
])
def test_extreme_magnitudes(command, config):
    _run(command, {**BASE, **config})
