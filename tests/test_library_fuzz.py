"""Library fuzz of the model's public entry points.

Every call of `TransmissionSpec` (and the metrics of a spec that builds),
`DesignSpace`, `evaluate_candidate`, `contour_slice` and `sweep` either
raises a `ModelError` subclass or returns finite objectives wherever
geometry passed. Arguments are numbers, as the typed API takes them. Each
example draws every argument from a plausible range and replaces one or
two of them with a zero, negative, non-finite, tiny or huge value, or with
a cam count or range that no mechanism has. Grids stay at resolution 16.
Warnings are errors.
"""
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from camdrive import mechanics
from camdrive.errors import ModelError
from camdrive.geometry import TransmissionSpec
from camdrive.mechanics import LoadCase, find_material
from camdrive.optimize import DesignSpace, contour_slice, evaluate_candidate, sweep

RES = 16

# wrong in any argument, or far past any plausible magnitude
wild = st.sampled_from([0.0, -0.0, -1.0, -0.5, math.nan, math.inf, -math.inf, 5e-324,
                        1e-300, 1e-7, 1e7, 1e12, 1e102, 1e150, 1e300, -1e300, 1e308])
wild_counts = st.sampled_from([-1, 0, 1, 360, 361, 10 ** 20, 10 ** 400])


def span(lo, hi):
    """Ordered (low, high) pairs inside [lo, hi]."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted).map(tuple)


wild_span = st.tuples(st.one_of(wild, st.floats(0.0, 50.0)), st.one_of(wild, st.floats(0.0, 50.0)))
materials = st.sampled_from(["improved steel", "grey cast iron", "polyamide", "aluminum"])

# argument: (plausible values, wild values)
SPEC_ARGS = {
    "p": (st.floats(18.0, 60.0), wild),
    "eta": (st.floats(0.15, 0.6), st.one_of(wild, st.floats(0.0, 0.2))),
    "r": (st.floats(1.0, 8.0), wild),
    "m": (st.integers(2, 4), wild_counts),
    "L": (st.floats(5.0, 45.0), wild),
    "torque": (st.floats(500.0, 2000.0), wild),
}
SPACE_ARGS = {
    "d_cs_range": (span(0.0, 30.0), wild_span),
    "r_range": (span(1.0, 12.0), wild_span),
    "L_range": (st.one_of(span(1.0, 45.0), st.just((1.0, None))),
                st.one_of(wild_span, st.tuples(wild, st.none()))),
    "m_values": (st.lists(st.integers(2, 4), min_size=1, max_size=2, unique=True).map(tuple),
                 st.lists(st.one_of(wild_counts, st.integers(2, 3)), max_size=3).map(tuple)),
    "pitch": (st.floats(15.0, 25.0), wild),
    "torque": (st.floats(800.0, 1600.0), wild),
    "mu_cap": (st.floats(0.3, 0.7), wild),
    "P_cap": (st.floats(400.0, 1200.0), wild),
    "S_cap": (st.floats(40.0, 120.0), wild),
    "x": (st.tuples(st.floats(0.0, 30.0), st.floats(1.0, 12.0), st.floats(1.0, 45.0),
                    st.integers(2, 4)),
          st.tuples(wild, wild, wild, wild_counts)),
    "contour_m": (st.integers(2, 4), wild_counts),
    "S_M": (st.floats(20.0, 100.0), wild),
    "mu_levels": (st.lists(st.floats(4.0, 34.0), max_size=3), st.lists(wild, max_size=2)),
    "P_levels": (st.lists(st.floats(400.0, 900.0), max_size=3), st.lists(wild, max_size=2)),
}


def draw_args(data, table) -> dict:
    """One value per argument, plausible except for one or two wild ones."""
    names = data.draw(st.lists(st.sampled_from(sorted(table)), max_size=2, unique=True),
                      label="wild arguments")
    return {name: data.draw(table[name][name in names], label=name) for name in table}


def outcome(call):
    """call's result, or None when it raises a `ModelError`; any other
    exception, and any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ModelError:
            return None


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), cam=materials, roller=materials)
def test_spec_and_its_metrics(data, cam, roller):
    a = draw_args(data, SPEC_ARGS)
    spec = outcome(lambda: TransmissionSpec(p=a["p"], eta=a["eta"], r=a["r"], m=a["m"],
                                            L=a["L"]))
    load = outcome(lambda: LoadCase(a["torque"]))
    if spec is None or load is None:
        return
    pair = (find_material(cam), find_material(roller))
    for value in (outcome(lambda: mechanics.max_pressure_angle(spec)),
                  outcome(lambda: mechanics.max_hertz_pressure(spec, load, *pair)),
                  outcome(lambda: mechanics.mechanism_size(spec.m, spec.L))):
        assert value is None or finite(value), (spec, value)


def check_sweep(space) -> None:
    result = outcome(lambda: sweep(space))
    if result is None:
        return
    for m, table in result.tables.items():
        assert finite(table), m
    assert finite(result.front_table)
    for m, grid in result.grids.items():
        ok = grid.geometry_ok
        assert finite(grid.mu_max[ok], grid.P_max[ok], grid.S_M), m
        assert not grid.feasible[~ok].any()


def check_candidate(space, x) -> None:
    cand = outcome(lambda: evaluate_candidate(x, space))
    if cand is not None and "geometry" not in cand.violations:
        assert finite(cand.objectives), cand


def check_contour(space, m, S_M, mu_levels, P_levels) -> None:
    sl = outcome(lambda: contour_slice(space, m, S_M, resolution=RES,
                                       mu_levels_deg=mu_levels, P_levels=P_levels))
    if sl is None:
        return
    assert sl.mu_grid.shape == sl.P_grid.shape == (RES, RES)
    assert finite(sl.mu_grid[sl.feasible], sl.P_grid[sl.feasible], sl.locus_table)
    # NaN marks a cell whose geometry failed, in both objectives at once
    assert (np.isnan(sl.mu_grid) == np.isnan(sl.P_grid)).all()
    assert not sl.feasible[np.isnan(sl.mu_grid)].any()
    for segments in (*sl.mu_isolines.values(), *sl.P_isolines.values()):
        assert finite(segments)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), cam=materials, roller=materials)
def test_design_space_sweep_candidate_and_contour(data, cam, roller):
    a = draw_args(data, SPACE_ARGS)
    load = outcome(lambda: LoadCase(a["torque"]))
    space = load and outcome(lambda: DesignSpace(
        d_cs_range=a["d_cs_range"], r_range=a["r_range"], L_range=a["L_range"],
        m_values=a["m_values"], resolution=RES, pitch=a["pitch"], load=load,
        cam_material=find_material(cam), roller_material=find_material(roller),
        mu_cap=a["mu_cap"], P_cap=a["P_cap"], S_cap=a["S_cap"]))
    if space is None:
        return
    check_sweep(space)
    check_candidate(space, a["x"])
    check_contour(space, a["contour_m"], a["S_M"], a["mu_levels"], a["P_levels"])
