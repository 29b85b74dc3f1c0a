import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camdrive as cd
from camdrive import optimize
from camdrive.errors import InfeasibleCamCount, InvalidSpec
from camdrive.optimize import (
    GridData,
    _angle_screen,
    _pair_axes,
    _pair_metrics,
    _violations,
    eta_from_design,
    marching_squares,
    nondominated_mask,
)

import oracles


def small_space(**over):
    base = dict(resolution=16)
    base.update(over)
    return cd.DesignSpace(**base)


def make_candidate(mu, P, S, m=2, feasible=True):
    return cd.DesignCandidate(d_cs=1.0, r=4.0, L=S / m, m=m, mu_max=mu,
                              P_max=P, S_M=S, feasible=feasible)


class TestEvaluateCandidate:
    def test_reference_two_cam_design(self):
        space = cd.DesignSpace()
        c = cd.evaluate_candidate((2.6, 4.24, 30.0, 2), space)
        assert c.S_M == pytest.approx(60.0)
        assert math.degrees(c.mu_max) == pytest.approx(34.098, abs=0.05)
        assert c.P_max == pytest.approx(560.9, rel=2e-3)
        # the design violates the pressure-angle cap in this model
        assert not c.feasible and c.violations == ("pressure-angle",)
        assert not c.convex_profile

    def test_eta_reconstruction(self):
        assert eta_from_design(2.6, 4.24, 20.0) == pytest.approx(0.277)

    def test_oversize_flagged(self):
        space = cd.DesignSpace()
        c = cd.evaluate_candidate((2.6, 4.24, 50.0, 2), space)
        assert "size" in c.violations and not c.feasible

    def test_zero_shaft_diameter_flagged(self):
        space = cd.DesignSpace()
        c = cd.evaluate_candidate((0.0, 4.0, 30.0, 2), space)
        assert "geometry" in c.violations
        assert math.isnan(c.mu_max)

    def test_single_cam_flagged(self):
        c = cd.evaluate_candidate((2.0, 4.0, 30.0, 1), cd.DesignSpace())
        assert "geometry" in c.violations and not c.feasible

    def test_feasible_design(self):
        space = cd.DesignSpace()
        c = cd.evaluate_candidate((1.0, 4.0, 30.0, 3), space)
        assert c.feasible and c.violations == ()
        assert c.mu_max <= space.mu_cap and c.P_max <= space.P_cap

    def test_matches_sweep_arrays(self):
        # scalar path and grid share the kernel; the scan oracle shares nothing
        space = small_space()
        result = cd.sweep(space)
        g = result.grids[3]
        idx = np.flatnonzero(g.feasible)[:: max(1, len(g.feasible) // 17)]
        for i in idx:
            c = cd.evaluate_candidate((g.d_cs[i], g.r[i], g.L[i], 3), space)
            assert c.feasible
            assert c.objectives == (g.mu_max[i], g.P_max[i], g.S_M[i])
            spec = cd.TransmissionSpec(p=space.pitch, r=c.r, m=3, L=c.L,
                                       eta=eta_from_design(c.d_cs, c.r, space.pitch))
            ref = oracles.segment_scan(
                spec, space.load, space.cam_material, space.roller_material)
            assert c.mu_max == pytest.approx(ref.mu_max, rel=1e-9)
            assert c.P_max == pytest.approx(ref.P_max, rel=1e-9)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
    def test_bad_width_rejected(self, L):
        with pytest.raises(InvalidSpec, match="contact width"):
            cd.evaluate_candidate((1.0, 4.0, L, 3), cd.DesignSpace())

    def test_matches_grid_rows(self):
        # every kind of row: d_cs = 0 geometry failures, each cap and, for m = 3,
        # the last width, whose size m*L rounds above the cap; a single design
        # and the sweep both give that width the cap as its size
        space = cd.DesignSpace(**FRONT_SPACES["L-ends-at-size-cap"])
        seen = set()
        for m, g in cd.sweep(space).grids.items():
            first = np.unique(g.violations, axis=0, return_index=True)[1]
            last = np.flatnonzero(g.S_M != m * g.L)
            assert len(last) == (len(g) // space.resolution if m == 3 else 0)
            for i in sorted({*range(0, len(g), 97), *first.tolist(), *last[::50].tolist()}):
                c = cd.evaluate_candidate((g.d_cs[i], g.r[i], g.L[i], m), space)
                assert c.violations == _verdict_names(g.violations[i])
                assert c.feasible == g.feasible[i]
                assert c.convex_profile == (math.pi * eta_from_design(
                    c.d_cs, c.r, space.pitch) > 1.0)
                assert np.array_equal(c.objectives, (g.mu_max[i], g.P_max[i], g.S_M[i]),
                                      equal_nan=True)
                seen.update(c.violations or ("feasible",))
            assert not g.violations[:, -1].any()
        # a width one ulp past the axis keeps its size m*L and fails the cap
        L = float(np.nextafter(space.L_bounds(3)[1], math.inf))
        c = cd.evaluate_candidate((10.0, 5.0, L, 3), space)
        assert c.S_M == 3 * L > space.S_cap and "size" in c.violations
        seen.update(c.violations)
        assert seen == {"geometry", "pressure-angle", "hertz-pressure", "size", "feasible"}


def _verdict_names(row) -> tuple:
    return tuple(name for name, v in zip(optimize.VIOLATIONS, row) if v)


class TestVerdict:
    """`_violations` against the scalar if-chain of `oracles.candidate_verdict`."""

    @staticmethod
    def assert_matches_oracle(space, geom, mu, P, S):
        mask = _violations(space, geom, mu, P, S)
        assert mask.shape == (len(geom), 4) and mask.dtype == bool
        for row, g, u, p, s in zip(mask.tolist(), geom.tolist(), mu.tolist(), P.tolist(),
                                   S.tolist()):
            assert _verdict_names(row) == oracles.candidate_verdict(space, g, u, p, s)

    def test_random_rows(self, rng):
        space = cd.DesignSpace()
        n = 2000
        geom = rng.random(n) < 0.8
        mu = np.where(geom, rng.uniform(0.0, 2.0 * space.mu_cap, n), np.nan)
        P = np.where(geom, rng.uniform(0.5, 1.5, n) * space.P_cap, np.nan)
        S = rng.uniform(0.5, 1.5, n) * space.S_cap
        self.assert_matches_oracle(space, geom, mu, P, S)

    def test_rows_at_the_caps_pass(self):
        space = cd.DesignSpace()
        mu_cap, P_cap, S_cap = space.mu_cap, space.P_cap, space.S_cap
        up = lambda v: np.nextafter(v, np.inf)  # noqa: E731
        rows = [(True, mu_cap, P_cap, S_cap), (True, up(mu_cap), P_cap, S_cap),
                (True, mu_cap, up(P_cap), S_cap), (True, mu_cap, P_cap, up(S_cap)),
                (True, up(mu_cap), up(P_cap), up(S_cap)),
                (False, np.nan, np.nan, S_cap), (False, np.nan, np.nan, up(S_cap)),
                (False, np.nan, np.nan, 2.0 * S_cap), (False, 2.0 * mu_cap, 2.0 * P_cap, S_cap)]
        geom, mu, P, S = (np.array(col) for col in zip(*rows))
        self.assert_matches_oracle(space, geom, mu, P, S)
        assert not _violations(space, geom, mu, P, S)[0].any()

    def test_nan_fails_its_cap(self):
        geom = np.array([True, True, True])
        mu, P, S = np.array([np.nan, 0.1, 0.1]), np.array([500.0, np.nan, 500.0]), \
            np.array([60.0, 60.0, 60.0])
        self.assert_matches_oracle(cd.DesignSpace(), geom, mu, P, S)
        assert _violations(cd.DesignSpace(), geom, mu, P, S).tolist() == [
            [False, True, False, False], [False, False, True, False],
            [False, False, False, False]]
        # a NaN cap no longer reaches the verdict: the space rejects it
        with pytest.raises(InvalidSpec, match="cap must be positive and finite"):
            cd.DesignSpace(mu_cap=math.nan, P_cap=math.nan)

    @pytest.mark.parametrize("m", [1, 0, -2])
    @pytest.mark.parametrize("L", [30.0, 95.0])
    def test_cam_counts_below_two(self, m, L):
        space = cd.DesignSpace()
        c = cd.evaluate_candidate((2.0, 4.0, L, m), space)
        assert math.isnan(c.mu_max) and math.isnan(c.P_max) and c.S_M == m * L
        assert c.violations == oracles.candidate_verdict(space, False, c.mu_max, c.P_max,
                                                         c.S_M)
        assert not c.feasible


class TestDominates:
    def test_equal_objectives_do_not_dominate(self):
        a = make_candidate(0.1, 650.0, 60.0)
        b = make_candidate(0.1, 650.0, 60.0)
        assert not cd.dominates(a, b) and not cd.dominates(b, a)

    def test_single_strict_improvement(self):
        a = make_candidate(0.1, 650.0, 60.0)
        b = make_candidate(0.1, 660.0, 60.0)
        assert cd.dominates(a, b) and not cd.dominates(b, a)

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    def test_antisymmetry(self, vals):
        a = make_candidate(vals[0], vals[1], vals[2])
        b = make_candidate(vals[3], vals[4], vals[5])
        assert not (cd.dominates(a, b) and cd.dominates(b, a))


class TestNondominatedMask:
    def test_empty(self):
        assert nondominated_mask(np.zeros((0, 3))).shape == (0,)

    def test_duplicates_all_retained(self):
        F = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        mask = nondominated_mask(F)
        assert mask.tolist() == [True, True, False]

    def test_matches_brute_force_3d(self, rng):
        for _ in range(5):
            F = rng.uniform(0.0, 1.0, size=(200, 3))
            F[rng.integers(0, 200, 20)] = F[rng.integers(0, 200, 20)]  # dupes
            assert np.array_equal(nondominated_mask(F),
                                  oracles.brute_force_front_mask(F))

    def test_matches_brute_force_2d(self, rng):
        for _ in range(5):
            F = rng.uniform(0.0, 1.0, size=(150, 2))
            ref = oracles.brute_force_front_mask(
                np.column_stack([F, np.zeros(len(F))]))
            assert np.array_equal(nondominated_mask(F), ref)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                              st.integers(0, 6)), min_size=1, max_size=60))
    def test_matches_brute_force_on_small_lattices(self, rows):
        # integer lattices force plenty of ties and duplicates
        F = np.array(rows, dtype=float)
        assert np.array_equal(nondominated_mask(F),
                              oracles.brute_force_front_mask(F))

    def test_rejects_nan(self):
        with pytest.raises(InvalidSpec):
            nondominated_mask(np.array([[1.0, float("nan"), 2.0]]))


class TestParetoFront:
    def test_empty_input(self):
        assert cd.pareto_front([]) == []

    def test_single_feasible(self):
        c = make_candidate(0.1, 650.0, 60.0)
        assert cd.pareto_front([c]) == [c]

    def test_infeasible_excluded(self):
        c = make_candidate(0.1, 650.0, 60.0, feasible=False)
        assert cd.pareto_front([c]) == []

    def test_equal_objective_duplicates_kept(self):
        a = make_candidate(0.1, 650.0, 60.0, m=2)
        b = cd.DesignCandidate(d_cs=2.0, r=5.0, L=30.0, m=2, mu_max=0.1,
                               P_max=650.0, S_M=60.0, feasible=True)
        front = cd.pareto_front([a, b])
        assert len(front) == 2

    def test_matches_brute_force_on_random_candidates(self, rng):
        cands = []
        for _ in range(500):
            cands.append(make_candidate(float(rng.uniform(0, 0.5)),
                                        float(rng.uniform(400, 800)),
                                        float(rng.uniform(20, 90)),
                                        feasible=bool(rng.uniform() < 0.9)))
        front = cd.pareto_front(cands)
        feas = [c for c in cands if c.feasible]
        F = np.array([c.objectives for c in feas])
        ref = {id(c) for c, k in zip(feas, oracles.brute_force_front_mask(F)) if k}
        assert {id(c) for c in front} == ref

    def test_deterministic_order(self, rng):
        cands = [make_candidate(float(rng.uniform(0, 0.5)),
                                float(rng.uniform(400, 800)),
                                float(rng.uniform(20, 90))) for _ in range(100)]
        f1 = cd.pareto_front(list(cands))
        f2 = cd.pareto_front(list(reversed(cands)))
        assert [c.objectives for c in f1] == [c.objectives for c in f2]

    def test_ties_in_every_objective_ordered_by_design(self, rng):
        # eight designs on each objective vector; (0.2, 500, 60) is dominated
        objectives = [(0.2, 500.0, 60.0), (0.1, 600.0, 60.0), (0.2, 500.0, 40.0)]
        cands = [cd.DesignCandidate(d_cs=d, r=r, L=S / m, m=m, mu_max=mu, P_max=P,
                                    S_M=S, feasible=True)
                 for mu, P, S in objectives for m in (3, 2) for d in (2.0, 1.0)
                 for r in (5.0, 4.0)]
        front = cd.pareto_front([cands[i] for i in rng.permutation(len(cands))])
        assert _rows(front) == sorted(_rows(cands[8:]))


class TestSweep:
    def test_front_equals_brute_force_filter(self):
        result = cd.sweep(small_space())
        for m, g in result.grids.items():
            feas = np.flatnonzero(g.feasible)
            F = g.objectives()[feas]
            ref = oracles.brute_force_front_mask(F)
            got = np.zeros(len(F), dtype=bool)
            keyset = {(c.d_cs, c.r, c.L) for c in result.per_m_fronts[m]}
            for k, i in enumerate(feas):
                got[k] = (g.d_cs[i], g.r[i], g.L[i]) in keyset
            assert np.array_equal(got, ref)

    def test_merged_front_subset_of_union(self):
        result = cd.sweep(small_space())
        union = {(c.m, c.d_cs, c.r, c.L)
                 for front in result.per_m_fronts.values() for c in front}
        assert all((c.m, c.d_cs, c.r, c.L) in union for c in result.front)

    def test_merged_front_equals_filter_over_all_feasible(self):
        result = cd.sweep(small_space())
        rows = []
        for m, g in result.grids.items():
            for i in np.flatnonzero(g.feasible):
                rows.append((g.mu_max[i], g.P_max[i], g.S_M[i]))
        F = np.array(rows)
        ref_count = int(oracles.brute_force_front_mask(F).sum())
        assert len(result.front) == ref_count

    def test_every_front_member_satisfies_caps(self):
        space = small_space()
        result = cd.sweep(space)
        for c in result.front:
            assert c.mu_max <= space.mu_cap
            assert c.P_max <= space.P_cap
            assert c.S_M <= space.S_cap

    def test_repeat_runs_identical(self):
        r1 = cd.sweep(small_space())
        r2 = cd.sweep(small_space())
        for m in (2, 3):
            assert np.array_equal(r1.grids[m].P_max, r2.grids[m].P_max,
                                  equal_nan=True)
        assert [c.x for c in r1.front] == [c.x for c in r2.front]

    def test_chunks_identical(self, monkeypatch):
        # resolution 16 is one chunk of _PAIR_CHUNK pairs; 64-pair chunks make four
        whole = cd.sweep(small_space())
        monkeypatch.setattr(optimize, "_PAIR_CHUNK", 64)
        chunked = cd.sweep(small_space())
        for m in (2, 3):
            for col in ("d_cs", "r", "L", "mu_max", "P_max", "S_M", "feasible",
                        "geometry_ok"):
                assert np.array_equal(getattr(whole.grids[m], col),
                                      getattr(chunked.grids[m], col), equal_nan=True)
            assert np.array_equal(chunked.tables[m], whole.tables[m])
        assert [c.x for c in chunked.front] == [c.x for c in whole.front]
        assert [(c.mu_max, c.P_max) for c in chunked.front] == \
            [(c.mu_max, c.P_max) for c in whole.front]

    def test_minimum_resolution(self):
        with pytest.raises(InvalidSpec):
            cd.sweep(cd.DesignSpace(resolution=8))

    def test_single_cam_space_rejected(self):
        with pytest.raises(InfeasibleCamCount):
            cd.sweep(cd.DesignSpace(resolution=16, m_values=(1, 2)))

    @pytest.mark.parametrize("m_values", [(), (2, 2), (3, 2, 3)])
    def test_empty_or_repeated_cam_counts_rejected(self, m_values):
        with pytest.raises(InvalidSpec):
            cd.sweep(cd.DesignSpace(resolution=16, m_values=m_values))

    @pytest.mark.parametrize("over", [{"S_cap": 0.5}, {"L_range": (5.0, 2.0)},
                                      {"S_cap": 2.5}])  # widths for m=2 only
    def test_empty_width_range_rejected(self, over):
        with pytest.raises(InvalidSpec, match="empty L range"):
            cd.sweep(cd.DesignSpace(resolution=16, **over))

    @pytest.mark.parametrize("over", [{"d_cs_range": (5.0, 2.0)}, {"r_range": (10.0, 4.0)}])
    def test_unordered_range_rejected(self, over):
        with pytest.raises(InvalidSpec, match=r"range must be \[low, high\]"):
            cd.DesignSpace(**over)

    @pytest.mark.parametrize("hi", [1e7, 0.0, math.nan, math.inf])
    def test_width_upper_bound_is_a_length(self, hi):
        with pytest.raises(InvalidSpec, match="largest contact width"):
            cd.DesignSpace(L_range=(1.0, hi))

    @pytest.mark.parametrize("m", [2.5, 3.0000001, math.nan, math.inf])
    def test_non_integral_cam_counts_rejected(self, m):
        # no mechanism has a fractional cam count: the space, a slice and a
        # design vector reject it instead of sweeping it or truncating it
        with pytest.raises(InvalidSpec, match="not a whole number"):
            cd.DesignSpace(m_values=(m, 3), resolution=16)
        with pytest.raises(InvalidSpec, match="not a whole number"):
            cd.contour_slice(cd.DesignSpace(), m, 60.0, resolution=16)
        with pytest.raises(InvalidSpec, match="not a whole number"):
            cd.evaluate_candidate((2.6, 4.24, 30.0, m), cd.DesignSpace())

    @pytest.mark.parametrize("m", [361, 10 ** 20, 10 ** 400, -10 ** 400])
    def test_cam_count_beyond_the_bound_rejected(self, m):
        # the model's bound, checked before the count meets float()
        with pytest.raises(InvalidSpec, match="at most 360"):
            cd.DesignSpace(m_values=(m, 3), resolution=16)
        with pytest.raises(InvalidSpec, match="at most 360"):
            cd.contour_slice(cd.DesignSpace(), m, 60.0, resolution=16)
        with pytest.raises(InvalidSpec, match="at most 360"):
            cd.evaluate_candidate((2.6, 4.24, 30.0, m), cd.DesignSpace())
        with pytest.raises(InvalidSpec, match="360"):
            cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0, m=m)

    def test_integral_float_cam_count_is_the_count(self):
        space = cd.DesignSpace()
        assert cd.evaluate_candidate((2.6, 4.24, 30.0, 3.0), space) == \
            cd.evaluate_candidate((2.6, 4.24, 30.0, 3), space)

    def test_three_cam_front_dominates_at_low_angles(self):
        # on matched mu bins below 24 degrees the m=3 envelope is never worse
        result = cd.sweep(cd.DesignSpace(resolution=32))
        env = {}
        for m, front in result.per_m_fronts.items():
            mu = np.array([math.degrees(c.mu_max) for c in front])
            P = np.array([c.P_max for c in front])
            o = np.argsort(mu)
            env[m] = (mu[o], np.minimum.accumulate(P[o]))
        grid = np.arange(16.0, 24.0, 0.5)
        for g in grid:
            def at(m):
                mu, P = env[m]
                i = np.searchsorted(mu, g, side="right") - 1
                return P[i] if i >= 0 else np.nan
            p2, p3 = at(2), at(3)
            if np.isfinite(p2) and np.isfinite(p3):
                assert p3 <= p2 + 1e-9


_POLYAMIDE = cd.find_material("polyamide")
_CAST_IRON = cd.find_material("grey cast iron")

# pitch, caps and materials draws; polyamide's fronts are about 1.6 times
# the steel ones, and at S_cap = 96.2 the last width 96.2/3 of the
# three-cam axis rounds above the size cap
FRONT_SPACES = {
    "steel-16": dict(resolution=16),
    "steel-24": dict(resolution=24),
    "steel-32": dict(resolution=32),
    "pitch-15-mu-25": dict(resolution=24, pitch=15.0, mu_cap=math.radians(25.0)),
    "pitch-30-mu-40": dict(resolution=32, pitch=30.0, mu_cap=math.radians(40.0)),
    "polyamide": dict(resolution=32, cam_material=_POLYAMIDE, roller_material=_POLYAMIDE),
    "cast-iron": dict(resolution=24, cam_material=_CAST_IRON, P_cap=700.0,
                      mu_cap=math.radians(35.0)),
    "L-ends-at-size-cap": dict(resolution=24, S_cap=96.2, L_range=(1.0, 96.2 / 3)),
}


def _rows(front):
    return [(c.mu_max, c.P_max, c.S_M, c.m, c.d_cs, c.r, c.L) for c in front]


def _grid_rows(g, idx):
    return list(zip(g.mu_max[idx].tolist(), g.P_max[idx].tolist(), g.S_M[idx].tolist(),
                    [g.m] * len(idx), g.d_cs[idx].tolist(), g.r[idx].tolist(),
                    g.L[idx].tolist()))


class TestPairLevelFronts:
    @pytest.mark.parametrize("name", FRONT_SPACES)
    def test_fronts_equal_filter_over_full_grid(self, name):
        # same designs, same order (sorted tuples are the candidate sort key)
        # and bit-equal objectives as the filter over every feasible candidate
        result = cd.sweep(cd.DesignSpace(**FRONT_SPACES[name]))
        every = []
        for m, g in result.grids.items():
            feas = np.flatnonzero(g.feasible)
            keep = feas[nondominated_mask(g.objectives()[feas])]
            assert _rows(result.per_m_fronts[m]) == sorted(_grid_rows(g, keep))
            every += _grid_rows(g, feas)
        mask = nondominated_mask(np.array([row[:3] for row in every]))
        assert _rows(result.front) == sorted(row for row, k in zip(every, mask) if k)
        assert result.front
        assert all(c.feasible and c.violations == () for c in result.front)

    def test_size_cap_space_keeps_its_last_width(self):
        # 3*(S_cap/3) rounds above the cap, but the width axis ends at S_cap/3,
        # so its last width has the cap as its size and keeps every candidate
        # that passes the other caps
        space = cd.DesignSpace(**FRONT_SPACES["L-ends-at-size-cap"])
        assert space.L_axis(3)[-1] == space.S_cap / 3
        assert 3 * space.L_axis(3)[-1] > space.S_cap
        result = cd.sweep(space)
        g = result.grids[3]
        last = g.L == g.L.max()
        assert (g.S_M[last] == space.S_cap).all()
        assert np.array_equal(g.feasible[last], ~g.violations[last, :3].any(axis=1))
        assert g.feasible[last].any()
        assert (result.tables[3][:, 6] == space.S_cap / 3).any()

    def test_grid_built_only_when_read(self):
        result = cd.sweep(small_space())
        assert result.evaluated == 2 * 16 ** 3
        assert "grids" not in vars(result)
        assert sum(len(g) for g in result.grids.values()) == result.evaluated
        assert result.grids is result.grids


class TestContourSlice:
    def test_locus_is_nondominated_and_feasible(self):
        space = cd.DesignSpace(resolution=24)
        sl = cd.contour_slice(space, 2, 60.0)
        assert sl.L == pytest.approx(30.0)
        F = np.array([[c.mu_max, c.P_max] for c in sl.locus])
        ref = oracles.brute_force_front_mask(
            np.column_stack([F, np.zeros(len(F))]))
        assert ref.all()
        for c in sl.locus:
            assert c.mu_max <= space.mu_cap and c.P_max <= space.P_cap

    def test_locus_points_lie_on_grid(self):
        space = cd.DesignSpace(resolution=24)
        sl = cd.contour_slice(space, 3, 60.0)
        for c in sl.locus:
            assert np.isclose(sl.d_axis, c.d_cs).any()
            assert np.isclose(sl.r_axis, c.r).any()

    @pytest.mark.parametrize("m", [2, 3])
    def test_default_locus_in_sorted_tuple_order(self, m):
        rows = _rows(cd.contour_slice(cd.DesignSpace(), m, 60.0).locus)
        assert len(rows) > 5 and rows == sorted(rows)

    def test_invalid_size_rejected(self):
        with pytest.raises(InvalidSpec):
            cd.contour_slice(cd.DesignSpace(resolution=16), 2, 500.0)

    def test_minimum_resolution(self):
        with pytest.raises(InvalidSpec):
            cd.contour_slice(cd.DesignSpace(), 2, 60.0, resolution=2)

    def test_single_cam_rejected(self):
        with pytest.raises(InfeasibleCamCount):
            cd.contour_slice(cd.DesignSpace(resolution=16), 1, 60.0)


class TestMarchingSquares:
    def test_circle_level_set(self):
        xs = np.linspace(-2.0, 2.0, 81)
        ys = np.linspace(-2.0, 2.0, 81)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Z = X * X + Y * Y
        segs = marching_squares(xs, ys, Z, 1.0)
        assert segs.shape[1] == 4 and len(segs) > 40
        for x1, y1, x2, y2 in segs.tolist():
            for x, y in ((x1, y1), (x2, y2)):
                assert math.hypot(x, y) == pytest.approx(1.0, abs=0.01)

    def test_nan_cells_skipped(self):
        xs = ys = np.linspace(0.0, 1.0, 5)
        Z = np.full((5, 5), float("nan"))
        assert marching_squares(xs, ys, Z, 0.5).shape == (0, 4)

    @staticmethod
    def assert_same_segments(xs, ys, Z, level):
        got = marching_squares(xs, ys, Z, level)
        want = np.array(oracles.marching_squares_loop(xs, ys, Z, level),
                        dtype=float).reshape(-1, 4)  # rows of (x1, y1, x2, y2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # same order, same bits
        return got

    def test_table_matches_cell_loop_on_random_grids(self):
        rng = np.random.default_rng(7)
        saddles = 0
        for trial in range(60):
            nx, ny = (int(n) for n in rng.integers(2, 25, 2))
            Z = rng.normal(size=(nx, ny))
            if trial % 2:
                Z = np.round(Z)  # corner values equal to the level
            Z[rng.random((nx, ny)) < 0.08] = np.nan
            xs = np.sort(rng.uniform(-3.0, 3.0, nx))
            ys = np.sort(rng.uniform(-3.0, 3.0, ny))
            level = float(rng.choice([-0.5, 0.0, 0.25, 1.0]))
            below = Z < level
            saddles += int(np.sum(below[:-1, :-1] & below[1:, 1:]
                                  & ~below[1:, :-1] & ~below[:-1, 1:]
                                  & ~np.isnan(Z[1:, :-1]) & ~np.isnan(Z[:-1, 1:])))
            self.assert_same_segments(xs, ys, Z, level)
        assert saddles > 10

    def test_table_matches_cell_loop_on_contour_slice(self):
        sl = cd.contour_slice(cd.DesignSpace(), 2, 60.0)
        assert np.isnan(sl.P_grid).any()
        total = 0
        for lev in sl.mu_levels:
            total += len(self.assert_same_segments(
                sl.d_axis, sl.r_axis, np.degrees(sl.mu_grid), lev))
        for lev in sl.P_levels:
            total += len(self.assert_same_segments(sl.d_axis, sl.r_axis, sl.P_grid, lev))
        assert total > 100

    def test_table_matches_cell_loop_at_full_size(self):
        """A res-96 slice: the NaN d_cs = 0 column, every default level, and
        (mu - a)(P - b) at level 0, which has saddle cells where the mu = a
        and P = b iso-lines cross."""
        sl = cd.contour_slice(cd.DesignSpace(), 2, 60.0, resolution=96)
        mu_deg = np.degrees(sl.mu_grid)
        assert sl.d_axis[0] == 0.0 and np.isnan(mu_deg[0]).all()
        assert np.isnan(sl.P_grid[0]).all()
        for lev in sl.mu_levels:
            self.assert_same_segments(sl.d_axis, sl.r_axis, mu_deg, lev)
        for lev in sl.P_levels:
            self.assert_same_segments(sl.d_axis, sl.r_axis, sl.P_grid, lev)
        saddles = 0
        for a, b in ((20.0, 700.0), (25.0, 600.0), (25.0, 650.0), (25.0, 700.0),
                     (30.0, 600.0)):
            Z = (mu_deg - a) * (sl.P_grid - b)
            below, nan = Z < 0.0, np.isnan(Z)
            saddles += int(np.sum((below[:-1, :-1] == below[1:, 1:])
                                  & (below[1:, :-1] == below[:-1, 1:])
                                  & (below[:-1, :-1] != below[1:, :-1])
                                  & ~(nan[:-1, :-1] | nan[1:, :-1] | nan[1:, 1:]
                                      | nan[:-1, 1:])))
            self.assert_same_segments(sl.d_axis, sl.r_axis, Z, 0.0)
        assert saddles >= 5

    def test_crossed_cell_cases_match_cell_loop(self):
        nx, ny = 13, 11
        xs, ys = np.linspace(-1.0, 2.0, nx), np.linspace(0.5, 3.0, ny)
        I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ramp = (I + J).astype(float)
        checker = np.where((I + J) % 2, 1.0, -1.0)  # every cell a saddle
        stripes = np.where(I % 2, 1.0, -1.0)       # every cell crossed, no saddle
        islands = ramp.copy()
        islands[3:5, 2:4] = islands[8, 7] = islands[12, 0] = np.nan
        cases = [(ramp, 7.0, "level equal to grid values"),
                 (ramp, 4.5, "crossed band"),
                 (ramp, -1.0, "no crossed cell: all above"),
                 (ramp, 100.0, "no crossed cell: all below"),
                 (checker, 0.0, "saddles"),
                 (checker, 1.0, "level equal to the high corners"),
                 (stripes, 0.0, "every cell crossed"),
                 (islands, 9.0, "NaN islands"),
                 (np.where(checker > 0, np.nan, checker), -1.0, "NaN at every other corner")]
        for Z, level, what in cases:
            got = self.assert_same_segments(xs, ys, Z, level)
            cells = (nx - 1) * (ny - 1)
            if what.startswith("no crossed"):
                assert got.shape == (0, 4), what
            elif what == "saddles":
                assert len(got) == 2 * cells, what
            elif what == "every cell crossed":
                assert len(got) == cells, what
            elif what == "NaN islands":
                assert 0 < len(got) < len(marching_squares(xs, ys, ramp, level)), what

    def test_degenerate_grids(self):
        assert marching_squares([0.0], [0.0, 1.0], np.zeros((1, 2)), 0.5).shape == (0, 4)
        assert marching_squares([0.0, 1.0], [0.0], np.zeros((2, 1)), 0.5).shape == (0, 4)


class TestHypervolume:
    def test_single_point_box(self):
        ref = (1.0, 1.0, 1.0)
        assert cd.hypervolume([[0.5, 0.25, 0.0]], ref) == pytest.approx(
            0.5 * 0.75 * 1.0)

    def test_two_overlapping_boxes(self):
        ref = (math.radians(30.0), 800.0, 90.0)
        pts = [[0.2, 500.0, 60.0], [0.3, 450.0, 70.0]]
        v1 = (ref[0] - 0.2) * 300.0 * 30.0
        v2 = (ref[0] - 0.3) * 350.0 * 20.0
        inter = (ref[0] - 0.3) * 300.0 * 20.0
        assert cd.hypervolume(pts, ref) == pytest.approx(v1 + v2 - inter)

    def test_points_outside_reference_ignored(self):
        ref = (1.0, 1.0, 1.0)
        assert cd.hypervolume([[2.0, 0.1, 0.1]], ref) == 0.0

    def test_dominated_points_contribute_nothing(self, rng):
        ref = (1.0, 1.0, 1.0)
        pts = rng.uniform(0.0, 1.0, size=(40, 3))
        base = cd.hypervolume(pts, ref)
        extra = np.vstack([pts, pts * 1.0 + 1e-9])  # dominated copies
        extra = np.clip(extra, 0.0, 0.999999)
        assert cd.hypervolume(extra, ref) == pytest.approx(base, rel=1e-6)

    def test_against_monte_carlo(self, rng):
        pts = rng.uniform(0.2, 0.9, size=(25, 3))
        ref = (1.0, 1.0, 1.0)
        exact = cd.hypervolume(pts, ref)
        approx = oracles.mc_hypervolume(pts, ref, samples=300_000, seed=3)
        assert exact == pytest.approx(approx, rel=0.02)

    def test_refinement_never_loses_volume(self):
        # nested grids: resolution k then 2k-1 reuse every node
        ref = (math.radians(30.0), 800.0, 90.0)
        coarse = cd.sweep(cd.DesignSpace(resolution=16))
        fine = cd.sweep(cd.DesignSpace(resolution=31))
        hv_c = cd.hypervolume([c.objectives for c in coarse.front], ref)
        hv_f = cd.hypervolume([c.objectives for c in fine.front], ref)
        assert hv_f >= hv_c - 1e-9 * max(hv_c, 1.0)


def test_sweep_solves_each_closure_once(monkeypatch):
    # the sweep solves the closure of each pair it does not screen, once for
    # both cam counts, and the kernel's verdict `driving_arc` reuses it
    from camdrive import geometry
    solve = geometry.closure_angles
    solved = []

    def counted(p, eta, r):
        solved.append(len(eta))
        return solve(p, eta, r)

    monkeypatch.setattr(geometry, "closure_angles", counted)
    monkeypatch.setattr(optimize, "closure_angles", counted)
    space = small_space(m_values=(2, 3))
    cd.sweep(space)
    # the screen, written out: d_cs > 0, q = 2*pi*eta - 1 >= 1e-9, and for some
    # m arctan(|q|/w) at the widest arc start w = 2*pi*(1 - 1/m) within the cap
    D, R = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 30.0, 16),
                                           np.linspace(4.0, 10.5, 16), indexing="ij"))
    q = 2.0 * math.pi * (R + D / 2.0) / space.pitch - 1.0
    reach = np.logical_or.reduce([np.arctan(np.abs(q) / (2.0 * math.pi * (1.0 - 1.0 / m)))
                                  <= space.mu_cap * (1.0 + 1e-9) for m in (2, 3)])
    live = int(((D > 0.0) & (q >= 1e-9) & reach).sum())
    assert 0 < live < 16 * 16
    assert sum(solved) == live


def test_unscreened_callers_solve_only_solvable_pairs(monkeypatch):
    # a contour slice and a single candidate solve the closure of the pairs
    # with d_cs > 0 and q = 2*pi*eta - 1 >= 1e-9 only; the others fail geometry
    from camdrive import geometry
    solve = geometry.closure_angles
    solved = []

    def counted(p, eta, r):
        solved.append(len(eta))
        return solve(p, eta, r)

    monkeypatch.setattr(geometry, "closure_angles", counted)
    monkeypatch.setattr(optimize, "closure_angles", counted)
    space = small_space(pitch=24.0, r_range=(0.5, 10.5))
    cut = cd.contour_slice(space, 2, 60.0)
    D, R = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 30.0, 16),
                                           np.linspace(0.5, 10.5, 16), indexing="ij"))
    q = 2.0 * math.pi * (R + D / 2.0) / space.pitch - 1.0
    live = (D > 0.0) & (q >= 1e-9)
    assert ((D > 0.0) & ~live).any() and 0 < live.sum() < 16 * 16
    assert sum(solved) == int(live.sum())
    assert np.isnan(cut.mu_grid.ravel()[~live]).all()
    solved.clear()
    c = cd.evaluate_candidate((0.0, 5.0, 10.0, 2), space)
    assert sum(solved) == 0 and not c.feasible and "geometry" in c.violations


class TestScreen:
    """The sweep's angle screen and Hertz gate against the unscreened grids."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pitch=st.floats(8.0, 60.0), cap_deg=st.floats(0.5, 100.0),
           m_values=st.lists(st.integers(2, 360), min_size=1, max_size=3, unique=True),
           r_hi=st.floats(4.0, 14.0), d_hi=st.floats(1.0, 40.0))
    def test_screened_pairs_fail_geometry_or_the_cap(self, pitch, cap_deg, m_values,
                                                     r_hi, d_hi):
        space = cd.DesignSpace(resolution=16, pitch=pitch, mu_cap=math.radians(cap_deg),
                               m_values=tuple(m_values), d_cs_range=(0.0, d_hi),
                               r_range=(0.5, r_hi), L_range=(0.01, None), S_cap=120.0)
        _, _, D, R = _pair_axes(space, 16)
        kept = _pair_metrics(space, space.m_values, D, R, space.mu_cap)
        every = _pair_metrics(space, space.m_values, D, R, math.inf)
        screen = _angle_screen(space.m_values, space.mu_cap, eta_from_design(D, R, space.pitch))
        grids = cd.sweep(space).grids
        for m in m_values:
            g = grids[m]
            first = slice(None, None, space.resolution)  # each pair's first width
            geom, mu, P_unit = g.geometry_ok[first], g.mu_max[first], g.P_max[first]
            passing = np.flatnonzero(geom & (mu <= space.mu_cap))
            ok, mu_kept, P_kept = kept[m]
            assert ok[passing].all()
            assert screen[passing].all()
            # the pairs the screen keeps get the grid's metrics, bit for bit
            assert geom[ok].all()
            assert np.array_equal(mu_kept[ok], mu[ok])
            assert np.array_equal(P_kept[ok] / np.sqrt(g.L[0]), P_unit[ok])
            # where the unscreened pair passes geometry and the cap the screened
            # arrays equal the unscreened ones; elsewhere they are (False, NaN, NaN)
            ok_all, mu_all, P_all = every[m]
            keep = ok_all & (mu_all <= space.mu_cap)
            assert np.array_equal(ok, keep)
            assert np.array_equal(mu_kept, np.where(keep, mu_all, np.nan), equal_nan=True)
            assert np.array_equal(P_kept, np.where(keep, P_all, np.nan), equal_nan=True)

    @pytest.mark.parametrize("cap_deg", [90.0, 100.0, 179.0])
    def test_a_right_angle_cap_screens_nothing(self, cap_deg):
        eta = np.concatenate([np.linspace(0.0, 2.0, 2001), [1e-12, 1e6, 1e100]])
        for m in (2, 3, 360):
            assert _angle_screen((m,), math.radians(cap_deg), eta).all()

    def test_the_default_space_screens_most_pairs(self):
        space = cd.DesignSpace()
        _, _, D, R = _pair_axes(space, space.resolution)
        screen = _angle_screen(space.m_values, space.mu_cap, eta_from_design(D, R, space.pitch))
        assert 0.0 < screen.mean() < 0.5


def test_cam_counts_share_the_closure_solve():
    # one kernel pass per chunk for all cam counts equals one pass per count
    space = small_space(m_values=(2, 3))
    _, _, D, R = _pair_axes(space, space.resolution)
    shared = _pair_metrics(space, (2, 3), D, R, math.inf)
    for m in (2, 3):
        alone = _pair_metrics(space, (m,), D, R, math.inf)[m]
        for a, b in zip(shared[m], alone):
            assert np.array_equal(a, b, equal_nan=True)


class TestHypervolumeAgainstSlicing:
    """The dimension sweep against `oracles.hypervolume_slicing`."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets_with_ties_and_duplicates(self, seed):
        # coordinates on a coarse lattice tie often; 1.0 lies on a reference
        # plane and 1.2 beyond it
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 7, size=(80, 3)) / 5.0
        pts = np.vstack([pts, pts[:10], rng.uniform(0.0, 1.0, size=(40, 3))])
        rng.shuffle(pts)
        ref = (1.0, 1.0, 1.0)
        assert (pts == 1.0).any() and (pts > 1.0).any()
        exact = oracles.hypervolume_slicing(pts, ref)
        assert exact > 0.0
        assert cd.hypervolume(pts, ref) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_degenerate_sets(self):
        ref = (1.0, 1.0, 1.0)
        on_planes = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]
        assert cd.hypervolume(on_planes, ref) == 0.0
        assert cd.hypervolume(np.zeros((0, 3)), ref) == 0.0
        same = [[0.5, 0.5, 0.5]] * 4
        assert cd.hypervolume(same, ref) == oracles.hypervolume_slicing(same, ref)

    @pytest.mark.parametrize("res", [16, 31])
    def test_real_fronts(self, res):
        space = cd.DesignSpace(resolution=res)
        F = [c.objectives for c in cd.sweep(space).front]
        ref = (space.mu_cap, space.P_cap, space.S_cap)
        exact = oracles.hypervolume_slicing(F, ref)
        assert len(F) > 50 and exact > 0.0
        assert cd.hypervolume(F, ref) == pytest.approx(exact, rel=1e-12, abs=0.0)
