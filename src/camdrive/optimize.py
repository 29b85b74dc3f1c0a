"""Constrained three-objective design-space exploration.

Design vector x = [d_cs, r, L, m]; objectives (mu_max, P_max, S_M) are all
minimised subject to caps on each. The search is an exhaustive grid: the
evaluations are cheap, deterministic and oracle-checkable, and the space
has only three continuous axes plus the cam count. A (d_cs, r) pair goes
through the batched segment kernel `mechanics.segment_metrics` once per cam
count, which costs closed forms and a short peak search for the few pairs
whose pressure peaks inside the arc; the closure root does not depend on
the cam count and is solved once per pair. One driver, `_pair_metrics`,
solves only the pairs with d_cs > 0 and a valid eta that can pass an angle
cap, which an exact bound on eta picks out before any root, and sends to
the kernel only those whose arc start passes it. The unit-width pressure
serves the whole L axis, because the Hertz pressure scales as 1/sqrt(L). So
a sweep filters the pairs in two objectives and lays the L axis out only
for the pairs on that front (see `sweep`), under the space's angle cap. The
contour slices and a single candidate (a batch of one) pass an infinite cap
and evaluate every solvable pair, as does `SweepResult.grids`, the full
(d_cs, r, L) grid and the sweep's oracle, built only when read. Iso-lines
of the contour slices come from a table-driven marching squares, and a
front's hypervolume from a dimension sweep.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import InfeasibleCamCount, InvalidSpec
from .geometry import (
    MAX_CAM_COUNT,
    MAX_LENGTH,
    TAU,
    closure_angles,
    count_text,
    driving_window,
    eta_valid,
    fully_convex,
    require_length,
    require_positive,
)
from .mechanics import (
    LoadCase,
    Material,
    compliance_sum,
    find_material,
    pressure_angle,
    segment_metrics,
)

_DEFAULT_STEEL = find_material("improved steel")

_PAIR_CHUNK = 4096

# relative slack of the angle screen on the cap, so that rounding
# never screens a pair that passes it
_SCREEN_MARGIN = 1e-9

# smallest grid resolution of a sweep or a contour slice
MIN_GRID_RESOLUTION = 16

# a candidate's violations, in the column order of `_violations`
VIOLATIONS = ("geometry", "pressure-angle", "hertz-pressure", "size")


def eta_from_design(d_cs: float, r: float, pitch: float) -> float:
    """Eccentricity ratio from the design variables: e = r + d_cs/2."""
    return (r + d_cs / 2.0) / pitch


@dataclass(frozen=True)
class DesignSpace:
    """Bounds, context and caps of the design study.

    L upper bound of None means the size cap divided by the cam count, which
    is also always enforced. The d_cs lower bound of zero is kept in the grid
    even though that first column is geometrically infeasible (e = r); those
    candidates come back flagged, not dropped. A space holds a grid of at
    least MIN_GRID_RESOLUTION, distinct whole cam counts of two or more,
    ordered ranges of lengths (`geometry.require_length`; d_cs may start at
    zero), a width per cam count and positive finite caps, or is not built.
    """

    d_cs_range: tuple[float, float] = (0.0, 30.0)
    r_range: tuple[float, float] = (4.0, 10.5)
    L_range: tuple[float, float | None] = (1.0, None)
    m_values: tuple[int, ...] = (2, 3)
    resolution: int = 64
    pitch: float = 20.0
    load: LoadCase = LoadCase(1200.0)
    cam_material: Material = _DEFAULT_STEEL
    roller_material: Material = _DEFAULT_STEEL
    mu_cap: float = math.radians(30.0)
    P_cap: float = 800.0
    S_cap: float = 90.0

    def __post_init__(self):
        for what, value in (("pressure-angle cap", self.mu_cap),
                            ("Hertz pressure cap", self.P_cap)):
            require_positive(f"design space {what}", value)
        for what, value in (("pitch", self.pitch), ("size cap", self.S_cap),
                            ("smallest roller radius", self.r_range[0]),
                            ("smallest contact width", self.L_range[0])):
            require_length(f"design space {what}", value)
        if self.L_range[1] is not None:
            require_length("design space largest contact width", self.L_range[1])
        if self.resolution < MIN_GRID_RESOLUTION:
            raise InvalidSpec(f"design space resolution must be at least "
                              f"{MIN_GRID_RESOLUTION}, got {self.resolution}")
        if not self.m_values or len(set(self.m_values)) < len(self.m_values):
            raise InvalidSpec("design space needs one or more distinct cam counts, "
                              f"got {list(self.m_values)}")
        for m in self.m_values:
            _require_whole(m, "the design space")
            if m < 2:
                raise InfeasibleCamCount(f"cam count {m} in the design space")
            lo, hi = self.L_bounds(m)
            if not lo <= hi:
                raise InvalidSpec(f"design space has an empty L range [{lo}, {hi}] for m={m}")
        for name, (lo, hi) in (("d_cs", self.d_cs_range), ("r", self.r_range)):
            if not 0.0 <= lo <= hi <= MAX_LENGTH:
                raise InvalidSpec(f"design space {name} range must be [low, high] "
                                  f"inside [0, {MAX_LENGTH:g}] mm, got {[lo, hi]}")

    def L_bounds(self, m: int) -> tuple[float, float]:
        lo, hi = self.L_range
        cap = self.S_cap / m
        return lo, cap if hi is None else min(hi, cap)

    def L_axis(self, m: int) -> np.ndarray:
        lo, hi = self.L_bounds(m)
        return np.linspace(lo, hi, self.resolution)


def _require_whole(m, where: str) -> None:
    """Raise InvalidSpec unless the cam count m is a whole number of at most
    MAX_CAM_COUNT in magnitude. The bound comes first: float() overflows on
    a huge integer."""
    if not (abs(m) <= MAX_CAM_COUNT and float(m).is_integer()):
        raise InvalidSpec(f"cam count {count_text(m)} in {where} is not a whole number "
                          f"of at most {MAX_CAM_COUNT} in magnitude")


def _sizes(space: DesignSpace, m: int, L: np.ndarray) -> np.ndarray:
    """Sizes m*L of m-cam widths L: the one size rule of a sweep and a single
    design. A width of at most S_cap/m, as every width on the axis is, has its
    size clamped to the cap, which only removes rounding: m*(S_cap/m) can
    round an ulp above the cap. A wider width keeps m*L and fails the cap."""
    S = m * L
    return np.where(L <= space.S_cap / m, np.minimum(S, space.S_cap), S) if m > 0 else S


def _widths(space: DesignSpace, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-cam width axis and its `_sizes`."""
    L = space.L_axis(m)
    return L, _sizes(space, m, L)


@dataclass(frozen=True)
class DesignCandidate:
    """One evaluated design with objectives and a feasibility verdict."""

    d_cs: float
    r: float
    L: float
    m: int
    mu_max: float  # rad; NaN when geometry failed
    P_max: float   # MPa; NaN when geometry failed
    S_M: float     # mm
    feasible: bool
    violations: tuple[str, ...] = ()
    convex_profile: bool = False

    @property
    def x(self) -> tuple[float, float, float, int]:
        return (self.d_cs, self.r, self.L, self.m)

    @property
    def objectives(self) -> tuple[float, float, float]:
        return (self.mu_max, self.P_max, self.S_M)


def _violations(space: DesignSpace, geometry_ok, mu, P, S) -> np.ndarray:
    """The verdict on candidates, an (n, 4) mask with a column per entry of
    `VIOLATIONS`; feasible means no violation. The angle and pressure caps
    count only where geometry passed. A value passes its cap when it is at
    most the cap, so a NaN value or cap fails it."""
    return np.column_stack([~geometry_ok, geometry_ok & ~(mu <= space.mu_cap),
                            geometry_ok & ~(P <= space.P_cap), ~(S <= space.S_cap)])


def _candidates(space: DesignSpace, table: np.ndarray, violations=None) -> list:
    """The rows of a (mu, P, S, m, d_cs, r, L) table as `DesignCandidate`s,
    with their `_violations` mask; a front's rows, without one, are feasible."""
    if violations is None:
        violations = np.zeros((len(table), len(VIOLATIONS)), dtype=bool)
    convex = fully_convex(eta_from_design(table[:, 4], table[:, 5], space.pitch))
    return [DesignCandidate(d_cs=d, r=r, L=L, m=int(m), mu_max=mu, P_max=P, S_M=S,
                            feasible=not any(bad), violations=tuple(compress(VIOLATIONS, bad)),
                            convex_profile=c)
            for (mu, P, S, m, d, r, L), bad, c in zip(table.tolist(), violations.tolist(),
                                                      convex.tolist())]


def evaluate_candidate(x, space: DesignSpace) -> DesignCandidate:
    """Evaluate one design vector; infeasibility comes back as flags.

    The sweep's evaluation on a batch of one pair at one width, size
    included (`_sizes`), so it agrees with the sweep arrays bit for bit. A
    cam count below two fails geometry; a fractional count, one above
    MAX_CAM_COUNT or a width that is not a length raises InvalidSpec.
    """
    _require_whole(x[3], "a design vector")
    d_cs, r, L, m = float(x[0]), float(x[1]), float(x[2]), int(x[3])
    require_length("contact width", L)
    D, R = np.array([d_cs]), np.array([r])
    metrics = (_pair_metrics(space, (m,), D, R, math.inf)[m] if m >= 2
               else (np.array([False]), np.array([np.nan]), np.array([np.nan])))
    g = _evaluate_grid(space, m, D, R, *metrics, np.array([L]), _sizes(space, m, np.array([L])))
    return _candidates(space, g.table(), g.violations)[0]


def dominates(a: DesignCandidate, b: DesignCandidate) -> bool:
    """True iff a is no worse in all three objectives and better in one."""
    ao, bo = a.objectives, b.objectives
    return all(x <= y for x, y in zip(ao, bo)) and any(x < y for x, y in zip(ao, bo))


def _staircase_step(xs: list, ys: list, x: float, y: float):
    """Where (x, y) enters a 2-D minimisation staircase, or None if it is covered.

    The staircase lists its points with xs strictly ascending and ys strictly
    descending. None means a point on it is <= (x, y) in both coordinates.
    Otherwise (x, y) belongs at index j and replaces xs[j:k], ys[j:k], the
    points it weakly dominates; the caller does the replacing.
    """
    i = bisect.bisect_right(xs, x)
    if i and ys[i - 1] <= y:
        return None
    j = bisect.bisect_left(xs, x)
    k = j
    while k < len(xs) and ys[k] >= y:
        k += 1
    return j, k


def nondominated_mask(objectives) -> np.ndarray:
    """Boolean mask of the maximal nondominated subset (minimisation).

    Accepts an (N, 2) or (N, 3) array. Equal rows are all retained. One pass
    over the distinct rows in lexicographic order (Kung, Luccio & Preparata
    1975): a row can be dominated only by a row before it, so it is kept
    exactly when no earlier kept row is <= in (f1, f2), which a staircase of
    the kept rows answers. O(N log N); the brute-force O(N^2) filter is kept
    in the test suite as its oracle.
    """
    F = np.asarray(objectives, dtype=float)
    if F.ndim != 2 or F.shape[1] not in (2, 3):
        raise InvalidSpec(f"objectives must be (N, 2) or (N, 3), got {F.shape}")
    n = len(F)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if not np.isfinite(F).all():
        raise InvalidSpec("objectives must be finite to compare designs")
    if F.shape[1] == 2:
        F = np.column_stack([F, np.zeros(n)])
    uniq, inv = np.unique(F, axis=0, return_inverse=True)
    keep = np.ones(len(uniq), dtype=bool)
    xs: list[float] = []  # staircase of the kept rows in (f1, f2)
    ys: list[float] = []
    for g, (x, y) in enumerate(uniq[:, 1:].tolist()):
        step = _staircase_step(xs, ys, x, y)
        if step is None:
            keep[g] = False
        else:
            xs[step[0]:step[1]] = [x]
            ys[step[0]:step[1]] = [y]
    return keep[np.asarray(inv).reshape(-1)]


def _lex_order(table: np.ndarray) -> np.ndarray:
    """Row indices of a table in the order of its rows as sorted tuples."""
    return np.lexsort(table.T[::-1])


def _front(table: np.ndarray) -> np.ndarray:
    """Indices of the nondominated rows of a (mu, P, S, m, d_cs, r, L) table.

    The objectives are the first three columns, and the rows come in
    `_lex_order`, so identical inputs always serialise identically.
    """
    idx = np.flatnonzero(nondominated_mask(table[:, :3]))
    return idx[_lex_order(table[idx])]


def pareto_front(candidates) -> list[DesignCandidate]:
    """Maximal set of feasible, mutually nondominated candidates, in `_front` order."""
    feas = [c for c in candidates if c.feasible]
    table = np.array([(c.mu_max, c.P_max, c.S_M, c.m, c.d_cs, c.r, c.L) for c in feas])
    return [feas[i] for i in _front(table.reshape(-1, 7))]  # (0, 7) if none is feasible


# --- vectorised grid evaluation ------------------------------------------

def _angle_screen(m_values, cap: float, eta: np.ndarray) -> np.ndarray:
    """Whether each eta can pass the angle cap for some m of m_values.

    mu_max is |mu| at the arc start psi = 2*pi - delta - 2*pi/m, where with
    w = psi - pi and q = 2*pi*eta - 1, |mu| = arctan(|q|/w). The closure
    angle delta lies in [-pi, 0] (`closure_angles` brackets its root there),
    so 0 <= w <= 2*pi*(1 - 1/m), and arctan(|q|/w) falls as w grows: no
    delta gives a smaller |mu| than psi = pi + 2*pi*(1 - 1/m). A pair whose
    |mu| there exceeds the cap for every m fails the cap whatever its
    closure angle. The test compares angles, not q against w*tan(cap),
    because a cap of 90 degrees or more passes every pair while its tangent
    is negative, and it allows a relative _SCREEN_MARGIN.
    """
    bound = cap * (1.0 + _SCREEN_MARGIN)
    reach = np.zeros(len(eta), dtype=bool)
    for m in m_values:
        reach |= np.abs(pressure_angle(math.pi + TAU * (1.0 - 1.0 / m), eta)) <= bound
    return reach


def _pair_metrics(space: DesignSpace, m_values, D: np.ndarray, R: np.ndarray,
                  cap: float) -> dict:
    """Geometry flag, mu_max and unit-width P_max of each (d_cs, r) pair, by m:
    {m: (geometry_ok, mu_max, P_unit)}, (False, NaN, NaN) where geometry
    fails or mu_max exceeds the angle cap `cap`; a cap of inf drops none.

    Only the pairs that can pass are solved: d_cs > 0, since d_cs = 0 puts
    the roller on the cam axis line (e = r), which no profile allows; eta
    passes `eta_valid`; and eta passes `_angle_screen` at the cap. They go
    in chunks of _PAIR_CHUNK, which bound the kernel's (chunk,
    ROOT_SCAN_NODES) arrays and hide its fixed cost per call. The closure
    angle does not depend on m, so each chunk solves it once, and for each
    m only the pairs whose arc-start |mu| is at most the cap go to
    `segment_metrics`, with those angles. The kernel is elementwise per
    pair, so a pair's metrics do not depend on the pairs solved with it.
    """
    eta = eta_from_design(D, R, space.pitch)
    K_sum = compliance_sum(space.cam_material, space.roller_material)
    n = len(eta)
    out = {m: (np.zeros(n, dtype=bool), np.full(n, np.nan), np.full(n, np.nan))
           for m in m_values}
    # e > r exactly: eta*p, all the kernel sees, can round above r at d_cs = 0
    solved = np.flatnonzero((D > 0.0) & eta_valid(eta) & _angle_screen(m_values, cap, eta))
    for s in range(0, len(solved), _PAIR_CHUNK):
        idx = solved[s:s + _PAIR_CHUNK]
        e, r = eta[idx], R[idx]
        delta = closure_angles(space.pitch, e, r)
        for m, (geom, mu, P_unit) in out.items():
            go = np.abs(pressure_angle(driving_window(delta, m)[0], e)) <= cap
            seg = segment_metrics(space.pitch, e[go], r[go], m, space.load.torque, K_sum,
                                  delta=delta[go])
            at = idx[go][seg.ok]
            geom[at] = True
            mu[at] = seg.mu_max[seg.ok]
            P_unit[at] = seg.P_max[seg.ok]
    return out


def _pair_axes(space: DesignSpace, res: int):
    """The d_cs and r axes of the res x res (d_cs, r) grid and its pairs,
    d_cs-major."""
    d_axis = np.linspace(space.d_cs_range[0], space.d_cs_range[1], res)
    r_axis = np.linspace(space.r_range[0], space.r_range[1], res)
    D, R = (a.ravel() for a in np.meshgrid(d_axis, r_axis, indexing="ij"))
    return d_axis, r_axis, D, R


@dataclass(frozen=True)
class GridData:
    """Flattened per-m evaluation of a set of pairs times the L axis."""

    m: int
    d_cs: np.ndarray
    r: np.ndarray
    L: np.ndarray
    mu_max: np.ndarray
    P_max: np.ndarray
    S_M: np.ndarray
    feasible: np.ndarray
    geometry_ok: np.ndarray
    violations: np.ndarray  # (n, 4) `_violations` mask

    def __len__(self) -> int:
        return len(self.d_cs)

    def objectives(self) -> np.ndarray:
        return np.column_stack([self.mu_max, self.P_max, self.S_M])

    def table(self) -> np.ndarray:
        """The rows as a (mu, P, S, m, d_cs, r, L) table."""
        return np.column_stack([self.mu_max, self.P_max, self.S_M, np.full(len(self), self.m),
                                self.d_cs, self.r, self.L])


@dataclass(frozen=True)
class SweepResult:
    """Merged and per-m Pareto fronts of a sweep.

    `tables` holds each cam count's front as a (mu, P, S, m, d_cs, r, L)
    table in `_lex_order`, and `front_index` the merged front as row indices
    into those tables concatenated in m order. `front` and `per_m_fronts`,
    the same fronts as `DesignCandidate` lists, are built when first read.
    `grids`, the evaluation of every (d_cs, r, L) candidate, is the oracle
    of the screened sweep: its first read runs the kernel again on every
    solvable pair, unscreened, as a contour slice does.
    """

    space: DesignSpace
    tables: dict = field(repr=False)
    front_index: np.ndarray = field(repr=False)

    @property
    def evaluated(self) -> int:
        return len(self.space.m_values) * self.space.resolution ** 3

    @property
    def front_table(self) -> np.ndarray:
        """The merged front as a (mu, P, S, m, d_cs, r, L) table."""
        return np.concatenate(list(self.tables.values()))[self.front_index]

    @cached_property
    def per_m_fronts(self) -> dict:
        return {m: _candidates(self.space, table) for m, table in self.tables.items()}

    @cached_property
    def front(self) -> list:
        union = [c for front in self.per_m_fronts.values() for c in front]
        return [union[i] for i in self.front_index.tolist()]

    @cached_property
    def grids(self) -> dict:
        space = self.space
        _, _, D, R = _pair_axes(space, space.resolution)
        return {m: _evaluate_grid(space, m, D, R, *metrics, *_widths(space, m))
                for m, metrics in _pair_metrics(space, space.m_values, D, R, math.inf).items()}


def _evaluate_grid(space: DesignSpace, m: int, D, R, geom_pair, mu_pair, P_pair,
                   L_axis, S_axis) -> GridData:
    """Every candidate evaluation: the (d_cs, r) pairs and their metrics at
    the widths `L_axis` of sizes `S_axis`, pair-major, with P = P_unit/sqrt(L)
    and the `_violations` verdict."""
    nL = len(L_axis)
    L = np.tile(L_axis, len(D))
    S = np.tile(S_axis, len(D))
    mu = np.repeat(mu_pair, nL)
    P = np.repeat(P_pair, nL) / np.sqrt(L)
    geom = np.repeat(geom_pair, nL)
    violations = _violations(space, geom, mu, P, S)
    return GridData(m=m, d_cs=np.repeat(D, nL), r=np.repeat(R, nL), L=L, mu_max=mu,
                    P_max=P, S_M=S, feasible=~violations.any(axis=1), geometry_ok=geom,
                    violations=violations)


def _per_m_front(space: DesignSpace, m: int, D, R, geom, mu, P_unit) -> np.ndarray:
    """The m-cam front as a (mu, P, S, m, d_cs, r, L) table in `_lex_order`.

    The rows are the feasible widths of the pairs that are nondominated in
    (mu_max, P_unit) among the pairs that pass geometry and the angle cap;
    the comparison with the cap also drops the NaN metrics of the others.
    """
    cand = np.flatnonzero(geom & (mu <= space.mu_cap))
    pair = cand[nondominated_mask(np.column_stack([mu[cand], P_unit[cand]]))]
    g = _evaluate_grid(space, m, D[pair], R[pair], geom[pair], mu[pair], P_unit[pair],
                       *_widths(space, m))
    table = g.table()[g.feasible]
    return table[_lex_order(table)]


def sweep(space: DesignSpace) -> SweepResult:
    """Pareto fronts of the (d_cs, r, L) grid, for each cam count and merged.

    At fixed m a candidate's objectives are mu_max, set by its pair,
    P = P_unit/sqrt(L) and S = m*L. A feasible (j, L') can dominate (i, L)
    only if L' <= L. Then (j, L) is also feasible, since P falls as L
    grows, and it dominates (i, L) too. So (i, L) is on the m-cam front
    exactly when it is feasible and pair i is on the 2-D (mu_max, P_unit)
    front of the pairs that pass geometry and the angle cap (Kung, Luccio &
    Preparata 1975). Only those pairs get an L axis, and their rows pass
    the same `_violations` verdict as the grid's. Two P_unit values divided
    by one sqrt(L) never swap order, though two an ulp apart could tie;
    the tests check the fronts against the filter over the whole grid. The
    merged front is the front of the union of the per-m fronts, which
    equals the front over all evaluated feasible candidates. Fronts are
    in `_lex_order` of their (mu, P, S, m, d_cs, r, L) rows, and the result
    keeps them as those tables; no candidate is built until one is read.

    So only the pairs that pass geometry and the angle cap matter, and the
    sweep passes the cap to `_pair_metrics`: a pair that fails it for every
    m skips the closure root (`_angle_screen`), and of the solved pairs only
    those whose arc start passes it get the Hertz peak search. `evaluated`
    still counts every candidate of the grid.
    """
    _, _, D, R = _pair_axes(space, space.resolution)
    tables = {m: _per_m_front(space, m, D, R, *metrics)
              for m, metrics in _pair_metrics(space, space.m_values, D, R, space.mu_cap).items()}
    return SweepResult(space=space, tables=tables,
                       front_index=_front(np.concatenate(list(tables.values()))))


# --- fixed-size contour slices --------------------------------------------

@dataclass(frozen=True)
class ContourSlice:
    """mu_max and P_max over the (d_cs, r) plane at fixed size and cam count.

    The locus, the two-objective front, is kept as a table as in
    `SweepResult.tables`; `locus` is built from it when first read.
    """

    space: DesignSpace
    m: int
    S_M: float
    L: float
    d_axis: np.ndarray
    r_axis: np.ndarray
    mu_grid: np.ndarray       # radians, NaN where geometry fails
    P_grid: np.ndarray        # MPa, NaN where geometry fails
    feasible: np.ndarray      # caps applied
    locus_table: np.ndarray = field(repr=False)  # (mu, P, S, m, d_cs, r, L) rows
    mu_levels: tuple
    P_levels: tuple
    mu_isolines: dict = field(repr=False)  # level -> `marching_squares` segments
    P_isolines: dict = field(repr=False)

    @cached_property
    def locus(self) -> list:
        return _candidates(self.space, self.locus_table)


def _edge_table() -> np.ndarray:
    """The 16-case marching-squares table (Lorensen & Cline 1987).

    A cell's case sets bit k when corner k lies below the level; corners run
    (i, j), (i+1, j), (i+1, j+1), (i, j+1), and edge k joins corner k to
    corner k+1. Row `case` lists up to two segments as edge pairs, -1 where
    there is none. The crossed edges pair up in edge order, so a saddle
    (cases 5 and 10) joins edges 0-1 and 2-3.
    """
    table = np.full((16, 2, 2), -1)
    for case in range(16):
        below = [(case >> k) & 1 for k in range(4)]
        edges = [k for k in range(4) if below[k] != below[(k + 1) % 4]]
        for s in range(len(edges) // 2):
            table[case, s] = edges[2 * s:2 * s + 2]
    return table


_EDGE_TABLE = _edge_table()
_CORNER_DI = np.array([0, 1, 1, 0])  # corner k of cell (i, j) is (i + DI[k], j + DJ[k])
_CORNER_DJ = np.array([0, 0, 1, 1])


def marching_squares(x_axis, y_axis, Z, level) -> np.ndarray:
    """Iso-line segments of Z(x, y) at a level, by linear cell interpolation.

    Z is indexed [i, j] for (x_axis[i], y_axis[j]); cells touching NaN are
    skipped. Z is compared with the level, and its NaN mask taken, once over
    the grid; each cell's case packs its corners' comparisons, and only the
    crossed cells, whose case is 1 to 14, are looked up in the edge table.
    Returns an (n, 4) array of (x1, y1, x2, y2) segments ordered by cell,
    i-major, and within a saddle cell by edge. An edge from corner a to
    corner b is crossed at t = (level - va)/(vb - va) of its length; only
    the crossed edges, two per segment, are interpolated.
    """
    Z = np.asarray(Z, dtype=float)
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    nan = np.isnan(Z)
    below = (Z < level).view(np.uint8)
    case = (below[:-1, :-1] | below[1:, :-1] << 1 | below[1:, 1:] << 2
            | below[:-1, 1:] << 3)
    crossed = (case != 0) & (case != 15) & ~(nan[:-1, :-1] | nan[1:, :-1] | nan[1:, 1:]
                                             | nan[:-1, 1:])
    cell = np.flatnonzero(crossed)
    slots = _EDGE_TABLE[case.ravel()[cell]]                # (cells, 2, 2)
    has = slots[:, :, 0] >= 0
    seg_cell = np.broadcast_to(cell[:, None], has.shape)[has]  # cell-major, slot order
    i, j = np.divmod(seg_cell, case.shape[1])
    ends = []
    with np.errstate(invalid="ignore", over="ignore"):  # infinite or huge corners
        for a in slots[has].T:
            b = (a + 1) % 4
            ia, ja = i + _CORNER_DI[a], j + _CORNER_DJ[a]
            ib, jb = i + _CORNER_DI[b], j + _CORNER_DJ[b]
            va = Z[ia, ja]
            t = (level - va) / (Z[ib, jb] - va)
            ends += [x[ia] + t * (x[ib] - x[ia]), y[ja] + t * (y[jb] - y[ja])]
    return np.column_stack(ends)


def contour_slice(space: DesignSpace, m: int, S_M: float,
                  resolution: int | None = None,
                  mu_levels_deg=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                  P_levels=(500.0, 550.0, 600.0, 650.0, 700.0, 750.0, 800.0)) -> ContourSlice:
    """Objective contours over (d_cs, r) at fixed mechanism size.

    The locus is the two-objective (mu_max, P_max) Pareto set of the feasible
    grid points in the slice: their `_front`, whose S column is constant. The
    pairs are laid out at the one width S_M/m, and their size column is S_M
    itself: m*(S_M/m) can differ from S_M in the last bit.
    """
    _require_whole(m, "a contour slice")
    if m < 2:
        raise InfeasibleCamCount(f"cam count {m} in a contour slice")
    L = S_M / m
    lo, hi = space.L_bounds(m)
    if not lo <= L <= hi:
        raise InvalidSpec(
            f"S_M={S_M} gives L={L} outside the allowed range [{lo}, {hi}] for m={m}")
    res = space.resolution if resolution is None else resolution
    if res < MIN_GRID_RESOLUTION:
        raise InvalidSpec(f"resolution must be at least {MIN_GRID_RESOLUTION}, got {res}")
    d_axis, r_axis, D, R = _pair_axes(space, res)
    pairs = _pair_metrics(space, (m,), D, R, math.inf)[m]
    g = _evaluate_grid(space, m, D, R, *pairs, np.array([L]), np.array([S_M]))
    table = g.table()[g.feasible]
    mu_grid = g.mu_max.reshape(res, res)
    P_grid = g.P_max.reshape(res, res)
    mu_deg = np.degrees(mu_grid)
    mu_iso = {lev: marching_squares(d_axis, r_axis, mu_deg, lev) for lev in mu_levels_deg}
    P_iso = {lev: marching_squares(d_axis, r_axis, P_grid, lev) for lev in P_levels}
    return ContourSlice(space=space, m=m, S_M=S_M, L=L, d_axis=d_axis, r_axis=r_axis,
                        mu_grid=mu_grid, P_grid=P_grid,
                        feasible=g.feasible.reshape(res, res), locus_table=table[_front(table)],
                        mu_levels=tuple(mu_levels_deg), P_levels=tuple(P_levels),
                        mu_isolines=mu_iso, P_isolines=P_iso)


# --- front quality ---------------------------------------------------------

def hypervolume(objectives, ref) -> float:
    """Dominated hypervolume of a 3-objective minimisation set w.r.t. ref.

    Points not strictly better than the reference in every coordinate
    contribute nothing. Dimension sweep (Fonseca, Paquete & Lopez-Ibanez
    2006): the points enter in ascending f2, and between consecutive f2
    values the volume grows by the (f0, f1) area that the entered points
    dominate, times the f2 step. That area belongs to a staircase of the
    entered points that are nondominated in (f0, f1), kept and updated by
    `_staircase_step` as in `nondominated_mask`, and each insertion adds the
    newly dominated strips to it. Every added term is non-negative, so the
    sums do not cancel. O(n log n) comparisons; a list insertion also moves
    up to n references.
    """
    F = np.asarray(objectives, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if F.ndim != 2 or F.shape[1] != 3:
        raise InvalidSpec(f"hypervolume needs an (N, 3) array, got {F.shape}")
    F = F[np.all(F < ref, axis=1)]
    if len(F) == 0:
        return 0.0
    x_ref, y_ref, z_ref = ref.tolist()
    xs: list[float] = []  # staircase of the entered points in (f0, f1)
    ys: list[float] = []
    area = volume = 0.0
    z_prev = None
    for x, y, z in F[np.argsort(F[:, 2], kind="stable")].tolist():
        if z_prev is not None:
            volume += area * (z - z_prev)
        z_prev = z
        step = _staircase_step(xs, ys, x, y)
        if step is None:
            continue  # weakly dominated in (f0, f1)
        j, k = step
        top = ys[j - 1] if j else y_ref
        for xk, yk in zip(xs[j:k], ys[j:k]):  # points the new one dominates
            area += (xk - x) * (top - yk)
            top = yk
        area += ((xs[k] if k < len(xs) else x_ref) - x) * (top - y)
        xs[j:k] = [x]
        ys[j:k] = [y]
    return float(volume + area * (z_ref - z_prev))
