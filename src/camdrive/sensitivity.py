"""First-order sensitivity of the Hertz pressure to the design parameters.

Closed-form partial derivatives of P with respect to (r, eta, p, L) from
`mechanics.pressure_sensitivities`, normalised profiles over the active
segment, rms aggregation and parameter ranking. Normalised means multiplied
by the parameter's nominal value so the four series are comparable on one
axis. `sensitivity_report` is the one study; the segment and the pressure
peak come from the segment kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProfile, InvalidSpec
from .geometry import TransmissionSpec
from .mechanics import (
    ActiveSegment,
    LoadCase,
    Material,
    active_segment,
    compliance_sum,
    hertz_segment,
    pressure_sensitivities,
)

PARAMS = ("r", "eta", "p", "L")
MIN_PROFILE_SAMPLES = 64
MIN_RMS_NODES = 1025


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity study at one nominal design.

    pointwise holds the normalised series d P/d q * q0 per parameter over the
    active segment; at_max the same quantities at the pressure peak; rms their
    root-mean-square over the segment. Rankings list parameter names by
    descending influence.
    """

    nominal: dict
    segment: ActiveSegment
    delta: float
    psi: np.ndarray
    pointwise: dict
    at_max: dict
    at_max_ranking: tuple[str, ...]
    rms: dict
    rms_ranking: tuple[str, ...]


def _sensitivities(spec, load, materials, psi):
    """P and its normalised partials (r, eta, p, L, torque) at cam angle psi.

    Raises InfeasibleProfile where the cam curvature radius is not positive,
    because the Hertz model does not apply there.
    """
    P, partials = pressure_sensitivities(psi, spec.p, spec.eta, spec.r, load.torque,
                                         compliance_sum(*materials), spec.L)
    if np.isnan(P).any():
        raise InfeasibleProfile(
            "cam curvature radius is not positive at the probed cam angle")
    return P, partials


def pressure_partials(spec: TransmissionSpec, load: LoadCase,
                      materials: tuple[Material, Material], psi: float,
                      include_torque: bool = False) -> np.ndarray:
    """Raw partials of P w.r.t. (r, eta, p, L) at fixed psi.

    The closed-form normalised partials divided by each nominal value; psi
    may be an array, which adds trailing axes. With include_torque a fifth
    entry dP/d(torque) is appended.
    """
    partials = _sensitivities(spec, load, materials, psi)[1]
    raw = (partials.T / np.array([spec.r, spec.eta, spec.p, spec.L, load.torque])).T
    return raw if include_torque else raw[:len(PARAMS)]


def _ranking(values: dict) -> tuple[str, ...]:
    return tuple(sorted(PARAMS, key=lambda k: -abs(values[k])))


def _simpson(y: np.ndarray, h: float) -> float:
    w = np.ones(len(y))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, y))


def rank_at_max(spec: TransmissionSpec, load: LoadCase,
                materials: tuple[Material, Material]):
    """Normalised partial magnitudes at the pressure peak, with ranking.

    The peak is the kernel's psi_P: the left end of the active segment
    (pi - delta for a two-cam mechanism) unless the arc starts before the
    pitch-curvature turnover, where it can lie inside the arc. Values are
    |dP/dq * q0| there. A view of the default `sensitivity_report`.
    """
    rep = sensitivity_report(spec, load, materials)
    return rep.at_max, rep.at_max_ranking


def rank_rms(spec: TransmissionSpec, load: LoadCase,
             materials: tuple[Material, Material], nodes: int = MIN_RMS_NODES):
    """Root-mean-square of the normalised partials over the active segment.

    Composite Simpson integration on an odd node count >= 1025; the mean uses
    the segment length, which is pi for a two-cam mechanism. A view of the
    `sensitivity_report` with `rms_nodes=nodes`.
    """
    rep = sensitivity_report(spec, load, materials, rms_nodes=nodes)
    return rep.rms, rep.rms_ranking


def sensitivity_report(spec: TransmissionSpec, load: LoadCase,
                       materials: tuple[Material, Material],
                       samples: int = 256,
                       rms_nodes: int = MIN_RMS_NODES,
                       include_torque: bool = False) -> SensitivityReport:
    """Full sensitivity study: pointwise series, peak values, rms, rankings.

    The kernel runs once and its arc and peak serve all three parts. One
    evaluation of the partials on the `samples` grid, the rms node grid and
    psi_P gives the series, the rms and the peak values. Needs at least 64
    samples and 1025 nodes; an even node count takes one node more.
    """
    seg = hertz_segment(spec, load, *materials)[1]
    arc = active_segment(spec, seg.delta)
    if samples < MIN_PROFILE_SAMPLES:
        raise InvalidSpec(f"need at least {MIN_PROFILE_SAMPLES} samples, got {samples}")
    if rms_nodes < MIN_RMS_NODES:
        raise InvalidSpec(f"need at least {MIN_RMS_NODES} nodes, got {rms_nodes}")
    nodes = rms_nodes | 1  # Simpson needs an even interval count
    psis = arc.grid(samples)
    partials = _sensitivities(spec, load, materials,
                              np.concatenate([psis, arc.grid(nodes), [seg.psi_P]]))[1]
    h = arc.length / (nodes - 1)
    at_max = {name: abs(float(partials[i, -1])) for i, name in enumerate(PARAMS)}
    rms = {name: math.sqrt(_simpson(partials[i, samples:-1] ** 2, h) / arc.length)
           for i, name in enumerate(PARAMS)}
    names = PARAMS + ("torque",) if include_torque else PARAMS
    nominal = {"r": spec.r, "eta": spec.eta, "p": spec.p, "L": spec.L,
               "torque": load.torque}
    return SensitivityReport(
        nominal=nominal, segment=arc, delta=seg.delta, psi=psis,
        pointwise=dict(zip(names, partials[:, :samples])), at_max=at_max,
        at_max_ranking=_ranking(at_max), rms=rms, rms_ranking=_ranking(rms),
    )
