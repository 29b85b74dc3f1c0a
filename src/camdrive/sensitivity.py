"""First-order sensitivity of the Hertz pressure to the design parameters.

Partial derivatives of P with respect to (r, eta, p, L) by central finite
differences, normalised profiles over the active segment, rms aggregation
and parameter ranking. Normalised means multiplied by the parameter's
nominal value so the four series are comparable on one axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec, PerturbationInfeasible
from .geometry import TransmissionSpec, extended_angle
from .mechanics import (
    ActiveSegment,
    LoadCase,
    Material,
    active_segment,
    contact_state,
    material_coefficient,
)

PARAMS = ("r", "eta", "p", "L")
FD_REL_STEP = 1e-6
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


def pressure_at(spec: TransmissionSpec, load: LoadCase,
                materials: tuple[Material, Material], psi):
    """Hertz pressure at cam angle psi, MPa; psi may be an array of angles.

    Raises PerturbationInfeasible where the cam curvature radius is not
    positive, because the Hertz model does not apply there.
    """
    cam_mat, roller_mat = materials
    K_sum = material_coefficient(cam_mat) + material_coefficient(roller_mat)
    _, _, P = contact_state(psi, spec.p, spec.eta, spec.r, load.torque, K_sum, spec.L)
    if np.isnan(P).any():
        raise PerturbationInfeasible(
            "cam curvature radius is not positive at the probed cam angle")
    return P if np.ndim(P) else float(P)


def _perturbed(spec: TransmissionSpec, name: str, value: float) -> TransmissionSpec:
    try:
        return replace(spec, **{name: value})
    except InvalidSpec as exc:
        raise PerturbationInfeasible(str(exc)) from exc


def pressure_partials(spec: TransmissionSpec, load: LoadCase,
                      materials: tuple[Material, Material], psi: float,
                      include_torque: bool = False) -> np.ndarray:
    """Raw partials of P w.r.t. (r, eta, p, L) at fixed psi.

    Central differences with relative step 1e-6 of each nominal value; a probe
    that leaves the feasible region raises PerturbationInfeasible. With
    include_torque a fifth entry dP/d(torque) is appended.
    """
    pressure_at(spec, load, materials, psi)  # nominal must be valid as-is
    out = []
    for name in PARAMS:
        q0 = getattr(spec, name)
        h = FD_REL_STEP * abs(q0)
        try:
            hi = pressure_at(_perturbed(spec, name, q0 + h), load, materials, psi)
            lo = pressure_at(_perturbed(spec, name, q0 - h), load, materials, psi)
        except PerturbationInfeasible:
            raise
        except Exception as exc:  # singular eta, degenerate contact, ...
            raise PerturbationInfeasible(
                f"probe of {name} at psi={psi:.4g} failed: {exc}") from exc
        out.append((hi - lo) / (2.0 * h))
    if include_torque:
        out.append(_torque_partial(spec, load, materials, psi))
    return np.array(out)


def _torque_partial(spec, load, materials, psi):
    h = FD_REL_STEP * load.torque
    hi = pressure_at(spec, LoadCase(load.torque + h, load.speed_rpm), materials, psi)
    lo = pressure_at(spec, LoadCase(load.torque - h, load.speed_rpm), materials, psi)
    return (hi - lo) / (2.0 * h)


def _segment(spec: TransmissionSpec) -> ActiveSegment:
    return active_segment(spec, extended_angle(spec))


def _series_partials(spec, load, materials, psis):
    """Normalised partial series over psis, shape (4, len(psis))."""
    rows = []
    for name in PARAMS:
        q0 = getattr(spec, name)
        h = FD_REL_STEP * abs(q0)
        hi = pressure_at(_perturbed(spec, name, q0 + h), load, materials, psis)
        lo = pressure_at(_perturbed(spec, name, q0 - h), load, materials, psis)
        rows.append((hi - lo) / (2.0 * h) * q0)
    return np.vstack(rows)


def _profile(spec, load, materials, seg, samples, include_torque):
    if samples < MIN_PROFILE_SAMPLES:
        raise InvalidSpec(f"need at least {MIN_PROFILE_SAMPLES} samples, got {samples}")
    psis = seg.grid(samples)
    mat = _series_partials(spec, load, materials, psis)
    series = {name: mat[i] for i, name in enumerate(PARAMS)}
    if include_torque:
        series["torque"] = _torque_partial(spec, load, materials, psis) * load.torque
    return psis, series


def sensitivity_profile(spec: TransmissionSpec, load: LoadCase,
                        materials: tuple[Material, Material],
                        samples: int = 256,
                        include_torque: bool = False):
    """Normalised partials over the active segment, for plotting.

    Returns (psis, {param: series}); each series is dP/dq * q0 at the sample
    angles. Needs at least 64 samples to resolve the segment.
    """
    return _profile(spec, load, materials, _segment(spec), samples, include_torque)


def _ranking(values: dict) -> tuple[str, ...]:
    return tuple(sorted(PARAMS, key=lambda k: -abs(values[k])))


def _at_max(spec, load, materials, seg):
    raw = pressure_partials(spec, load, materials, seg.psi_start)
    values = {name: abs(raw[i]) * getattr(spec, name) for i, name in enumerate(PARAMS)}
    return values, _ranking(values)


def rank_at_max(spec: TransmissionSpec, load: LoadCase,
                materials: tuple[Material, Material]):
    """Normalised partial magnitudes at the pressure peak, with ranking.

    The peak sits at the left end of the active segment (pi - delta for a
    two-cam mechanism); values are |dP/dq * q0| there.
    """
    return _at_max(spec, load, materials, _segment(spec))


def _simpson(y: np.ndarray, h: float) -> float:
    w = np.ones(len(y))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, y))


def _rms(spec, load, materials, seg, nodes):
    if nodes < MIN_RMS_NODES:
        raise InvalidSpec(f"need at least {MIN_RMS_NODES} nodes, got {nodes}")
    if nodes % 2 == 0:
        nodes += 1  # Simpson needs an even interval count
    psis = seg.grid(nodes)
    h = seg.length / (nodes - 1)
    mat = _series_partials(spec, load, materials, psis)
    values = {}
    for i, name in enumerate(PARAMS):
        integral = _simpson(mat[i] ** 2, h)
        values[name] = math.sqrt(integral / seg.length)
    return values, _ranking(values)


def rank_rms(spec: TransmissionSpec, load: LoadCase,
             materials: tuple[Material, Material], nodes: int = MIN_RMS_NODES):
    """Root-mean-square of the normalised partials over the active segment.

    Composite Simpson integration on an odd node count >= 1025; the mean uses
    the segment length, which is pi for a two-cam mechanism.
    """
    return _rms(spec, load, materials, _segment(spec), nodes)


def sensitivity_report(spec: TransmissionSpec, load: LoadCase,
                       materials: tuple[Material, Material],
                       samples: int = 256,
                       rms_nodes: int = MIN_RMS_NODES,
                       include_torque: bool = False) -> SensitivityReport:
    """Full sensitivity study: pointwise series, peak values, rms, rankings.

    The closure angle is solved once and its segment serves all three parts.
    """
    delta = extended_angle(spec)
    seg = active_segment(spec, delta)
    psis, series = _profile(spec, load, materials, seg, samples, include_torque)
    at_max, rank1 = _at_max(spec, load, materials, seg)
    rms, rank2 = _rms(spec, load, materials, seg, rms_nodes)
    nominal = {"r": spec.r, "eta": spec.eta, "p": spec.p, "L": spec.L,
               "torque": load.torque}
    return SensitivityReport(
        nominal=nominal, segment=seg, delta=delta, psi=psis, pointwise=series,
        at_max=at_max, at_max_ranking=rank1, rms=rms, rms_ranking=rank2,
    )
