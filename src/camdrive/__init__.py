"""Design tools for conjugate cam-roller transmissions.

Profile synthesis and curvature analysis, pressure-angle and Hertz-pressure
metrics, first-order sensitivity and constrained Pareto design studies.
"""
from .geometry import (
    CamProfile,
    FeasibilityReport,
    TransmissionSpec,
    cam_curvature,
    cam_profile_point,
    extended_angle,
    feasibility_check,
    follower_displacement,
    pitch_curvature,
    pitch_curve_point,
    profile_coefficients,
    sample_profile,
)
from .mechanics import (
    ActiveSegment,
    LoadCase,
    Material,
    active_segment,
    builtin_materials,
    contact_force,
    equivalent_radius,
    find_material,
    hertz_band_width,
    hertz_pressure,
    load_materials,
    material_coefficient,
    max_hertz_pressure,
    max_pressure_angle,
    mechanism_size,
    pressure_angle,
)
from .optimize import (
    DesignCandidate,
    DesignSpace,
    contour_slice,
    evaluate_candidate,
    hypervolume,
    pareto_front,
    sweep,
)
from .sensitivity import (
    SensitivityReport,
    pressure_partials,
    rank_at_max,
    rank_rms,
    sensitivity_report,
)

__version__ = "0.1.0"
