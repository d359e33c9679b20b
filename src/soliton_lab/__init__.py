"""Rotationally symmetric translating solitons of power mean curvature flow.

Profiles are built in three regimes: the origin power series out to the
radius where it is exact in float64, explicit DOP853 integration in phase
variables, and a far-field power series from the first node where the
integrated defect agrees with it to the integration tolerance.  Where the
explicit stretch reaches its stability cap first, it hands off there only
if the defect lies within the integrator's error scale of the series, and
raises :class:`SolverError` otherwise.  The package evaluates and fits the
far-field expansions and verifies every computable structural property
(slope bounds, phase monotonicity, PDE residual, convexity, blow-down,
growth, interior gradient bound, refinement agreement).
"""

from .asymptotics import (
    FarFieldFit,
    asymptotic_eval,
    asymptotic_y,
    asymptotic_z,
    expected_coefficients,
    fit_far_field,
)
from .model import (
    ModelParams,
    coeff_B,
    coeff_C,
    g_eval,
    g_invert,
    is_log_branch,
)
from .output import emit_report, parse_report, profile_document, scan_document
from .phase import PhaseTrajectory, phase_trajectory, slope_ode_residual, z_ode_residual
from .profile import RadialProfile, SolverError, solve_profile
from .series import OriginSeries, series_coefficients, series_eval
from .verify import (
    CheckReport,
    GradientScanReport,
    ScanSample,
    blow_down_deviation,
    check_blow_down,
    check_bounds,
    check_convexity,
    check_growth,
    check_pde_residual,
    check_phase_monotone,
    check_refinement_agreement,
    default_scan_geometry,
    run_battery,
    sample_ball,
    scan_gradient_bound,
)
from .cli import run_cli

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "FarFieldFit",
    "GradientScanReport",
    "ModelParams",
    "OriginSeries",
    "PhaseTrajectory",
    "RadialProfile",
    "ScanSample",
    "SolverError",
    "asymptotic_eval",
    "asymptotic_y",
    "asymptotic_z",
    "blow_down_deviation",
    "check_blow_down",
    "check_bounds",
    "check_convexity",
    "check_growth",
    "check_pde_residual",
    "check_phase_monotone",
    "check_refinement_agreement",
    "coeff_B",
    "coeff_C",
    "default_scan_geometry",
    "emit_report",
    "expected_coefficients",
    "fit_far_field",
    "g_eval",
    "g_invert",
    "is_log_branch",
    "parse_report",
    "phase_trajectory",
    "profile_document",
    "run_battery",
    "run_cli",
    "sample_ball",
    "scan_document",
    "scan_gradient_bound",
    "series_coefficients",
    "series_eval",
    "slope_ode_residual",
    "solve_profile",
    "z_ode_residual",
    "__version__",
]
