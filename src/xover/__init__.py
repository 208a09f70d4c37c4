"""Crossover designs balanced for carryover effects, and how much
precision they lose when subjects drop out.

The package constructs uniform balanced designs (Williams squares and
pairs, replications and unions, the all-sequences design), assembles
the information matrices of direct and carryover treatment effects for
complete, truncated, and arbitrarily ragged layouts, and evaluates
connectedness, worst-case precision loss, and the closed-form bounds
that govern it.
"""

from .construct import (
    extreme_design,
    fixture,
    relabel,
    replicate,
    union,
    williams_pair,
    williams_square,
)
from .designs import (
    CrossoverDesign,
    DropoutPattern,
    check_type_wm,
    classify,
    coincidence,
    incidences,
    parse_design,
    parse_pattern,
    period_slice,
    truncate,
    truncation,
    validate_ubrmd,
    write_design,
)
from .info import (
    JointInfo,
    MinimalClosedForm,
    direct_info,
    direct_info_complete,
    direct_info_minimal,
    direct_info_pattern,
    direct_info_patterns,
    estimable,
    joint_info_orthogonal,
    joint_info_projection,
    minimal_closed_form,
    residual_info,
    residual_info_minimal_m1,
)
from .linalg import cycle_type, eigensym, is_psd, moore_penrose
from .metrics import (
    a_criteria,
    a_criterion,
    bounds_report,
    class_ab_ml,
    class_ab_spectrum,
    connect_condition,
    efficiency_bounds,
    efficiency_lower_bound,
    el_ab,
    extreme_ml,
    loss,
    max_loss,
    mtr,
    t_star,
    theta_lower,
    theta_lower_star,
    uml,
)
from .simulate import DropoutModel, SimulationResult, enumerate_exact, simulate

__version__ = "0.1.0"

__all__ = [
    "CrossoverDesign",
    "DropoutPattern",
    "DropoutModel",
    "JointInfo",
    "MinimalClosedForm",
    "SimulationResult",
    "a_criteria",
    "a_criterion",
    "bounds_report",
    "check_type_wm",
    "class_ab_ml",
    "class_ab_spectrum",
    "classify",
    "coincidence",
    "connect_condition",
    "cycle_type",
    "direct_info",
    "direct_info_complete",
    "direct_info_minimal",
    "direct_info_pattern",
    "direct_info_patterns",
    "efficiency_bounds",
    "efficiency_lower_bound",
    "eigensym",
    "el_ab",
    "enumerate_exact",
    "estimable",
    "extreme_design",
    "extreme_ml",
    "fixture",
    "incidences",
    "is_psd",
    "joint_info_orthogonal",
    "joint_info_projection",
    "loss",
    "max_loss",
    "minimal_closed_form",
    "moore_penrose",
    "mtr",
    "parse_design",
    "parse_pattern",
    "period_slice",
    "relabel",
    "replicate",
    "residual_info",
    "residual_info_minimal_m1",
    "simulate",
    "t_star",
    "theta_lower",
    "theta_lower_star",
    "truncate",
    "truncation",
    "uml",
    "union",
    "validate_ubrmd",
    "williams_pair",
    "williams_square",
    "write_design",
]
