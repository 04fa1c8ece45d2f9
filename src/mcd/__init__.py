"""Mean-field cluster dynamics.

Simulation and exact verification toolkit for the mean-field Potts and
random-cluster models: Swendsen-Wang, Chayes-Machta and single-bond heat-bath
(Glauber) dynamics, the analytic critical points and drift maps, exact
small-system transition kernels, and the metastability experiments built on
top of them.
"""

from .model import (
    ModelParams,
    SpinConfig,
    EdgeConfig,
    ClusterPartition,
    cluster_decompose,
    s_m_vertices,
    in_balanced_set,
    in_ordered_set,
)
from .analytic import (
    RegimeError,
    CriticalPoints,
    DriftFixedPoints,
    critical_points,
    theta_giant,
    theta_r,
    theta_min,
    theta_star,
    a_fixed_point,
    sw_drift,
    cm_drift,
    drift_fixed_points,
)
from .rng import RngStream, replica_seed
from .dynamics import (
    Trajectory,
    ObservationRecord,
    sample_gnp,
    percolate_within_classes,
    recolor_clusters,
    sw_step,
    cm_step,
    glauber_step,
    run_chain,
)
from .report import ExperimentReport, ReportCell, write_report
from .experiments import (
    balanced_spins,
    ordered_spins,
    spins_with_majority,
    one_step_exit,
    escape_time,
    sw_drift_map,
    cm_drift_map,
    sm_tail,
    cluster_tail_bound,
    giant_concentration,
    bimodality_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "SpinConfig",
    "EdgeConfig",
    "ClusterPartition",
    "cluster_decompose",
    "s_m_vertices",
    "in_balanced_set",
    "in_ordered_set",
    "RegimeError",
    "CriticalPoints",
    "DriftFixedPoints",
    "critical_points",
    "theta_giant",
    "theta_r",
    "theta_min",
    "theta_star",
    "a_fixed_point",
    "sw_drift",
    "cm_drift",
    "drift_fixed_points",
    "RngStream",
    "replica_seed",
    "Trajectory",
    "ObservationRecord",
    "sample_gnp",
    "percolate_within_classes",
    "recolor_clusters",
    "sw_step",
    "cm_step",
    "glauber_step",
    "run_chain",
    "ExperimentReport",
    "ReportCell",
    "write_report",
    "balanced_spins",
    "ordered_spins",
    "spins_with_majority",
    "one_step_exit",
    "escape_time",
    "sw_drift_map",
    "cm_drift_map",
    "sm_tail",
    "cluster_tail_bound",
    "giant_concentration",
    "bimodality_scan",
    "__version__",
]
