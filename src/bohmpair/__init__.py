"""Guidance-equation trajectories for two entangled two-particle models, with
conserved-quantity oracles, seeded ensemble statistics, and a claims report."""

__version__ = "0.1.0"

from .errors import (BracketError, ConfigurationError, DegenerateParametersError,
                     InsufficientSampleError, ModelDomainError)
from .numerics import (IntegratorConfig, IntegratorWork, RootScanReport, Trajectory,
                       TrajectoryBatch, bracketed_root, integrate_ode, scan_roots)
from .planewave import PlaneWavePair, UniquenessReport
from .spherical import ConstraintReadings, SlitPair
from .ensemble import (DistributionReport, Ensemble, GlobalConstraintReport,
                       SamplerReport, build_ensemble, compare_distribution,
                       evolve_ensemble, global_constraint_analysis, ks_critical_value,
                       ks_critical_value_two_sample, ks_statistic, ks_two_sample,
                       quadrature_cdf, sample_configurations, separation_marginal,
                       write_ensemble_csv, write_metadata)

__all__ = [
    "BracketError", "ConfigurationError", "DegenerateParametersError",
    "InsufficientSampleError", "ModelDomainError",
    "IntegratorConfig", "IntegratorWork", "RootScanReport", "Trajectory", "TrajectoryBatch",
    "bracketed_root", "integrate_ode", "scan_roots",
    "PlaneWavePair", "UniquenessReport", "ConstraintReadings", "SlitPair",
    "DistributionReport", "Ensemble", "GlobalConstraintReport", "SamplerReport",
    "build_ensemble", "compare_distribution", "evolve_ensemble",
    "global_constraint_analysis", "ks_critical_value", "ks_critical_value_two_sample",
    "ks_statistic", "ks_two_sample", "quadrature_cdf", "sample_configurations",
    "separation_marginal", "write_ensemble_csv", "write_metadata",
]
