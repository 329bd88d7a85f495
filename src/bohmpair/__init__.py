"""Guidance-equation trajectories for two entangled two-particle models, with
conserved-quantity oracles, seeded ensemble statistics, and a claims report."""

__version__ = "0.1.0"

from .errors import (BracketError, ConfigurationError, DegenerateParametersError,
                     InsufficientSampleError, ModelDomainError)
from .numerics import (IntegratorConfig, IntegratorWork, Trajectory, TrajectoryBatch,
                       bracketed_root, integrate_ode, scan_roots)
from .planewave import PlaneWavePair
from .spherical import SlitPair
from .ensemble import (Ensemble, SamplerReport, build_ensemble, compare_distribution,
                       evolve_ensemble, ks_critical_value, ks_critical_value_two_sample,
                       ks_statistic, ks_two_sample, sample_configurations,
                       write_ensemble_csv, write_metadata)

__all__ = [
    "BracketError", "ConfigurationError", "DegenerateParametersError",
    "InsufficientSampleError", "ModelDomainError",
    "IntegratorConfig", "IntegratorWork", "Trajectory", "TrajectoryBatch",
    "bracketed_root", "integrate_ode", "scan_roots",
    "PlaneWavePair", "SlitPair",
    "Ensemble", "SamplerReport", "build_ensemble", "compare_distribution", "evolve_ensemble",
    "ks_critical_value", "ks_critical_value_two_sample", "ks_statistic", "ks_two_sample",
    "sample_configurations",
    "write_ensemble_csv", "write_metadata",
]
