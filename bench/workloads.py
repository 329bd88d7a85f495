"""The three benchmark workloads: ``bohmpair run`` configurations made from
the workload seed, plus what a correct run of each must produce.

``planewave_ensemble`` (n=1e5) stresses the per-member Python loops, the one
batched integrator call and the CSV writer; ``spherical_ensemble`` the
rejection sampler and the six-dimensional field on large batches;
``claims_sweep`` many short ``solve_ivp`` restarts on small states plus the
oracle, uniqueness and Monte Carlo-norm work.  README.md gives the reasons
and which layer metric each workload should move.
"""

from __future__ import annotations

from pathlib import Path

PLANEWAVE_POINTS = ((1.0, 0.2), (1.0, 0.5), (0.3, 1.0), (1.0, 0.0))
SPHERICAL_POINTS = ((1.0, 0.5), (2.0, 0.5), (1.0, 1.0))

PLANEWAVE_SWEEP_ANALYSES = ["trajectories", "constraints", "oracle_crosscheck",
                            "uniqueness", "density_discrepancy"]
SPHERICAL_SWEEP_ANALYSES = ["trajectories", "constraints", "oracle_crosscheck"]

_UNIQUENESS_CLAIMS = ("separation_constraint_root_count", "uniqueness_monotone_condition",
                      "uniqueness_amplitude_ratio_condition", "uniqueness_conditions_agree",
                      "monotonicity_matches_condition")
_DENSITY_CLAIMS = ("density_forms_gap", "density_forms_agree",
                   "density_forms_agree_single_wave")
_PLANEWAVE_CONSTRAINT_CLAIMS = ("centre_of_mass_frozen", "separation_relation_conserved",
                                "separation_relation_printed_drift")
_SPHERICAL_SWEEP_CLAIMS = ("mirror_manifold_preserved", "axial_reading_deviation",
                           "velocity_oracle_agreement", "phase_gradient_consistency")

# Pass/fail claims decided by a 99 % Kolmogorov-Smirnov test.  A correct
# program trips one on about 1 % of seeds; such a run counts as failed (and
# is reported by claim id) but does not make the benchmark's result incorrect.
STATISTICAL_CLAIMS = frozenset({"initial_sampling_ks"})

# Keys meta.json must hold (its values carry timestamps, so only keys are
# checked).  Ensemble runs add the ensemble description.
META_KEYS = frozenset({"config", "package_version", "created_utc"})
ENSEMBLE_META_KEYS = META_KEYS | {"model", "params", "seed", "sampling", "prng", "size",
                                  "t0", "acceptance_rate", "survival_fraction",
                                  "integrator"}


class Workload:
    """A named list of run configurations and the checks a correct run meets.

    ``points`` holds, per ``cli.run`` call, the config fields other than seed
    and output directory, the artifact written besides claims_report.json and
    meta.json, and the claim ids the report must contain.  ``calls`` are exact
    traced span counts for every seed (``numerics.integrate_ode`` not counting
    per-member fallback calls); ``touched`` are spans that must be hit at
    least once.  Both catch a wrapper that missed a binding site.
    """

    def __init__(self, name, points, calls, touched):
        self.name = name
        self.points = points
        self.calls = calls
        self.touched = touched

    def configs(self, seed: int, out_root: Path) -> list[dict]:
        return [{**fields, "seed": seed, "output_dir": str(out_root / f"cfg{i}")}
                for i, (fields, _, _) in enumerate(self.points)]


def _planewave_sweep_point(a, b):
    claims = _PLANEWAVE_CONSTRAINT_CLAIMS + ("velocity_oracle_agreement",)
    if b == 0.0:
        claims += ("single_wave_limit",)
    fields = {"model": "planewave", "a": a, "b": b, "trajectory_count": 32,
              "trajectory_samples": 201, "analyses": PLANEWAVE_SWEEP_ANALYSES}
    return fields, "trajectories.csv", claims + _UNIQUENESS_CLAIMS + _DENSITY_CLAIMS


def _spherical_sweep_point(k, d):
    fields = {"model": "spherical", "wavenumber": k, "slit_offset": d,
              "trajectory_count": 32, "trajectory_samples": 201,
              "analyses": SPHERICAL_SWEEP_ANALYSES}
    return fields, "trajectories.csv", _SPHERICAL_SWEEP_CLAIMS


WORKLOADS = {w.name: w for w in (
    Workload(
        "planewave_ensemble",
        [({"model": "planewave", "a": 1.0, "b": 0.2, "n": 100_000, "t_end": 3.0,
           "analyses": ["equivariance", "global_constraint"]},
          "ensemble.csv",
          ("zero_time_spread", "zero_time_range", "global_constant_point_mass_ks",
           "zero_time_translation_invariance", "initial_sampling_ks",
           "survival_fraction", "evolved_distribution_ks"))],
        calls={"cli.run": 1, "ensemble.sample": 1, "ensemble.build": 1,
               "ensemble.evolve": 1, "ensemble.compare": 1, "ensemble.write_csv": 1,
               "numerics.integrate_ode": 1, "analyses.equivariance": 1,
               "analyses.global_constraint": 1},
        touched=("planewave.field", "planewave.density_batch", "planewave.inverse_flow")),
    Workload(
        "spherical_ensemble",
        [({"model": "spherical", "wavenumber": 1.0, "slit_offset": 0.5, "n": 5000,
           "t_end": 3.0, "analyses": ["equivariance"]},
          "ensemble.csv",
          ("initial_sampling_ks_two_sample", "survival_fraction",
           "evolved_distribution_ks"))],
        calls={"cli.run": 1, "ensemble.sample": 3, "spherical.density_bound": 3,
               "ensemble.build": 1, "ensemble.evolve": 1, "ensemble.compare": 1,
               "ensemble.write_csv": 1, "numerics.integrate_ode": 1,
               "analyses.equivariance": 1},
        touched=("spherical.field", "spherical.density_batch")),
    Workload(
        "claims_sweep",
        [_planewave_sweep_point(a, b) for a, b in PLANEWAVE_POINTS]
        + [_spherical_sweep_point(k, d) for k, d in SPHERICAL_POINTS],
        calls={"cli.run": 7, "analyses.trajectory_ensemble": 7, "analyses.constraints": 7,
               "analyses.oracle_crosscheck": 7, "analyses.uniqueness": 4,
               "analyses.density_discrepancy": 4, "ensemble.sample": 7,
               "ensemble.build": 7, "ensemble.evolve": 7, "ensemble.write_csv": 7,
               "numerics.integrate_ode": 10, "oracles.velocity_from_psi": 7,
               "oracles.phase_gradient": 3, "spherical.norm": 3,
               "spherical.density_bound": 3},
        touched=("planewave.field", "spherical.field", "planewave.density_batch",
                 "spherical.density_batch")),
)}
