"""Command-line front door: validate a flat JSON configuration, run the
requested analyses, and write CSV/JSON artifacts plus a consolidated claims
report.

Exit codes: 0 on success, 1 on configuration errors, 2 when any checked
claim fails its tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .analyses import (ClaimCheck, constraint_claims, density_discrepancy_claims,
                       equivariance_claims, global_constraint_claims,
                       oracle_crosscheck, trajectory_ensemble, uniqueness_claims)
from .ensemble import build_ensemble, integrator_metadata, write_ensemble_csv, write_metadata
from .errors import ConfigurationError
from .numerics import IntegratorConfig
from .planewave import PlaneWavePair
from .spherical import SlitPair

ANALYSES = ("trajectories", "constraints", "uniqueness", "equivariance",
            "global_constraint", "oracle_crosscheck", "density_discrepancy")
PLANEWAVE_ONLY = frozenset({"uniqueness", "global_constraint", "density_discrepancy"})
# Plane-wave analyses built on the separation relation, which divides by
# a^2 - b^2.
UNEQUAL_AMPLITUDES_ONLY = frozenset({"uniqueness", "global_constraint"})
MODELS = ("planewave", "spherical")


@dataclass
class RunConfig:
    """Fully validated, default-filled run configuration (flat schema).

    Units are natural (hbar = m = 1), so neither is a field, and runs start at
    t = 0, as both models are stationary states.  Defaults:
    box_length of 20/p (plane-wave) or 40/k (spherical) when left null,
    adaptive integrator at rel_tol 1e-9.
    """

    model: str = "planewave"
    a: float = 1.0
    b: float = 0.0
    momentum: float = 1.0
    wavenumber: float = 1.0
    slit_offset: float = 0.5
    box_length: float | None = None
    n: int = 1000
    seed: int = 0
    t_end: float = 3.0
    sample_times: list[float] | None = None
    trajectory_count: int = 8
    trajectory_samples: int = 101
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000
    analyses: list[str] = field(default_factory=lambda: ["trajectories"])
    output_dir: str = "runs/latest"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FieldRule:
    """One :class:`RunConfig` field's ``bohmpair run`` flag (``flag``, else
    the field name with ``-`` for ``_``) and checks: ``kind`` is ``float`` or
    ``int`` (a finite number), a tuple of choices, or ``str`` (checked by hand
    in ``validate_config``); ``minimum``, ``positive`` (> 0) and ``nullable``
    (None allowed) bound it."""

    kind: object
    minimum: int | None = None
    positive: bool = False
    nullable: bool = False
    flag: str | None = None
    help: str | None = None

    def check(self, name: str, value):
        """``value`` converted to the field's kind; raises naming the field."""
        if (value is None and self.nullable) or self.kind is str:
            return value
        if isinstance(self.kind, tuple):
            if value not in self.kind:
                raise ConfigurationError(f"{name}: must be one of {self.kind}, got {value!r}")
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{name}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:   # NaN, +-inf, or an int past float range
            raise ConfigurationError(f"{name}: must be finite")
        if self.kind is int and int(value) != value:
            raise ConfigurationError(f"{name}: expected an integer, got {value!r}")
        if self.positive and not value > 0:
            raise ConfigurationError(f"{name}: must be > 0 (got {value})")
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(f"{name}: must be >= {self.minimum} (got {value})")
        return self.kind(value)


# One rule per RunConfig field, in field order; ``sample_times`` is set from
# a config file only.
FIELD_RULES = {
    "model": FieldRule(MODELS),
    "a": FieldRule(float, minimum=0),
    "b": FieldRule(float, minimum=0),
    "momentum": FieldRule(float, positive=True),
    "wavenumber": FieldRule(float, positive=True),
    "slit_offset": FieldRule(float, positive=True),
    "box_length": FieldRule(float, positive=True, nullable=True),
    "n": FieldRule(int, minimum=1),
    "seed": FieldRule(int, minimum=0),
    "t_end": FieldRule(float),
    "trajectory_count": FieldRule(int, minimum=1),
    "trajectory_samples": FieldRule(int, minimum=2),
    "rel_tol": FieldRule(float, positive=True),
    "abs_tol": FieldRule(float, positive=True),
    "max_steps": FieldRule(int, minimum=1),
    "analyses": FieldRule(str, flag="--analysis",
                          help="comma-separated subset of: " + ", ".join(ANALYSES)),
    "output_dir": FieldRule(str),
}


def validate_config(raw) -> RunConfig:
    """Parse and validate a configuration given as JSON text or a mapping.

    Fills defaults, rejects unknown keys, range-checks every field, and
    refuses analyses that do not apply to the chosen model.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")

    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")

    data = {**RunConfig().to_dict(), **raw}
    for name, rule in FIELD_RULES.items():
        data[name] = rule.check(name, data[name])
    if data["model"] == "planewave" and data["a"] == data["b"] == 0:
        raise ConfigurationError("a, b: at least one amplitude must be positive")

    if data["sample_times"] is not None:
        if not isinstance(data["sample_times"], (list, tuple)):
            raise ConfigurationError("sample_times: expected a list of numbers")
        data["sample_times"] = [FieldRule(float).check("sample_times", v)
                                for v in data["sample_times"]]
        lo, hi = sorted((0.0, data["t_end"]))
        for v in data["sample_times"]:
            if v < lo or v > hi:
                raise ConfigurationError(
                    f"sample_times: {v} lies outside [{lo}, {hi}]")

    analyses = data["analyses"]
    if isinstance(analyses, str):
        analyses = [s.strip() for s in analyses.split(",") if s.strip()]
    if not isinstance(analyses, (list, tuple)) or not analyses:
        raise ConfigurationError("analyses: expected a non-empty list")
    for name in analyses:
        if name not in ANALYSES:
            raise ConfigurationError(
                f"analyses: unknown analysis {name!r}; valid: {', '.join(ANALYSES)}")
        if name in PLANEWAVE_ONLY and data["model"] != "planewave":
            raise ConfigurationError(
                f"analyses: {name!r} applies to the planewave model only")
        if name in UNEQUAL_AMPLITUDES_ONLY and data["a"] == data["b"]:
            raise ConfigurationError(
                f"a, b: analysis {name!r} requires unequal amplitudes (a != b)")
    data["analyses"] = list(analyses)

    if not isinstance(data["output_dir"], str) or not data["output_dir"]:
        raise ConfigurationError("output_dir: expected a non-empty string")
    return RunConfig(**data)


def build_model(config: RunConfig):
    """The configured model, given the config field of each of its parameters
    (every model parameter is a config field)."""
    cls = PlaneWavePair if config.model == "planewave" else SlitPair
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


def integrator_config(config: RunConfig) -> IntegratorConfig:
    return IntegratorConfig(**{f.name: getattr(config, f.name)
                                for f in fields(IntegratorConfig)})


@contextlib.contextmanager
def _artifact(path: Path):
    """Yield ``path``; an OSError from writing it (a directory in the way, no
    permission, a full disk) becomes a configuration error naming
    ``output_dir``."""
    try:
        yield path
    except OSError as exc:
        raise ConfigurationError(f"output_dir: cannot write {path}: "
                                 f"{exc.strerror or exc}") from exc


def run(config: RunConfig) -> int:
    """Execute the configured analyses and write artifacts to ``output_dir``:
    ``claims_report.json`` and ``meta.json`` always, ``trajectories.csv`` for
    trajectory-level analyses, ``ensemble.csv`` for ensemble-level ones."""
    model = build_model(config)
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigurationError(f"output_dir: cannot make {out}: {exc.strerror}") from exc
    cfg = integrator_config(config)
    claims: list[ClaimCheck] = []
    probe = ensemble_for_meta = None
    csv_blocks = {}

    if {"trajectories", "constraints"} & set(config.analyses):
        probe = trajectory_ensemble(model, config.trajectory_count, config.seed,
                                    config.t_end, cfg, samples=config.trajectory_samples,
                                    sample_times=config.sample_times)
        with _artifact(out / "trajectories.csv") as path:
            csv_blocks[path.name] = write_ensemble_csv(path, probe)
        if "constraints" in config.analyses:
            claims.extend(constraint_claims(model, probe))
    if "oracle_crosscheck" in config.analyses:
        claims.extend(oracle_crosscheck(model, seed=config.seed + 1_000_003))
    if "uniqueness" in config.analyses:
        claims.extend(uniqueness_claims(model))
    if "density_discrepancy" in config.analyses:
        claims.extend(density_discrepancy_claims(model))

    if {"equivariance", "global_constraint"} & set(config.analyses):
        ens0 = build_ensemble(model, config.n, config.seed)
        ensemble_for_meta = ens0
        if "global_constraint" in config.analyses:
            claims.extend(global_constraint_claims(ens0))
        if "equivariance" in config.analyses:
            eq_claims, evolved = equivariance_claims(ens0, config.t_end, cfg,
                                                     sample_times=config.sample_times)
            claims.extend(eq_claims)
            ensemble_for_meta = evolved
        with _artifact(out / "ensemble.csv") as path:
            csv_blocks[path.name] = write_ensemble_csv(path, ensemble_for_meta)

    with _artifact(out / "claims_report.json") as path, open(path, "w") as fh:
        json.dump([c.to_dict() for c in claims], fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    extra = {"config": config.to_dict(), "package_version": __version__}
    if csv_blocks:
        extra["csv_blocks"] = csv_blocks
    if ensemble_for_meta is None and probe is not None:
        extra["integrator"] = integrator_metadata(probe)
    # The spherical norm is reported only if the run needed it.
    norm = model.computed_norm() if model.tag == "spherical" else None
    if norm is not None:
        extra["norm"] = norm
    with _artifact(out / "meta.json") as path:
        write_metadata(path, ensemble_for_meta, extra=extra)

    failed = [c for c in claims if c.status == "fail"]
    for c in claims:
        marker = {"pass": "ok ", "fail": "FAIL", "measured": "meas"}[c.status]
        print(f"[{marker}] {c.claim_id}: {c.value}"
              + (f" (tol {c.tolerance})" if c.tolerance is not None else ""))
    if failed:
        print(f"{len(failed)} claim(s) failed; see claims_report.json", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohmpair",
        description="Guided two-particle pair models: simulate, verify, report.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run analyses from a config file and/or flag overrides")
    p.add_argument("--config", help="path to a flat JSON config file")
    for name, rule in FIELD_RULES.items():
        kind = {"choices": rule.kind} if isinstance(rule.kind, tuple) else {"type": rule.kind}
        p.add_argument(rule.flag or "--" + name.replace("_", "-"), dest=name,
                       help=rule.help, **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw: dict = {}
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
                raw = json.loads(text) if text.strip() else {}
            except (OSError, ValueError) as exc:   # unreadable, not UTF-8, or not JSON
                raise ConfigurationError(f"config: cannot load {args.config}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigurationError("config: file must contain a JSON object")
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config") and v is not None}
        config = validate_config({**raw, **overrides})
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
