"""Configuration validation, the run orchestrator, exit codes, and artifacts."""

import argparse
import csv
import json
import math
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest

import bohmpair.cli as cli
from bohmpair.analyses import ClaimCheck
from bohmpair.errors import ConfigurationError
from bohmpair.planewave import PlaneWavePair
from bohmpair.spherical import SlitPair


class TestValidateConfig:
    def test_minimal_fills_defaults(self):
        cfg = cli.validate_config('{"model": "planewave", "a": 1, "b": 0.5}')
        assert cfg.a == 1.0 and cfg.b == 0.5
        assert cfg.rel_tol == 1e-9
        assert cfg.box_length is None
        assert cfg.analyses == ["trajectories"]

    def test_negative_amplitude_names_field(self):
        with pytest.raises(ConfigurationError, match="^b:"):
            cli.validate_config({"b": -0.1})

    def test_vanishing_amplitudes_rejected(self):
        with pytest.raises(ConfigurationError, match="^a, b:"):
            cli.validate_config({"a": 0.0, "b": 0.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="wavelength"):
            cli.validate_config({"wavelength": 2.0})

    def test_model_analysis_mismatch(self):
        with pytest.raises(ConfigurationError, match="uniqueness"):
            cli.validate_config({"model": "spherical", "analyses": ["uniqueness"]})

    def test_unknown_analysis(self):
        with pytest.raises(ConfigurationError, match="analyses"):
            cli.validate_config({"analyses": ["everything"]})

    def test_bad_json(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            cli.validate_config("{not json")

    def test_bad_types(self):
        with pytest.raises(ConfigurationError, match="^n:"):
            cli.validate_config({"n": 2.5})
        with pytest.raises(ConfigurationError, match="^momentum:"):
            cli.validate_config({"momentum": 0.0})
        with pytest.raises(ConfigurationError, match="^model:"):
            cli.validate_config({"model": "cubic"})

    def test_sample_times_range(self):
        with pytest.raises(ConfigurationError, match="sample_times"):
            cli.validate_config({"t_end": 2.0, "sample_times": [5.0]})

    def test_comma_separated_analyses(self):
        cfg = cli.validate_config({"analyses": "uniqueness, constraints"})
        assert cfg.analyses == ["uniqueness", "constraints"]

    def test_round_trip(self):
        cfg = cli.validate_config({"model": "planewave", "a": 1.0, "b": 0.3,
                                   "n": 500, "seed": 9,
                                   "analyses": ["uniqueness", "equivariance"]})
        assert cli.validate_config(json.dumps(cfg.to_dict())) == cfg


NUMERIC_FIELDS = [f.name for f in fields(cli.RunConfig)
                  if f.type.split(" |")[0] in ("float", "int")]


def _run_parser() -> argparse.ArgumentParser:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["run"]


def _other_value(name: str) -> str:
    """A valid flag value for ``name`` that differs from its default."""
    default = getattr(cli.RunConfig(), name)
    if name == "model":
        return "spherical"
    if name == "analyses":
        return "constraints"
    if name == "output_dir":
        return "runs/elsewhere"
    return str(7 if default is None else default + 3)


class TestFieldTable:
    @pytest.mark.parametrize("model", [PlaneWavePair, SlitPair])
    def test_every_model_parameter_is_a_config_field(self, model):
        # build_model passes every model field from the config of that name.
        assert ({f.name for f in fields(model)}
                <= {f.name for f in fields(cli.RunConfig)})

    def test_every_field_but_sample_times_has_one_flag(self):
        actions = [a for a in _run_parser()._actions if a.dest not in ("help", "config")]
        dests = [a.dest for a in actions]
        names = [f.name for f in fields(cli.RunConfig)]
        assert sorted(dests) == sorted(n for n in names if n != "sample_times")
        assert all(len(a.option_strings) == 1 for a in actions)

    @pytest.mark.parametrize("name", [f.name for f in fields(cli.RunConfig)
                                      if f.name != "sample_times"])
    def test_flag_sets_field(self, name):
        flag = next(a.option_strings[0] for a in _run_parser()._actions if a.dest == name)
        args = cli.build_parser().parse_args(["run", flag, _other_value(name)])
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config") and v is not None}
        assert set(overrides) == {name}
        cfg = cli.validate_config(overrides)
        assert getattr(cfg, name) != getattr(cli.RunConfig(), name)

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_numeric_field_rejects_wrong_type(self, name):
        for bad in ("1.0", [1.0], True):
            with pytest.raises(ConfigurationError, match=f"^{name}: expected a number"):
                cli.validate_config({name: bad})

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_numeric_field_rejects_non_finite(self, name):
        for bad in (math.nan, math.inf, -math.inf, 10 ** 400):
            with pytest.raises(ConfigurationError, match=f"^{name}: must be finite"):
                cli.validate_config({name: bad})

    def test_non_finite_json_and_sample_times(self):
        with pytest.raises(ConfigurationError, match="^t_end: must be finite"):
            cli.validate_config('{"t_end": NaN}')
        with pytest.raises(ConfigurationError, match="^a: must be finite"):
            cli.validate_config('{"a": Infinity}')
        with pytest.raises(ConfigurationError, match="^sample_times: must be finite"):
            cli.validate_config({"sample_times": [1.0, math.nan]})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed: must be >= 0"):
            cli.validate_config({"seed": -1})
        assert cli.validate_config({"seed": 0}).seed == 0


ENSEMBLE_META_KEYS = {"acceptance_rate", "integrator", "model", "params", "prng", "sampler",
                      "sampling", "seed", "size", "survival_fraction", "t0"}


class TestRun:
    def test_single_wave_oracle_crosscheck(self, tmp_path):
        cfg = cli.validate_config({"model": "planewave", "a": 1.0, "b": 0.0,
                                   "analyses": ["oracle_crosscheck"],
                                   "output_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        claims = json.loads((tmp_path / "out" / "claims_report.json").read_text())
        by_id = {c["claim_id"]: c for c in claims}
        assert by_id["single_wave_limit"]["status"] == "pass"
        assert by_id["single_wave_limit"]["value"] < 1e-12
        assert by_id["velocity_oracle_agreement"]["status"] == "pass"

    def test_static_pair_trajectories(self, tmp_path):
        cfg = cli.validate_config({"model": "planewave", "a": 1.0, "b": 1.0,
                                   "analyses": ["trajectories"], "t_end": 1.0,
                                   "trajectory_count": 4, "trajectory_samples": 5,
                                   "output_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        with open(tmp_path / "out" / "trajectories.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 5
        assert all(float(r["v1x"]) == 0.0 for r in rows)
        x_by_member = {}
        for r in rows:
            x_by_member.setdefault(r["member_id"], set()).add(r["x1"])
        assert all(len(xs) == 1 for xs in x_by_member.values())  # static
        # A run without an ensemble counts the probe's terminations.
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["integrator"]["terminations"] == {"completed": 4}

    def test_composed_run_claims_and_meta(self, tmp_path):
        out = tmp_path / "out"
        cfg = cli.validate_config({
            "model": "planewave", "a": 1.0, "b": 0.2, "n": 800, "seed": 42,
            "t_end": 2.0,
            "analyses": ["uniqueness", "constraints", "equivariance",
                         "global_constraint", "density_discrepancy"],
            "output_dir": str(out)})
        assert cli.run(cfg) == 0
        claims = json.loads((out / "claims_report.json").read_text())
        ids = {c["claim_id"] for c in claims}
        assert {"separation_constraint_root_count", "separation_relation_conserved",
                "centre_of_mass_frozen", "initial_sampling_ks",
                "evolved_distribution_ks", "global_constant_point_mass_ks",
                "density_forms_gap"} <= ids
        assert all(c["paper_anchor"] for c in claims)
        assert (out / "ensemble.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 42
        assert meta["prng"] == "numpy-philox-4x64"
        assert meta["survival_fraction"] == 1.0
        assert meta["integrator"]["terminations"] == {"completed": 800}
        # Runs start at t = 0; meta.json keeps the key, and the config has no t0.
        assert meta["t0"] == 0.0 and "t0" not in meta["config"]

    @pytest.mark.parametrize("config, keys", [
        # A run without an ensemble records the trajectory probe's integrator.
        ({"analyses": ["trajectories"]}, {"integrator", "csv_blocks"}),
        # The oracle evaluates the normalized psi, so the norm is computed.
        ({"model": "spherical", "analyses": ["oracle_crosscheck"]}, {"norm"}),
        ({"b": 0.2, "analyses": ["global_constraint"]}, ENSEMBLE_META_KEYS | {"csv_blocks"}),
        ({"model": "spherical", "analyses": ["equivariance"], "t_end": 0.2},
         ENSEMBLE_META_KEYS | {"csv_blocks"}),
    ])
    def test_meta_keys(self, tmp_path, config, keys):
        out = tmp_path / "out"
        cfg = cli.validate_config({**config, "n": 200, "trajectory_count": 2,
                                   "trajectory_samples": 3, "output_dir": str(out)})
        assert cli.run(cfg) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta) == {"config", "created_utc", "package_version"} | keys
        # Each CSV written, by name, in one block: these files are below the
        # writer's split floor.
        assert meta.get("csv_blocks", {}) == {p.name: 1 for p in out.glob("*.csv")}

    def test_spherical_meta_params_and_norm(self, tmp_path):
        out = tmp_path / "out"
        cfg = cli.validate_config({"model": "spherical", "n": 200, "t_end": 0.2,
                                   "analyses": ["equivariance", "oracle_crosscheck"],
                                   "output_dir": str(out)})
        assert cli.run(cfg) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta["params"]) == {"wavenumber", "slit_offset", "box_length"}
        norm = meta["norm"]
        assert set(norm) == {"value", "error_bound"}
        assert 0.0 <= norm["error_bound"] <= 1e-10 * norm["value"]

    def test_spherical_oracle_at_large_wavenumber(self, tmp_path):
        # At k = 1e3 the default box is 0.04 wide and the sources lie outside
        # it, 0.5 away; a sampled norm there read 0 and the oracle divided by
        # it.  The claim's status is not pinned: it fails on the box's scale.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", "--model", "spherical", "--wavenumber", "1e3",
                             "--analysis", "oracle_crosscheck", "--output-dir", str(out)])
        assert code in (0, 2)
        assert json.loads((out / "meta.json").read_text())["norm"]["value"] > 0.0
        claims = {c["claim_id"]: c for c in json.loads((out / "claims_report.json").read_text())}
        assert math.isfinite(claims["velocity_oracle_agreement"]["value"])

    def test_spherical_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = cli.validate_config({
            "model": "spherical", "wavenumber": 5.0, "slit_offset": 0.5,
            "trajectory_count": 3, "trajectory_samples": 5, "t_end": 1.0,
            "analyses": ["trajectories", "constraints", "oracle_crosscheck"],
            "output_dir": str(out)})
        assert cli.run(cfg) == 0
        claims = json.loads((out / "claims_report.json").read_text())
        by_id = {c["claim_id"]: c for c in claims}
        assert by_id["mirror_manifold_preserved"]["status"] == "pass"
        assert by_id["axial_reading_deviation"]["status"] == "measured"
        assert by_id["phase_gradient_consistency"]["status"] == "pass"
        with open(out / "trajectories.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["z2"] != ""  # 3D columns populated

    def test_failing_claim_exits_two(self, tmp_path, monkeypatch):
        def fake_crosscheck(model, seed):
            return [ClaimCheck("forced", "none", "fail", 1.0, 0.5)]

        monkeypatch.setattr(cli, "oracle_crosscheck", fake_crosscheck)
        cfg = cli.validate_config({"analyses": ["oracle_crosscheck"],
                                   "output_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 2


class TestMain:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "planewave", "a": 1.0, "b": 0.5,
                                        "analyses": ["density_discrepancy"]}))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg_path), "--b", "0.0",
                         "--output-dir", str(out)])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["b"] == 0.0

    def test_zero_a_density_discrepancy_runs(self, tmp_path, capsys):
        # a = 0 < b is a valid pair; the b = 0 control is built at a = 1.
        out = tmp_path / "out"
        code = cli.main(["run", "--a", "0", "--b", "1", "--analysis", "density_discrepancy",
                         "--output-dir", str(out)])
        assert code == 0
        claims = {c["claim_id"]: c for c in
                  json.loads((out / "claims_report.json").read_text())}
        assert claims["density_forms_agree_single_wave"]["status"] == "pass"
        assert "Traceback" not in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = cli.main(["run", "--b", "-0.5", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "b:" in capsys.readouterr().err

    def test_integrator_keys_beyond_tolerances_and_cap_rejected(self, tmp_path, capsys):
        # hbar and mass are not settings: the models are in natural units.
        # Nor is t0: both models are stationary, so every run starts at t = 0.
        for raw, keys in (({"method": "rk45", "step": 0.01}, "method, step"),
                          ({"hbar": 1.0, "mass": 1.0}, "hbar, mass"),
                          ({"t0": 0.0}, "t0")):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            assert cli.main(["run", "--config", str(cfg_path)]) == 1
            assert (capsys.readouterr().err
                    == f"configuration error: unknown config keys: {keys}\n")

    def test_start_time_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--t0", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t0 1" in capsys.readouterr().err

    def test_truncated_planewave_probe_fails_conservation(self, tmp_path):
        # One step attempt stops every probe member at its first sample, where
        # both drifts read 0; the claims fail and keep that value.
        out = tmp_path / "out"
        assert cli.main(["run", "--b", "0.2", "--max-steps", "1",
                         "--analysis", "trajectories,constraints",
                         "--output-dir", str(out)]) == 2
        claims = {c["claim_id"]: c for c in json.loads((out / "claims_report.json").read_text())}
        for claim_id in ("centre_of_mass_frozen", "separation_relation_conserved"):
            assert claims[claim_id]["status"] == "fail"
            assert claims[claim_id]["value"] == 0.0
        with open(out / "trajectories.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 and all(r["truncated"] == "1" for r in rows)

    @pytest.mark.parametrize("below", [False, True])
    def test_output_dir_blocked_by_a_file_exits_one(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "out" if below else blocker
        assert cli.main(["run", "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: output_dir: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and blocker.read_text() == "kept"

    @pytest.mark.parametrize("artifact, analysis", [
        ("trajectories.csv", "trajectories"), ("ensemble.csv", "equivariance"),
        ("claims_report.json", "trajectories"), ("meta.json", "trajectories")])
    def test_artifact_blocked_by_a_directory_exits_one(self, tmp_path, capsys,
                                                       artifact, analysis):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert cli.main(["run", "--analysis", analysis, "--n", "20", "--t-end", "0.1",
                         "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"configuration error: output_dir: cannot write {out / artifact}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and (out / artifact).is_dir()

    def test_nan_claim_value_written_as_null(self, tmp_path):
        # Two step attempts truncate the constraint probe, so its later
        # samples, and the deviations over them, are NaN.
        out = tmp_path / "out"
        code = cli.main(["run", "--model", "spherical", "--max-steps", "2",
                         "--analysis", "constraints", "--output-dir", str(out)])
        assert code == 2

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((out / "claims_report.json").read_text(), parse_constant=refuse)
        claims = {c["claim_id"]: c for c in report}
        assert claims["mirror_manifold_preserved"]["status"] == "fail"
        assert claims["mirror_manifold_preserved"]["value"] is None

    def test_box_without_valid_states_exits_one(self, tmp_path, capsys):
        # Past ~1e77 the spherical node measure would overflow to NaN
        # everywhere; the model refuses such a box before any state is drawn.
        # A box of 0.1 about sources 1 apart holds almost none of the
        # density, so the rejection sampler gives up.
        for argv in (["--box-length", "1e200", "--analysis", "oracle_crosscheck"],
                     ["--box-length", "0.1", "--analysis", "equivariance",
                      "--n", "20", "--t-end", "0.1"]):
            code = cli.main(["run", "--model", "spherical", *argv,
                             "--output-dir", str(tmp_path / "out")])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error: box_length: ")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["--model", "spherical", "--wavenumber", "1e-40"],
        ["--model", "spherical", "--box-length", "1e40"],
        ["--box-length", "1e-170"], ["--box-length", "1e-160"], ["--momentum", "1e-300"]])
    def test_box_past_density_range_exits_one(self, tmp_path, capsys, argv):
        # Spherical: the far box corner R has R^8, which bounds the density's
        # squared distance product (r1A r2B r1B r2A)^2, past the float range.
        # With the default box of 40 / k, k L is 40 in the first case.
        # Plane-wave: the box area L^2, the order of the norm, underflows
        # (1 / norm divided by zero, or a subnormal density met the sampler)
        # or, with the default box of 20 / p, overflows.
        out = tmp_path / "out"
        assert cli.main(["run", *argv, "--analysis", "equivariance",
                         "--n", "20", "--t-end", "0.1", "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: box_length: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("momentum", ["1e-310", "1e-300", "7.4e-155"])
    def test_momentum_past_wavenumber_range_exits_one(self, tmp_path, capsys, momentum):
        # Inside a box that passes, the squared wavenumber (2p)^2 that the
        # separation CDF divides by underflows; at 1e-310, 1/p overflows too
        # and the norm was NaN, so no draw was ever accepted.
        out = tmp_path / "out"
        assert cli.main(["run", "--momentum", momentum, "--box-length", "1",
                         "--analysis", "equivariance", "--n", "20", "--t-end", "0.1",
                         "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: momentum: {float(momentum):.3g} ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_small_momentum_passes_sampling_ks(self, tmp_path, capsys):
        # At p L = 1e-8 the separation CDF keeps its interference term, so a
        # correct sample passes initial_sampling_ks (it read 0.054 against a
        # critical value of 0.036 when the term cancelled to 0).
        assert cli.main(["run", "--momentum", "1e-8", "--b", "0.2", "--box-length", "1",
                         "--analysis", "equivariance", "--n", "2000",
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert "[ok ] initial_sampling_ks" in capsys.readouterr().out

    @pytest.mark.parametrize("n, status", [("1", "meas"), ("2", "meas"), ("3", "ok ")])
    def test_sampling_ks_gated_only_where_it_can_fail(self, tmp_path, capsys, n, status):
        # The 99 % critical value 1.63/sqrt(n) is 1.63 at n = 1 and 1.15 at
        # n = 2, above any KS statistic, so there the claim is measured; at
        # n = 3 it is 0.94.  Too few members to compare the evolved ones.
        assert cli.main(["run", "--analysis", "equivariance", "--n", n, "--t-end", "0.1",
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert f"[{status}] initial_sampling_ks: " in capsys.readouterr().out
        claims = json.loads((tmp_path / "out" / "claims_report.json").read_text())
        claim = next(c for c in claims if c["claim_id"] == "initial_sampling_ks")
        assert (claim["tolerance"] is None) == (status == "meas")
        assert ("not gated" in claim["paper_anchor"]) == (status == "meas")

    def test_box_inside_density_range_runs(self, tmp_path):
        # R ~ 1.2e38, below the bound of ~3.4e38; a RuntimeWarning fails the test.
        assert cli.main(["run", "--model", "spherical", "--box-length", "1e38",
                         "--analysis", "equivariance", "--n", "20", "--t-end", "0.1",
                         "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_separation_relation_holds_near_equal_amplitudes(self, tmp_path, seed):
        # At b / a = 0.8 the relation weighs a separation's error by up to
        # (a + b) / (a - b) = 9; the probe's tightened rel_tol keeps it in 1e-6.
        out = tmp_path / "out"
        assert cli.main(["run", "--a", "1", "--b", "0.8", "--seed", str(seed),
                         "--trajectory-count", "32", "--trajectory-samples", "201",
                         "--analysis", "constraints", "--output-dir", str(out)]) == 0
        report = json.loads((out / "claims_report.json").read_text())
        claim = next(c for c in report if c["claim_id"] == "separation_relation_conserved")
        assert claim["status"] == "pass" and claim["value"] < 1e-6

    def test_amplitude_scale_leaves_artifacts_unchanged(self, tmp_path):
        # The model reads a and b through their ratio only: scaling both by a
        # power of two changes no bit of any claim or trajectory.
        outputs = []
        for scale in (1.0, 2.0 ** 600, 2.0 ** -600):
            out = tmp_path / repr(scale)
            assert cli.main(["run", "--a", repr(scale), "--b", repr(0.2 * scale),
                             "--trajectory-count", "4", "--trajectory-samples", "11",
                             "--analysis", "trajectories,constraints,oracle_crosscheck,"
                             "uniqueness,density_discrepancy",
                             "--output-dir", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("claims_report.json", "trajectories.csv")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_huge_amplitude_runs(self, tmp_path):
        assert cli.main(["run", "--a", "1e200", "--b", "0", "--output-dir",
                         str(tmp_path / "out"), "--analysis",
                         "trajectories,constraints,oracle_crosscheck,density_discrepancy"]) == 0

    def test_missing_config_file_exits_one(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 1

    @pytest.mark.parametrize("argv", [["--t-end", "nan"], ["--t-end", "inf"], ["--a", "inf"],
                                      ["--seed", "-1", "--analysis", "trajectories"]])
    def test_rejected_flag_values_exit_one(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("config accepted"))
        assert cli.main(["run", *argv]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("argv", [["--analysis", "uniqueness"],
                                      ["--analysis", "global_constraint", "--n", "200"]])
    def test_equal_amplitudes_rejected_by_relation_analyses(self, tmp_path, capsys, argv):
        # The separation relation divides by a^2 - b^2.
        out = tmp_path / "out"
        assert cli.main(["run", "--a", "1", "--b", "1", *argv, "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: a, b: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("analysis", ["equivariance", "constraints", "oracle_crosscheck"])
    def test_equal_amplitudes_other_analyses_run(self, tmp_path, analysis):
        assert cli.main(["run", "--a", "1", "--b", "1", "--analysis", analysis, "--n", "200",
                         "--trajectory-count", "2", "--trajectory-samples", "3",
                         "--t-end", "0.5", "--output-dir", str(tmp_path / "out")]) == 0

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes('{"output_dir": "caf\u00e9"}'.encode("latin-1"))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        for path in (tmp_path, not_utf8, bad_json):
            assert cli.main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith("configuration error: config: ")

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "bohmpair.cli", "run", "--model", "planewave",
             "--a", "1", "--b", "1", "--analysis", "trajectories",
             "--trajectory-count", "2", "--trajectory-samples", "3",
             "--t-end", "0.5", "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert (tmp_path / "out" / "trajectories.csv").exists()
