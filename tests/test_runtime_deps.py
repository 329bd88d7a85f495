"""The package's runtime needs numpy only; scipy serves the tests as an
independent reference and must not come back into the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohmpair


def loaded_packages(code: str, package: str) -> str:
    """The modules of ``package`` loaded after running ``code`` in a fresh
    interpreter on this checkout's source."""
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    source_root = str(Path(bohmpair.__file__).resolve().parents[1])
    path = [source_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout.strip()


def test_import_loads_no_scipy():
    assert loaded_packages("import sys, bohmpair, bohmpair.cli", "scipy") == "[]"


def test_split_integration_loads_no_multiprocessing(tmp_path):
    # integrate_ode and write_ensemble_csv fork their blocks themselves:
    # importing multiprocessing would add ~0.3 MiB to the peak RSS of every
    # run that splits a batch.
    csv = str(tmp_path / "e.csv")
    code = ("import sys, numpy as np, bohmpair, bohmpair.cli; "
            "from bohmpair.ensemble import Ensemble, write_ensemble_csv; "
            "bohmpair.numerics._cpu_count = lambda: 2; "
            "y0 = np.ones((2 * bohmpair.numerics.MIN_BLOCK_ROWS, 2)); "
            "batch = bohmpair.integrate_ode(lambda t, y: y, y0, 0.0, 1.0); "
            "assert batch.work.blocks == 2; "
            "ensemble = Ensemble(**vars(batch), model=None, seed=0); "
            f"assert write_ensemble_csv({csv!r}, ensemble) == 2")
    assert loaded_packages(code, "multiprocessing") == "[]"


def test_cli_import_loads_no_multiprocessing_or_tempfile():
    # Every run pays for the modules the package imports (setup time and
    # peak RSS), and forking its blocks needs neither of these.  numpy
    # itself imports tempfile, so the check is that the package adds
    # neither to the modules numpy loads.
    for package in ("multiprocessing", "tempfile"):
        assert (loaded_packages("import sys, numpy, bohmpair.cli", package)
                == loaded_packages("import sys, numpy", package))
    assert loaded_packages("import sys, bohmpair.cli", "multiprocessing") == "[]"


def test_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, 1.2 MiB resident; the sample
    # grid, the probe's sample times and the CSV blocks dedupe without it.
    config = {"b": 0.2, "n": 200, "t_end": 0.5, "sample_times": [0.25],
              "trajectory_count": 4, "trajectory_samples": 5,
              "analyses": ["trajectories", "equivariance", "global_constraint"],
              "output_dir": str(tmp_path / "out")}
    code = f"import sys, bohmpair.cli as c; assert c.run(c.validate_config({config!r})) == 0"
    assert "'numpy.ma'" not in loaded_packages(code, "numpy")


@pytest.mark.parametrize("fields", [
    {"model": "planewave", "b": 0.2, "analyses": ["equivariance"]},
    {"model": "spherical", "wavenumber": 1.0, "slit_offset": 0.5, "analyses": ["equivariance"]},
    {"model": "planewave", "b": 0.2, "analyses": ["oracle_crosscheck"]},
    {"model": "spherical", "wavenumber": 1.0, "slit_offset": 0.5,
     "analyses": ["oracle_crosscheck"]},
], ids=["planewave-equivariance", "spherical-equivariance", "planewave-oracle",
        "spherical-oracle"])
def test_run_loads_no_numpy_random(tmp_path, fields):
    # Importing numpy's random module adds 5.3 MiB resident; the ensemble
    # sampler, the random valid states and the oracle's near-tangent draws
    # take their uniforms from bohmpair.prng instead.
    config = {**fields, "n": 200, "t_end": 0.5, "output_dir": str(tmp_path / "out")}
    code = f"import sys, bohmpair.cli as c; assert c.run(c.validate_config({config!r})) == 0"
    assert "'numpy.random'" not in loaded_packages(code, "numpy")
