"""The package's runtime needs numpy only; scipy serves the tests as an
independent reference and must not come back into the package."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_split_integration_loads_no_multiprocessing():
    # integrate_ode forks its blocks itself: importing multiprocessing would
    # add ~0.3 MiB to the peak RSS of every run that splits a batch.
    code = ("import sys, numpy as np, bohmpair, bohmpair.cli; "
            "bohmpair.numerics._cpu_count = lambda: 2; "
            "y0 = np.ones((2 * bohmpair.numerics.MIN_BLOCK_ROWS, 2)); "
            "assert bohmpair.integrate_ode(lambda t, y: y, y0, 0.0, 1.0).work.blocks == 2")
    assert loaded_packages(code, "multiprocessing") == "[]"
