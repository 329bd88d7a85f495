"""The package's runtime needs numpy only; scipy serves the tests as an
independent reference and must not come back into the package."""

import os
import subprocess
import sys
from pathlib import Path

import bohmpair


def test_import_loads_no_scipy():
    code = ("import sys, bohmpair, bohmpair.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    source_root = str(Path(bohmpair.__file__).resolve().parents[1])
    path = [source_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
