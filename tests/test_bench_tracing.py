import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_installs_on_the_source():
    # bench/tracing.py wraps tdq functions by module and name (among them
    # observables.phase, integrate.adaptive_simpson and the Gauss-Legendre
    # cache); renaming or deleting one must fail here, not only in a
    # traced benchmark run
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
