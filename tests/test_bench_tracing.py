import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}

# What bench/child.py does in a traced run, for three commands in one
# process: install the spans, run the CLI, read the layer metrics.
TRACED_RUN = """
import contextlib, io, json, sys
import tracing
from tdq import cli

recorder = tracing.Recorder()
caches = tracing.install(recorder)
out = io.StringIO()
root = recorder.open("cli")
with contextlib.redirect_stdout(out):
    codes = [cli.main(argv) for argv in (
        ["verify"], ["observables", "--steps", "5"], ["info", "--n", "0,1", "--steps", "3"])]
recorder.close(root)
metrics = tracing.layer_metrics(recorder.spans, caches, len(out.getvalue()))
json.dump({"codes": codes, "metrics": sorted(metrics), "expected": sorted(tracing.CHILD_METRICS),
           "failed": [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]},
          sys.stdout)
"""


def test_tracing_installs_on_the_source():
    # bench/tracing.py wraps tdq functions by module and name (among them
    # observables.phase, integrate.adaptive_simpson and the Gauss-Legendre
    # cache); renaming or deleting one must fail here, not only in a
    # traced benchmark run
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_traced_run_reports_every_child_metric():
    # the metrics also read what the wrapped calls return (a check's
    # `informational`, a table's len()) and the caches' cache_info()
    result = subprocess.run([sys.executable, "-c", TRACED_RUN],
                            env=ENV, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["failed"] == []
    assert report["metrics"] == report["expected"]
