"""Benchmark of the `tdq` CLI: timings next to accuracy, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one summary each

Each timed run is `tdq.cli.main(argv)` in a fresh single-threaded
interpreter (bench/child.py), so the lru_cache tables start cold, as a
CLI user sees them.  Runs repeat until --seconds is spent (at least
MIN_RUNS); timings are medians over the runs.  The outputs are then
checked: exit code, table shape and grid, byte identity across the runs
of one seed, no FAIL line from `verify`, and accuracy against mpmath
references computed outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
runs with runs whose layer boundaries are wrapped in spans (bench/tracing.py)
and reports the per-layer metrics, including the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the lines above it are a readable summary and the
machine record.  The exit code is nonzero, with no result line, when the
checkout holds no `tdq` source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import outputs
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0
CALIBRATION_LOOP = 1_000_000

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "accuracy_digits_min": "digits",
    "accuracy_digits_median": "digits",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", ".self_s", "large_x_s", "calibration_s")):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "s_closed_abs_err":
        return "nats"
    if name.endswith(("_frac", "margin")):
        return "ratio"
    return "count"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: this process's current CPU speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - start


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class Run:
    """One fresh-interpreter run of the CLI and what it left behind.

    Every run keeps the digest of its output; only a run made with
    keep_output=True keeps the bytes, for scoring.
    """

    def __init__(self, argv: list[str], traced: bool, workdir: Path, index: int,
                 keep_output: bool):
        self.traced = traced
        self.record: dict | None = None
        self.error: str | None = None
        out_path = workdir / f"out{index}"
        record_path = workdir / f"record{index}.json"
        command = [sys.executable, str(BENCH / "child.py"), str(record_path),
                   "1" if traced else "0", "--", *argv]
        with open(out_path, "wb") as out:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(command, stdout=out, stderr=subprocess.PIPE,
                                      env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
        self.duration = time.monotonic() - spawned
        output = out_path.read_bytes()
        out_path.unlink()
        self.digest = hashlib.sha256(output).hexdigest()
        self.output = output if keep_output else None
        if proc is None:
            self.error = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        elif proc.returncode != 0 or not record_path.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.error = f"runner exited {proc.returncode}: {' | '.join(tail)}"
        else:
            self.record = json.loads(record_path.read_text())
            record_path.unlink()
            self.setup_s = self.record["setup_end"] - spawned
            if self.record["code"] != 0:
                self.error = f"tdq exited with code {self.record['code']}"
            elif not Path(self.record["tdq_file"]).resolve().is_relative_to(SRC):
                self.error = f"imported tdq from {self.record['tdq_file']}, not {SRC}"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_outputs(workload: workloads.Workload, runs: list[Run],
                  seed: int) -> outputs.Accuracy | None:
    """Score the first well-formed output; every other run must match it byte for byte.

    Marks failing runs through `Run.error`; returns None when no run succeeded.
    """
    first = next((run for run in runs if run.error is None), None)
    if first is None:
        return None
    accuracy = None
    try:
        text = first.output.decode(errors="replace")
        if workload.command == "verify":
            failed_checks = outputs.parse_verify(text).failed
            if failed_checks:
                raise outputs.MalformedOutput("FAIL: " + ", ".join(failed_checks))
        levels = ({n: reference.level_constants(n) for n in workload.n}
                  if workload.command == "info" else None)
        accuracy = outputs.score(workload, text, seed, levels)
        if accuracy.wrong:
            raise outputs.MalformedOutput(
                f"an output value has fewer than {outputs.MIN_DIGITS} correct digits")
    except outputs.MalformedOutput as exc:
        first.error = str(exc)
    for run in runs:
        if run.error is None and run is not first:
            if run.digest != first.digest:
                run.error = "output bytes differ from another run with the same seed"
            elif first.error is not None:
                run.error = first.error
    return accuracy


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result object and print its summary."""
    workload = workloads.make(name, seed)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runs: list[Run] = []
    calibration: list[float] = []
    min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
    started = time.monotonic()
    try:
        while len(runs) < min_runs or (
                time.monotonic() - started + runs[-1].duration <= seconds):
            calibration.append(calibrate())
            traced = trace and len(runs) % 2 == 1
            keep = all(run.error is not None for run in runs)
            runs.append(Run(workload.argv, traced, workdir, len(runs), keep))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    accuracy = check_outputs(workload, runs, seed)
    failed = [run for run in runs if run.error is not None]

    recorded = [run for run in runs if run.record is not None]
    plain = [run for run in recorded if not run.traced]
    traced = [run for run in recorded if run.traced]
    samples: dict[str, list[float]] = {
        "wall_s": [run.record["wall_s"] for run in plain],
        "setup_s": [run.setup_s for run in plain],
        "peak_rss_mib": [run.record["peak_rss_mib"] for run in plain],
    }
    if accuracy is not None:
        samples["accuracy_digits_min"] = [min(accuracy.digits)]
        samples["accuracy_digits_median"] = [statistics.median(accuracy.digits)]
    units = dict(END_TO_END)
    if trace:
        for metric in tracing.CHILD_METRICS:
            samples[metric] = [run.record["layers"][metric] for run in traced]
        if plain and traced:
            samples["trace_overhead_frac"] = [
                statistics.median(r.record["wall_s"] for r in traced)
                / statistics.median(samples["wall_s"]) - 1.0]
        if accuracy is not None:
            samples["s_closed_abs_err"] = [accuracy.s_closed_abs_err]
            samples["verify_worst_margin"] = [accuracy.verify_worst_margin]
        samples["machine.calibration_s"] = calibration
        units.update({metric: per_layer_unit(metric) for metric in tracing.PER_LAYER})

    print(f"# workload {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"argv: tdq {' '.join(workload.argv)}")
    print(f"# machine {json.dumps(machine_record())} "
          f"calibration_s median={statistics.median(calibration):.4f}")
    print(f"# runs attempted={len(runs)} failed={len(failed)} "
          f"error_rate={len(failed) / len(runs):.3f}")
    for run in failed[:5]:
        print(f"# failure: {run.error}")
    for metric, values in samples.items():
        if values:
            q1, med, q3 = _quartiles(values)
            print(f"{metric:52s} {units[metric]:7s} n={len(values):<3d} "
                  f"median={med:.6g} q1={q1:.6g} q3={q3:.6g}")

    wanted = tracing.PER_LAYER if trace else tuple(END_TO_END)
    metrics = {metric: {"value": statistics.median(samples[metric]), "unit": units[metric]}
               for metric in wanted if samples.get(metric)}
    return {"correct": not failed and len(metrics) == len(wanted),
            "attempted": len(runs), "failed": len(failed), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tdq" / "cli.py").is_file():
        print(f"error: no tdq source under {SRC}; run from a tdq checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)} or all")

    results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, result in results.items()
                        for metric, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
