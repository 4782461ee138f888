"""Tests of the benchmark itself: span arithmetic, references, workloads, checks.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        ["cli", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 1.5, 2.0, 1, None],   # nested in a: not subtracted from cli
        ["c", 5.0, 9.0, 0, None],
        ["d", 6.0, 7.0, 3, None],
        ["e", 8.5, 9.0, 3, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, None],
             ["x", 1.0, 5.0, 0, None],
             ["y", 3.0, 7.0, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_nested_same_name_time_is_not_double_counted():
    spans = [["cli", 0.0, 10.0, -1, None],
             ["integrate.adaptive_simpson", 1.0, 5.0, 0, 3],
             ["integrate.adaptive_simpson", 2.0, 3.0, 1, 2]]
    metrics = tracing.layer_metrics(spans, {}, 0)
    assert metrics["cli.self_s"] == pytest.approx(6.0)
    assert metrics["integrate.adaptive_simpson.calls"] == 2
    assert metrics["integrate.adaptive_simpson.evals"] == 5


# --- references ------------------------------------------------------------

def test_ground_level_constants_match_closed_forms():
    s0, d0 = reference.level_constants(0)
    with mp.workdps(30):
        assert abs(d0 - reference.D0_GROUND) < 1e-18
        assert abs(mp.exp(s0) * d0 - reference.C_GROUND) < 1e-18
        assert abs(s0 - (1 + mp.log(mp.pi)) / 2) < 1e-18


def test_first_level_disequilibrium():
    _, d0 = reference.level_constants(1)
    with mp.workdps(30):
        assert abs(d0 - reference.D0_FIRST) < 1e-18


def test_lossless_amplitude_is_constant():
    # sigma0 = 0: beta = 1/2, J^2 + Y^2 = 2/(pi x), so rho = 1 and rho' = 0.
    for t in (0.0, 3.0, 49.0):
        rho, rho_dot = reference.rho(0.0, t)
        assert abs(rho - 1) < 1e-35
        assert abs(rho_dot) < 1e-35


def test_ground_state_density_at_origin():
    with mp.workdps(40):
        assert abs(reference.density(0, 0.0, mp.mpf(2)) - 1 / (2 * mp.sqrt(mp.pi))) < 1e-35


def test_digits_is_capped_at_one_ulp():
    assert reference.digits(1.0, mp.mpf(1)) == pytest.approx(-math.log10(2.0 ** -53))
    assert reference.digits(1.001, mp.mpf(1)) == pytest.approx(3.0, abs=1e-6)


# --- workloads -------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_flags(name):
    assert workloads.make(name, 7).argv == workloads.make(name, 7).argv


@pytest.mark.parametrize("name", ["amplitude_sweep", "info_levels", "density_table"])
def test_different_seeds_draw_different_sigma0(name):
    a, b = workloads.make(name, 1), workloads.make(name, 2)
    assert a.sigma0 != b.sigma0
    for w in (a, b):
        assert all(workloads.SIGMA0_RANGE[0] <= float(s) <= workloads.SIGMA0_RANGE[1]
                   for s in w.sigma0)


def test_amplitude_sweep_keeps_the_near_integer_order():
    assert workloads.NEAR_INTEGER_SIGMA0 in workloads.make("amplitude_sweep", 3).sigma0


# --- output checks ---------------------------------------------------------

def _density_table(workload, rows=None):
    grid = outputs._grid_columns(workload)
    lines = [f"# command=density x", ",".join(workload.columns)]
    count = workload.expected_rows() if rows is None else rows
    for i in range(count):
        lines.append(",".join(repr(float(grid[c][i])) if c in grid else "0.5"
                              for c in workload.columns))
    return "\n".join(lines) + "\n"


def _small_density():
    return workloads.Workload("density", sigma0=("2.5", "0.5"), n=(0, 1),
                              t_range=(0.5, 2.0, 3), q_range=(-1.0, 1.0, 5))


def test_well_formed_table_parses():
    workload = _small_density()
    assert outputs.parse_table(_density_table(workload), workload).shape == (60, 5)


def test_short_table_is_malformed():
    workload = _small_density()
    with pytest.raises(outputs.MalformedOutput):
        outputs.parse_table(_density_table(workload, rows=59), workload)


def test_table_off_grid_is_malformed():
    workload = _small_density()
    text = _density_table(workload).replace("\n0.5,0.5,0.0,-1.0,", "\n0.5,0.5,0.0,-0.9,", 1)
    with pytest.raises(outputs.MalformedOutput):
        outputs.parse_table(text, workload)


VERIFY_TEXT = """\
PASS pinney_residual_analytic  residual=5.325e-07 tol=1.0e-06
FAIL lc_limit  residual=2.000e-12 tol=1.0e-12
PASS complexity_constancy  residual=3.331e-15 tol=1.0e-07  [C(n=0)=1.165821990799]
INFO lmc_complexity_lower_bound  residual=5.000e-01 tol=1.0e-09  [monitored, not asserted]
3/4 checks passed
failed checks: lc_limit
"""


def test_verify_report_fail_lines_and_margins():
    report = outputs.parse_verify(VERIFY_TEXT)
    assert report.failed == ["lc_limit"]
    assert report.margins["pinney_residual_analytic"] == pytest.approx(0.5325)
    assert "lmc_complexity_lower_bound" not in report.margins
    assert report.c_ground == 1.165821990799


def test_verify_report_needs_summary():
    with pytest.raises(outputs.MalformedOutput):
        outputs.parse_verify(VERIFY_TEXT.replace("3/4", "3/5"))


# --- the benchmark's contract ------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in tracing.PER_LAYER}


def test_traced_child_reports_every_layer_metric():
    workdir = ROOT / ".bench_work" / "test"
    workdir.mkdir(parents=True, exist_ok=True)
    record = workdir / "record.json"
    out = workdir / "out.csv"
    with open(out, "wb") as handle:
        subprocess.run([sys.executable, str(BENCH / "child.py"), str(record), "1", "--",
                        "info", "--sigma0", "2", "--n", "0,2", "--steps", "3"],
                       stdout=handle, env=run._child_env(), check=True, timeout=120)
    layers = json.loads(record.read_text())["layers"]
    assert set(layers) == set(tracing.CHILD_METRICS)
    assert layers["information.closed_form.calls"] == 6
    assert layers["dynamics.rho_analytic.distinct_frac"] == pytest.approx(0.5)
    assert layers["cli.write_table.rows"] == 6
    assert layers["cli.write_table.bytes"] == out.stat().st_size
    shutil.rmtree(workdir)
