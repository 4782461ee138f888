import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tdq import cli, errors, float17, information, observables, special_functions, verify
from tdq.cli import RunConfig, _fmt, main
from tdq.float17 import CHUNK
from tdq.information import MeasureSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_output(got, want):
    """got == want for two str or two bytes, by sha256 digest.  A bare ==
    lets pytest diff multi-MB outputs for minutes on a mismatch; this
    fails at once, naming the first line where the two differ."""
    assert type(got) is type(want), (type(got), type(want))
    raw = [v.encode() if isinstance(v, str) else v for v in (got, want)]
    if hashlib.sha256(raw[0]).digest() == hashlib.sha256(raw[1]).digest():
        return
    got_lines, want_lines = (v.splitlines(keepends=True) for v in raw)
    i = next((k for k, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
             min(len(got_lines), len(want_lines)))
    got_line, want_line = (lines[i][:200] if i < len(lines) else b"<end>"
                           for lines in (got_lines, want_lines))
    pytest.fail(f"outputs differ at line {i + 1}: got {got_line!r}, want {want_line!r}",
                pytrace=False)


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


DEFAULT_META = {
    "rho": "command=rho sigma0=2 A=1 eps0=1 c=1 lambdaL=1 t0=0 t1=5 steps=101",
    "observables": "command=observables sigma0=0.40000000000000002,0.59999999999999998,"
                   "0.80000000000000004 A=1 eps0=1 c=1 lambdaL=1 hbar=1 n=0 t0=0 t1=5 "
                   "steps=101",
    "density": "command=density sigma0=1.5 A=1 eps0=1 c=1 lambdaL=1 hbar=1 n=0 t0=0 t1=1 "
               "steps=3 qmin=-6 qmax=6 qpoints=401",
    "info": "command=info sigma0=2,2.5,3 A=1 eps0=1 c=1 lambdaL=1 hbar=1 n=0 t0=0 t1=2 "
            "steps=51",
}


class TestRho:
    def test_header_and_defaults(self, capsys):
        code, out, _ = run(capsys, "rho")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,sigma0,rho,rho_dot,L,omega_sq"
        header, rows = parse_csv(out)
        first = dict(zip(header, rows[0]))
        assert first["t"] == 0.0
        assert first["L"] == 1.0

    def test_lc_limit_constant_rho(self, capsys):
        code, out, _ = run(capsys, "rho", "--sigma0", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert all(abs(v - 1.0) < 1e-12 for v in column(header, rows, "rho"))

    def test_near_integer_order_at_large_argument(self, capsys):
        # order (1 + sigma0)/2 within 5e-10 of 2, Bessel argument 41..50
        code, out, _ = run(capsys, "rho", "--sigma0", "2.999999999",
                           "--t0", "40", "--t1", "49", "--steps", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            r = dict(zip(header, row))
            rho, rho_dot = oracles.rho_mp(2.999999999, r["t"])
            assert abs(r["rho"] - rho) <= 1e-14 * abs(rho)
            assert abs(r["rho_dot"] - rho_dot) <= 1e-14 * abs(rho_dot)

    def test_near_integer_order_at_small_argument(self, capsys):
        # order (1 + sigma0)/2 within 5e-10 of 2, Bessel argument 1..19
        code, out, _ = run(capsys, "rho", "--sigma0", "2.999999999",
                           "--t0", "0", "--t1", "18", "--steps", "7")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 7
        for row in rows:
            r = dict(zip(header, row))
            rho, rho_dot = oracles.rho_mp(2.999999999, r["t"])
            assert abs(r["rho"] - rho) <= 1e-14 * abs(rho)
            assert abs(r["rho_dot"] - rho_dot) <= 1e-14 * abs(rho_dot)

    def test_sigma_sweep_sorted(self, capsys):
        code, out, _ = run(capsys, "rho", "--sigma0", "3,0.5", "--steps", "3")
        assert code == 0
        header, rows = parse_csv(out)
        sigmas = column(header, rows, "sigma0")
        assert sigmas == sorted(sigmas)


class TestObservables:
    def test_columns_and_bounds(self, capsys):
        code, out, _ = run(capsys, "observables", "--steps", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "sigma0", "n", "q2", "phi2", "dq_dphi",
                          "energy", "energy_per_level"]
        ns = column(header, rows, "n")
        for bound, value in zip(ns, column(header, rows, "dq_dphi")):
            assert value >= (bound + 0.5) - 1e-12

    def test_energy_per_level_matches_energy(self, capsys):
        code, out, _ = run(capsys, "observables", "--n", "0,2", "--steps", "5")
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            r = dict(zip(header, row))
            assert r["energy_per_level"] == pytest.approx(
                r["energy"] / (r["n"] + 0.5), rel=1e-15)


class TestDensity:
    def test_profiles_normalized(self, capsys):
        code, out, _ = run(capsys, "density", "--qmin", "-8", "--qmax", "8",
                           "--qpoints", "801")
        assert code == 0
        header, rows = parse_csv(out)
        by_time = {}
        for row in rows:
            r = dict(zip(header, row))
            by_time.setdefault(r["t"], []).append((r["q"], r["P"]))
        assert len(by_time) == 3
        for points in by_time.values():
            qs = [p[0] for p in points]
            ps = [p[1] for p in points]
            trapezoid = sum((ps[i] + ps[i + 1]) * (qs[i + 1] - qs[i]) / 2.0
                            for i in range(len(qs) - 1))
            assert trapezoid == pytest.approx(1.0, abs=1e-6)

    def test_defaults_cover_the_density(self, capsys):
        code, _, err = run(capsys, "density")
        assert code == 0
        assert err == ""

    def test_narrow_grid_warns_on_stderr(self, capsys):
        code, _, err = run(capsys, "density", "--qmin", "-0.5", "--qmax", "0.5")
        assert code == 0
        assert "warning" in err.lower()

    def test_coarse_grid_warning_names_qpoints(self, capsys):
        # 11 points on [-6, 6] overshoot the norm (1.12 at t = 1), where a
        # wider grid would not help
        code, out, err = run(capsys, "density", "--qpoints", "11")
        assert code == 0 and out
        lines = err.splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("warning: density norm 1.122957515 off unit at "
                                    "sigma0=1.5, n=0, t=1; ")
        assert all("too coarse" in line and "--qpoints" in line for line in lines)

    @pytest.mark.parametrize("hbar", ["1e-300", "1"])
    def test_overflowing_charge_ratio_gives_zero(self, hbar, capsys):
        # q/scale overflows at hbar = 1e-300 and its square at hbar = 1: P
        # was nan (and the NaN norm passed its check) or 0 with a RuntimeWarning
        code, out, err = run(capsys, "density", "--qmin=-1e200", "--qmax=1e200",
                             "--hbar", hbar, "--n", "1", "--qpoints", "3", "--steps", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert all(math.isfinite(p) for p in column(header, rows, "P"))
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: density norm ") for line in lines)

    def test_leaves_warning_filters_unchanged(self, capsys):
        before = list(warnings.filters)
        code, _, _ = run(capsys, "density", "--qmin", "-0.5", "--qmax", "0.5",
                         "--qpoints", "5")
        assert code == 0
        assert warnings.filters == before


class TestInfo:
    def test_columns_and_complexity_constancy(self, capsys):
        code, out, _ = run(capsys, "info", "--steps", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "sigma0", "n", "S_closed", "S_quad", "H",
                          "D_closed", "D_quad", "C"]
        cs = column(header, rows, "C")
        assert max(cs) - min(cs) < 1e-7
        target = math.sqrt(math.e / 2.0)
        assert all(abs(c - target) < 1e-7 for c in cs)

    def test_closed_matches_quad_for_ground_state(self, capsys):
        code, out, _ = run(capsys, "info", "--steps", "5")
        assert code == 0
        header, rows = parse_csv(out)
        for row in rows:
            r = dict(zip(header, row))
            assert r["S_closed"] == pytest.approx(r["S_quad"], abs=1e-8)
            assert r["D_closed"] == pytest.approx(r["D_quad"], rel=1e-8)


class TestSweep:
    @pytest.mark.parametrize("command", ["observables", "density", "info"])
    def test_amplitude_once_per_sigma_and_time(self, command, capsys, monkeypatch):
        calls = []
        original = observables.rho_analytic

        def counted(params, t):
            calls.append((params.sigma0, t))
            return original(params, t)

        monkeypatch.setattr(observables, "rho_analytic", counted)
        grid = ["--qpoints", "5"] if command == "density" else []
        code, out, _ = run(capsys, command, "--sigma0", "0.5,2", "--n", "2,0,1",
                           "--steps", "3", *grid)
        assert code == 0
        assert len(calls) == len(set(calls)) == 2 * 3
        header, rows = parse_csv(out)
        keys = [(r[header.index("sigma0")], r[header.index("n")], r[header.index("t")])
                for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("command", ["observables", "density", "info"])
    def test_one_snapshot_and_one_measures_call_per_level(self, command, capsys,
                                                          monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("_measures_quadrature", "_measures_closed_form"):
            monkeypatch.setattr(information, name, counted(name, getattr(information, name)))
        monkeypatch.setattr(cli, "density_values",
                            counted("density_values", cli.density_values))
        monkeypatch.setattr(observables, "rho_analytic",
                            counted("rho_analytic", observables.rho_analytic))
        monkeypatch.setattr(observables.QuantumSnapshot, "__post_init__",
                            counted("snapshot", observables.QuantumSnapshot.__post_init__))
        grid = ["--qpoints", "5"] if command == "density" else []
        code, _, _ = run(capsys, command, "--sigma0", "0.5,2,3", "--n", "2,0", "--steps", "4",
                         *grid)
        assert code == 0
        levels = 3 * 2
        per_info_level = levels if command == "info" else 0
        assert calls == Counter(rho_analytic=3 * 4, snapshot=levels,
                                density_values=levels if command == "density" else 0,
                                _measures_quadrature=per_info_level,
                                _measures_closed_form=per_info_level)


# argvs on which `rho`, `observables` and `info` print what their row-by-row
# forms in `oracles` print
LEVEL_ARGVS = [
    ("rho",), ("observables",), ("info",),
    ("observables", "--hbar", "2.5"), ("info", "--hbar", "2.5"),
    ("info", "--n", "0,3,13,14"),
    ("rho", "--sigma0", "0,19", "--t1", "48"),
    ("observables", "--sigma0", "0,19", "--t1", "48"),
    # L^2 overflows at every time: each row takes energy_mean's second branch
    ("observables", "--c", "1e-160", "--sigma0", "1", "--t0", "3.9e161", "--t1", "4e161",
     "--steps", "2"),
    # L^2 rho^2 rho'^2 overflows at t = 0 alone: only the first row takes
    # the second branch, and the split forms of phi2 and dq_dphi
    ("observables", "--c", "1e-100", "--sigma0", "1", "--t0", "0", "--t1", "4e101",
     "--steps", "5"),
]


# argvs on which `density` prints what its row-by-row form in `oracles`
# prints, and whether it warns of a norm off unit
DENSITY_ARGVS = [
    (("density",), False),
    (("density", "--hbar", "2.5"), True),  # the wider density outgrows the grid
    (("density", "--n", "0,3,620"), True),  # n = 620 outgrows the grid
    (("density", "--qmin", "-0.5", "--qmax", "0.5"), True),  # the grid misses mass
    (("density", "--qpoints", "11"), True),  # too coarse: the warning names --qpoints
    (("density", "--hbar", "1e-300", "--steps", "2"), True),  # the norm overflows
]


class TestLevelsMatchRowOracles:
    @staticmethod
    def outcomes(capsys, monkeypatch, argv):
        """(code, stdout, stderr) of the command and of its row-by-row oracle."""
        command = argv[0]
        new = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setitem(cli._COMMANDS, command, (getattr(oracles, f"cmd_{command}"),
                                                   cli._COMMANDS[command][1]))
            old = run(capsys, *argv)
        return new, old

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", LEVEL_ARGVS)
    def test_bytes_match_row_oracle(self, argv, fmt, capsys, monkeypatch):
        new, old = self.outcomes(capsys, monkeypatch, (*argv, "--format", fmt))
        assert new == old
        assert new[0] == 0 and new[2] == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, warns", DENSITY_ARGVS,
                             ids=[" ".join(argv[1:]) or "defaults" for argv, _ in DENSITY_ARGVS])
    def test_density_bytes_match_row_oracle(self, argv, warns, fmt, capsys, monkeypatch):
        new, old = self.outcomes(capsys, monkeypatch, (*argv, "--format", fmt))
        assert new == old
        assert new[0] == 0 and new[1]
        lines = new[2].splitlines()
        assert bool(lines) == warns
        assert all(line.startswith("warning: density norm ") for line in lines)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name, seed", [
        *((name, seed) for name in ("amplitude_sweep", "info_levels") for seed in (0, 7, 11)),
        ("density_table", 0), ("density_table", 7)])
    def test_benchmark_bytes_match_row_oracle(self, name, seed, fmt, capsys, monkeypatch):
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "bench")
        import workloads

        argv = (*workloads.make(name, seed).argv, "--format", fmt)
        new, old = self.outcomes(capsys, monkeypatch, argv)
        assert_same_output(new[1], old[1])
        assert new[0] == old[0] == 0 and new[2] == old[2] == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["rho", "observables", "density", "info"])
    def test_violation_after_a_level_writes_nothing(self, command, fmt, capsys, monkeypatch):
        # sigma0 = 0.4 fills its levels; order 10.5 at sigma0 = 20 is outside
        # the Bessel envelope at the first time
        argv = (command, "--sigma0", "0.4,20", "--t1", "2", "--steps", "3", "--format", fmt)
        new, old = self.outcomes(capsys, monkeypatch, argv)
        assert new == old
        assert new == (2, "", "error: rho_analytic at sigma0=20.0, t=0.0: Bessel order 10.5 "
                              "and argument 1.0 outside the supported envelope "
                              "[0, 10.0] x (0, 50.0]\n")


class TestFormatsAndDeterminism:
    @pytest.mark.parametrize("command", ["rho", "observables", "density", "info"])
    def test_metadata_line_at_defaults(self, command, capsys):
        code, out, _ = run(capsys, command)
        assert code == 0
        assert out.splitlines()[0] == "# " + DEFAULT_META[command]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "rho", "--steps", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["t", "sigma0", "rho", "rho_dot", "L",
                                      "omega_sq"]
        assert len(payload["rows"]) == 4

    @pytest.mark.parametrize("argv", [
        ("rho", "--sigma0", "2,3", "--steps", "7"),
        ("info", "--steps", "4"),
        ("density", "--qpoints", "51"),
        ("observables", "--steps", "5", "--format", "json"),
        ("density", "--sigma0", "0.5,3", "--n", "0,2", "--qpoints", "51", "--format", "json"),
    ])
    def test_byte_identical_reruns(self, argv, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(list(argv) + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# binary64 values at the edges of the format, as Python and numpy floats:
# nan, +-inf and a value whose 18th digit is an exact tie (12056327.0517578125)
# take the writer's `%.17g` fallback
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e17,
                math.nan, math.inf, -math.inf, 12345678901 / 1024)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_VALUES = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_LEVELS = st.integers(min_value=0, max_value=2**63 - 1)
_NS = st.one_of(_LEVELS, _LEVELS.map(np.int64))


def _csv_body(config, columns, table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_table(config, columns, table)
    lines = out.getvalue().split("\n")
    assert lines[0] == "# " + config.meta()
    assert lines[1] == ",".join(columns)
    assert lines[-1] == ""
    return lines[2:-1]


# flags of each table command, small enough to run in a test
TABLE_ARGVS = [
    ("rho", "--steps", "5"),
    ("observables", "--sigma0", "0.5,2", "--n", "0,3", "--steps", "4"),
    ("density", "--qpoints", "7"),
    ("info", "--n", "0,2", "--steps", "3"),
    # P reaches subnormals (8.4e-309 at q = -33, t = 0) and exact zeros
    ("density", "--qmin", "-40", "--qmax", "40", "--qpoints", "81"),
]

# the benchmark's amplitude_sweep, info_levels and density_table flags at
# seed 0, with fewer times
BENCH_ARGVS = [
    ("observables", "--sigma0",
     "0.661723,0.946775,1.579984,1.909326,2.414627,3.350226,2.999999999",
     "--n", "0", "--t0", "0.0", "--t1", "49.0", "--steps", "21"),
    ("info", "--sigma0", "1.145364,1.439442,3.117245", "--n", "0,1,2,3,4,5,6,7,8,9,10,11,12",
     "--t0", "0.0", "--t1", "2.0", "--steps", "3"),
    ("density", "--sigma0", "0.439892,1.885307,2.801182", "--n", "0,1,2,3,4",
     "--t0", "0.5", "--t1", "2.0", "--steps", "2", "--qmin", "-8.0", "--qmax", "8.0",
     "--qpoints", "2001"),
]


def _density_shaped_table():
    """50 profiles of P on one shared 2001-point grid: 100050 rows (6.2 MB
    of csv, 7.6 MB of json)."""
    rng = np.random.default_rng(0)
    grid = np.linspace(-8.0, 8.0, 2001)
    table = cli._Table(shared=(grid,))
    for k in range(50):
        table.add((0.5 + 0.03 * k, 1.5, k % 5), np.exp(-grid**2) * rng.random(grid.size))
    return table


class TestTableWriter:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.tuples(_VALUES, _VALUES, _NS),
                              st.lists(st.tuples(_VALUES, _VALUES), min_size=1,
                                       max_size=6)),
                    min_size=1, max_size=4))
    def test_block_rows_format_like_fmt(self, blocks):
        table = cli._Table()
        rows = []
        for head, tail in blocks:
            table.add(head, [q for q, _ in tail], [p for _, p in tail])
            rows.extend((*head, *row) for row in tail)
        config = RunConfig(command="density", sigma0=[1.5])
        lines = _csv_body(config, ["t", "sigma0", "n", "q", "P"], table)
        assert lines == [",".join(_fmt(v) for v in row) for row in rows]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_VALUES, _VALUES, _NS, _VALUES, _VALUES),
                    min_size=1, max_size=8))
    def test_one_block_rows_format_like_fmt(self, rows):
        config = RunConfig(command="observables", sigma0=[0.5])
        table = cli._Table()
        table.add((), *zip(*rows))
        lines = _csv_body(config, ["t", "sigma0", "n", "q2", "phi2"], table)
        assert lines == [",".join(_fmt(v) for v in row) for row in rows]

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from((1, 63, 64, 65, 129)), st.integers(1, 4))
    def test_shared_grid_rows_format_like_fmt(self, data, points, count):
        # Every block carries the declared grid; the lengths cross the
        # writer's chunk boundaries.  A column repeats up to 8 drawn values,
        # which keeps examples cheap to generate and to shrink.
        column = st.lists(_VALUES, min_size=1, max_size=8).map(
            lambda values: [values[i % len(values)] for i in range(points)])
        grid = np.array(data.draw(column))
        table = cli._Table(shared=(grid,))
        rows = []
        for _ in range(count):
            head = data.draw(st.tuples(_VALUES, _VALUES, _NS))
            p = data.draw(column)
            table.add(head, p)
            rows.extend((*head, q, v) for q, v in zip(grid, p))
        config = RunConfig(command="density", sigma0=[1.5])
        lines = _csv_body(config, ["t", "sigma0", "n", "q", "P"], table)
        assert lines == [",".join(_fmt(v) for v in row) for row in rows]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.tuples(_VALUES, _VALUES, _NS),
                              st.lists(st.tuples(st.floats(), _VALUES), min_size=1,
                                       max_size=6)),
                    min_size=1, max_size=4))
    def test_json_edge_values_match_one_indented_dump(self, blocks):
        table = cli._Table()
        rows = []
        for head, tail in blocks:
            table.add(head, [q for q, _ in tail], [p for _, p in tail])
            rows.extend([float(head[0]), float(head[1]), int(head[2]), q, float(p)]
                        for q, p in tail)
        config = RunConfig(command="density", sigma0=[1.5], fmt="json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_table(config, ["t", "sigma0", "n", "q", "P"], table)
        payload = {"meta": config.meta(), "columns": ["t", "sigma0", "n", "q", "P"],
                   "rows": rows}
        assert out.getvalue() == json.dumps(payload, indent=1) + "\n"

    @pytest.mark.parametrize("argv", TABLE_ARGVS)
    def test_json_bytes_are_one_indented_dump(self, argv, capsys):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["meta", "columns", "rows"]
        assert json.dumps(payload, indent=1) + "\n" == out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_rows(self, fmt, tmp_path):
        table = _density_shaped_table()
        config = RunConfig(command="density", sigma0=[1.5], fmt=fmt,
                           out=str(tmp_path / f"table.{fmt}"))
        tracemalloc.start()
        try:
            cli._write_table(config, ["t", "sigma0", "n", "q", "P"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (tmp_path / f"table.{fmt}").stat().st_size > 5 * 2**20

    def test_density_shaped_table_matches_chunked_writer(self):
        table = _density_shaped_table()
        outs = [io.StringIO(), io.StringIO()]
        cli._write_csv(outs[0], "meta", ["t", "sigma0", "n", "q", "P"], table)
        oracles.write_csv_chunked(outs[1], "meta", ["t", "sigma0", "n", "q", "P"], table)
        assert_same_output(outs[0].getvalue(), outs[1].getvalue())

    def test_grouped_formatting_matches_chunked_writer(self, monkeypatch):
        # The declared grid is formatted in one call, and the blocks' P
        # ahead, up to CHUNK values a call.  Heads of different widths
        # (t = 0.5 next to 0.65000000000000002) share one padded head, and
        # the groups end inside the first level.  With no shared column, a
        # short grid and a long one are block columns, and a column longer
        # than CHUNK is a group alone.
        rng = np.random.default_rng(7)
        grid, short, long = (np.linspace(-8.0, 8.0, 2001), np.linspace(-3.0, 3.0, 7),
                             np.linspace(-1.0, 1.0, CHUNK + 3))

        def tiny(q):  # exact zeros and subnormals among P's values
            p = np.exp(-q**2) * rng.random(q.size)
            p[::5] = 0.0
            p[1::5] = 5e-324 * rng.integers(1, 9, p[1::5].size)
            return p

        shared = cli._Table(shared=(grid,))
        for t in (0.5, 0.65000000000000002, 0.80000000000000004, 1.25, 2.0):
            shared.add((t, 0.43989199999999997, 0), np.exp(-grid**2 / t) * rng.random(2001))
        for t in (0.5, 0.65000000000000002, 2.0):
            shared.add((t, 1.5, 12), tiny(grid))
        unshared = cli._Table()
        for t, q in ((0.5, short), (0.65000000000000002, grid), (2.0, long)):
            unshared.add((t, 1.5, 12), q, tiny(q))
        sizes = []
        monkeypatch.setattr(cli, "format_17g", lambda values: (
            sizes.append(values.size), float17.format_17g(values))[1])
        for table, calls in ((shared, [2001] + [2 * 2001] * 4),
                             (unshared, [2 * 7 + 2 * 2001, CHUNK + 3, CHUNK + 3])):
            sizes.clear()
            outs = [io.StringIO(), io.StringIO()]
            cli._write_csv(outs[0], "meta", ["t", "sigma0", "n", "q", "P"], table)
            oracles.write_csv_chunked(outs[1], "meta", ["t", "sigma0", "n", "q", "P"], table)
            assert_same_output(outs[0].getvalue(), outs[1].getvalue())
            assert sizes == calls

    def test_memory_does_not_grow_with_the_level(self, tmp_path):
        # one level of 200 times on one 2001-point grid: its P is one array
        # and its text is formatted a group at a time
        grid = np.linspace(-8.0, 8.0, 2001)
        p = np.exp(-grid**2 * np.linspace(0.5, 2.0, 200)[:, None])
        table = cli._Table(shared=(grid,))
        for t, row in zip(np.linspace(0.0, 1.0, 200).tolist(), p):
            table.add((t, 1.5, 0), row)
        config = RunConfig(command="density", sigma0=[1.5], out=str(tmp_path / "table.csv"))
        tracemalloc.start()
        try:
            cli._write_table(config, ["t", "sigma0", "n", "q", "P"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert (tmp_path / "table.csv").stat().st_size > 20 * 2**20

    @pytest.mark.parametrize("argv", BENCH_ARGVS + TABLE_ARGVS)
    def test_csv_bytes_match_chunked_writer(self, argv, capsys, monkeypatch):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "_write_csv", oracles.write_csv_chunked)
        code, chunked, _ = run(capsys, *argv)
        assert code == 0
        assert_same_output(out, chunked)

    @pytest.mark.parametrize("argv", TABLE_ARGVS)
    def test_csv_bytes_alike_in_every_sink(self, argv, capsys, tmp_path):
        # the csv goes as bytes to a stdout with a binary buffer (capsys's,
        # and a buffered text wrapper like a piped sys.stdout) and as str to
        # one without (io.StringIO); text printed first stays first
        print("first")
        assert hasattr(sys.stdout, "buffer")
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert out.startswith("first\n# ")
        body = out.removeprefix("first\n")
        wrapped = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="\n")
        text = io.StringIO()
        for sink in (wrapped, text):
            with contextlib.redirect_stdout(sink):
                print("first")
                assert main(list(argv)) == 0
        assert_same_output(wrapped.buffer.getvalue(), ("first\n" + body).encode())
        assert_same_output(text.getvalue(), "first\n" + body)
        path = tmp_path / "table.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert_same_output(path.read_bytes(), body.encode())

    @pytest.mark.parametrize("argv", TABLE_ARGVS)
    def test_csv_fields_match_json_values(self, argv, capsys):
        code, csv_out, _ = run(capsys, *argv)
        assert code == 0
        code, json_out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(json_out)
        lines = csv_out.splitlines()
        assert lines[0] == "# " + payload["meta"]
        assert lines[1] == ",".join(payload["columns"])
        body = lines[2:]
        assert len(body) == len(payload["rows"])
        for line, row in zip(body, payload["rows"]):
            assert line.split(",") == [_fmt(v) for v in row]

    @pytest.mark.parametrize("argv", TABLE_ARGVS)
    def test_table_length_is_row_count(self, argv, capsys, monkeypatch):
        lengths = []
        original = cli._write_table

        def spy(config, columns, table):
            lengths.append(len(table))
            return original(config, columns, table)

        monkeypatch.setattr(cli, "_write_table", spy)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert lengths == [len(out.splitlines()) - 2]


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_exactly_the_commands_flags(self, command, capsys):
        # the parser adds flags to the invoked subcommand only
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == {"--help"} | {flag for flag, commands, _ in cli._FLAGS
                                       if command in commands}

    def test_every_field_is_one_flag(self):
        # no RunConfig knob without its flag, and no flag without its field
        dests = Counter(keywords.get("dest", flag[2:].replace("-", "_"))
                        for flag, _, keywords in cli._FLAGS)
        assert set(dests.values()) == {1}
        assert set(dests) == {f.name for f in dataclasses.fields(RunConfig)} - {"command"}

    @pytest.mark.parametrize("value, error", [
        ("-1e-3", "sigma0 must be finite and >= 0, got sigma0=-0.001"),
        ("-1e-3,2", "sigma0 must be finite and >= 0, got sigma0=-0.001"),
        ("-inf", "--sigma0 must be finite, got -inf"),
        ("-Infinity,2", "--sigma0 must be finite, got -inf"),
    ])
    def test_negative_scientific_value_reaches_validation(self, value, error, capsys):
        # argparse took -1e-3 for a flag: "argument --sigma0: expected one argument"
        code, out, err = run(capsys, "rho", "--sigma0", value)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("argv, error", [
        (("info", "--sigma0", "2,2"), "--sigma0 lists 2 more than once"),
        (("observables", "--sigma0", "0,-0"), "--sigma0 lists 0 more than once"),
        (("observables", "--n", "0,0"), "--n lists 0 more than once"),
    ])
    def test_repeated_sweep_value_exits_2_naming_the_flag(self, argv, error, capsys):
        # each (sigma0, n, t) row was printed twice, once keyed -0 for 0,-0
        code, out, err = run(capsys, *argv, "--steps", "2")
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_negative_scientific_bound_needs_no_equals_sign(self, capsys):
        argv = ["--qmax", "1e-3", "--qpoints", "3", "--steps", "2"]
        spaced = run(capsys, "density", "--qmin", "-1e-3", *argv)
        joined = run(capsys, "density", "--qmin=-1e-3", *argv)
        assert spaced == joined
        assert spaced[0] == 0 and " qmin=-0.001 " in spaced[1]

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in out


def extreme_constant_argvs(seed: int, count: int) -> list[list[str]]:
    """`count` table argvs, each constant log-uniform in [1e-300, 1e300] but
    k = c/(lambdaL A) log-uniform in [1e-3, 50]; sigma0 and t1 uniform or
    log-uniform, n in [0, 12], two to four times and three to five charges."""
    rng = random.Random(seed)

    def log_uniform(lo=-300.0, hi=300.0):
        return 10.0 ** rng.uniform(lo, hi)

    argvs = []
    while len(argvs) < count:
        command = rng.choice(("rho", "observables", "density", "info"))
        A, lambdaL = log_uniform(), log_uniform()
        c = 10.0 ** rng.uniform(-3.0, math.log10(50.0)) * lambdaL * A
        if not 1e-300 <= c <= 1e300:
            continue
        sigma0 = (rng.uniform(0.0, 19.0) if rng.random() < 0.5
                  else log_uniform(-30.0, math.log10(19.0)))
        t1 = rng.uniform(0.0, 100.0) if rng.random() < 0.5 else log_uniform()
        argv = [command, "--sigma0", repr(sigma0), "--A", repr(A), "--eps0", repr(log_uniform()),
                "--c", repr(c), "--lambdaL", repr(lambdaL), "--t1", repr(t1),
                "--steps", str(rng.randint(2, 4))]
        if command != "rho":
            argv += ["--hbar", repr(log_uniform()), "--n", str(rng.randint(0, 12))]
        if command == "density":
            argv += ["--qpoints", str(rng.randint(3, 5))]
        argvs.append(argv)
    return argvs


class TestExitCodes:
    def test_mid_sweep_envelope_violation_writes_nothing(self, capsys):
        code, out, err = run(capsys, "observables", "--sigma0", "1,30", "--steps", "3")
        assert code == 2
        assert out == ""
        assert "sigma0=30" in err

    def test_mid_sweep_envelope_violation_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "density.csv"
        code, out, err = run(capsys, "density", "--sigma0", "1,30", "--steps", "2",
                             "--qpoints", "5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert "sigma0=30" in err
        assert not path.exists()

    def test_envelope_violation_stderr_in_full(self, capsys):
        # the default sweep's first t past the envelope, at sigma0 = 0.4
        code, out, err = run(capsys, "observables", "--t1", "60")
        assert code == 2
        assert out == ""
        assert err == (
            "error: rho_analytic at sigma0=0.4, t=49.199999999999996: Bessel order 0.7 "
            "and argument 50.199999999999996 outside the supported envelope "
            "[0, 10.0] x (0, 50.0]\n")

    @pytest.mark.parametrize("name", ["missing/x.csv", "."])
    def test_unwritable_out_names_the_flag(self, capsys, tmp_path, name):
        path = tmp_path / name
        code, out, err = run(capsys, "rho", "--steps", "2", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --out {str(path)!r} cannot be written: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("rho", "--c", "1e-150"),  # rho = inf
        ("observables", "--c", "1e-200"),  # rho' = nan
        ("rho", "--c", "1e-200"),  # rho = nan
    ])
    def test_extreme_constant_exits_2_naming_sigma0(self, argv, capsys):
        code, out, err = run(capsys, *argv, "--steps", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: rho_analytic at sigma0=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["rho", "observables", "info", "density"])
    def test_L_out_of_float_range_exits_2_naming_sigma0_and_t(self, command, capsys):
        # u = k(At+1) ~ 40 is inside the envelope, but L = (At+1)^19 is not a float
        code, out, err = run(capsys, command, "--c", "1e-20", "--sigma0", "19",
                             "--t0", "3.9e21", "--t1", "4e21", "--steps", "2")
        assert (code, out) == (2, "")
        assert err == ("error: L at sigma0=19.0, t=3.9e+21: (A t + 1)^s with s=19.0 is "
                       "out of float range\n")

    @pytest.mark.parametrize("command", ["rho", "observables", "info", "density"])
    def test_first_failing_time_is_named(self, command, capsys):
        # L is out of float range from t0 on, the Bessel argument 60 only at t1
        code, out, err = run(capsys, command, "--c", "1e-20", "--sigma0", "19",
                             "--t0", "3.9e21", "--t1", "6e21", "--steps", "3")
        assert (code, out) == (2, "")
        assert err == ("error: L at sigma0=19.0, t=3.9e+21: (A t + 1)^s with s=19.0 is "
                       "out of float range\n")

    @pytest.mark.parametrize("command", ["rho", "observables", "info", "density"])
    def test_tau_squared_out_of_float_range_prints_finite_numbers(self, command, capsys):
        # (At+1)^2 overflows in sigma_dot and L^2 in the energy; both are finite
        code, out, err = run(capsys, command, "--c", "1e-160", "--sigma0", "1",
                             "--t0", "3.9e161", "--t1", "4e161", "--steps", "2")
        assert code == 0
        assert "error" not in err and "Traceback" not in err
        header, rows = parse_csv(out)
        assert len(rows) == (2 * 401 if command == "density" else 2)
        assert all(math.isfinite(v) for row in rows for v in row)
        if command == "rho":
            assert column(header, rows, "L") == [3.9e161 + 1.0, 4e161 + 1.0]

    @pytest.mark.parametrize("c", ["1e-300", "1e-160", "1e-20"])
    @pytest.mark.parametrize("sigma0", ["0", "1", "19"])
    @pytest.mark.parametrize("u", [2.0, 40.0])
    @pytest.mark.parametrize("command", ["rho", "observables", "info", "density"])
    def test_extreme_constant_grid_is_finite_or_exits_2(self, command, u, sigma0, c, capsys):
        # t0 puts the Bessel argument u = c (t + 1) at u; every number printed
        # is finite, or one error line names sigma0 and t
        t0 = u / float(c)
        code, out, err = run(capsys, command, "--c", c, "--sigma0", sigma0,
                             "--t0", repr(t0), "--t1", repr(1.01 * t0), "--steps", "2",
                             *(["--qpoints", "5"] if command == "density" else []))
        if code == 0:
            _, rows = parse_csv(out)
            assert rows and all(math.isfinite(v) for row in rows for v in row)
            assert "error" not in err
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"sigma0={float(sigma0)!r}, t=" in err

    def test_overflowing_cross_term_prints_finite_moments(self, capsys):
        # (L rho rho')^2 overflows, so phi2 and dq_dphi printed inf; both are
        # finite, as (dq dPhi)^2 = <q^2><Phi^2> says they must be
        code, out, err = run(capsys, "observables", "--sigma0", "13.2531",
                             "--c", "2.9158680650633854e-14", "--n", "6",
                             "--t1", "28.16605454418922", "--steps", "4")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert all(math.isfinite(v) for row in rows for v in row)
        for q2, phi2, product in zip(*(column(header, rows, name)
                                       for name in ("q2", "phi2", "dq_dphi"))):
            assert product == pytest.approx(math.sqrt(q2) * math.sqrt(phi2), rel=1e-12)
        assert column(header, rows, "phi2")[2] == pytest.approx(6.284077099783825e202,
                                                                 rel=1e-12)

    def test_overflowing_rho_squared_prints_finite_q2(self, capsys):
        # rho ~ 1.5e158, so rho^2 overflows but hbar rho^2 (n + 1/2) ~ 1.2e216
        # does not; q2 printed inf, and then exited 2 naming it
        constants = ("--sigma0", "19", "--A", "1e-300", "--eps0", "1e300", "--c", "1e-300",
                     "--steps", "2", "--t1", "1e-10")
        code, out, err = run(capsys, "observables", *constants, "--hbar", "1e-100")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert all(math.isfinite(v) for row in rows for v in row)
        code, rho_out, _ = run(capsys, "rho", *constants)
        assert code == 0
        rho_header, rho_rows = parse_csv(rho_out)
        for q2, rho in zip(column(header, rows, "q2"), column(rho_header, rho_rows, "rho")):
            exact = Fraction(1e-100) * Fraction(rho) ** 2 / 2
            assert abs(Fraction(q2) - exact) <= Fraction(1e-15) * exact

    OMEGA_SQ_OVERFLOW = ("--sigma0", "19", "--A", "1e160", "--eps0", "1e-159", "--c", "1e150",
                         "--lambdaL", "1", "--t1", "1e-150", "--steps", "2")

    @pytest.mark.parametrize("command, error", [
        ("rho", "omega_sq at sigma0=19.0, t=0.0 is -inf"),
        ("observables", "energy at sigma0=19.0, n=0, t=0.0 is -inf"),
        ("info", None),  # omega^2 is in the level, but not printed
        ("density", None),
    ])
    def test_overflowing_omega_sq_exits_2_where_printed(self, command, error, capsys):
        # sigma_dot / eps0 overflows at t = 0, so omega^2 is -inf there
        grid = ["--qpoints", "5"] if command == "density" else []
        code, out, err = run(capsys, command, *self.OMEGA_SQ_OVERFLOW, *grid)
        if error is None:
            assert code == 0
            _, rows = parse_csv(out)
            assert all(math.isfinite(v) for row in rows for v in row)
        else:
            assert (code, out, err) == (2, "", f"error: {error}, not a finite float\n")

    @pytest.mark.parametrize("argv, error", [
        (("info", "--sigma0", "1.1531958759475491e-20", "--A", "7.589608308883268e-264",
          "--eps0", "8.044969431451726e+241", "--c", "7.089382499805859e-91",
          "--lambdaL", "6.608450149493197e+175", "--hbar", "6.337011509297176e+278",
          "--n", "10", "--t1", "1.3175910525310621e+265"),
         "H at sigma0=1.1531958759475491e-20, n=10, t=0.0 is inf"),
        (("observables", "--sigma0", "6.871381399203544e-13", "--A", "3.7059882169486326e-280",
          "--eps0", "5.679779187040838e+266", "--c", "1.9733045155782188e-118",
          "--lambdaL", "1.602835593448196e+160", "--hbar", "6.924654657857434e+253",
          "--n", "3", "--t1", "97.87138541658622"),
         "q2 at sigma0=6.871381399203544e-13, n=3, t=0.0 is inf"),
    ], ids=["H", "q2"])
    def test_out_of_range_value_exits_2_naming_it(self, argv, error, capsys):
        # H = e^{s_n} scale and q2 = hbar rho^2 (n + 1/2) are truly past the
        # float range here; H also leaked a numpy RuntimeWarning
        code, out, err = run(capsys, *argv, "--steps", "2")
        assert (code, out, err) == (2, "", f"error: {error}, not a finite float\n")

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_extreme_constants_print_finite_numbers_or_exit_2(self, seed, capsys):
        # every constant log-uniform over the float range, the Bessel scale
        # k = c/(lambdaL A) kept in [1e-3, 50]; any numpy warning raises
        for argv in extreme_constant_argvs(seed, 750):
            code, out, err = run(capsys, *argv)
            lines = err.splitlines()
            if code == 0:
                _, rows = parse_csv(out)
                assert all(math.isfinite(v) for row in rows for v in row), argv
                assert all(line.startswith("warning: density norm ") for line in lines), argv
            else:
                assert (code, out) == (2, ""), argv
                assert lines and lines[-1].startswith("error: "), argv
                assert sum(line.startswith("error: ") for line in lines) == 1, argv

    def test_tiny_constant_keeps_rho_dot_finite(self, capsys):
        # at order 1/2, rho = 1/sqrt(k) and rho' = 0 exactly; M M' is within
        # a factor 2 of the top of the float range here.  At u ~ 1e-155
        # Temme's series takes exp() of ~178, which costs rho ~1e-14 relative
        code, out, err = run(capsys, "rho", "--sigma0", "0", "--c", "4.5e-155",
                             "--steps", "2", "--t1", "0.01")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        for rho, rho_dot in zip(column(header, rows, "rho"), column(header, rows, "rho_dot")):
            assert rho == pytest.approx(1.0 / math.sqrt(4.5e-155), rel=1e-13)
            assert abs(rho_dot) <= 1e-15 * rho

    def test_cancelled_bessel_kernel_exits_2_naming_sigma0(self, capsys):
        # at order 1/2 and u = 1e-60 Temme's Y_mu cancels away, and J is NaN
        code, out, err = run(capsys, "rho", "--sigma0", "0", "--c", "1e-60", "--steps", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: rho_analytic at sigma0=0.0, t=0.0: rho=nan")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", [
        kind for kind in vars(errors).values()
        if isinstance(kind, type) and issubclass(kind, errors.TdqError)
    ], ids=lambda kind: kind.__name__)
    def test_solver_errors_exit_2(self, kind, capsys, monkeypatch):
        # every error of the package exits 2, the CLI naming none of them;
        # 1.5 is a t to the classes that take one and a message to the rest
        exc = kind(1.5)

        def failing(params, t):
            raise exc

        monkeypatch.setattr(observables, "rho_analytic", failing)
        code, out, err = run(capsys, "rho", "--steps", "2")
        assert (code, out, err) == (2, "", f"error: {exc}\n")

    @pytest.mark.parametrize("n", [special_functions._HERMITE_N_MAX + 1, 1000])
    def test_level_beyond_hermite_envelope_names_n(self, n, capsys):
        # the outer lobes of h_n underflow there: P was 0 over them, exit 0
        code, out, err = run(capsys, "density", "--n", str(n), "--steps", "2")
        assert (code, out) == (2, "")
        assert err == (f"error: Hermite functions support n <= "
                       f"{special_functions._HERMITE_N_MAX}, got n={n}\n")

    def test_level_beyond_closed_form_names_n(self, capsys):
        code, out, err = run(capsys, "info", "--n", "15", "--steps", "2")
        assert code == 2
        assert out == ""
        assert "n=15" in err
        assert "n <= 14" in err

    def test_invalid_window(self, capsys):
        code, _, err = run(capsys, "rho", "--t0", "2", "--t1", "1")
        assert code == 2
        assert "t1" in err

    def test_invalid_steps(self, capsys):
        code, _, err = run(capsys, "rho", "--steps", "1")
        assert code == 2

    def test_envelope_violation_names_offender(self, capsys):
        code, _, err = run(capsys, "rho", "--sigma0", "2", "--t1", "80")
        assert code == 2
        assert "sigma0=2" in err

    def test_order_overflow_exits_2(self, capsys):
        code, out, err = run(capsys, "rho", "--sigma0", "1e200", "--steps", "2")
        assert code == 2
        assert out == ""
        assert "sigma0=1e+200" in err

    def test_negative_sigma_rejected(self, capsys):
        code, _, err = run(capsys, "rho", "--sigma0", "-1")
        assert code == 2
        assert "sigma0=-1.0" in err

    @pytest.mark.parametrize("argv, named", [
        (["observables", "--n", "-1"], "n=-1"),
        (["density", "--n", "-1"], "n=-1"),
        (["info", "--n", "-1"], "n=-1"),
        # past the int64 n column: n = 2**64 and 10**400
        (["observables", "--n", str(2**64)], f"n={2**64}"),
        (["observables", "--n", str(10**400)], f"n={10**400}"),
        (["density", "--n", str(2**64)], f"n={2**64}"),
        (["info", "--n", str(10**400)], f"n={10**400}"),
        (["rho", "--A", "0"], "A=0.0"),
        (["rho", "--A", "-1"], "A=-1.0"),
        # finite flags whose derived constants are not: beta = inf, k = 0
        (["rho", "--eps0", "1e-320"], "sigma0=2.0, A=1.0, eps0=1e-320"),
        (["density", "--c", "1e-200", "--lambdaL", "1e200"], "c=1e-200, lambdaL=1e+200, A=1.0"),
    ])
    def test_bad_level_or_constant_writes_nothing(self, argv, named, capsys, tmp_path):
        # the library objects that own n and the constants reject them
        # before any output
        path = tmp_path / "table.csv"
        for out_flags in ([], ["--out", str(path)]):
            code, out, err = run(capsys, *argv, "--steps", "2", *out_flags)
            assert code == 2
            assert out == ""
            assert named in err
        assert not path.exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["rho", "--qpoints", "5"],
        ["rho", "--hbar", "3"],
        ["observables", "--seed-from-analytic"],
        ["rho", "--seed-from-analytic"],
        ["verify", "--sigma0", "2"],
        ["verify", "--format", "json"],
    ])
    def test_flag_of_another_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_non_finite_hbar_rejected(self, capsys):
        code, out, err = run(capsys, "observables", "--hbar", "nan")
        assert code == 2
        assert out == ""
        assert "--hbar" in err

    def test_infinite_charge_grid_rejected(self, capsys):
        code, out, err = run(capsys, "density", "--qmax", "inf", "--qpoints", "3")
        assert code == 2
        assert out == ""
        assert "--qmax" in err

    @pytest.mark.parametrize("argv, named", [
        # the span overflows: linspace gave nan and inf charges
        (["density", "--qmin=-1e308", "--qmax=1e308", "--qpoints", "3", "--steps", "2"],
         "--qmin=-1e+308, --qmax=1e+308, --qpoints=3"),
        # t0 and t1 one ulp apart: linspace repeats a time, which printed
        # every row twice
        (["rho", "--t0=1", "--t1=1.0000000000000002", "--steps", "4"],
         "--t0=1.0, --t1=1.0000000000000002, --steps=4"),
        (["observables", "--t0=1", "--t1=1.0000000000000002", "--steps", "4"],
         "--t0=1.0, --t1=1.0000000000000002, --steps=4"),
    ], ids=["overflowing-span", "repeated-time-rho", "repeated-time"])
    def test_degenerate_grid_rejected(self, argv, named, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named} do not give a finite, strictly ascending ")
        assert err.count("\n") == 1

    # numpy refuses 10**17 points (711 PiB) and 10**19 (above the largest
    # array size) without allocating; these printed a traceback with exit 1
    @pytest.mark.parametrize("argv, named", [
        (["rho", "--steps", str(10 ** 17)], f"--t0=0.0, --t1=5.0, --steps={10 ** 17}"),
        (["density", "--qpoints", str(10 ** 17)],
         f"--qmin=-6.0, --qmax=6.0, --qpoints={10 ** 17}"),
        (["observables", "--steps", str(10 ** 19)],
         f"--t0=0.0, --t1=5.0, --steps={10 ** 19}"),
    ], ids=["time", "charge", "above-max-size"])
    def test_unallocatable_grid_rejected(self, argv, named, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named} give a ")
        assert err.endswith(" grid too large to allocate\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["nan", "-1", "0"])
    def test_bad_verify_tolerance_rejected(self, scale, capsys):
        code, out, err = run(capsys, "verify", "--tol-verify", scale)
        assert code == 2
        assert out == ""
        assert "--tol-verify" in err


class TestClosedPipe:
    """A reader that leaves early ends the run quietly with 141 (128 + SIGPIPE)."""

    @staticmethod
    def _start(*argv, stdout):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.Popen([sys.executable, "-m", "tdq.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_reader_closes_after_one_line(self, fmt):
        # ~0.8 MB of rows overflow the pipe buffer, so the table is still
        # being written when the reader closes its end
        proc = self._start("density", "--sigma0", "1,2", "--n", "0,1", "--steps", "11",
                           "--qmin", "-8", "--qmax", "8", "--format", fmt,
                           stdout=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    def test_verify_into_a_closed_pipe(self):
        # the suite's 2 kB report fits the pipe buffer and is written after
        # every check has run, so a reader of one line could leave after the
        # last write; closing the read end first makes the first write fail
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._start("verify", stdout=write)
        finally:
            os.close(write)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


@pytest.fixture(scope="module")
def verify_run():
    """(exit code, stdout) of `tdq verify` with the given flags, each run once."""
    runs = {}

    def run_verify(*argv):
        if argv not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", *argv])
            runs[argv] = code, out.getvalue()
        return runs[argv]

    return run_verify


class TestVerify:
    def test_default_suite_passes(self, verify_run):
        code, out = verify_run()
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out
        # measured ground-state complexity is reported next to its target,
        # on exactly one line (the benchmark reads it from there)
        assert "sqrt(e/2)" in out
        assert sum("C(n=0)=1.165821990799" in line for line in out.splitlines()) == 1

    def test_corrupted_tolerance_fails(self, verify_run):
        code, out = verify_run("--tol-verify", "1e-4")
        assert code == 1
        assert "FAIL" in out
        assert "failed checks" in out

    def test_informational_checks_never_fail(self, verify_run):
        code, out = verify_run("--tol-verify", "1e-4")
        assert "INFO entropy_closed_vs_quadrature_higher_n" in out
        for line in out.splitlines():
            if "entropy_closed_vs_quadrature_higher_n" in line:
                assert line.startswith("INFO")

    def test_informational_tolerance_scales(self, verify_run):
        # --tol-verify scales every tolerance, the informational one too
        _, out = verify_run("--tol-verify", "1e-4")
        info = [line for line in out.splitlines() if line.startswith("INFO")]
        assert len(info) == 1
        assert " tol=1.0e-10 " in info[0]

    def test_lmc_bound_is_asserted(self, verify_run, monkeypatch):
        _, out = verify_run()
        assert "PASS lmc_complexity_lower_bound " in out
        below_one = MeasureSet(entropy_S=0.0, H=1.0, disequilibrium_D=0.9,
                               complexity_C=0.9)
        monkeypatch.setattr(verify, "measures", lambda snap: below_one)
        result = verify.check_lmc_complexity_lower_bound(1e-9)
        assert not result.passed
        assert result.residual == pytest.approx(0.1)

    def test_check_names_match_functions(self):
        for fn, base in verify._ALL_CHECKS:
            assert isinstance(base, float)
            assert fn.__name__ == "check_" + fn(base).name

    def test_raising_check_is_reported_as_failure(self, monkeypatch, verify_run):
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "bench")
        import outputs

        def raising(fn):
            @functools.wraps(fn)
            def check(tol):
                raise errors.NormalizationError("density norm 0.5 deviates from 1")
            return check

        _, passing = verify_run()
        checks = list(verify._ALL_CHECKS)
        names = [outputs._CHECK_LINE.match(line).group(2)
                 for line in passing.splitlines()[:len(checks)]]
        # one check whose function name always matched its result name, and
        # one that was renamed to match it
        broken = [names.index("hermite_root_residuals"), names.index("density_normalization")]
        for index in broken:
            checks[index] = (raising(checks[index][0]), checks[index][1])
        monkeypatch.setattr(verify, "_ALL_CHECKS", tuple(checks))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify"])
        assert code == 1
        lines = out.getvalue().splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert [outputs._CHECK_LINE.match(line).groups() for line in failed] == [
            ("FAIL", "hermite_root_residuals", "inf", "1.0e-09"),
            ("FAIL", "density_normalization", "inf", "1.0e-08")]
        assert all("NormalizationError: density norm 0.5 deviates from 1" in line
                   for line in failed)
        assert sum(outputs._CHECK_LINE.match(line) is not None for line in lines) == len(checks)
        assert lines[-2:] == [f"{len(checks) - 2}/{len(checks)} checks passed",
                              "failed checks: hermite_root_residuals, density_normalization"]
