"""Checks on what the CLI printed, and its accuracy against `reference`.

Shape checks are pass/fail: a table must carry the metadata line, the
header and exactly the rows and grid columns its flags imply; `verify`
must print no FAIL line.  Accuracy is graded: every authoritative value is
scored as -log10 of its relative error against mpmath.  Only a gross miss
(fewer than MIN_DIGITS correct digits) makes the output wrong, so the
known defects (closed-form entropy for n >= 2, Y near integer order) show
up as numbers, not as failures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

import reference
from workloads import Workload

MIN_DIGITS = 2.0
DENSITY_SAMPLE_ROWS = 1500
# P below this is within a few hundred ulps of binary64 underflow.
DENSITY_FLOOR = 1e-200

_CHECK_LINE = re.compile(r"^(PASS|FAIL|INFO) (\S+)\s+residual=(\S+) tol=(\S+)")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")
_C_GROUND_NOTE = re.compile(r"C\(n=0\)=([0-9.eE+-]+)")


class MalformedOutput(Exception):
    """The output does not have the shape the flags imply."""


@dataclass
class Accuracy:
    digits: list[float] = field(default_factory=list)
    s_closed_abs_err: float = 0.0
    verify_worst_margin: float = 0.0

    @property
    def wrong(self) -> bool:
        return min(self.digits) < MIN_DIGITS


def parse_table(text: str, workload: Workload) -> np.ndarray:
    """Rows of a csv table as a float array, after checking its shape and grid."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise MalformedOutput("table is empty or lacks a final newline")
    if not lines[0].startswith(f"# command={workload.command} "):
        raise MalformedOutput(f"bad metadata line {lines[0][:80]!r}")
    if lines[1] != ",".join(workload.columns):
        raise MalformedOutput(f"bad header {lines[1]!r}")
    body = lines[2:-1]
    width = len(workload.columns)
    if len(body) != workload.expected_rows():
        raise MalformedOutput(f"{len(body)} rows, expected {workload.expected_rows()}")
    if any(line.count(",") != width - 1 for line in body):
        raise MalformedOutput(f"a row does not have {width} fields")
    try:
        rows = np.array(",".join(body).split(","), dtype=float).reshape(-1, width)
    except ValueError as exc:
        raise MalformedOutput(f"unparsable number: {exc}") from exc
    if not np.all(np.isfinite(rows)):
        raise MalformedOutput("non-finite value in table")
    for column, expected in _grid_columns(workload).items():
        if not np.array_equal(rows[:, workload.columns.index(column)], expected):
            raise MalformedOutput(f"column {column} does not follow the flags' grid")
    return rows


def _grid_columns(workload: Workload) -> dict[str, np.ndarray]:
    """The (sigma0, n, t[, q]) columns in the CLI's row order."""
    axes = [np.array(workload.sigma0_sorted()), np.array(sorted(workload.n), float),
            workload.t_grid()]
    names = ["sigma0", "n", "t"]
    if workload.q_range is not None:
        axes.append(workload.q_grid())
        names.append("q")
    mesh = np.meshgrid(*axes, indexing="ij")
    return {name: grid.ravel() for name, grid in zip(names, mesh)}


@dataclass
class VerifyReport:
    checks: dict[str, tuple[str, float, float]]  # name -> (tag, residual, tol)
    c_ground: float

    @property
    def failed(self) -> list[str]:
        return [name for name, (tag, _, _) in self.checks.items() if tag == "FAIL"]

    @property
    def margins(self) -> dict[str, float]:
        """residual / tol for every asserted check with a nonzero tolerance."""
        return {name: residual / tol for name, (tag, residual, tol) in self.checks.items()
                if tag != "INFO" and tol > 0.0}


def parse_verify(text: str) -> VerifyReport:
    checks = {}
    c_ground = summary = None
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match is not None:
            tag, name, residual, tol = match.groups()
            checks[name] = (tag, float(residual), float(tol))
            note = _C_GROUND_NOTE.search(line)
            if note:
                c_ground = float(note.group(1))
        elif _SUMMARY_LINE.match(line):
            summary = _SUMMARY_LINE.match(line)
        elif not line.startswith("failed checks: "):
            raise MalformedOutput(f"unexpected verify line {line[:80]!r}")
    if not checks or summary is None or int(summary.group(2)) != len(checks):
        raise MalformedOutput("verify summary line missing or inconsistent")
    if c_ground is None:
        raise MalformedOutput("verify printed no C(n=0) value")
    return VerifyReport(checks, c_ground)


def score(workload: Workload, text: str, seed: int, levels=None) -> Accuracy:
    """Accuracy of a well-formed output; raises MalformedOutput otherwise.

    `levels` maps n to reference (S0, D0) and is needed for info tables.
    """
    if workload.command == "verify":
        report = parse_verify(text)
        return Accuracy(digits=[reference.digits(report.c_ground, reference.C_GROUND)],
                        verify_worst_margin=max(report.margins.values(), default=0.0))
    table = parse_table(text, workload)

    def named(i: int) -> dict[str, float]:
        return dict(zip(workload.columns, table[i]))

    acc = Accuracy()
    if workload.command == "observables":
        for r in map(named, range(len(table))):
            ref = reference.observables(r["sigma0"], int(r["n"]), r["t"])
            acc.digits += [reference.digits(r[name], ref[name]) for name in ref]
    elif workload.command == "info":
        for r in map(named, range(len(table))):
            ref = reference.information(r["sigma0"], r["t"], *levels[int(r["n"])])
            acc.digits += [reference.abs_digits(mp.mpf(r["S_quad"]) - ref["S"]),
                           reference.digits(r["H"], ref["H"]),
                           reference.digits(r["D_closed"], ref["D"]),
                           reference.digits(r["D_quad"], ref["D"]),
                           reference.digits(r["C"], ref["C"])]
            acc.s_closed_abs_err = max(acc.s_closed_abs_err,
                                       abs(float(mp.mpf(r["S_closed"]) - ref["S"])))
    else:
        sample = random.Random(f"density_rows:{seed}").sample(range(len(table)),
                                                               DENSITY_SAMPLE_ROWS)
        for r in map(named, sorted(sample)):
            rho = reference.rho(r["sigma0"], r["t"])[0]
            ref = reference.density(int(r["n"]), r["q"], rho)
            if ref >= DENSITY_FLOOR:
                acc.digits.append(reference.digits(r["P"], ref))
    return acc
