"""Command-line interface.

Subcommands produce machine-readable tables (csv or json) behind the
figures of the study: `rho` (Pinney amplitude), `observables`
(uncertainties and mean energy), `density` (charge-space probability
density), `info` (entropy, disequilibrium, complexity), plus `verify`
(the invariant suite).  Output is data only; plotting belongs to
external tools.

Determinism contract: identical flags give byte-identical output.  Rows
are ordered lexicographically by (sigma0, n, t, q); floats are printed
with 17 significant digits (binary64 round-trip); run metadata lives in
'#' comment lines above the csv header.  A table is computed whole and
then streamed block by block: csv as ASCII bytes, one write per block to
the binary buffer under the output stream, its floats formatted by
`float17.format_17g` together with those of the blocks that follow, up
to `float17.CHUNK` values a call; json as the bytes of one
`json.dumps(..., indent=1)`.  Every table command walks `_levels`, one
(sigma0, n) level over the whole time grid at a time (`rho`, which reads
no --n, one n = 0 level per sigma0); `rho`, `observables` and `info`
print one block, `density` one block per (sigma0, n, t) profile, whose
table declares the charge grid as the column every block shares, so
that it is formatted once.  Every csv field has the bytes `_fmt` gives
its value (`%d` for an integer, 17 significant digits otherwise), so the
contract holds however the rows are grouped into blocks.

Exit codes: 0 success, 1 verification failure, 2 for any `TdqError`
(invalid configuration, envelope violation, a series that did not
converge or a density that lost its norm) and for an output that cannot
be written (a full disk, an --out that cannot be opened), 141 (128 +
SIGPIPE) when the reader closes stdout before the output is written.  `rho`, `observables`
and `info` print only finite numbers: `_stacked` raises EnvelopeError
naming the first value out of the float range by its column, sigma0, n
and t.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import SuperconductorParams
from .errors import ConfigError, EnvelopeError, TdqError
from .float17 import CHUNK, format_17g
from .information import _check_closed_form_order, measures
from .observables import (
    density_values,
    energy_mean,
    levels,
    moments,
    uncertainty_product,
)
from .special_functions import _check_hermite_bound
from .verify import run_checks


@dataclass
class RunConfig:
    """One fully resolved invocation."""

    command: str
    sigma0: list[float] = field(default_factory=list)
    A: float = 1.0
    eps0: float = 1.0
    c: float = 1.0
    lambdaL: float = 1.0
    hbar: float = 1.0
    n: list[int] = field(default_factory=lambda: [0])
    t0: float = 0.0
    t1: float = 5.0
    steps: int = 101
    qmin: float = -6.0
    qmax: float = 6.0
    qpoints: int = 401
    fmt: str = "csv"
    out: str = "-"
    tol_verify: float = 1.0

    def validate(self) -> None:
        """Check the flags no library object owns; SuperconductorParams and
        QuantumSnapshot check the physical constants and n."""
        for f in fields(self):
            value = getattr(self, f.name)
            flag = f"--{f.name.replace('_', '-')}"
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{flag} must be finite, got {v!r}")
            repeated = [v for v in value if value.count(v) > 1] if isinstance(value, list) else []
            if repeated:  # compared as numbers, so 0 and -0 repeat
                raise ConfigError(f"{flag} lists {_fmt(repeated[0])} more than once")
        if self.t0 < 0.0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if self.qpoints < 2:
            raise ConfigError(f"qpoints must be >= 2, got {self.qpoints}")
        if self.tol_verify <= 0.0:
            raise ConfigError(f"--tol-verify must be > 0, got {self.tol_verify}")
        # a span that overflows is caught before linspace warns about it
        for what, names, grid in (("time", ("t0", "t1", "steps"), self.t_grid),
                                  ("charge", ("qmin", "qmax", "qpoints"), self.q_grid)):
            lo, hi, _ = (getattr(self, name) for name in names)
            given = ", ".join(f"--{name}={getattr(self, name)!r}" for name in names)
            # numpy refuses a grid too large to allocate: from 2**63 - 1 to
            # just under 2**64 points linspace raises IndexError
            try:
                ascending = math.isfinite(hi - lo) and np.all(np.diff(grid()) > 0.0)
            except (MemoryError, ValueError, IndexError) as exc:
                raise ConfigError(f"{given} give a {what} grid too large to "
                                  "allocate") from exc
            if not ascending:
                raise ConfigError(f"{given} do not give a finite, strictly ascending "
                                  f"{what} grid")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)

    def q_grid(self) -> np.ndarray:
        return np.linspace(self.qmin, self.qmax, self.qpoints)

    def params_for(self, sigma0: float) -> SuperconductorParams:
        return SuperconductorParams(sigma0=sigma0, A=self.A, eps0=self.eps0,
                                    c=self.c, lambdaL=self.lambdaL, hbar=self.hbar)

    def meta(self) -> str:
        parts = [f"command={self.command}"]
        for flag, commands, _ in _FLAGS:
            if self.command not in commands or flag in ("--format", "--out"):
                continue
            name = flag[2:].replace("-", "_")
            value = getattr(self, name)
            text = ",".join(map(_fmt, value)) if isinstance(value, list) else _fmt(value)
            parts.append(f"{name}={text}")
        return " ".join(parts)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# One row of an `indent=1` json document, which sits at depth 2: its items
# are separated by ",\n   ".  Unlike `indent=1`, separators alone keep the
# C encoder.
_JSON_ROW = json.JSONEncoder(separators=(",\n   ", ": "))


@dataclass
class _Table:
    """A table's rows in blocks that share their leading values.

    A block is (head, columns): each of its rows is the head values, then
    one value from every `shared` column, then one from each of the
    block's columns, and all of these columns share one length.  `shared`
    holds the columns every block carries (the charge grid of `density`),
    which the csv writer formats once.  len() is the number of rows.
    """

    shared: tuple = ()
    blocks: list[tuple[tuple, tuple]] = field(default_factory=list)

    def add(self, head: tuple, *columns) -> None:
        self.blocks.append((head, columns))

    def __len__(self) -> int:
        return sum(len(columns[0]) for _, columns in self.blocks)


def _write_table(config: RunConfig, columns: list[str], table: _Table) -> None:
    """Write `table` under the header `columns`, one block at a time.

    The table is computed whole before this is called, so an invalid
    configuration or envelope violation writes nothing.  An OSError from
    opening or writing the output reaches `main`, which names the stream.
    """
    out = (contextlib.nullcontext(sys.stdout) if config.out == "-"
           else open(config.out, "w", newline="\n"))
    with out as handle:
        if config.fmt == "json":
            _write_json(handle, config.meta(), columns, table)
        else:
            _write_csv(handle, config.meta(), columns, table)


def _write_csv(handle, meta: str, columns: list[str], table: _Table) -> None:
    """csv rows as ASCII bytes, one NUL strip and one write per block.

    The bytes go to `handle.buffer` after one flush, so that text written
    to `handle` before keeps its place; a handle with no buffer, such as
    io.StringIO, gets them decoded.  Every field has the bytes `_fmt`
    gives its value.  The shared columns are formatted once, without
    their all-NUL byte columns, so their lines carry less padding; the
    blocks' columns are formatted ahead by `_formatted`, so that one
    `format_17g` call serves several blocks and memory is bounded by its
    group, not by the table.  A block's lines are one NUL-padded byte
    matrix whose head is as wide as the table's widest, so the blocks
    that follow with as many rows and fields as wide share it: its
    commas, newlines and shared fields are laid once, and each block lays
    only its head and its own fields.
    """
    handle.flush()
    raw = getattr(handle, "buffer", None)
    write = raw.write if raw is not None else lambda data: handle.write(data.decode("ascii"))
    write(f"# {meta}\n{','.join(columns)}\n".encode("ascii"))
    heads = ["".join(_fmt(v) + "," for v in head).encode() for head, _ in table.blocks]
    head_width = max(map(len, heads), default=0)
    shared = [text[:, text.any(axis=0)] for text in _formatted(table.shared)]
    texts = _formatted(c for _, block in table.blocks for c in block)
    layout = None
    for head, (_, block) in zip(heads, table.blocks):
        fields = shared + [next(texts) for _ in block]
        rows, widths = len(fields[0]), [f.shape[1] for f in fields]
        new = len(shared)  # a kept matrix holds the shared fields already
        if layout != (rows, widths):  # a new matrix: lay its separators and every field
            layout, new = (rows, widths), 0
            ends = head_width + np.cumsum(np.add(widths, 1))  # one past each field's separator
            lines = bytearray(rows * ends[-1])
            matrix = np.frombuffer(lines, np.uint8).reshape(rows, ends[-1])
            matrix[:, ends - 1] = ord(",")
            matrix[:, -1] = ord("\n")
        matrix[:, :head_width] = np.frombuffer(head.ljust(head_width, b"\0"), np.uint8)
        for text, end in zip(fields[new:], ends[new:]):
            matrix[:, end - 1 - text.shape[1]:end - 1] = text
        write(lines.translate(None, b"\0"))


def _formatted(columns):
    """The csv fields of each of `columns` in turn, as NUL-padded byte
    matrices formatted ahead: `%d` for an integer dtype; consecutive other
    columns join in groups of at most `CHUNK` values (a longer column is a
    group alone), one `format_17g` call per group."""
    def texts(group):
        return np.split(format_17g(np.concatenate(group)),
                        np.cumsum([len(c) for c in group[:-1]]))
    group, size = [], 0
    for column in map(np.asarray, columns):
        integer = column.dtype.kind in "iu"
        if group and (integer or size + len(column) > CHUNK):
            yield from texts(group)
            group, size = [], 0
        if integer:
            text = np.array([b"%d" % v for v in column.tolist()])
            yield text.view(np.uint8).reshape(len(column), -1)
        else:
            group.append(column)
            size += len(column)
    if group:
        yield from texts(group)


def _write_json(handle, meta: str, columns: list[str], table: _Table) -> None:
    """The bytes of `json.dumps({"meta", "columns", "rows"}, indent=1) + "\n"`.

    The frame is written by hand and each block's rows are encoded on
    their own, so no whole-table object or string is built.
    """
    handle.write('{\n "meta": ' + json.dumps(meta) + ',\n "columns": '
                 + json.dumps(columns, indent=1).replace("\n", "\n ")
                 + ',\n "rows": [\n  ')
    shared = [np.asarray(c).tolist() for c in table.shared]
    separator = ""
    for head, block in table.blocks:
        head = [int(v) if isinstance(v, (int, np.integer)) else float(v) for v in head]
        handle.write(separator + ",\n  ".join(
            "[\n   " + _JSON_ROW.encode([*head, *row])[1:-1] + "\n  ]"
            for row in zip(*shared, *(np.asarray(c).tolist() for c in block))))
        separator = ",\n  "
    handle.write("\n ]\n}\n")


def _stacked(columns: list[str], levels: list[tuple]) -> _Table:
    """One block with an empty head, each column concatenated over `levels`.

    EnvelopeError names the first value that is not finite, in row order,
    by its column, sigma0, n (if a column) and t.
    """
    block = [np.concatenate(values) for values in zip(*levels)]
    bad = ~np.isfinite(np.stack(block, axis=-1))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(columns))
        at = {name: values[row].item() for name, values in zip(columns, block)}
        where = ", ".join(f"{name}={at[name]!r}" for name in ("sigma0", "n", "t") if name in at)
        raise EnvelopeError(f"{columns[col]} at {where} is {at[columns[col]]!r}, "
                            "not a finite float")
    table = _Table()
    table.add((), *block)
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rho(config: RunConfig) -> int:
    """Columns (t, sigma0, rho, rho_dot, L, omega_sq) over the sweep: one
    n = 0 level per sigma0, since `rho` reads no --n."""
    columns = ["t", "sigma0", "rho", "rho_dot", "L", "omega_sq"]
    parts = [(t, sigma0, level.rho, level.rho_dot, level.L, level.omega_sq)
             for level, (t, sigma0, _) in _levels(config)]
    _write_table(config, columns, _stacked(columns, parts))
    return 0


def _levels(config: RunConfig):
    """Each level in row order (sigma0, n), with its (t, sigma0, n) columns.
    A level checks n against the int64 column alone, so a command with a
    tighter bound on n checks it first, to name that bound."""
    grid = config.t_grid()
    for sigma0 in sorted(config.sigma0):
        for level in levels(config.params_for(sigma0), sorted(config.n), grid):
            yield level, (level.t, np.full_like(level.t, sigma0), np.full(grid.size, level.n))


def cmd_observables(config: RunConfig) -> int:
    """Second moments, uncertainty product, and mean energy per (t, sigma0, n)."""
    columns = ["t", "sigma0", "n", "q2", "phi2", "dq_dphi", "energy", "energy_per_level"]
    parts = []
    for level, keys in _levels(config):
        _, _, q2, phi2 = moments(level)
        energy = energy_mean(level)
        parts.append((*keys, q2, phi2, uncertainty_product(level), energy,
                      energy / (level.n + 0.5)))
    _write_table(config, columns, _stacked(columns, parts))
    return 0


def cmd_density(config: RunConfig) -> int:
    """Probability density P(q) per (t, sigma0, n) over the charge grid.

    P is evaluated once per level.  The table's shared column is the
    charge grid; one block per (sigma0, n, t) has the head (t, sigma0, n)
    and the column P on that grid.
    """
    for n in config.n:
        _check_hermite_bound(n)
    q_grid = config.q_grid()
    table = _Table(shared=(q_grid,))
    for level, keys in _levels(config):
        p = density_values(level, q_grid)
        with np.errstate(over="ignore"):  # an overflow is a norm of inf, and warned of
            norms = np.trapezoid(p, q_grid, axis=-1).tolist()
        heads = zip(*(column.tolist() for column in keys))
        for (t, sigma0, n), row, norm in zip(heads, p, norms):
            if not abs(norm - 1.0) <= 1e-6:  # NaN included
                print(f"warning: density norm {norm:.9f} off unit at sigma0={_fmt(sigma0)}, "
                      f"n={n}, t={_fmt(t)}; widen --qmin/--qmax, or raise "
                      "--qpoints if the grid is too coarse", file=sys.stderr)
            table.add((t, sigma0, n), row)
    _write_table(config, ["t", "sigma0", "n", "q", "P"], table)
    return 0


def cmd_info(config: RunConfig) -> int:
    """Entropy, disequilibrium, and complexity; H, D, C from quadrature."""
    columns = ["t", "sigma0", "n", "S_closed", "S_quad", "H", "D_closed", "D_quad", "C"]
    for n in config.n:
        _check_closed_form_order(n)
    parts = []
    for level, keys in _levels(config):
        closed = measures(level, "closed_form")
        quad = measures(level)
        parts.append((*keys, closed.entropy_S, quad.entropy_S, quad.H, closed.disequilibrium_D,
                      quad.disequilibrium_D, np.full_like(level.t, quad.complexity_C)))
    _write_table(config, columns, _stacked(columns, parts))
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the invariant suite; exit 0 iff every check passes (an
    informational check always does)."""
    results = run_checks(tol_scale=config.tol_verify)
    for r in results:
        tag = "INFO" if r.informational else ("PASS" if r.passed else "FAIL")
        note = f"  [{r.note}]" if r.note else ""
        print(f"{tag} {r.name:40s} residual={r.residual:.3e} tol={r.tolerance:.1e}{note}")
    failures = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        print("failed checks: " + ", ".join(failures))
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _list_of(kind):
    """argparse type: a non-empty comma-separated list of `kind` values."""
    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from exc
        if not values:
            raise argparse.ArgumentTypeError(f"empty {kind.__name__} list")
        return values
    return parse


_TABLES = ("rho", "observables", "density", "info")
_SWEEPS = ("observables", "density", "info")

# Every flag, the subcommands that read it, and its argparse keywords; a
# subcommand accepts only its own flags.  The '#' metadata line records a
# command's flags in this order, all but --format and --out.  Defaults are
# the RunConfig field defaults, overridden per command by _DEFAULTS.
_FLAGS = (
    ("--sigma0", _TABLES, {"type": _list_of(float),
                           "help": "comma-separated conductivity amplitudes"}),
    ("--A", _TABLES, {"type": float, "help": "conductivity decay rate"}),
    ("--eps0", _TABLES, {"type": float, "help": "vacuum permittivity"}),
    ("--c", _TABLES, {"type": float, "help": "light speed"}),
    ("--lambdaL", _TABLES, {"type": float, "help": "London penetration depth"}),
    ("--hbar", _SWEEPS, {"type": float, "help": "reduced Planck constant"}),
    ("--n", _SWEEPS, {"type": _list_of(int), "help": "comma-separated quantum numbers"}),
    ("--t0", _TABLES, {"type": float}),
    ("--t1", _TABLES, {"type": float}),
    ("--steps", _TABLES, {"type": int}),
    ("--qmin", ("density",), {"type": float}),
    ("--qmax", ("density",), {"type": float}),
    ("--qpoints", ("density",), {"type": int}),
    ("--format", _TABLES, {"dest": "fmt", "choices": ("csv", "json")}),
    ("--out", _TABLES, {"help": "output path, '-' for stdout"}),
    ("--tol-verify", ("verify",), {"type": float,
                                   "help": "scale factor on every check tolerance"}),
)

# no flag looks like a number, so -1e-3 and -inf are values, as -1 and -.5 are to argparse
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

# per-command figure defaults that differ from RunConfig's: sigma0, time window
_DEFAULTS = {
    "rho": {"sigma0": [2.0]},
    "observables": {"sigma0": [0.4, 0.6, 0.8]},
    "density": {"sigma0": [1.5], "t1": 1.0, "steps": 3},
    "info": {"sigma0": [2.0, 2.5, 3.0], "t1": 2.0, "steps": 51},
}


# every subcommand: its handler and its help text
_COMMANDS = {
    "rho": (cmd_rho, "Pinney amplitude rho(t), slope, L(t), and omega^2(t)"),
    "observables": (cmd_observables, "second moments, uncertainty product, mean energy"),
    "density": (cmd_density, "charge-space probability density profiles"),
    "info": (cmd_info, "Shannon entropy, disequilibrium, statistical complexity"),
    "verify": (cmd_verify, "run the full invariant/property suite"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `tdq` parser: every subcommand, so that help, choices and errors
    name them all, but only the subparser of `command` gets its flags,
    since one invocation parses one subcommand."""
    parser = argparse.ArgumentParser(
        prog="tdq",
        description="Charge quantization in a superconductor with "
                    "time-dependent conductivity: tabular data engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=desc, description=desc,
                                        argument_default=argparse.SUPPRESS)
        if name == command:
            command_parser._negative_number_matcher = _NEGATIVE_NUMBER
            for flag, commands, keywords in _FLAGS:
                if command in commands:
                    command_parser.add_argument(flag, **keywords)
            command_parser.set_defaults(**_DEFAULTS.get(command, {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    config = RunConfig(**vars(build_parser(argv[0] if argv else None).parse_args(argv)))
    try:
        config.validate()
        code = _COMMANDS[config.command][0](config)
        sys.stdout.flush()  # a closed pipe or a full disk must fail here, not at exit
        return code
    except TdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the failed stream is stdout: point it at devnull, so that the
        # flush at exit cannot fail again
        if config.out == "-":
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # exit as a SIGPIPE-killed process would
            return 141
        stream = "stdout" if config.out == "-" else f"--out {config.out!r}"
        print(f"error: {stream} cannot be written: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
