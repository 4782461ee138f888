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
'#' comment lines above the csv header.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or envelope violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    ConductivityModel,
    SuperconductorParams,
    omega_sq,
    rho_analytic,
    solve_pinney_numeric,
)
from .errors import ConfigError, DomainError, GridCoverageWarning
from .information import _measures_closed_form, _measures_quadrature
from .observables import (
    density_values,
    energy_mean,
    make_snapshot,
    moments,
    uncertainty_product,
)
from .verify import run_checks


@dataclass
class RunConfig:
    """One fully resolved invocation."""

    command: str
    sigma0: list[float]
    A: float = 1.0
    eps0: float = 1.0
    c: float = 1.0
    lambdaL: float = 1.0
    hbar: float = 1.0
    n: list[int] = field(default_factory=lambda: [0])
    t0: float = 0.0
    t1: float = 5.0
    steps: int = 101
    qmin: float = -4.0
    qmax: float = 4.0
    qpoints: int = 401
    fmt: str = "csv"
    out: str = "-"
    seed_from_analytic: bool = False
    tol_verify: float = 1.0

    def validate(self) -> None:
        if not self.sigma0:
            raise ConfigError("sigma0 sweep must be non-empty")
        if any(s < 0 for s in self.sigma0):
            raise ConfigError("sigma0 values must be >= 0")
        if not self.n:
            raise ConfigError("n sweep must be non-empty")
        if any(n < 0 for n in self.n):
            raise ConfigError("n values must be >= 0")
        if self.t0 < 0.0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if not self.t1 > self.t0:
            raise ConfigError(f"t1 must exceed t0, got t0={self.t0}, t1={self.t1}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if not self.qmin < self.qmax:
            raise ConfigError(f"qmin must be below qmax, got {self.qmin}, {self.qmax}")
        if self.qpoints < 2:
            raise ConfigError(f"qpoints must be >= 2, got {self.qpoints}")
        for name in ("A", "eps0", "c", "lambdaL", "hbar"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps)

    def q_grid(self) -> np.ndarray:
        return np.linspace(self.qmin, self.qmax, self.qpoints)

    def params_for(self, sigma0: float) -> SuperconductorParams:
        return SuperconductorParams(sigma0=sigma0, A=self.A, eps0=self.eps0,
                                    c=self.c, lambdaL=self.lambdaL, hbar=self.hbar)

    def meta(self) -> str:
        parts = [f"command={self.command}",
                 "sigma0=" + ",".join(_fmt(v) for v in self.sigma0),
                 f"A={_fmt(self.A)}", f"eps0={_fmt(self.eps0)}", f"c={_fmt(self.c)}",
                 f"lambdaL={_fmt(self.lambdaL)}", f"hbar={_fmt(self.hbar)}"]
        if self.command in ("observables", "density", "info"):
            parts.append("n=" + ",".join(str(v) for v in self.n))
        if self.command != "verify":
            parts += [f"t0={_fmt(self.t0)}", f"t1={_fmt(self.t1)}",
                      f"steps={self.steps}"]
        if self.command == "density":
            parts += [f"qmin={_fmt(self.qmin)}", f"qmax={_fmt(self.qmax)}",
                      f"qpoints={self.qpoints}"]
        if self.command == "rho":
            parts.append(f"seed_from_analytic={self.seed_from_analytic}")
        return " ".join(parts)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_table(config: RunConfig, columns: list[str], rows: list[tuple]) -> None:
    if config.fmt == "csv":
        lines = [f"# {config.meta()}", ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {"meta": config.meta(), "columns": columns,
                   "rows": [[(int(v) if isinstance(v, (int, np.integer)) else float(v))
                             for v in row] for row in rows]}
        text = json.dumps(payload, indent=1) + "\n"
    if config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="\n") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rho(config: RunConfig) -> int:
    """Columns (t, sigma0, rho, rho_dot, L, omega_sq) over the sweep."""
    rows = []
    grid = config.t_grid()
    for sigma0 in sorted(config.sigma0):
        params = config.params_for(sigma0)
        model = ConductivityModel.hyperbolic(params)
        if config.seed_from_analytic:
            states = solve_pinney_numeric(params, model, t_grid=grid)
        else:
            states = [rho_analytic(params, float(t)) for t in grid]
        for t, state in zip(grid, states):
            rows.append((float(t), sigma0, state.rho, state.rho_dot,
                         model.L(float(t)), omega_sq(params, model, float(t))))
    _write_table(config, ["t", "sigma0", "rho", "rho_dot", "L", "omega_sq"], rows)
    return 0


def _snapshots(config: RunConfig):
    """(sigma0, n, t, snapshot) in row order (sigma0, n, t).

    The Pinney amplitude depends on (sigma0, t) only, so it is computed
    once per pair and shared by every n.
    """
    grid = config.t_grid()
    for sigma0 in sorted(config.sigma0):
        params = config.params_for(sigma0)
        model = ConductivityModel.hyperbolic(params)
        states = [rho_analytic(params, float(t)) for t in grid]
        for n in sorted(config.n):
            for state in states:
                yield sigma0, n, state.t, make_snapshot(params, model, state, n)


def cmd_observables(config: RunConfig) -> int:
    """Second moments, uncertainty product, and mean energy per (t, sigma0, n)."""
    rows = []
    for sigma0, n, t, snap in _snapshots(config):
        _, _, q2, phi2 = moments(snap)
        energy = energy_mean(snap)
        rows.append((t, sigma0, n, q2, phi2, uncertainty_product(snap), energy,
                     energy / (n + 0.5)))
    _write_table(config, ["t", "sigma0", "n", "q2", "phi2", "dq_dphi",
                          "energy", "energy_per_level"], rows)
    return 0


def cmd_density(config: RunConfig) -> int:
    """Probability density P(q) per (t, sigma0, n) over the charge grid."""
    rows = []
    q_grid = config.q_grid()
    warnings.simplefilter("always", GridCoverageWarning)
    for sigma0, n, t, snap in _snapshots(config):
        p = density_values(snap, q_grid)
        norm = float(np.trapezoid(p, q_grid))
        if abs(norm - 1.0) > 1e-6:
            print(f"warning: density norm {norm:.9f} off unit at "
                  f"sigma0={_fmt(sigma0)}, n={n}, t={_fmt(t)}; "
                  "widen the charge grid", file=sys.stderr)
        for q, pv in zip(q_grid, p):
            rows.append((t, sigma0, n, float(q), float(pv)))
    _write_table(config, ["t", "sigma0", "n", "q", "P"], rows)
    return 0


def cmd_info(config: RunConfig) -> int:
    """Entropy, disequilibrium, and complexity; H, D, C from quadrature."""
    rows = []
    for sigma0, n, t, snap in _snapshots(config):
        closed = _measures_closed_form(snap)
        quad = _measures_quadrature(snap)
        rows.append((t, sigma0, n,
                     closed.entropy_S, quad.entropy_S, quad.H,
                     closed.disequilibrium_D, quad.disequilibrium_D,
                     quad.complexity_C))
    _write_table(config, ["t", "sigma0", "n", "S_closed", "S_quad", "H",
                          "D_closed", "D_quad", "C"], rows)
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the invariant suite; exit 0 iff every non-informational check passes."""
    results = run_checks(tol_scale=config.tol_verify)
    failures = []
    for r in results:
        tag = "INFO" if r.informational else ("PASS" if r.passed else "FAIL")
        line = f"{tag} {r.name:40s} residual={r.residual:.3e} tol={r.tolerance:.1e}"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
        if not r.passed and not r.informational:
            failures.append(r.name)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    if failures:
        print("failed checks: " + ", ".join(failures))
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from exc


_DEFAULTS = {
    # per-command figure defaults: sigma0 sweep, n sweep, time window
    "rho": (["2"], ["0"], 0.0, 5.0, 101),
    "observables": (["0.4", "0.6", "0.8"], ["0"], 0.0, 5.0, 101),
    "density": (["1.5"], ["0"], 0.0, 1.0, 3),
    "info": (["2", "2.5", "3"], ["0"], 0.0, 2.0, 51),
    "verify": (["2"], ["0"], 0.0, 5.0, 101),
}


def _add_common(sub: argparse.ArgumentParser, command: str) -> None:
    sigmas, ns, t0, t1, steps = _DEFAULTS[command]
    sub.add_argument("--sigma0", type=_float_list,
                     default=[float(s) for s in sigmas],
                     help="comma-separated conductivity amplitudes "
                          f"(default {','.join(sigmas)})")
    sub.add_argument("--A", type=float, default=1.0, help="conductivity decay rate")
    sub.add_argument("--eps0", type=float, default=1.0, help="vacuum permittivity")
    sub.add_argument("--c", type=float, default=1.0, help="light speed")
    sub.add_argument("--lambdaL", type=float, default=1.0,
                     help="London penetration depth")
    sub.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant")
    sub.add_argument("--n", type=_int_list, default=[int(v) for v in ns],
                     help="comma-separated quantum numbers")
    sub.add_argument("--t0", type=float, default=t0)
    sub.add_argument("--t1", type=float, default=t1)
    sub.add_argument("--steps", type=int, default=steps)
    sub.add_argument("--qmin", type=float, default=-4.0)
    sub.add_argument("--qmax", type=float, default=4.0)
    sub.add_argument("--qpoints", type=int, default=401)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    sub.add_argument("--seed-from-analytic", action="store_true",
                     help="rho: integrate numerically from analytic initial values")
    sub.add_argument("--tol-verify", type=float, default=1.0,
                     help="verify: scale factor on every check tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdq",
        description="Charge quantization in a superconductor with "
                    "time-dependent conductivity: tabular data engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "rho": "Pinney amplitude rho(t), slope, L(t), and omega^2(t)",
        "observables": "second moments, uncertainty product, mean energy",
        "density": "charge-space probability density profiles",
        "info": "Shannon entropy, disequilibrium, statistical complexity",
        "verify": "run the full invariant/property suite",
    }
    for command, desc in descriptions.items():
        _add_common(sub.add_parser(command, help=desc, description=desc), command)
    return parser


_COMMANDS = {
    "rho": cmd_rho,
    "observables": cmd_observables,
    "density": cmd_density,
    "info": cmd_info,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(command=args.command, sigma0=args.sigma0, A=args.A,
                       eps0=args.eps0, c=args.c, lambdaL=args.lambdaL,
                       hbar=args.hbar, n=args.n, t0=args.t0, t1=args.t1,
                       steps=args.steps, qmin=args.qmin, qmax=args.qmax,
                       qpoints=args.qpoints, fmt=args.fmt, out=args.out,
                       seed_from_analytic=args.seed_from_analytic,
                       tol_verify=args.tol_verify)
    try:
        config.validate()
        return _COMMANDS[config.command](config)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
