"""The benchmark's workloads: seeded `tdq` CLI flags and the table they imply.

The seed only draws the conductivity amplitudes sigma0; everything else
is fixed per workload.  The program sees nothing but the generated flags.
All four use the figure units A = eps0 = c = lambdaL = hbar = 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# sigma0 = 3 - 1e-9 puts the Bessel order (1 + sigma0)/2 within 5e-10 of 2,
# where the reflection formula for Y loses digits.
NEAR_INTEGER_SIGMA0 = "2.999999999"
SIGMA0_RANGE = (0.2, 3.5)

NAMES = ("amplitude_sweep", "info_levels", "density_table", "verify_suite")

COLUMNS = {
    "observables": ("t", "sigma0", "n", "q2", "phi2", "dq_dphi", "energy",
                    "energy_per_level"),
    "info": ("t", "sigma0", "n", "S_closed", "S_quad", "H", "D_closed", "D_quad", "C"),
    "density": ("t", "sigma0", "n", "q", "P"),
}


@dataclass(frozen=True)
class Workload:
    """One generated CLI invocation and the grid its table must cover."""

    command: str
    sigma0: tuple[str, ...] = ()
    n: tuple[int, ...] = ()
    t_range: tuple[float, float, int] = (0.0, 1.0, 2)
    q_range: tuple[float, float, int] | None = None

    @property
    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify"]
        t0, t1, steps = self.t_range
        argv = [self.command, "--sigma0", ",".join(self.sigma0),
                "--n", ",".join(str(v) for v in self.n),
                "--t0", repr(t0), "--t1", repr(t1), "--steps", str(steps)]
        if self.q_range is not None:
            qmin, qmax, qpoints = self.q_range
            argv += ["--qmin", repr(qmin), "--qmax", repr(qmax),
                     "--qpoints", str(qpoints)]
        return argv

    @property
    def columns(self) -> tuple[str, ...]:
        return COLUMNS[self.command]

    def t_grid(self) -> np.ndarray:
        return np.linspace(*self.t_range)

    def q_grid(self) -> np.ndarray:
        return np.linspace(*self.q_range)

    def sigma0_sorted(self) -> list[float]:
        return sorted(float(s) for s in self.sigma0)

    def expected_rows(self) -> int:
        q = self.q_range[2] if self.q_range else 1
        return len(self.sigma0) * len(self.n) * self.t_range[2] * q


def _draw_sigma0(rng: random.Random, count: int) -> tuple[str, ...]:
    """One uniform draw from each of `count` equal slices of SIGMA0_RANGE.

    Stratifying keeps every seed's sweep spread over the whole range, so
    the cost of a run (which varies with sigma0 by up to ~1.5x) differs
    little between seeds while the values themselves do.
    """
    lo, hi = SIGMA0_RANGE
    width = (hi - lo) / count
    return tuple(f"{lo + width * (i + rng.random()):.6f}" for i in range(count))


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its sigma0 values drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "amplitude_sweep":
        # Bessel argument k(At+1) reaches the envelope edge 50 at t=49, so the
        # large-x dd series is hot; rho_analytic is ~99% of this run.
        return Workload("observables",
                        sigma0=_draw_sigma0(rng, 6) + (NEAR_INTEGER_SIGMA0,),
                        n=(0,), t_range=(0.0, 49.0, 101))
    if name == "info_levels":
        # Small Bessel argument; the closed form (hyp2f2/hyp1f1), quadrature
        # and rho_analytic recomputed for every n share the run.
        return Workload("info", sigma0=_draw_sigma0(rng, 3),
                        n=tuple(range(13)), t_range=(0.0, 2.0, 11))
    if name == "density_table":
        # ~330k rows (21 MB of csv): the table writer dominates, compute is light.
        return Workload("density", sigma0=_draw_sigma0(rng, 3),
                        n=tuple(range(5)), t_range=(0.5, 2.0, 11),
                        q_range=(-8.0, 8.0, 2001))
    if name == "verify_suite":
        # Seed-independent; the only workload reaching RK45 and adaptive Simpson.
        return Workload("verify")
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
