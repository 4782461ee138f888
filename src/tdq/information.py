"""Shannon entropy, disequilibrium, and LMC statistical complexity of the
charge density.

Ground truth is direct quadrature of the density,

    S = -integral P ln P dq,     D = integral P^2 dq,
    H = e^S,                     C = H * D,

over the truncation interval of `observables`.  The closed forms are
implementations under test against that quadrature:

  * entropy: n gamma + n + 1/2 + ln(sqrt(hbar pi) n! 2^n rho)
             - 2 sum_k 2F2(1,1;3/2,2;-x_k^2) x_k^2
             + sum_k sum_i C(n,i) (-1)^i 2^i / i * 1F1(1;1/2;-x_k^2),
    summed over the roots x_k of H_n.  The double-sum term is evaluated
    exactly as printed; it reproduces quadrature for n <= 1 but is known
    to drift for n >= 2, so the comparison is reported rather than
    asserted (the quadrature value is authoritative).

  * disequilibrium: D = (1/(rho sqrt(hbar))) sum_{j=0}^{2n}
        Gamma(j+1/2)/2^{j+1/2} * 4!/(2j+4)! * B_{2j+4,4}(a),
    with Bell arguments a_i = i! q_{i-1} / sqrt(2^n n! sqrt(pi)) built from
    the integer coefficients q_l of H_n (`hermite(n).coefficients`, zero
    for l > n).  Factoring the irrational normalization out of the
    homogeneous-degree-4 Bell polynomial leaves an exactly rational sum,
    so this path is evaluated in integer/Fraction arithmetic and is
    immune to cancellation for every n <= 12.

Because P depends on time only through rho, S - ln(rho) and D * rho are
constants of the motion; C is therefore time-independent and identical
across conductivities, with C(n=0) = sqrt(e/2).

Both ways are reached through one entry point, `measures(snapshot,
method)` with method "quadrature" (the default) or "closed_form"; the
MeasureSet it returns carries the same tag.  `measures_over_time` is the
quadrature path along the exact amplitude on a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dynamics import ConductivityModel, SuperconductorParams, rho_analytic
from .errors import NormalizationError
from .observables import (
    QuantumSnapshot,
    density_values,
    make_snapshot,
    truncation_radius,
)
from .special_functions import (
    EULER_GAMMA,
    bell_partial,
    gauss_legendre,
    hermite,
    hyp1f1_special,
    hyp2f2_special,
)

_DENSITY_FLOOR = 1e-300
_QUADRATURE_POINTS = 512


@dataclass(frozen=True)
class MeasureSet:
    """(S, H, D, C) at one time, tagged with how they were computed."""

    n: int
    t: float
    entropy_S: float
    H: float
    disequilibrium_D: float
    complexity_C: float
    method: str  # "closed_form" or "quadrature"

    @classmethod
    def build(cls, n: int, t: float, entropy_S: float, disequilibrium_D: float,
              method: str) -> "MeasureSet":
        H = math.exp(entropy_S)
        return cls(n=n, t=t, entropy_S=entropy_S, H=H,
                   disequilibrium_D=disequilibrium_D,
                   complexity_C=H * disequilibrium_D, method=method)


# ---------------------------------------------------------------------------
# quadrature path (ground truth)
# ---------------------------------------------------------------------------

def _quadrature_panels(snapshot: QuantumSnapshot) -> list:
    """Gauss-Legendre panels split at the density zeros.

    P ln P behaves like (q - r)^2 ln|q - r| at each wavefunction node r,
    which stalls a single global rule; with the nodes as panel edges the
    singularities sit at endpoints and full accuracy returns.
    """
    radius = truncation_radius(snapshot)
    scale = math.sqrt(snapshot.hbar) * snapshot.rho
    edges = [-radius] + [scale * r for r in hermite(snapshot.n).roots] + [radius]
    per_panel = max(128, -(-_QUADRATURE_POINTS // (len(edges) - 1)))
    return [gauss_legendre(per_panel, a, b) for a, b in zip(edges, edges[1:])]


def _measures_quadrature(snapshot: QuantumSnapshot) -> MeasureSet:
    norm = 0.0
    entropy = 0.0
    diseq = 0.0
    for rule in _quadrature_panels(snapshot):
        p = density_values(snapshot, rule.nodes)
        norm += rule.dot(p)
        integrand = np.zeros_like(p)
        mask = p > _DENSITY_FLOOR
        integrand[mask] = p[mask] * np.log(p[mask])
        entropy -= rule.dot(integrand)
        diseq += rule.dot(p * p)
    if abs(norm - 1.0) > 1e-6:
        raise NormalizationError(
            f"density norm {norm!r} deviates from 1 beyond 1e-6 "
            f"(n={snapshot.n}, t={snapshot.t!r})")
    return MeasureSet.build(snapshot.n, snapshot.t, entropy, diseq, "quadrature")


# ---------------------------------------------------------------------------
# closed-form path
# ---------------------------------------------------------------------------

def _entropy_closed_value(n: int, rho: float, hbar: float) -> float:
    roots = hermite(n).roots
    value = (n * EULER_GAMMA + n + 0.5
             + math.log(math.sqrt(hbar * math.pi) * math.factorial(n) * 2.0 ** n * rho))
    for x in roots:
        value -= 2.0 * hyp2f2_special(-x * x) * x * x
    for x in roots:
        f11 = hyp1f1_special(-x * x)
        for i in range(1, n + 1):
            value += math.comb(n, i) * (-1.0) ** i * 2.0 ** i / i * f11
    return value


@lru_cache(maxsize=None)
def _diseq_reduced_exact(n: int) -> Fraction:
    """Exact rational value of D * rho * sqrt(hbar) * sqrt(2 pi).

    Writing c_l = q_l / sqrt(2^n n! sqrt(pi)) with the integer Hermite
    coefficients q_l, degree-4 homogeneity of B_{m,4} pulls the
    normalization out and Gamma(j+1/2) = (2j)! sqrt(pi) / (4^j j!) makes
    every remaining factor rational:

        D rho sqrt(hbar) = (1/sqrt(2 pi)) sum_j
            (2j)! 4! / (8^j j! (2j+4)!) B_{2j+4,4}(i! q_{i-1}) / (2^n n!)^2.
    """
    q = hermite(n).coefficients

    def q_at(l: int) -> int:
        return q[l] if l <= n else 0

    total = Fraction(0)
    for j in range(2 * n + 1):
        args = [math.factorial(i) * q_at(i - 1) for i in range(1, 2 * j + 2)]
        bell = bell_partial(2 * j + 4, 4, args)
        total += Fraction(math.factorial(2 * j) * 24 * bell,
                          8 ** j * math.factorial(j) * math.factorial(2 * j + 4))
    return total / (2 ** n * math.factorial(n)) ** 2


def _diseq_closed_value(n: int, rho: float, hbar: float) -> float:
    reduced = _diseq_reduced_exact(n)
    return float(reduced) / (math.sqrt(2.0 * math.pi) * rho * math.sqrt(hbar))


def _measures_closed_form(snapshot: QuantumSnapshot) -> MeasureSet:
    return MeasureSet.build(
        snapshot.n, snapshot.t,
        _entropy_closed_value(snapshot.n, snapshot.rho, snapshot.hbar),
        _diseq_closed_value(snapshot.n, snapshot.rho, snapshot.hbar),
        "closed_form")


def measures(snapshot: QuantumSnapshot, method: str = "quadrature") -> MeasureSet:
    """(S, H, D, C) of one snapshot by `method`, "quadrature" or "closed_form".

    Quadrature is the ground truth.  The closed-form disequilibrium is
    exact for n <= 12; the closed-form entropy, evaluated as printed,
    matches quadrature only for n <= 1 (see the module docstring).
    """
    if method == "quadrature":
        return _measures_quadrature(snapshot)
    if method == "closed_form":
        return _measures_closed_form(snapshot)
    raise ValueError(f"method must be 'quadrature' or 'closed_form', got {method!r}")


def measures_over_time(params: SuperconductorParams,
                       model: ConductivityModel,
                       n: int,
                       t_grid: Sequence[float]) -> list[MeasureSet]:
    """Quadrature MeasureSet per grid time along the exact amplitude."""
    out = []
    for t in t_grid:
        snapshot = make_snapshot(params, model, rho_analytic(params, t), n)
        out.append(_measures_quadrature(snapshot))
    return out
