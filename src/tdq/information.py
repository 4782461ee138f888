"""Shannon entropy, disequilibrium, and LMC statistical complexity of the
charge density.

The density is P(q,t) = h_n(q/s)^2 / s with the width s = sqrt(hbar) rho(t)
(`QuantumSnapshot.scale`), so with the level constants

    s_n = -integral h_n^2 ln h_n^2 dxi,     d_n = integral h_n^4 dxi

every measure follows from a level constant and a power of s:

    S = s_n + ln s,   H = e^S = e^{s_n} s,
    D = d_n / s,      C = H D = e^{s_n} d_n.

C does not depend on s, and so on neither time nor conductivity, with
C(n=0) = sqrt(e/2).  Each method computes (s_n, d_n) once per n and
shares the one scaling step, which forms each measure by its own law:

  * quadrature (ground truth): Gauss-Legendre panels in xi split at the
    roots of H_n, each mapped through the sine transform
    u -> u - sin(2 pi u)/(2 pi), whose weight 1 - cos(2 pi u) vanishes to
    second order at both panel ends.  That absorbs the (xi - r)^2 ln|xi - r|
    singularity of h_n^2 ln h_n^2 at each root, and one node count
    serves every panel and every n <= 14 to ~2e-15.  The mapped rule is
    built once; all n + 1 panels are mapped at once, so h_n is evaluated
    once per level.

  * closed form: the entropy as printed at rho = hbar = 1,
        n gamma + n + 1/2 + ln(sqrt(pi) n! 2^n)
        - 2 sum_k 2F2(1,1;3/2,2;-x_k^2) x_k^2
        + sum_k sum_i C(n,i) (-1)^i 2^i / i * 1F1(1;1/2;-x_k^2),
    summed over the roots x_k of H_n.  The double-sum term is evaluated
    as printed (its i-sum coefficient as the exact rational
    -2 sum_{odd k <= n} 1/k).  The roots are exactly symmetric, so 1F1
    and 2F2 are summed together, in one fixed-point pass (`_hyp_pair`)
    per root pair +-x_k, both correctly rounded; the result reproduces
    quadrature for n <= 1 but is known to drift for n >= 2, so the
    comparison is reported rather than asserted (the quadrature value is
    authoritative).  The disequilibrium is a sum of Gaussian moments of
    the integer polynomial H_n^4, whose coefficients c_k come from the
    integer coefficients of H_n (`hermite(n).coefficients`):
        d_n = sum_{j=0}^{2n} (2j-1)!! / 4^j c_{2j} / ((2^n n!)^2 sqrt(2 pi)).
    By sum_m B_{m,4}(a) x^m/m! = (sum_i a_i x^i/i!)^4/4! this is, term by
    term, the printed sum
        sum_j Gamma(j+1/2)/2^{j+1/2} * 4!/(2j+4)! * B_{2j+4,4}(a)
    over partial Bell polynomials with a_i = i! q_{i-1} / sqrt(2^n n! sqrt(pi)).
    Every factor is rational, so d_n is summed exactly in integer/Fraction
    arithmetic and is immune to cancellation.

Both ways are reached through one entry point, `measures(snapshot,
method)` with method "quadrature" (the default) or "closed_form", and
both scale (s_n, d_n) by the snapshot's density width s in `_scaled`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, EnvelopeError, NormalizationError
from .observables import QuantumSnapshot, _truncation_edge
from .special_functions import (
    EULER_GAMMA,
    _hyp_pair,
    gauss_legendre,
    hermite,
    hermite_function,
)

# nodes per panel of the sine-mapped rule: 128 leave d_n off by ~8e-11,
# 160 give s_n, d_n and the norm to ~2e-15 for every n <= 14
_PANEL_NODES = 160
# the levels the closed-form tests cover: d_n against the printed Bell sum
# and quadrature, S_closed against a 40-digit evaluation of the same formula
_MAX_CLOSED_FORM_N = 14


@dataclass(frozen=True)
class MeasureSet:
    """(S, H, D, C) of one snapshot."""

    entropy_S: float
    H: float
    disequilibrium_D: float
    complexity_C: float


def _scaled(snapshot: QuantumSnapshot, s_n: float, d_n: float) -> MeasureSet:
    """Each measure as its scaling law in the density width s =
    `snapshot.scale`: S = s_n + ln s, H = e^{s_n} s, D = d_n / s and
    C = e^{s_n} d_n, which does not depend on s, so a level has one C."""
    scale = snapshot.scale
    level_H = math.exp(s_n)
    return MeasureSet(entropy_S=s_n + math.log(scale), H=level_H * scale,
                      disequilibrium_D=d_n / scale, complexity_C=level_H * d_n)


# ---------------------------------------------------------------------------
# quadrature path (ground truth)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sine_mapped_panel() -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the _PANEL_NODES-point rule on [0, 1] mapped
    through u -> u - sin(2 pi u)/(2 pi), built once and read-only."""
    nodes, weights = gauss_legendre(_PANEL_NODES, 0.0, 1.0)
    angle = 2.0 * math.pi * nodes
    mapped = nodes - np.sin(angle) / (2.0 * math.pi)
    weights = weights * (1.0 - np.cos(angle))
    mapped.setflags(write=False)
    weights.setflags(write=False)
    return mapped, weights


@lru_cache(maxsize=None)
def _level_quadrature(n: int) -> tuple[float, float]:
    """(s_n, d_n) by sine-mapped Gauss-Legendre panels split at the roots.

    The outer edges sit at |xi| = sqrt(2n+1) + 8, beyond which h_n^2 < 1e-25.
    """
    mapped, weights = _sine_mapped_panel()
    edge = _truncation_edge(n)
    edges = np.array([-edge, *hermite(n).roots, edge])
    widths = (edges[1:] - edges[:-1])[:, None]
    p = hermite_function(n, edges[:-1, None] + widths * mapped) ** 2  # row k: panel k
    w, p_log_p, p_sq = widths * weights, p * np.log(p), p * p
    norm = entropy = diseq = 0.0
    for k in range(n + 1):  # 1-D dots in panel order, as a 2-D product may reorder
        norm += float(w[k] @ p[k])
        entropy -= float(w[k] @ p_log_p[k])
        diseq += float(w[k] @ p_sq[k])
    if abs(norm - 1.0) > 1e-6:
        raise NormalizationError(
            f"density norm {norm!r} deviates from 1 beyond 1e-6 (n={n})")
    return entropy, diseq


def _measures_quadrature(snapshot: QuantumSnapshot) -> MeasureSet:
    return _scaled(snapshot, *_level_quadrature(snapshot.n))


# ---------------------------------------------------------------------------
# closed-form path
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _diseq_reduced_exact(n: int) -> Fraction:
    """Exact rational value of D * rho * sqrt(hbar) * sqrt(2 pi).

    With the integer coefficients c_k of H_n^4 (two squarings of the
    Hermite coefficients) and the Gaussian moments
    integral x^{2j} e^{-2x^2} dx = (2j-1)!! sqrt(pi) / (4^j sqrt(2)),

        D rho sqrt(hbar) = (1/sqrt(2 pi)) sum_j
            (2j-1)!! 4^{2n-j} c_{2j} / (4^{2n} (2^n n!)^2).
    """
    poly = hermite(n).coefficients
    for _ in range(2):  # H_n -> H_n^2 -> H_n^4
        square = [0] * (2 * len(poly) - 1)
        for i, a in enumerate(poly):
            for k, b in enumerate(poly):
                square[i + k] += a * b
        poly = square
    total, odd = 0, 1  # odd = (2j - 1)!!
    for j in range(2 * n + 1):
        total += odd * poly[2 * j] * 4 ** (2 * n - j)
        odd *= 2 * j + 1
    return Fraction(total, 4 ** (2 * n) * (2 ** n * math.factorial(n)) ** 2)


def _printed_isum_coefficient(n: int) -> Fraction:
    """The printed i-sum's sum_i C(n, i) (-2)^i / i as -2 sum_{odd k <= n} 1/k,
    from sum_i C(n, i) x^i / i = sum_{k=1}^n ((1 + x)^k - 1) / k at x = -2."""
    return sum((Fraction(-2, k) for k in range(1, n + 1, 2)), Fraction(0))


@lru_cache(maxsize=None)
def _level_closed_form(n: int) -> tuple[float, float]:
    """(s_n, d_n) from the printed entropy and the exact disequilibrium."""
    if n > _MAX_CLOSED_FORM_N:
        raise EnvelopeError(
            f"closed-form measures support n <= {_MAX_CLOSED_FORM_N}, got n={n}")
    roots = hermite(n).roots
    entropy = (n * EULER_GAMMA + n + 0.5
               + math.log(math.sqrt(math.pi) * math.factorial(n) * 2.0 ** n))
    coef = float(_printed_isum_coefficient(n))
    # the roots are exactly antisymmetric, so +-x share one term, keyed by x^2
    terms = {}
    for x in roots[n // 2:]:
        f11, f22 = _hyp_pair(*(-x * x).as_integer_ratio())
        terms[x * x] = coef * f11 - 2.0 * f22 * x * x
    for x in roots:
        entropy += terms[x * x]
    return entropy, float(_diseq_reduced_exact(n)) / math.sqrt(2.0 * math.pi)


def _measures_closed_form(snapshot: QuantumSnapshot) -> MeasureSet:
    return _scaled(snapshot, *_level_closed_form(snapshot.n))


def measures(snapshot: QuantumSnapshot, method: str = "quadrature") -> MeasureSet:
    """(S, H, D, C) of one snapshot by `method`, "quadrature" or "closed_form".

    Quadrature is the ground truth.  The closed-form disequilibrium is
    exact for n <= _MAX_CLOSED_FORM_N; the closed-form entropy, evaluated
    as printed, matches quadrature only for n <= 1 (see the module
    docstring).
    """
    if method == "quadrature":
        return _measures_quadrature(snapshot)
    if method == "closed_form":
        return _measures_closed_form(snapshot)
    raise DomainError(f"method must be 'quadrature' or 'closed_form', got {method!r}")
