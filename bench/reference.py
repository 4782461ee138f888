"""Reference values from mpmath, independent of `tdq`'s own formulas.

Everything is computed in the figure units A = eps0 = c = lambdaL = hbar = 1
used by every workload, so s = sigma0, beta = (1 + s)/2, k = 1 and the
Bessel argument is x = t + 1.

    rho   = sqrt(pi/2) x^p sqrt(J_beta(x)^2 + Y_beta(x)^2),   p = (1 - s)/2
    rho'  = rho [p/x + (J J' + Y Y') / (J^2 + Y^2)]

The level constants S0(n) = -int h_n^2 ln h_n^2 and D0(n) = int h_n^4 of
the orthonormal Hermite functions come from mpmath quadrature split at the
Hermite roots; then S = S0 + ln rho, D = D0 / rho and C = e^S D.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

RHO_DPS = 40
LEVEL_DPS = 20
# Relative error floor: one unit in the last place of a binary64 value.
DIGITS_FLOOR = 2.0 ** -53

with mp.workdps(RHO_DPS):
    C_GROUND = mp.sqrt(mp.e / 2)                  # C(n=0)
    D0_GROUND = 1 / mp.sqrt(2 * mp.pi)            # D0(0)
    D0_FIRST = 3 / (4 * mp.sqrt(2 * mp.pi))       # D0(1)


def digits(value: float, ref) -> float:
    """-log10 of the relative error of `value` against `ref`, capped at one ulp."""
    rel = abs((mp.mpf(value) - ref) / ref)
    return -math.log10(max(float(rel), DIGITS_FLOOR))


def abs_digits(error) -> float:
    """-log10 of an absolute error (for entropies: the relative error of e^S)."""
    return -math.log10(max(float(abs(error)), DIGITS_FLOOR))


@functools.lru_cache(maxsize=None)
def rho(sigma0: float, t: float) -> tuple[mp.mpf, mp.mpf]:
    """(rho, rho') at 40 digits for the hyperbolic model in figure units."""
    with mp.workdps(RHO_DPS):
        s = mp.mpf(sigma0)
        beta = (1 + s) / 2
        x = mp.mpf(t) + 1
        p = (1 - s) / 2
        j, y = mp.besselj(beta, x), mp.bessely(beta, x)
        jp, yp = mp.besselj(beta, x, 1), mp.bessely(beta, x, 1)
        g = j * j + y * y
        amplitude = mp.sqrt(mp.pi / 2) * x ** p * mp.sqrt(g)
        return +amplitude, +(amplitude * (p / x + (j * jp + y * yp) / g))


def observables(sigma0: float, n: int, t: float) -> dict[str, mp.mpf]:
    """Second moments, uncertainty product and mean energy of level n."""
    r, rp = rho(sigma0, t)
    with mp.workdps(RHO_DPS):
        s = mp.mpf(sigma0)
        x = mp.mpf(t) + 1
        L = x ** s
        omega_sq = 1 - s / (x * x)
        level = n + mp.mpf(1) / 2
        cross2 = (L * r * rp) ** 2
        energy = ((1 + cross2) / (2 * L * L * r * r) + omega_sq * r * r / 2) * level
        return {"q2": r * r * level,
                "phi2": (1 + cross2) / (r * r) * level,
                "dq_dphi": mp.sqrt(1 + cross2) * level,
                "energy": energy,
                "energy_per_level": energy / level}


def hermite_function(n: int, x) -> mp.mpf:
    """Orthonormal Hermite function h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
    return (mp.hermite(n, x) * mp.exp(-x * x / 2)
            / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)))


def hermite_roots(n: int) -> list[mp.mpf]:
    """Zeros of H_n, from numpy's estimates polished by mpmath.findroot."""
    guesses = np.polynomial.hermite.hermroots([0] * n + [1]) if n else []
    return [mp.findroot(lambda x: mp.hermite(n, x), mp.mpf(float(g))) for g in guesses]


def level_constants(n: int) -> tuple[mp.mpf, mp.mpf]:
    """(S0(n), D0(n)) by quadrature split at the Hermite roots.

    h^2 ln h^2 has a log-type kink at each root; with the roots as panel
    edges tanh-sinh converges at full working precision.  Beyond
    |x| = sqrt(2n+1) + 10 the integrands are below 1e-40.
    """
    with mp.workdps(LEVEL_DPS):
        edge = mp.sqrt(2 * n + 1) + 10
        points = [-edge] + hermite_roots(n) + [edge]

        def entropy_density(x):
            p = hermite_function(n, x) ** 2
            return p * mp.log(p) if p > 0 else mp.mpf(0)

        s0 = -mp.quad(entropy_density, points)
        d0 = mp.quad(lambda x: hermite_function(n, x) ** 4, points)
        return +s0, +d0


def information(sigma0: float, t: float, s0, d0) -> dict[str, mp.mpf]:
    """S, H, D and C at (sigma0, t) for a level with constants (S0, D0)."""
    r, _ = rho(sigma0, t)
    with mp.workdps(RHO_DPS):
        entropy = s0 + mp.log(r)
        diseq = d0 / r
        return {"S": entropy, "H": mp.exp(entropy), "D": diseq,
                "C": mp.exp(entropy) * diseq}


def density(n: int, q: float, r) -> mp.mpf:
    """P(q) = h_n(q / rho)^2 / rho for an amplitude rho."""
    with mp.workdps(RHO_DPS):
        return hermite_function(n, mp.mpf(q) / r) ** 2 / r
