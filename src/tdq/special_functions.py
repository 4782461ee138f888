"""Real-valued special functions and quadrature.

Everything here is self-contained (series, continued fractions,
recurrences, closed forms) so that accuracy is set by explicit term
budgets instead of opaque library internals, and everything is plain
binary64.  J and Y of real order come from one kernel, `_bessel_jy`
(Steed's continued fractions with Temme's series for Y at small argument),
which never divides by sin(nu pi), so integer and near-integer orders
take the path of any other order.  The kernel `_bessel_modulus_sq` alone
chooses how M^2 = J^2 + Y^2 and M M' = J J' + Y Y' are computed, from
three branches: `_bessel_jy` below argument 2 or below the order, Steed's
CF2 at the order alone (`_steed_cf2`, the loop `_bessel_jy` runs too)
from max(2, order) up to 20, and the asymptotic series from 20 up.
Kernels check nothing; `_checked` runs one between the envelope and
finiteness checks, for `bessel_jy`, `bessel_modulus_sq` and `phase`.
`rho_analytic` calls the modulus kernel itself, as its rho/rho' range
check already rejects a non-finite modulus.  The two hypergeometric
instances share one term sequence, summed together in one
fixed-point integer pass under an error bound and correctly rounded
(`_hyp_pair`).  `gauss_legendre` returns a plain (nodes, weights) pair.

Supported envelopes are deliberately narrow (Bessel order <= 10,
argument <= 50; hypergeometric arguments z = -x^2 with |x| <= 6) and are
enforced with EnvelopeError where stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, EnvelopeError

EULER_GAMMA = 0.5772156649015329

_BESSEL_ORDER_MAX = 10.0
_BESSEL_X_MAX = 50.0
_HYP_X_MAX = 6.0
_SERIES_MAX_TERMS = 600
# The fixed steps of two loops, tabulated; a loop stops at the end of its
# table or of the _SERIES_MAX_TERMS budget, whichever comes first.  CF2 adds
# 2(i - 1) to a at steps i = 2, 3, ...  Its stopping test asks for a factor
# within 1e-16 of 1, finer than an ulp, so once converged it waits for a
# factor that rounds to 1 exactly.  Of 400000 random points with x in
# [2, 2.5] and order in [0, x] the slowest took 79 steps, and the count fell
# about tenfold per 10 steps past 50 with no cut-off, hence a table over
# the whole budget.
# The modulus series reads ((2k-1)/(2k), (2k-1)^2, k + 1/2) at terms
# k = 1, 2, ...; it stops on the size of a term, at order 10 and x near 20
# at term 24 of its 79.
_CF2_STEPS = tuple(2.0 * (i - 1) for i in range(2, _SERIES_MAX_TERMS))
_MODULUS_STEPS = tuple((odd / (2.0 * k), odd * odd, k + 0.5)
                       for k, odd in ((k, 2.0 * k - 1.0) for k in range(1, 80)))
# largest first-neglected-term bound accepted when the modulus series is cut
# at its smallest term
_MODULUS_TRUNCATION_TOL = 1e-15
# argument from which _bessel_modulus_sq sums the asymptotic series
_MODULUS_ASYMPTOTIC_X = 20.0
_LEGENDRE_ROUNDING = 2.0 ** -54  # half an ulp in [0.5, 1)
_HERMITE_ROUNDING = 2.0 ** -54  # half an ulp of x, relative to x, at the least
# below this argument Y comes from Temme's series, from it up from CF2; the
# modulus runs CF2 alone from max(this, order) up
_TEMME_X_MAX = 2.0
# relative stopping tolerance of the continued fractions and Temme's series
_BESSEL_EPS = 1e-16
# stands in for a zero denominator in the modified Lentz recurrences
_LENTZ_TINY = 1e-30
# Taylor coefficients of 1/Gamma(1+z) about z = 0 (DLMF 5.7.1 with the
# index shifted by one); the terms past z^21 stay below 5e-21 for |z| <= 1/2
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)


# ---------------------------------------------------------------------------
# Bessel functions of the first and second kind, real order
# ---------------------------------------------------------------------------

def _temme_gammas(mu: float) -> tuple[float, float]:
    """Temme's (gamma_1, gamma_2) for |mu| <= 1/2,

        gamma_1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu),
        gamma_2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2,

    as the odd and even halves of the 1/Gamma(1+z) Taylor series, so
    nothing cancels as mu -> 0.
    """
    mu2 = mu * mu
    gam1 = gam2 = 0.0
    for odd, even in zip(_RGAMMA_TAYLOR[-1::-2], _RGAMMA_TAYLOR[-2::-2]):
        gam1 = gam1 * mu2 - odd
        gam2 = gam2 * mu2 + even
    return gam1, gam2


def _steed_cf2(order: float, x: float) -> tuple[float, float]:
    """(p, q) with p + iq = H'/H, H = J_order + i Y_order, by Steed's CF2
    (Numerical Recipes `bessjy`) with modified Lentz in complex arithmetic,
    unchecked.  Its callers run it from x = 2 up, as it takes more terms
    as x falls.  The Wronskian J Y' - J' Y = 2/(pi x) makes
    q = 2/(pi x |H|^2) > 0.
    """
    xi = 1.0 / x
    a = 0.25 - order * order
    pq = complex(-0.5 * xi, 1.0)
    b = complex(2.0 * x, 2.0)
    c = b + 1j * a * xi / pq
    d = 1.0 / b
    pq *= c * d
    for step in _CF2_STEPS[:_SERIES_MAX_TERMS - 2]:
        a += step
        b += 2j
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        pq *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _BESSEL_EPS:
            break
    else:
        raise ConvergenceError(f"Bessel CF2 did not converge at order {order!r}, x={x!r}")
    return pq.real, pq.imag


def _bessel_jy(nu: float, x: float) -> tuple[float, float, float, float]:
    """(J_nu(x), Y_nu(x), J_nu'(x), Y_nu'(x)) for nu >= 0 and x > 0.

    Numerical Recipes `bessjy` in binary64 (Temme, J. Comput. Phys. 19,
    324 (1975)).  CF1 gives J_nu'/J_nu, and an unnormalized J recurs down
    to order mu = nu - nl, with |mu| <= 1/2 below x = 2.  There Temme's
    series gives Y_mu and Y_{mu+1}; from x = 2 up, Steed's CF2 gives
    p + iq = (J_mu' + i Y_mu') / (J_mu + i Y_mu).  The Wronskian
    J Y' - J' Y = 2/(pi x) then fixes the scale of J, and Y recurs up to
    order nu, the stable direction.
    """
    nl = int(nu + 0.5) if x < _TEMME_X_MAX else max(0, int(nu - x + 1.5))
    mu = nu - nl
    xi = 1.0 / x
    xi2 = 2.0 * xi
    # CF1 by modified Lentz; sign follows the sign of J_nu against J_mu
    sign = 1.0
    h = max(nu * xi, _LENTZ_TINY)
    b, c, d = xi2 * nu, h, 0.0
    for _ in range(_SERIES_MAX_TERMS):
        b += xi2
        d = b - d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b - 1.0 / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        h *= delta
        if d < 0.0:
            sign = -sign
        if abs(delta - 1.0) < _BESSEL_EPS:
            break
    else:
        raise ConvergenceError(f"Bessel CF1 did not converge for nu={nu}, x={x}")
    # J_{l-1} = (l/x) J_l + J_l',  J_{l-1}' = ((l-1)/x) J_{l-1} - J_l
    j_mu, jp_mu = sign, sign * h
    fact = nu * xi
    for _ in range(nl):
        j_prev = fact * j_mu + jp_mu
        fact -= xi
        jp_mu = fact * j_prev - j_mu
        j_mu = j_prev
    f = jp_mu / j_mu
    if x < _TEMME_X_MAX:
        half = 0.5 * x
        pimu = math.pi * mu
        d = -math.log(half)
        e = mu * d
        gam1, gam2 = _temme_gammas(mu)
        ff = 2.0 / math.pi * (pimu / math.sin(pimu) if mu else 1.0) * (
            gam1 * math.cosh(e) + gam2 * (math.sinh(e) / e if e else 1.0) * d)
        p = math.exp(e) / ((gam2 - mu * gam1) * math.pi)
        q = math.exp(-e) / ((gam2 + mu * gam1) * math.pi)
        r = 2.0 * math.sin(0.5 * pimu) ** 2 / mu if mu else 0.0
        c, d = 1.0, -half * half
        total, total1 = ff + r * q, p
        for i in range(1, _SERIES_MAX_TERMS):
            ff = (i * ff + p + q) / (i * i - mu * mu)
            c *= d / i
            p /= i - mu
            q /= i + mu
            delta = c * (ff + r * q)
            total += delta
            total1 += c * p - i * delta
            if abs(delta) < (1.0 + abs(total)) * _BESSEL_EPS:
                break
        else:
            raise ConvergenceError(f"Temme series did not converge for nu={nu}, x={x}")
        y_mu, y_next = -total, -total1 * xi2
        w = mu * xi * y_mu - y_next - f * y_mu
        # w is 0 where Y_mu cancels away (|mu| near 1/2 at tiny x): J is then
        # NaN, which the checked entries reject
        j_norm = xi2 / math.pi / w if w else math.nan
    else:
        p, q = _steed_cf2(mu, x)
        # J' = p J - q Y and Y' = p Y + q J, so the Wronskian is J^2 ((p - f) g + q)
        # with g = Y/J
        g = (p - f) / q
        j_norm = math.copysign(math.sqrt(xi2 / math.pi / ((p - f) * g + q)), j_mu)
        y_mu = j_norm * g
        y_next = mu * xi * y_mu - (p * y_mu + q * j_norm)
    scale = j_norm / j_mu
    y, y_next_order = y_mu, y_next
    for i in range(1, nl + 1):
        y, y_next_order = y_next_order, (mu + i) * xi2 * y_next_order - y
    return sign * scale, y, sign * h * scale, nu * xi * y - y_next_order


def _bessel_modulus_sq(nu: float, x: float) -> tuple[float, float]:
    """(M^2, M M') = (J_nu^2 + Y_nu^2, J_nu J_nu' + Y_nu Y_nu') at x, unchecked.

    Three branches, chosen by x and nu:

    - x < 2 or x < nu: one run of the kernel `_bessel_jy`, 5 to 17 us.
    - max(2, nu) <= x < 20: Steed's CF2 at order nu alone gives p + iq =
      H'/H with H = J + iY, and the Wronskian gives |H|^2 q = 2/(pi x), so
      M^2 = 2/(pi x q) and M M' = Re(conj(H) H') = p M^2; no CF1 and no
      recurrence.  Below the order q is tiny and CF2 loses it (3e-6 at
      nu = 9.5, x = 2), hence the kernel there.  Against 40-digit mpmath
      on 18000 random points of nu in [0.5, 10], clustered at x = max(2, nu),
      M^2 was within 3.3e-15 relative and M M' within 2.0e-15 of
      |M M'| + M^2, where the kernel gave 3.8e-15 and 2.2e-15.  A call
      takes 0.9 to 13.7 us against the kernel's 4 to 17 us (the most at
      x = 2; best of 7 runs of 2000 calls, 2-vCPU Xeon, Python 3.11).
    - x >= 20: the non-oscillatory asymptotic series (DLMF 10.18.17) in
      binary64,

        M^2 = (2/(pi x)) sum_k t_k,   t_0 = 1,
        t_k = t_{k-1} (2k-1)/(2k) (mu - (2k-1)^2) / (2x)^2,   mu = 4 nu^2,

    and differentiates it term by term, M M' = (2/(pi x^2)) sum (-1/2-k) t_k.
    The sum stops once a term falls below 1e-17 of it (at once for
    half-integer orders, where the series terminates).  If the terms start
    to grow first, the series is cut at its smallest term, whose successor
    bounds the error.  That is accepted only while the bound is below 1e-15
    of the sum (the case for some orders above 7 at x near 20); otherwise x
    is too small for the order and ConvergenceError is raised, so precision
    is never lost silently.  For order <= 10 and x >= 20 both results are
    accurate to about 1e-15 relative.  The fixed factors (2k-1)/(2k),
    (2k-1)^2 and k + 1/2 are read from `_MODULUS_STEPS`; a call takes
    0.5 us at order 1.5 and 1.3 to 2.8 us at order 8 (the most at x = 20).
    """
    if x < _MODULUS_ASYMPTOTIC_X:
        if x < _TEMME_X_MAX or x < nu:
            j, y, jp, yp = _bessel_jy(nu, x)
            return j * j + y * y, j * jp + y * yp
        p, q = _steed_cf2(nu, x)
        m_sq = 2.0 / (math.pi * x * q)
        return m_sq, p * m_sq
    mu = 4.0 * nu * nu
    inv_4x2 = 0.25 / (x * x)
    term = total = 1.0
    half_slope = -0.5
    for ratio, odd_sq, k_half in _MODULUS_STEPS[:_SERIES_MAX_TERMS - 1]:
        nxt = term * ratio * (mu - odd_sq) * inv_4x2
        if abs(nxt) > abs(term):
            if abs(nxt) < _MODULUS_TRUNCATION_TOL * abs(total):
                break
            raise ConvergenceError(
                f"Bessel modulus asymptotic series diverges before converging "
                f"for nu={nu}, x={x}")
        term = nxt
        total += term
        half_slope -= k_half * term
        if abs(term) < 1e-17 * abs(total):
            break
    else:
        raise ConvergenceError(
            f"Bessel modulus asymptotic series did not converge for nu={nu}, x={x}")
    scale = 2.0 / (math.pi * x)
    return scale * total, scale * half_slope / x


def _debye_phase(nu: float, x: float) -> float:
    """Debye estimate of the continuous arg(J_nu(x) + i Y_nu(x)), which
    rises from -pi/2 at x -> 0: sqrt(x^2 - nu^2) - nu arccos(nu/x) - pi/4
    for x > nu and -pi/2 below.  For order 0.5 to 10 and x <= 50 it stays
    within 0.53 of the phase."""
    if x > nu:
        return math.sqrt(x * x - nu * nu) - nu * math.acos(nu / x) - 0.25 * math.pi
    return -0.5 * math.pi


def _check_bessel_envelope(order: float, x: float, caller: str = "",
                           sigma0: float = 0.0, t: float = 0.0) -> None:
    """EnvelopeError unless 0 <= order <= 10 and 0 < x <= 50; with a caller,
    the message is led by "<caller> at sigma0=<sigma0>, t=<t>: "."""
    if not (0.0 <= order <= _BESSEL_ORDER_MAX and 0.0 < x <= _BESSEL_X_MAX):
        where = f"{caller} at sigma0={sigma0!r}, t={t!r}: " if caller else ""
        raise EnvelopeError(
            f"{where}Bessel order {order!r} and argument {x!r} outside the supported "
            f"envelope [0, {_BESSEL_ORDER_MAX}] x (0, {_BESSEL_X_MAX}]")


def _checked(kernel, order: float, x: float, caller: str = "", sigma0: float = 0.0,
             t: float = 0.0) -> tuple[float, ...]:
    """One run of a Bessel kernel between the envelope check and a check that
    every result is finite (tiny x overflows Y or loses J); EnvelopeError
    names the order and x, led by a caller as in `_check_bessel_envelope`."""
    _check_bessel_envelope(order, x, caller, sigma0, t)
    results = kernel(order, x)
    if not all(map(math.isfinite, results)):
        where = f"{caller} at sigma0={sigma0!r}, t={t!r}: " if caller else ""
        raise EnvelopeError(f"{where}Bessel order {order!r} and argument {x!r} give the "
                            f"non-finite results {results!r}")
    return results


def bessel_jy(order: float, x: float) -> tuple[float, float, float, float]:
    """(J, Y, J', Y') of order `order` at x, 0 <= order <= 10, 0 < x <= 50,
    from one checked run of the kernel `_bessel_jy`.

    J loses digits, with no error, at small x for orders whose fractional
    part is >= 1/2: against 60-digit mpmath it is 4.3e-7 off at order 3.7
    and x = 1e-15, 1.8e-10 at x = 1e-10, and 3.3e-13 at orders 0.5 and 2.5
    and x = 1e-20.
    """
    return _checked(_bessel_jy, order, x)


def bessel_modulus_sq(nu: float, x: float) -> tuple[float, float]:
    """(M^2, M M') of order nu at x, 0 <= nu <= 10, 0 < x <= 50, from one
    checked run of `_bessel_modulus_sq`; the slope of M^2 is 2 M M'."""
    return _checked(_bessel_modulus_sq, nu, x)


# Only `bench/tracing.py` refers to these two, wrapping them by name; no
# package code calls them.
_bessel_j_any = lambda nu, x: _bessel_jy(nu, x)[0]  # J_nu(x)
_bessel_y_any = lambda nu, x: _bessel_jy(nu, x)[1]  # Y_nu(x)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteTable:
    """Physicists' Hermite polynomial H_n: exact coefficients plus real roots.

    coefficients[k] multiplies x^k; roots are the n real zeros, ascending
    and exactly symmetric about 0.  Floating-point values come from
    `hermite_function`.
    """

    coefficients: tuple[int, ...]
    roots: tuple[float, ...]


# the largest n that an int64 column holds, so the largest that a table prints
_QUANTUM_NUMBER_MAX = 2**63 - 1


def _check_integer_level(n: int) -> None:
    """DomainError naming n unless n is an int or numpy integer >= 0."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"quantum number must be an integer >= 0, got n={n!r}")


def _check_quantum_number(n: int) -> None:
    """_check_integer_level, and EnvelopeError naming n above
    _QUANTUM_NUMBER_MAX."""
    _check_integer_level(n)
    if n > _QUANTUM_NUMBER_MAX:
        raise EnvelopeError(f"quantum numbers support n <= {_QUANTUM_NUMBER_MAX}, got n={n}")


# The seed e^{-xi^2/2} is subnormal beyond |xi| = 37.6 and 0 beyond 38.6,
# while h_n reaches a few units past sqrt(2n + 1).  Up to this n the values
# lost there are below 2e-16 of max |h_n| (against a 50-digit recurrence),
# and the norm is 1 to 1e-15; by n = 700 it is off by 5e-10.
_HERMITE_N_MAX = 620


def _check_hermite_bound(n: int) -> None:
    """EnvelopeError naming n above _HERMITE_N_MAX."""
    if n > _HERMITE_N_MAX:
        raise EnvelopeError(f"Hermite functions support n <= {_HERMITE_N_MAX}, got n={n}")


def _check_hermite_order(n: int) -> None:
    # the Hermite bound is the tighter one, so the int64 bound is never reached
    _check_integer_level(n)
    _check_hermite_bound(n)


def _hermite_and_prev(n: int, xi: float | np.ndarray) -> tuple:
    """(h_n(xi), h_{n-1}(xi)) from one pass of `hermite_function`'s
    recurrence, unchecked."""
    h_prev, h = 0.0, math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    for k in range(n):
        h_prev, h = h, (math.sqrt(2.0 / (k + 1)) * xi * h
                        - math.sqrt(k / (k + 1.0)) * h_prev)
    return h, h_prev


def hermite_function(n: int, xi: float | np.ndarray) -> float | np.ndarray:
    """Orthonormal Hermite functions h_n(xi) by the stable recurrence

    h_{-1} = 0,   h_0 = pi^{-1/4} e^{-xi^2/2},
    h_{k+1} = sqrt(2/(k+1)) xi h_k - sqrt(k/(k+1)) h_{k-1},

    so h_n = H_n e^{-xi^2/2} / sqrt(2^n n! sqrt(pi)).  EnvelopeError names
    n above _HERMITE_N_MAX, where h_n's outer lobes underflow.
    """
    _check_hermite_order(n)
    return _hermite_and_prev(n, xi)[0]


def _hermite_coefficients(n: int) -> tuple[int, ...]:
    # H_n = sum_m (-1)^m n! / (m! (n - 2m)!) (2x)^(n - 2m): from c_n = 2^n,
    # c_{k-2} = -c_k k (k - 1) / (4(m + 1)) at k = n - 2m, an exact division
    coeffs = [0] * (n + 1)
    coeffs[n] = c = 2**n
    for m, k in enumerate(range(n, 1, -2)):
        coeffs[k - 2] = c = -c * k * (k - 1) // (4 * (m + 1))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def hermite(n: int) -> HermiteTable:
    """HermiteTable for H_n, n >= 0, its n bound checked before the
    coefficients are built; no LAPACK routine is called.

    The n//2 positive roots start from sqrt(2n+1) cos phi, where
    phi - sin phi cos phi = c = pi (4k-1)/(4n+2) takes three Newton steps
    from (1.5 c)^(1/3), and take Halley steps x -= d/(1 - (x^2-2n-1) d^2/2):
    d = h_n/h_n' with h_n' = sqrt(2n) h_{n-1} - x h_n from one recurrence
    pass, and h_n'' = (x^2-2n-1) h_n.  As h_n'' = 0 at a root, a step
    leaves an error near (2n+1-x^2) |d|^3/6; the steps stop once that is
    below _HERMITE_ROUNDING x, after two passes for every n <= 620.
    Mirrored, with +0.0 at the centre of odd n, the roots are within
    0.86 ulp of 40-digit mpmath for n <= 14 (mean 0.25) and 2.7 ulp on
    sampled roots up to n = 620.
    """
    _check_hermite_order(n)
    coeffs = _hermite_coefficients(n)
    guesses = []
    for k in range(1, n // 2 + 1):
        c = math.pi * (4 * k - 1) / (4 * n + 2)
        phi = (1.5 * c) ** (1.0 / 3.0)
        for _ in range(3):
            phi -= (phi - math.sin(phi) * math.cos(phi) - c) / (2.0 * math.sin(phi) ** 2)
        guesses.append(math.sqrt(2 * n + 1) * math.cos(phi))
    x = np.array(guesses)
    for _ in range(10):
        h, h_prev = _hermite_and_prev(n, x)
        d = h / (math.sqrt(2.0 * n) * h_prev - x * h)
        x -= d / (1.0 - 0.5 * (x * x - (2 * n + 1)) * d * d)
        if np.max((2 * n + 1 - x * x) * np.abs(d) * d * d / (6.0 * x),
                  initial=0.0) <= _HERMITE_ROUNDING:
            break
    else:
        raise ConvergenceError(f"Hermite roots did not converge for n={n}")
    roots = (-x).tolist() + [0.0] * (n % 2) + x[::-1].tolist()
    return HermiteTable(coeffs, tuple(roots))


# ---------------------------------------------------------------------------
# The two fixed-parameter hypergeometric instances
# ---------------------------------------------------------------------------

# 1F1(1; 1/2; z) and 2F2(1, 1; 3/2, 2; z) are summed in fixed point with
# the terms scaled by 2^bits: 160 bits first, doubled until the error bound
# decides the rounding
_HYP_START_BITS = 160
# once the term ratio is at most 1/2, the sums stop at the first scaled term
# of magnitude at most 2^70, which leaves a bound near 2^(78 - bits)
_HYP_TAIL_BITS = 70
_HYP_MAX_TERMS = 400
# (2m + 1, m + 1) for the terms m = 1, 2, ... of the budget: the term
# ratio's divisor, and 2F2's divisor, which is also the count of terms summed
_HYP_STEPS = tuple((2 * m + 1, m + 1) for m in range(1, _HYP_MAX_TERMS))


def _hyp_pair(p: int, q: int) -> tuple[float, float]:
    """(1F1(1; 1/2; z), 2F2(1, 1; 3/2, 2; z)) at the exact z = p/q, both
    correctly rounded.  q must be a power of two, as in the ratio of a
    binary64 (`float.as_integer_ratio`) or of its exact square.

    Both are sums over one sequence, c_0 = 1 and c_m = c_{m-1} 2z/(2m+1):
    1F1 = sum (2m+1) c_m and 2F2 = sum c_m/(m+1) (Dawson's 1F1(1; 3/2; z)
    is sum c_m).  c_m 2^bits is carried as an integer C_m, one floor
    division per term, so with r_m = |2z|/(2m+1) its error obeys
    e_m <= r_m e_{m-1} + 1.  The r_m fall with m, so every product of
    consecutive r_m is at most P, the product of those above 1 (the
    largest |c_m|), and e_m <= m P.  Summing M + 1 terms therefore costs
    each sum at most (M+1)^2 (M P + 1), the 2F2 term's own floor included.
    The sums stop once r_{M+1} <= 1/2 and |C_M| <= 2^70; then the 1F1 tail
    2z sum_{j>=M} c_j and the 2F2 tail are at most (2|2z| + 1)(|C_M| + M P)
    scaled.  If the sums plus and minus the whole bound do not round to the
    same doubles, the pass is repeated at twice the bits; int/int division
    is correctly rounded, so the test is exact.  ConvergenceError names z
    if 400 terms do not reach the tail; z = -36 needs 146 at 160 bits and
    326 at 640.
    """
    shift = q.bit_length() - 1
    two_p = 2 * p
    abs_2z = abs(two_p / q)
    # r_{m+1} <= 1/2 iff 2m + 3 >= ceil(4|p|/q)
    tail_odd = -(-4 * abs(p) // q) - 2
    tail_term = 1 << _HYP_TAIL_BITS
    bits = _HYP_START_BITS
    peak = 1.0
    for odd, _ in _HYP_STEPS:
        if odd >= abs_2z:
            break
        peak *= abs_2z / odd
    while True:
        term = one = sum11 = sum22 = 1 << bits
        for odd, terms in _HYP_STEPS:
            term = (term * two_p >> shift) // odd
            sum11 += odd * term
            sum22 += term // terms
            if odd >= tail_odd and -tail_term <= term <= tail_term:
                break
        else:
            raise ConvergenceError(f"hypergeometric series did not converge in "
                                   f"{_HYP_MAX_TERMS} terms for z={p / q!r}")
        err = (terms - 1) * peak
        # doubled for the rounding of the float bookkeeping
        bound = int(2.0 * (terms * terms * (err + 1.0)
                           + (2.0 * abs_2z + 1.0) * (tail_term + err))) + 2
        f11, f22 = (sum11 - bound) / one, (sum22 - bound) / one
        if f11 == (sum11 + bound) / one and f22 == (sum22 + bound) / one:
            return f11, f22
        bits *= 2


def _check_hyp_argument(z: float, name: str) -> None:
    """DomainError unless z <= 0 (NaN included), EnvelopeError below -36."""
    if not z <= 0.0:
        raise DomainError(f"{name} requires z <= 0, got z={z!r}")
    if z < -(_HYP_X_MAX ** 2):
        raise EnvelopeError(f"{name} argument z={z!r} below -{_HYP_X_MAX**2}")


def hyp1f1_special(z: float) -> float:
    """1F1(1; 1/2; z) for -36 <= z <= 0, correctly rounded (`_hyp_pair`)."""
    _check_hyp_argument(z, "hyp1f1_special")
    return _hyp_pair(*z.as_integer_ratio())[0]


def hyp2f2_special(z: float) -> float:
    """2F2(1, 1; 3/2, 2; z) for -36 <= z <= 0, correctly rounded (`_hyp_pair`)."""
    _check_hyp_argument(z, "hyp2f2_special")
    return _hyp_pair(*z.as_integer_ratio())[1]


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

def _legendre_and_prev(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by Bonnet's recurrence, in place in three buffers;
    each step is ((2k-1) x P_{k-1} - (k-1) P_{k-2}) / k in that operation order."""
    p_prev = np.ones_like(x)
    p = x.copy()
    tmp = np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(np.multiply(x, float(2 * k - 1), tmp), p, tmp)
        np.subtract(tmp, np.multiply(p_prev, float(k - 1), p_prev), p_prev)
        p_prev, p = p, np.divide(p_prev, float(k), p_prev)
    return p, p_prev


@lru_cache(maxsize=64)
def _legendre_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point rule on [-1, 1].

    Newton on the n - n//2 nodes in [0, 1) from Tricomi's estimate, each
    step also removing its second-order term (P''/P' from Legendre's
    equation), until the quadratic bound |x| dx^2/(1 - x^2) is below
    rounding: two passes for every n <= 2000.  One more pass gives the
    weights; the rest is the mirror image, with 0.0 at the centre of odd n.
    """
    k = np.arange(1, n - n // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - 1.0 / (8 * n ** 2) + 1.0 / (8 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    for _ in range(10):
        p, p_prev = _legendre_and_prev(n, x)
        dx = p / (n * (x * p - p_prev) / (x * x - 1.0))
        x -= dx + (x - 0.5 * n * (n + 1) * dx) * dx * dx / (1.0 - x * x)
        if np.max(np.abs(x) * dx * dx / (1.0 - x * x)) <= _LEGENDRE_ROUNDING:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes did not converge for n={n}")
    if n % 2:
        x[-1] = 0.0
    p, p_prev = _legendre_and_prev(n, x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate((-x[:n // 2], x[::-1]))
    w = np.concatenate((w[:n // 2], w[::-1]))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n_points: int, a: float | np.ndarray,
                   b: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the Gauss-Legendre rule with n_points nodes mapped
    to [a, b], nodes ascending; integrate with float(np.dot(weights, values)).
    Array endpoints give one such row per (a, b), with the scalar call's bits.

    Exact for polynomials of degree <= 2 n_points - 1.
    """
    if not (isinstance(n_points, (int, np.integer)) and 2 <= n_points <= 2000):
        raise DomainError(f"gauss_legendre supports integer 2 <= n_points <= 2000, "
                          f"got n_points={n_points!r}")
    if not np.all(np.isfinite(a) & np.isfinite(b) & np.less(a, b)):
        raise DomainError(f"gauss_legendre requires finite a < b, got a={a!r}, b={b!r}")
    x, w = _legendre_nodes_weights(n_points)
    a, b = np.expand_dims(a, -1), np.expand_dims(b, -1)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w
