"""Real-valued special functions and quadrature.

Everything here is self-contained (series, recurrences, closed forms) so
that accuracy is set by explicit term budgets instead of opaque library
internals.  Alternating series whose terms grow like e^{x^2} (Bessel,
Dawson, 2F2) are summed in double-double arithmetic; see `_dd`.  The
Bessel modulus J^2 + Y^2 and its derivative also have a non-oscillatory
asymptotic series (`bessel_modulus_sq`), summed in binary64, which
replaces the ascending J/Y series from argument 20 up where only the
modulus is needed.

Supported envelopes are deliberately narrow (Bessel order <= 10,
argument <= 50; hypergeometric arguments z = -x^2 with |x| <= 6) and are
enforced with EnvelopeError where stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._dd import (
    DD_EULER_GAMMA,
    DD_PI,
    dd_add,
    dd_div,
    dd_div_f,
    dd_mul,
    dd_mul_f,
    dd_npow,
    two_prod,
    two_sum,
)
from .errors import ConvergenceError, DomainError, EnvelopeError

EULER_GAMMA = 0.5772156649015329

_BESSEL_ORDER_MAX = 10.0
_BESSEL_X_MAX = 50.0
_HYP_X_MAX = 6.0
_DAWSON_CROSSOVER = 5.25  # power series below, asymptotic series above
_SERIES_MAX_TERMS = 600
# largest first-neglected-term bound accepted when the modulus series is cut
# at its smallest term
_MODULUS_TRUNCATION_TOL = 1e-15
# within this distance of an integer order, Y comes from the first-order
# expansion about that integer instead of the reflection formula, whose
# cancellation grows like 1/distance
_NEAR_INTEGER_ORDER = 1e-6


# ---------------------------------------------------------------------------
# Bessel functions of the first and second kind, real order
# ---------------------------------------------------------------------------

def _j_series_dd(nu: float, x: float) -> tuple[float, float]:
    """Ascending series for J_nu(x) as a dd value.

    J_nu(x) = (x/2)^nu / Gamma(nu+1) * sum_m u_m,
    u_0 = 1,  u_{m+1} = -u_m (x/2)^2 / ((m+1)(m+1+nu)).

    Valid for any real nu that is not a negative integer.  The common
    prefactor is applied in binary64 (a pure relative factor); the sum,
    whose terms reach e^x before cancelling, is carried in dd.
    """
    half = 0.5 * x
    q = two_prod(half, half)
    prefactor = math.pow(half, nu) / math.gamma(nu + 1.0)
    u = (1.0, 0.0)
    s = (1.0, 0.0)
    for m in range(_SERIES_MAX_TERMS):
        u = dd_div(dd_mul_f(dd_mul(u, q), -1.0),
                   dd_mul_f(two_sum(float(m + 1), nu), float(m + 1)))
        s = dd_add(s, u)
        if abs(u[0]) < 1e-34 * abs(s[0]) + 1e-305:
            return dd_mul_f(s, prefactor)
    raise ConvergenceError(f"Bessel J series did not converge for nu={nu}, x={x}")


def _bessel_j_any(nu: float, x: float) -> float:
    """J_nu(x) for any real order, including negative ones."""
    if nu < 0.0 and nu == int(nu):
        # J_{-n} = (-1)^n J_n for integer n
        n = int(-nu)
        value = _j_series_dd(float(n), x)[0]
        return value if n % 2 == 0 else -value
    return _j_series_dd(nu, x)[0]


def _bessel_y_integer_dd(n: int, x: float,
                         j_n: tuple[float, float]) -> tuple[float, float]:
    """Y_n(x) for integer n >= 0 by the logarithmic series, given J_n(x) in dd.

    Y_n(x) = (2/pi) ln(x/2) J_n(x)
             - (1/pi)(x/2)^{-n} sum_{k=0}^{n-1} (n-k-1)!/k! (x^2/4)^k
             - (1/pi)(x/2)^{n}  sum_{k>=0} (psi(k+1)+psi(n+k+1))
                                           (-x^2/4)^k / (k! (n+k)!)

    with psi(m+1) = -EulerGamma + H_m.  The three pieces cancel against
    each other for large x, so every piece is assembled in dd.
    """
    half = 0.5 * x
    half_dd = (half, 0.0)
    q = two_prod(half, half)

    ln_piece = dd_mul_f(dd_div(dd_mul_f(j_n, 2.0), DD_PI),
                        math.log(half))

    finite = (0.0, 0.0)
    power = (1.0, 0.0)
    for k in range(n):
        term = dd_div_f(dd_mul_f(power, float(math.factorial(n - k - 1))),
                        float(math.factorial(k)))
        finite = dd_add(finite, term)
        power = dd_mul(power, q)
    finite_piece = dd_mul_f(dd_div(dd_div(finite, dd_npow(half_dd, n)), DD_PI), -1.0)

    # harmonic numbers H_k and H_{n+k}, kept in dd alongside the term
    h_k = (0.0, 0.0)
    h_nk = (0.0, 0.0)
    for j in range(1, n + 1):
        h_nk = dd_add(h_nk, dd_div_f((1.0, 0.0), float(j)))
    minus_two_gamma = dd_mul_f(DD_EULER_GAMMA, -2.0)
    term = dd_div_f((1.0, 0.0), float(math.factorial(n)))
    acc = (0.0, 0.0)
    for k in range(_SERIES_MAX_TERMS):
        contribution = dd_mul(term, dd_add(dd_add(h_k, h_nk), minus_two_gamma))
        acc = dd_add(acc, contribution)
        if k > 3 and abs(contribution[0]) < 1e-34 * abs(acc[0]) + 1e-305:
            break
        term = dd_div(dd_mul_f(dd_mul(term, q), -1.0),
                      dd_mul_f(two_sum(float(k + 1), float(n)), float(k + 1)))
        h_k = dd_add(h_k, dd_div_f((1.0, 0.0), float(k + 1)))
        h_nk = dd_add(h_nk, dd_div_f((1.0, 0.0), float(n + k + 1)))
    else:
        raise ConvergenceError(f"Bessel Y series did not converge for n={n}, x={x}")
    psi_piece = dd_mul_f(dd_div(dd_mul(dd_npow(half_dd, n), acc), DD_PI), -1.0)

    return dd_add(dd_add(ln_piece, finite_piece), psi_piece)


def _bessel_y_near_integer(mu: float, x: float, j_mu: float) -> float:
    """Y_mu(x) for mu >= 0 within _NEAR_INTEGER_ORDER of an integer n.

    Y_mu = Y_n + (mu - n) dY/dnu|_{nu=n}, with (DLMF 10.15.2-3)

        dY/dnu|_{nu=n} = -(pi/2) J_n
                         + (n!/2) (x/2)^{-n} sum_{k<n} (x/2)^k Y_k / (k! (n-k)).

    mu - n is exact, so nothing cancels; the neglected second-order term is
    below ~1e-10 relative over the Bessel envelope.  j_mu is J_mu(x), which
    stands in for J_n in the correction.
    """
    n = round(mu)
    half = 0.5 * x
    y_n = _bessel_y_integer_dd(n, x, _j_series_dd(float(n), x))[0]
    finite = 0.0
    for k in range(n):
        y_k = _bessel_y_integer_dd(k, x, _j_series_dd(float(k), x))[0]
        finite += half ** (k - n) * y_k / (math.factorial(k) * (n - k))
    slope = -0.5 * math.pi * j_mu + 0.5 * math.factorial(n) * finite
    return y_n + (mu - n) * slope


def _bessel_jy(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), Y_nu(x)) for any real order, each ascending series summed once.

    Integer orders use the logarithmic series for Y (the reflection formula
    degenerates there); non-integer orders use
    Y_nu = (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi).  The J_nu series that
    feeds Y is the one returned, so the pair costs what Y alone costs.
    Orders within _NEAR_INTEGER_ORDER of an integer, where the reflection
    formula cancels, expand about the integer (`_bessel_y_near_integer`).
    """
    if nu == int(nu):
        n = abs(int(nu))
        j_n = _j_series_dd(float(n), x)
        y_n = _bessel_y_integer_dd(n, x, j_n)[0]
        if nu < 0.0 and n % 2 == 1:
            # C_{-n} = (-1)^n C_n for integer n
            return -j_n[0], -y_n
        return j_n[0], y_n
    j_pos = _j_series_dd(nu, x)
    mu = abs(nu)
    eps = mu - round(mu)
    if abs(eps) < _NEAR_INTEGER_ORDER:
        if nu > 0.0:
            return j_pos[0], _bessel_y_near_integer(nu, x, j_pos[0])
        # Y_{-mu} = cos(mu pi) Y_mu + sin(mu pi) J_mu, with mu pi reduced by
        # the integer part exactly
        j_mu = _j_series_dd(mu, x)[0]
        y_mu = _bessel_y_near_integer(mu, x, j_mu)
        sign = -1.0 if round(mu) % 2 else 1.0
        return j_pos[0], sign * (math.cos(math.pi * eps) * y_mu
                                 + math.sin(math.pi * eps) * j_mu)
    j_neg = _j_series_dd(-nu, x)
    if nu < 0.0:
        # Y_{-mu} = (J_mu - J_{-mu} cos(mu pi)) / sin(mu pi) with mu = -nu > 0
        num = dd_add(j_neg, dd_mul_f(j_pos, -math.cos(math.pi * mu)))
        return j_pos[0], dd_div_f(num, math.sin(math.pi * mu))[0]
    num = dd_add(dd_mul_f(j_pos, math.cos(math.pi * nu)), dd_mul_f(j_neg, -1.0))
    return j_pos[0], dd_div_f(num, math.sin(math.pi * nu))[0]


def _bessel_y_any(nu: float, x: float) -> float:
    """Y_nu(x) for any real order; see `_bessel_jy`."""
    return _bessel_jy(nu, x)[1]


def bessel_modulus_sq(nu: float, x: float) -> tuple[float, float]:
    """(M^2, dM^2/dx) for the Bessel modulus M_nu(x)^2 = J_nu^2 + Y_nu^2 at large x.

    Sums the non-oscillatory asymptotic series (DLMF 10.18.17) in binary64,

        M^2 = (2/(pi x)) sum_k t_k,   t_0 = 1,
        t_k = t_{k-1} (2k-1)/(2k) (mu - (2k-1)^2) / (2x)^2,   mu = 4 nu^2,

    and differentiates it term by term, dM^2/dx = (2/(pi x^2)) sum (-1-2k) t_k.
    The sum stops once a term falls below 1e-17 of it (at once for
    half-integer orders, where the series terminates).  If the terms start
    to grow first, the series is cut at its smallest term, whose successor
    bounds the error.  That is accepted only while the bound is below 1e-15
    of the sum (the case for some orders above 7 at x near 20); otherwise x
    is too small for the order and ConvergenceError is raised, so precision
    is never lost silently.  For order <= 10 and x >= 20 both results are
    accurate to about 1e-15 relative.
    """
    if not x > 0.0:
        raise DomainError(f"bessel_modulus_sq requires x > 0, got {x!r}")
    mu = 4.0 * nu * nu
    inv_4x2 = 0.25 / (x * x)
    term = total = 1.0
    slope = -1.0
    for k in range(1, _SERIES_MAX_TERMS):
        odd = 2.0 * k - 1.0
        nxt = term * (odd / (2.0 * k)) * (mu - odd * odd) * inv_4x2
        if abs(nxt) > abs(term):
            if abs(nxt) < _MODULUS_TRUNCATION_TOL * abs(total):
                break
            raise ConvergenceError(
                f"Bessel modulus asymptotic series diverges before converging "
                f"for nu={nu}, x={x}")
        term = nxt
        total += term
        slope -= (odd + 2.0) * term
        if abs(term) < 1e-17 * abs(total):
            break
    else:
        raise ConvergenceError(
            f"Bessel modulus asymptotic series did not converge for nu={nu}, x={x}")
    scale = 2.0 / (math.pi * x)
    return scale * total, scale * slope / x


def _check_bessel_envelope(order: float, x: float) -> None:
    if not 0.0 <= order <= _BESSEL_ORDER_MAX:
        raise EnvelopeError(
            f"Bessel order {order!r} outside supported range [0, {_BESSEL_ORDER_MAX}]")
    if not 0.0 < x <= _BESSEL_X_MAX:
        raise EnvelopeError(
            f"Bessel argument {x!r} outside supported range (0, {_BESSEL_X_MAX}]")


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x), 0 <= order <= 10, 0 < x <= 50."""
    _check_bessel_envelope(order, x)
    return _bessel_j_any(order, x)


def bessel_y(order: float, x: float) -> float:
    """Bessel function of the second kind Y_order(x), same envelope as bessel_j."""
    _check_bessel_envelope(order, x)
    return _bessel_y_any(order, x)


def bessel_j_prime(order: float, x: float) -> float:
    """dJ_order/dx via J_nu' = J_{nu-1} - (nu/x) J_nu."""
    _check_bessel_envelope(order, x)
    return _bessel_j_any(order - 1.0, x) - (order / x) * _bessel_j_any(order, x)


def bessel_y_prime(order: float, x: float) -> float:
    """dY_order/dx via Y_nu' = Y_{nu-1} - (nu/x) Y_nu."""
    _check_bessel_envelope(order, x)
    return _bessel_y_any(order - 1.0, x) - (order / x) * _bessel_y_any(order, x)


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

    n: int
    coefficients: tuple[int, ...]
    roots: tuple[float, ...]


def hermite_function(n: int, xi: float | np.ndarray) -> float | np.ndarray:
    """Orthonormal Hermite functions h_n(xi) by the stable recurrence

    h_0 = pi^{-1/4} e^{-xi^2/2},   h_1 = sqrt(2) xi h_0,
    h_{k+1} = sqrt(2/(k+1)) xi h_k - sqrt(k/(k+1)) h_{k-1},

    so h_n = H_n e^{-xi^2/2} / sqrt(2^n n! sqrt(pi)).
    """
    h_prev = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if n == 0:
        return h_prev
    h = math.sqrt(2.0) * xi * h_prev
    for k in range(1, n):
        h_prev, h = h, (math.sqrt(2.0 / (k + 1)) * xi * h
                        - math.sqrt(k / (k + 1.0)) * h_prev)
    return h


def _hermite_coefficients(n: int) -> tuple[int, ...]:
    # H_{k+1}(x) = 2x H_k(x) - 2k H_{k-1}(x), exact integer arithmetic
    if n == 0:
        return (1,)
    prev = [1]
    cur = [0, 2]
    for k in range(1, n):
        nxt = [0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


@lru_cache(maxsize=None)
def hermite(n: int) -> HermiteTable:
    """HermiteTable for H_n, n >= 0.

    Roots come from the eigenvalues of the symmetric Jacobi matrix of the
    Hermite recurrence (off-diagonal sqrt(k/2)), polished with one Newton
    step on h_n, with h_n' = sqrt(2n) h_{n-1} - xi h_n, and symmetrized
    pairwise.
    """
    if n < 0:
        raise DomainError(f"hermite requires n >= 0, got {n!r}")
    coeffs = _hermite_coefficients(n)
    if n == 0:
        return HermiteTable(0, coeffs, ())
    if n == 1:
        return HermiteTable(1, coeffs, (0.0,))
    off = np.sqrt(np.arange(1, n) / 2.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    roots = np.linalg.eigvalsh(jacobi)
    h = hermite_function(n, roots)
    dh = math.sqrt(2.0 * n) * hermite_function(n - 1, roots) - roots * h
    polished = roots - h / dh
    sym = (polished - polished[::-1]) / 2.0
    return HermiteTable(n, coeffs, tuple(sym.tolist()))


# ---------------------------------------------------------------------------
# Dawson function and the two fixed-parameter hypergeometric instances
# ---------------------------------------------------------------------------

def _dawson_dd(x: float) -> tuple[float, float]:
    ax = abs(x)
    if ax <= _DAWSON_CROSSOVER:
        # F(x) = sum_k (-1)^k 2^k x^{2k+1} / (2k+1)!!, dd throughout:
        # the largest term reaches e^{x^2} before the sum cancels to O(1/x).
        q = two_prod(x, x)
        term = (x, 0.0)
        acc = term
        for k in range(_SERIES_MAX_TERMS):
            term = dd_div_f(dd_mul_f(dd_mul(term, q), -2.0), 2.0 * k + 3.0)
            acc = dd_add(acc, term)
            if abs(term[0]) < 1e-34 * abs(acc[0]) + 1e-305:
                return acc
        raise ConvergenceError(f"Dawson series did not converge for x={x}")
    # F(x) ~ sum_k (2k-1)!! / (2^{k+1} x^{2k+1}), truncated at the smallest
    # term; the optimal-truncation error ~ e^{-x^2} is < 1e-11 past the
    # crossover, so plain binary64 suffices here.
    sign = 1.0 if x > 0 else -1.0
    inv_2x2 = 1.0 / (2.0 * ax * ax)
    term = 1.0 / (2.0 * ax)
    acc = term
    for k in range(1, int(ax * ax) + 1):
        term *= (2 * k - 1) * inv_2x2
        acc += term
        if term < 1e-18 * acc:
            break
    return (sign * acc, 0.0)


def dawson(x: float) -> float:
    """Dawson integral F(x) = exp(-x^2) * integral_0^x exp(t^2) dt."""
    return _dawson_dd(x)[0]


def hyp1f1_special(z: float) -> float:
    """1F1(1; 1/2; z) for z = -x^2, |x| <= 6.

    Evaluated through the Dawson function, 1F1(1;1/2;-x^2) = 1 - 2x F(x),
    which avoids the catastrophic cancellation of the raw alternating
    series at moderate |z|.
    """
    if z > 0.0:
        raise DomainError(f"hyp1f1_special is restricted to z <= 0, got {z!r}")
    x = math.sqrt(-z)
    if x > _HYP_X_MAX:
        raise EnvelopeError(f"hyp1f1_special argument z={z!r} below -{_HYP_X_MAX**2}")
    return dd_add((1.0, 0.0), dd_mul_f(_dawson_dd(x), -2.0 * x))[0]


def hyp2f2_special(z: float) -> float:
    """2F2(1, 1; 3/2, 2; z) for z = -x^2, |x| <= 6.

    Term recurrence t_{m+1} = t_m z (m+1) / ((m+3/2)(m+2)) accumulated in
    dd until |t_m| < 1e-18 |sum|; 500 terms of headroom cover |z| <= 36
    (127 terms are needed at z = -36).
    """
    if z > 0.0:
        raise DomainError(f"hyp2f2_special is restricted to z <= 0, got {z!r}")
    if z < -(_HYP_X_MAX ** 2):
        raise EnvelopeError(f"hyp2f2_special argument z={z!r} below -{_HYP_X_MAX**2}")
    term = (1.0, 0.0)
    acc = (1.0, 0.0)
    for m in range(500):
        term = dd_div(dd_mul_f(dd_mul_f(term, z), float(m + 1)),
                      two_prod(m + 1.5, float(m + 2)))
        acc = dd_add(acc, term)
        if abs(term[0]) < 1e-18 * abs(acc[0]):
            return acc[0]
    raise ConvergenceError(
        f"hyp2f2_special did not converge in 500 terms for z={z!r} (envelope violation)")


# ---------------------------------------------------------------------------
# Partial (incomplete) Bell polynomials
# ---------------------------------------------------------------------------

def bell_partial(m: int, l: int, a: Sequence) -> object:
    """Partial Bell polynomial B_{m,l}(a_1, ..., a_{m-l+1}).

    Uses the recurrence
        B_{m,l} = sum_{i=1}^{m-l+1} C(m-1, i-1) a_i B_{m-i,l-1},
        B_{0,0} = 1, B_{m,0} = 0 for m > 0,
    equivalent to the sum over partitions of m into l blocks.  Arithmetic
    is generic: float arguments give floats, int/Fraction arguments give
    exact results.
    """
    if not 1 <= l <= m:
        raise DomainError(f"bell_partial requires 1 <= l <= m, got m={m}, l={l}")
    if m > 60:
        # the disequilibrium sum reaches m = 4n + 4 = 52 at n = 12
        raise EnvelopeError(f"bell_partial supports m <= 60, got m={m}")
    if len(a) < m - l + 1:
        raise DomainError(
            f"bell_partial needs {m - l + 1} arguments for (m={m}, l={l}), got {len(a)}")
    zero = a[0] * 0
    table = [[zero] * (l + 1) for _ in range(m + 1)]
    table[0][0] = zero + 1
    for mm in range(1, m + 1):
        for ll in range(1, min(mm, l) + 1):
            acc = zero
            for i in range(1, mm - ll + 2):
                if i <= len(a):
                    acc = acc + math.comb(mm - 1, i - 1) * a[i - 1] * table[mm - i][ll - 1]
            table[mm][ll] = acc
    return table[m][l]


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for an n-point Gauss-Legendre rule on [a, b]."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float]

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))

    def dot(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _legendre_and_prev(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, p_prev


@lru_cache(maxsize=64)
def _legendre_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Newton iteration from the Chebyshev-like initial guess; quadratic
    # convergence gives machine precision in a handful of sweeps.
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, p_prev = _legendre_and_prev(n, x)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p, p_prev = _legendre_and_prev(n, x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # exact +/- symmetry (cos guesses arrive in descending order)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n_points: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n_points nodes mapped to [a, b].

    Exact for polynomials of degree <= 2 n_points - 1.
    """
    if not 2 <= n_points <= 2000:
        raise DomainError(f"gauss_legendre supports 2 <= n_points <= 2000, got {n_points}")
    if not a < b:
        raise DomainError(f"gauss_legendre requires a < b, got a={a!r}, b={b!r}")
    x, w = _legendre_nodes_weights(n_points)
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=0.5 * (a + b) + half * x,
                          weights=half * w,
                          domain=(float(a), float(b)))
